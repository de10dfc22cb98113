"""The mutant registry stays runnable: a snippet or a named test that moved fails here,
in a fraction of a second, instead of in a whole `python tests/mutants.py` run."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def _defined_names(path) -> set[str]:
    """Module-level functions and classes, and each class's methods as "Class::method"."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_snippet_occurs_once_and_named_tests_exist(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        if name:  # a parametrized test's id is not checked, only its function
            assert name.partition("[")[0] in _defined_names(ROOT / path), test
