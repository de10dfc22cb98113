"""README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks read names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.split() == ["failure", "10", "0.3368"]
