"""`python -m shardlab`: the same command line as the `shardlab` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
