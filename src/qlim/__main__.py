"""`python -m qlim ...`: the same command line as the `qlim` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
