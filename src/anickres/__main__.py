"""`python -m anickres`: the command-line interface of anickres.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
