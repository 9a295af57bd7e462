"""``python -m monolearn``: the command-line interface of :mod:`monolearn.harness`."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
