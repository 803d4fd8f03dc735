"""``python -m repro.cli`` entry point (the same CLI as ``python -m repro``)."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
