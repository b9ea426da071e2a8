"""``python -m benchmarks.perf run|compare ...`` (needs ``PYTHONPATH=src``)."""

import sys

from benchmarks.perf.cli import main

if __name__ == "__main__":
    sys.exit(main())
