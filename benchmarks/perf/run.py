"""Contract entry point: ``python3 benchmarks/perf/run.py --workload W ...``.

Runs from the root of any checkout without ``PYTHONPATH``: it puts the
checkout root and ``src`` on ``sys.path`` itself. In a directory that does
not hold the program (no ``src/repro``) it exits 2 without a result line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmarks/perf: no program to measure under {ROOT}/src", file=sys.stderr)
        sys.exit(2)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.perf.cli import main

    sys.exit(main())
