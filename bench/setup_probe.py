"""Time one cold set-up in a fresh interpreter and print the seconds.

Set-up is what every command-line run pays before its real work: importing
the library and building each group the workload uses, with its
automorphisms and left-division table.  Interpreter start-up is not
included.

    python3 bench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import workloads
    from spans import NoSpans

    workloads.build_groups(workloads.WORKLOADS[sys.argv[1]].specs, NoSpans())
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
