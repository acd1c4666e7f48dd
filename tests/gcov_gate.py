"""A pytest plugin, loaded with `-p gcov_gate`, that builds the compiled
kernels with line coverage; run as a script after such a test run, it
fails when a line of `_kernel.c` that never ran is not on `ALLOWED`.

    export HOME="$(mktemp -d)"
    PYTHONPATH=src:tests python -m pytest -p gcov_gate -q
    PYTHONPATH=src python tests/gcov_gate.py

The flags name a shared object of their own, and the fresh HOME keeps it
out of the user's kernel cache.  gcc writes its notes, and a process that
loaded the kernel writes its line counts when it exits, into ~/gcov
(`-dumpdir`), not beside the shared object, so a cache still holds the
object alone.  `-frandom-seed` gives every build the same notes, so the
counts of each copy the tests build merge into one file.  Counts from
forked pool workers and from child processes are not collected: a pool
worker leaves by `os._exit`, and a child does not load this plugin.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from terraces import _ckernel

DUMPDIR = os.path.join(os.path.expanduser("~"), "gcov")

# The lines a Tier-1 run never runs, as (function, the line's text).  The
# list may only shrink: a listed line that runs fails the gate too.
ALLOWED = (
    # Out of memory: six exits that return -2, for MemoryError.
    ("terraces_dfs", "total = -2;"),
    ("terraces_dfs", "goto out;"),
    ("terraces_climb", "code = -2;"),
    ("terraces_climb", "goto done;"),
    ("terraces_closure", "return -2;"),
    ("terraces_closure", "goto out;"),
    ("terraces_latin", "return -2;"),
    ("terraces_certify", "return -2;"),
    # A signal handler raised: the search's and the climb's exits.  Only
    # the Ctrl-C tests' child processes take them, and their counts are
    # not collected.
    ("rec", "s->halt = 3;"),
    ("rec", "return 0;"),
    ("terraces_climb", "code = -3;"),
    ("terraces_climb", "break;"),
    # An arrangement entry outside 0..n-1: `Kernel.square` is only given
    # arrangements that `Arrangement` has checked.
    ("terraces_square", "return -1;"),
)


def pytest_configure(config):
    os.makedirs(DUMPDIR, exist_ok=True)
    _ckernel._FLAGS = ("-O0", "--coverage", "-frandom-seed=terraces", "-dumpdir", DUMPDIR + os.sep,
                       "-shared", "-fPIC")


def main() -> int:
    """Print every unlisted line that never ran and every listed line that
    ran; 1 when there is one, else 0."""
    source = Path(_ckernel.__file__).with_name(_ckernel._SOURCE)
    if not os.path.exists(os.path.join(DUMPDIR, "_kernel.gcda")):
        print(f"no line counts in {DUMPDIR}: run the tests with -p gcov_gate first, under this HOME")
        return 1
    out = subprocess.run(["gcov", "--json-format", "--stdout", "-o", DUMPDIR, str(source)],
                         capture_output=True, text=True, check=True, timeout=60)
    text = source.read_text().splitlines()
    lines = [line for f in json.loads(out.stdout)["files"] if Path(f["file"]).name == source.name
             for line in f["lines"]]
    never = {line["line_number"]: (line["function_name"], text[line["line_number"] - 1].strip())
             for line in lines if line["count"] == 0}
    unlisted = Counter(never.values()) - Counter(ALLOWED)
    for number, key in sorted(never.items()):
        if unlisted[key]:
            print(f"{source.name}:{number}: never ran, not on ALLOWED: {key}")
    ran = Counter(ALLOWED) - Counter(never.values())
    for key in ran:
        print(f"{source.name}: ran, remove from ALLOWED: {key}")
    print(f"{len(lines) - len(never)} of {len(lines)} lines of {source.name} ran")
    return 1 if unlisted or ran else 0


if __name__ == "__main__":
    sys.exit(main())
