"""A pytest plugin, loaded with `-p sanitize`, that builds the compiled
kernels with AddressSanitizer and UndefinedBehaviorSanitizer, and stops at
the first error either reports.

The Python process must preload the sanitizer runtimes, and the run needs
`-s`: under pytest's fd capture a sanitizer's report is lost.  For example:

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONMALLOC=malloc HOME="$(mktemp -d)" \\
    PYTHONPATH=src:tests python -m pytest -p sanitize -s -q tests/test_orbit.py

The kernels are compiled from `src/terraces/_kernel.c`, so a report
names its lines there.  The flags name a shared object of their own, and
a fresh HOME keeps it out of the user's kernel cache.  `tests/gcov_gate.py`
is the same kind of plugin for line coverage.
"""

from terraces import _ckernel

_ckernel._FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-shared",
                   "-fPIC")
