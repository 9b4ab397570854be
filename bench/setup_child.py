"""Time one fresh process's set-up and print the seconds.

    python3 bench/setup_child.py <workload>
    python3 bench/setup_child.py reference

With a workload name: import posmdp, then build the workload's model (and,
for bus-simulate, its fixed policy). With ``reference``: import only the
third-party modules posmdp imported when this benchmark was written. The
reference does the same kind of work as a set-up and never changes, so
``run.py`` pairs each set-up with one to tell how fast the machine imports at
that moment.
"""

import sys
import time

start = time.perf_counter()

if sys.argv[1] == "reference":
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.special  # noqa: F401
else:
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import posmdp  # noqa: F401  (the import is part of what is timed)
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup()
print(repr(time.perf_counter() - start))
