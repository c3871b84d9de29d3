"""Time one workload set-up in a fresh process and print the seconds.

    python3 benchmarks/setup_probe.py WORKLOAD SEED WORKDIR

``run.py`` starts several of these so that ``setup_s``, which includes
the package import, is a median over processes that import it afresh.
"""

import sys

import run

if __name__ == "__main__":
    seconds, _ = run.timed_setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(repr(seconds))
