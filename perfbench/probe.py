"""One timed set-up, in a fresh process: ``python3 perfbench/probe.py ROOT WORKLOAD WORKDIR``.

Imports ruleweave from ``ROOT/src``, loads what the workload's rounds use,
and prints ``time.monotonic()`` when done. The parent reads the same clock
just before starting this process, so the difference is set-up time from
process start.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    root = Path(sys.argv[1])
    sys.path.insert(0, str(root))
    from perfbench.workloads import import_program, setup

    setup(import_program(root), sys.argv[2], root, Path(sys.argv[3]))
    print(repr(time.monotonic()))
