"""Set-up of one workload in a fresh interpreter, timed by ``run.py``.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

Imports lpmono from the checkout and builds the program objects the
workload passes in, then exits.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name](workloads.import_lpmono(), seed, tmp).build()
