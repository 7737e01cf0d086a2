"""One fresh-interpreter set-up of a workload: import homsim, write its inputs.

    python setup_probe.py WORKLOAD SEED OUTDIR

Prints {"import_s": ...} as its last line; the caller times the whole
process, interpreter start included.
"""

import json
import sys
import time

t0 = time.perf_counter()
import homsim  # noqa: E402,F401

import_s = time.perf_counter() - t0

from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name].make_inputs(seed, out)
    print(json.dumps({"import_s": import_s}))
