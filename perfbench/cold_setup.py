#!/usr/bin/env python3
"""One cold set-up of a workload, in a fresh interpreter.

    python3 perfbench/cold_setup.py WORKLOAD SEED WORKDIR

Prints the seconds of a user's set-up: ``import pgrestore`` with
everything it imports (numpy included, nothing cached but the ``.pyc``
files), then the workload's ``setup`` (``pgrestore.cli`` for the CLI
workloads, kernels, masks, measurements, operators and priors). The
seeded inputs are made between the two and not timed. ``run.py`` takes
the median of several of these as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import pgrestore  # noqa: E402

IMPORTED = time.perf_counter() - START

import importlib  # noqa: E402
import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    if Path(pgrestore.__file__).resolve().parent != (SRC / "pgrestore").resolve():
        print(f"cold_setup: imported pgrestore from {pgrestore.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[argv[0]](int(argv[1]), Path(argv[2]))
    start = time.perf_counter()
    cli = importlib.import_module("pgrestore.cli") if workload.uses_cli else None
    workload.setup(pgrestore, cli)
    print(json.dumps(IMPORTED + time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
