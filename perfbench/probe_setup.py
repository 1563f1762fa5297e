"""One set-up, in a fresh interpreter: print the monotonic clock when done.

Usage: python3 perfbench/probe_setup.py <workload> <seed> <workdir>

Set-up is importing ``cgmargin`` and ``cgmargin.cli`` and building the
workload's inputs.  The parent reads the clock before it starts this
process, so the difference covers interpreter start-up too.
"""

import sys
import time
from pathlib import Path

import benchenv

benchenv.bootstrap()

import cgmargin  # noqa: E402,F401
import cgmargin.cli  # noqa: E402,F401

import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.WORKLOADS[name](seed, workdir)
print(repr(time.monotonic()))
