"""Paths, thread pinning and the environment record shared by every script.

Nothing here imports numpy: ``bootstrap`` must run before the first numpy
import so that the BLAS thread count it sets takes effect.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: the workloads are single-client closed loops on a
# 2-core machine, and at n = 128 two OpenBLAS threads ran slower than one.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads and import ``cgmargin`` from this checkout's ``src``.

    Exits nonzero, printing nothing on stdout, when the checkout holds no
    package source to benchmark.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "cgmargin" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'cgmargin'}")
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses: the pinning bootstrap() set, same source tree."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def source_digest() -> str:
    """SHA-256 over the package sources, so a result names the code it ran."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cgmargin").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """Everything needed to decide whether two results are comparable."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
