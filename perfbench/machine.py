"""The machine record every result carries (metadata, never a normaliser)."""

from __future__ import annotations

import os
import platform
import time
from importlib import metadata
from pathlib import Path

#: Iterations of the calibration loop.  Its time is recorded only: on a
#: small shared VM a short loop is noisier than the workloads, so dividing
#: by it would widen the spread rather than narrow it.
CALIBRATION_ITERS = 400_000


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def proc_stats():
    """Yield ``(pid, state, ppid, pgrp)`` of every process in ``/proc``."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        yield int(stat.parent.name), fields[0], int(fields[1]), int(fields[2])


def calibration_ms() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERS):
        total += i & 7
    return (time.perf_counter() - start) * 1e3


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "calibration_ms": calibration_ms(),
    }
