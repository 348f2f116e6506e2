"""Environment fingerprint recorded with every benchmark result.

``fingerprint()`` runs this file as a child with the benchmark's
environment, so the numpy, scipy and BLAS it reports are the ones the CLI
imports; run directly, the file prints that library part as JSON.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def library_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit(root: Path) -> str | None:
    # A benchmark checkout is usually not a repository; never let git
    # search the parent directories for one.
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path, env: dict, blas_threads: int) -> dict:
    out = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                         env=env, cwd=root, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"fingerprint child failed: {out.stderr.strip()}")
    return {
        **json.loads(out.stdout),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "git_commit": _git_commit(root),
    }


if __name__ == "__main__":
    print(json.dumps(library_info(), sort_keys=True))
