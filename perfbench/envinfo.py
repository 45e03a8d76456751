"""The environment a result was measured in, recorded in every result file."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads")


def _git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources; identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas(np) -> tuple[str | None, int | None]:
    """BLAS library name and the thread count it reports, where it can say."""
    name = None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*blas*")) if libs.is_dir() else ():
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def collect(root: Path, seed: int) -> dict:
    import numpy as np

    blas_name, blas_threads = _blas(np)
    return {
        "git_revision": _git_revision(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": seed,
    }
