"""Thread pinning for workload processes, and the provenance of a run."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_settings() -> dict[str, str]:
    """FEDSAMPLE_THREADS at fedsample's own default, min(os.cpu_count(), 8),
    set explicitly so the sweep pool size is recorded; BLAS and OpenMP
    pools sized so that pool threads x BLAS threads <= nproc."""
    pool = min(os.cpu_count() or 1, 8)
    blas = max(1, nproc() // pool)
    return {"FEDSAMPLE_THREADS": str(pool), **{var: str(blas) for var in BLAS_THREAD_VARS}}


def pinned_env(src_dir: str) -> dict[str, str]:
    """Environment for workload processes: fedsample imported from
    ``src_dir`` only, thread counts pinned, hash seed fixed."""
    env = dict(os.environ)
    env.update(thread_settings())
    env["PYTHONPATH"] = src_dir
    env["PYTHONHASHSEED"] = "0"
    return env


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_sha256(src_dir: str) -> str:
    """Digest of every .py file under src_dir (relative path and bytes), so
    a run is tied to its code even where no git metadata exists."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src_dir).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(root: str, src_dir: str, seed: int | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_sha256(src_dir),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "threads": thread_settings(),
        "workload_seed": seed,
    }
