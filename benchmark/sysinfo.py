"""Thread pinning check and the run record printed beside the metrics."""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS")

# thread getters exported by the OpenBLAS builds numpy wheels bundle
_GETTERS = ("scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


class BlasError(RuntimeError):
    """The BLAS thread count could not be verified as 1."""


def blas_threads(numpy_module) -> tuple[str, int]:
    """Ask numpy's bundled OpenBLAS for its thread count via ctypes.

    Returns (library file name, threads).  Raises BlasError when no known
    library or getter is found, so timing never runs unverified.
    """
    libs_dir = Path(numpy_module.__file__).resolve().parent.parent / \
        "numpy.libs"
    candidates = sorted(libs_dir.glob("*openblas*")) if libs_dir.is_dir() \
        else []
    for lib_path in candidates:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for getter in _GETTERS:
            fn = getattr(lib, getter, None)
            if fn is None:
                continue
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return lib_path.name, int(fn())
    raise BlasError(f"no OpenBLAS thread getter found under {libs_dir}; "
                    "cannot verify single-threaded BLAS")


def require_single_thread(numpy_module) -> tuple[str, int]:
    """Refuse to time unless the env pins and the library agree on 1."""
    unset = [v for v in THREAD_ENV_VARS if os.environ.get(v) != "1"]
    if unset:
        raise BlasError(f"{', '.join(unset)} must be 1 before numpy loads")
    name, threads = blas_threads(numpy_module)
    if threads != 1:
        raise BlasError(f"{name} reports {threads} threads, expected 1")
    return name, threads


def line_counts(src_pkg: Path) -> dict[str, int]:
    """Lines per module of the package, named ``<module>.loc``, plus
    ``loc.src_total``."""
    counts = {}
    for path in sorted(src_pkg.glob("*.py")):
        stem = "init" if path.stem == "__init__" else path.stem
        with open(path, "rb") as fh:
            counts[f"{stem}.loc"] = sum(1 for _ in fh)
    counts["loc.src_total"] = sum(counts.values())
    return counts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(root: Path, numpy_module, blas: tuple[str, int]) -> dict:
    """Machine, versions, BLAS and source identity of this run."""
    src_pkg = root / "src" / "mica"
    digest = hashlib.sha256()
    for path in sorted(src_pkg.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
        "blas_library": blas[0],
        "blas_threads": blas[1],
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
    }
