"""Where a result came from: code version, machine, libraries, threads, seed."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_size(index: int) -> str:
    size = _read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    return size.strip() if size else "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():  # git would report an enclosing repository
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def src_stats(src: Path) -> tuple[int, str]:
    """Line count of the package sources (as ``wc -l``) and a hash of their bytes."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS copy will use, asked from the library itself.

    numpy and scipy each bundle their own OpenBLAS; ``lpcore`` pivots through
    scipy's copy, the rest of the package through numpy's.
    """
    import numpy
    import scipy.linalg.blas  # noqa: F401  loads scipy's copy

    site = Path(numpy.__file__).resolve().parent.parent
    out = {}
    for owner in ("numpy", "scipy"):
        for lib_path in glob.glob(str(site / f"{owner}.libs" / "*openblas*")):
            lib = ctypes.CDLL(lib_path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[owner] = int(fn())
                    break
    return out


def _os_threads() -> int | None:
    for line in (_read("/proc/self/status") or "").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def record(root: Path, seed: int, held_out_seed: int) -> dict:
    import numpy
    import scipy

    lines, digest = src_stats(root / "src")
    np_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(root),
        "src_sha256": digest,
        "src_lines": lines,
        "seed": seed,
        "held_out_seed": held_out_seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_per_core": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{np_blas.get('name')} {np_blas.get('version')}",
        "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
        "blas_threads": blas_threads(),
        "os_threads": _os_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }
