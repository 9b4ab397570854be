"""Where a result was measured: code version, libraries, BLAS threads, machine.

None of this is a gated metric. The source line count is recorded because the
project tracks it, but it changes whenever validation code is added.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy


def git_sha(root: Path) -> str:
    """HEAD of the git checkout at ``root``, or "unknown" outside one."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_info() -> dict:
    """numpy's BLAS build and, for OpenBLAS, the thread count it runs with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None,
            "runtime_config": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        # numpy's wheels bundle scipy-openblas, whose symbols carry a prefix
        # and the 64-bit-integer suffix; a system OpenBLAS has neither.
        for prefix, suffix in (("scipy_", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_threads is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            info["threads"] = get_threads()
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                info["runtime_config"] = get_config().decode()
            return info
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))


def collect(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "src_posmdp_lines": source_lines(root / "src" / "posmdp"),
    }
