"""Per-run provenance: what the host and the launched processes ran with.

Enough to explain a drifting run from its record: CPU model, ISA flags
and count, the BLAS build and the thread settings in effect, library
versions, load at start and hypervisor steal over the run.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

#: ISA extensions that decide which numpy/OpenBLAS kernels run.
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq",
             "avx512vl", "avx512_bf16", "amx_tile")


def cpu_info() -> dict:
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = value.strip()
                elif key == "flags":
                    flags = set(value.split())
                if model != "unknown" and flags:
                    break
    except OSError:
        pass
    return {"cpu_model": model,
            "isa": [f for f in ISA_FLAGS if f in flags],
            "nproc": os.cpu_count()}


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs (``/proc/stat``), if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
        config = blas.get("openblas configuration")
    except (KeyError, TypeError, ValueError):
        name, config = "unknown", None
    return {"blas": name, "blas_config": config,
            "blas_threads_in_process": _openblas_threads()}


def process_env(pid: int, names) -> dict:
    """The listed variables as a launched process actually sees them."""
    try:
        with open(f"/proc/{pid}/environ", "rb") as fh:
            pairs = fh.read().split(b"\0")
    except OSError:
        return {}
    env = dict(p.decode(errors="replace").partition("=")[::2]
               for p in pairs if p)
    return {n: env.get(n) for n in names}


def provenance(env_names) -> dict:
    import numpy
    import scipy

    return {
        **cpu_info(),
        **blas_info(),
        "env": {n: os.environ.get(n) for n in env_names},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "cpu_affinity": (sorted(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else None),
    }
