"""Print, as one JSON line, the numerical stack a ttt-lab process sees.

run.py runs this with the same environment as its timed children, so
the reported BLAS thread count is theirs.  It imports ttt_lab.cli first,
which also compiles the package's bytecode before any import is timed.
"""

import ctypes
import importlib.metadata
import json

import numpy

import ttt_lab.cli  # noqa: F401


def blas_threads():
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "numpy": numpy.__version__,
    "scipy": importlib.metadata.version("scipy"),
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": blas_threads(),
}))
