"""The argument contract of the public API, one checker per kind of argument:
integer and real (a scalar in a range), choice (a name among options),
floats (an array of real numbers), unit_norms (rows of norm 1), rates
(learning rates in (0, 1]) and depth_maps (2-D maps of one shape).

Each returns the argument in the form the code computes with, or raises
one ValueError that names it.  A bool is not a number, an integer must be
integral (2.0 is not), and an int past the largest float is neither
finite nor inf.  They run at a public function's entry, never in a kernel's loop.
"""

import math
import numbers

import numpy as np


def integer(value, name: str, low=-math.inf, high=math.inf) -> int:
    """value as an int: an Integral that is not a bool, from low to high."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        bound = f">= {low}" if value < low else f"<= {high}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def real(value, name: str, low: float = 0.0, high: float = math.inf, *,
         closed: bool = False, inf: bool = False) -> float:
    """value as a float: a Real that is not a bool, above low (or at it, if
    closed) and below high, or inf if inf."""
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:    # an int past the float range stays nan
            pass
    if not ((low <= x if closed else low < x) and (x < high or inf and x == math.inf)):
        span = ("be positive and finite" if (low, high, closed) == (0.0, math.inf, False)
                else f"lie in {'[' if closed else '('}{low:g}, {high:g})")
        raise ValueError(f"{name} must {span}{', or inf' if inf else ''}, got {value!r}")
    return x


def choice(value, name: str, options) -> str:
    """value, a str among options."""
    if not (isinstance(value, str) and value in options):
        names = [repr(option) for option in options]
        raise ValueError(f"{name} must be {', '.join(names[:-1])} or {names[-1]}, "
                         f"got {value!r}")
    return value


def floats(value, name: str, ndim=None, finite: bool = True) -> np.ndarray:
    """value as a float64 array, itself if it is one: ndim axes if given, finite if finite.
    An array has a float, integer or object dtype; any other value is read once as an object
    array. Object entries must be Reals but not bools, so a 0-d array in a list is refused."""
    try:
        arr = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
        if arr.dtype.kind not in "fiuO" or arr.dtype.kind == "O" and not all(
                issubclass(t, numbers.Real) and t is not bool for t in set(map(type, arr.flat))):
            raise TypeError(arr.dtype)
        arr = np.asarray(arr, dtype=np.float64)
    except OverflowError:    # an int past the float range
        raise ValueError(f"{name} contains non-finite entries" if finite
                         else f"{name} contains an integer past the float range") from None
    except (TypeError, ValueError):    # an entry that is no real number, or ragged rows
        raise ValueError(f"{name} must be an array of real numbers") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def unit_norms(rows: np.ndarray, name: str, tol: float = 1e-9) -> None:
    """ValueError naming the first of the rows (float64, N x d) whose norm is off 1 by over tol."""
    off = np.einsum("ij,ij->i", rows, rows)    # then in place: one float64 per row at peak
    np.sqrt(off, out=off)
    off -= 1.0
    bad = np.abs(off, out=off) > tol
    if bad.any():
        i = int(np.argmax(bad))
        norm = float(np.sqrt(np.einsum("ij,ij->i", rows[i:i + 1], rows[i:i + 1])[0]))
        within = f"{tol:g}".replace("e-0", "e-")    # 1e-9, as the docs write it, not 1e-09
        raise ValueError(f"{name} row {i} must be unit-norm within {within}, got norm {norm}")


def rates(value, name: str) -> np.ndarray:
    """value as float64 learning rates, each in (0, 1]; a bad one is named by its row if 1-D."""
    arr = floats(value, name, finite=False)
    bad = np.flatnonzero(~((arr > 0.0) & (arr <= 1.0)))
    if bad.size:
        row = f" row {bad[0]}" if arr.ndim else ""
        raise ValueError(f"{name}{row} must lie in (0, 1], got {float(arr.flat[bad[0]])}")
    return arr


def depth_maps(*maps) -> list:
    """Depth maps as float64 arrays, checked once: 2-D, non-empty, one shape."""
    arrays = [floats(m, "depth map", finite=False) for m in maps]
    for arr in arrays:
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"depth map must be a non-empty H x W array, got shape {arr.shape}")
        if arr.shape != arrays[0].shape:
            (h, w), (h2, w2) = arrays[0].shape, arr.shape
            raise ValueError(f"depth map sizes differ: {w}x{h} vs {w2}x{h2}")
    return arrays
