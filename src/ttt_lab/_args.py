"""The argument contract of the public API, one checker per kind of argument.

Each checker returns the argument in the form the code computes with, or
raises one ValueError that names the argument.  A bool is not a number,
an integer must be integral (2.0 is not), and an int past the largest
float is neither finite nor inf.  The checkers run at the entry of a
public function, never inside a kernel's loop over frames or blocks.
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
    """value as a float64 array, itself if it is one: ndim axes if given, finite if finite."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError:    # an int past the float range
        raise ValueError(f"{name} contains non-finite entries" if finite
                         else f"{name} contains an integer past the float range") from None
    except (TypeError, ValueError):    # an entry that is no number, or ragged rows
        raise ValueError(f"{name} must be an array of real numbers") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def unit_norms(rows: np.ndarray, name: str) -> None:
    """ValueError naming the first of the rows whose norm is off 1 by more than 1e-9."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} must be unit-norm within 1e-9, "
                         f"got norm {float(norms[bad[0]])}")
