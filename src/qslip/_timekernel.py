"""Scalar-or-array arithmetic for the time argument of the closed forms.

``time_kernel(t)`` picks, once per call, the arithmetic a closed form runs
on, so each closed form keeps one body for both kinds of input.  A scalar
time (``float``, ``int``, or ``np.float64``, which subclasses ``float``)
runs on Python floats through ``math`` and skips numpy's per-call dispatch,
which costs more than the arithmetic itself.  Anything else (an ndarray, a
0-d array, a list) runs on numpy.

The scalar path is bit-identical to element i of the array path:

* the decay factor goes through ``np.exp`` even on a scalar, because
  ``math.exp`` (the C library's) differs from numpy's vectorized float64
  ``exp`` in the last ulp on some inputs, while ``sin``, ``cos`` and
  ``sqrt`` agree;
* ``math.sin`` and ``math.cos`` raise on an infinite phase where numpy
  returns NaN, so the scalar forms return NaN there;
* closed forms square with ``x * x``, never ``x ** 2``: numpy squares an
  array by multiplication, while ``**`` on a scalar calls C ``pow``, which
  differs in the last ulp on some inputs (and raises ``OverflowError`` on a
  Python float where numpy returns inf).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def _nan_off_domain(fn):
    """``fn`` returning NaN where it raises ValueError, as numpy does."""

    def guarded(x):
        try:
            return fn(x)
        except ValueError:
            return math.nan

    return guarded


SCALAR = SimpleNamespace(
    # np.exp, not math.exp: the two differ in the last ulp on some inputs.
    exp=lambda x: float(np.exp(x)),
    sin=_nan_off_domain(math.sin),
    cos=_nan_off_domain(math.cos),
    sqrt=math.sqrt,  # only ever given values >= 1 or NaN, never negatives
    out=float,
)

ARRAY = SimpleNamespace(
    exp=np.exp,
    sin=np.sin,
    cos=np.cos,
    sqrt=np.sqrt,
    # A 0-d input gives numpy scalars, which callers receive as floats.
    out=lambda v: v if v.ndim else float(v),
)


def time_kernel(t):
    """``(t, ops)``: a scalar t as a Python float with ``SCALAR``, else a float array with ``ARRAY``."""
    if type(t) is float:
        return t, SCALAR
    if isinstance(t, (float, int)):
        return float(t), SCALAR
    return np.asarray(t, dtype=float), ARRAY
