"""Scalar-or-array arithmetic for the time argument of the closed forms.

``time_kernel(t)`` settles, once per call, whether a time is a scalar, and
so the arithmetic a closed form runs on: each closed form keeps one body for
both kinds of input and returns what that body computes.  A scalar time
(``float``, ``int``, ``np.float64``, which subclasses ``float``, or a 0-d
array) becomes a Python float and runs through ``math``, skipping numpy's
per-call dispatch, which costs more than the arithmetic itself; an exact
``float``, what the golden-section maximizer passes, is the kernel's first
test and comes back unconverted.  Any other array, or a list, runs on numpy.

It is also the one time gate: a time not finite and >= 0 raises ``ValueError``.

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
import sys
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
    exp=lambda x, _exp=np.exp: float(_exp(x)),
    sin=_nan_off_domain(math.sin),
    cos=_nan_off_domain(math.cos),
    sqrt=math.sqrt,  # only ever given values >= 1 or NaN, never negatives
)

ARRAY = SimpleNamespace(exp=np.exp, sin=np.sin, cos=np.cos, sqrt=np.sqrt)

_FLOAT_MAX = sys.float_info.max


def time_kernel(t):
    """``(t, ops)``: a scalar or 0-d t as a float with ``SCALAR``, else a float array with ``ARRAY``."""
    if type(t) is float and 0.0 <= t < math.inf:  # the fast path: no conversion
        return t, SCALAR
    if not isinstance(t, (float, int)):
        try:
            t = np.asarray(t, dtype=float)
        except OverflowError:  # an int too large for a float
            t = np.asarray(t, dtype=object)
        else:
            if t.ndim and (not t.size or (t.min() >= 0.0 and t.max() < math.inf)):  # NaN fails both
                return t, ARRAY
        # A 0-d array takes the scalar path; an array out of the domain names its first bad time.
        t = next(x for x in t.flat if not 0.0 <= x <= _FLOAT_MAX) if t.ndim else t.item()
    if 0.0 <= t <= _FLOAT_MAX:  # exact on an int, so one too large for a float fails
        return float(t), SCALAR
    raise ValueError(f"time must be >= 0 and finite, got {t}")
