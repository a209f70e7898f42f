"""The fixed transition function chi used for every cutoff in the package.

chi is C-infinity, equals 1 for t <= 1 and 0 for t >= 2, and decreases
monotonically in between.  The same chi defines the angular-velocity cutoff
Omega(r) = Omega_O * chi(r / R0) and the compact/exterior field split.
"""

import numpy as np


def _mollifier(x):
    # exp(-1/x) continued by 0 for x <= 0; the argument is negative, so exp
    # cannot overflow, and its underflow to 0 is exact enough here
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-12
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def chi(t):
    """Smooth cutoff: 1 on t<=1, 0 on t>=2, strictly between on (1, 2)."""
    t = np.asarray(t, dtype=float)
    s = np.clip(t - 1.0, 0.0, 1.0)
    a = _mollifier(1.0 - s)
    b = _mollifier(s)
    out = a / (a + b + np.where(a + b == 0.0, 1.0, 0.0))
    out = np.where(t <= 1.0, 1.0, out)
    out = np.where(t >= 2.0, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out
