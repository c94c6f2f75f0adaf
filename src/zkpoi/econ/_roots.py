"""The bracketed root-finder; its one caller is games.calibrate_power_law."""

from __future__ import annotations

from ..errors import DomainError


def bisect_root(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f in [lo, hi] by bisection, within xtol of the true root.

    f(lo) and f(hi) must differ in sign (or one of them be zero); otherwise
    DomainError. The bracket is halved until it is at most 2 * xtol wide or
    no float lies strictly inside it, and its midpoint is returned.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise DomainError(f"no sign change over the root bracket [{lo!r}, {hi!r}]")
    lo_negative = f_lo < 0.0
    while hi - lo > 2.0 * xtol:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return lo + 0.5 * (hi - lo)
