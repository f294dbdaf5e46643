"""Bisection oracle for the calibrated constant of the eigenvalue-free region.

Plain bisection on C over (0, _C_HI], one region scan per step, down to a
step of at most _C_TOL, returning the last zero-free C plus one _C_TOL of
margin.  It reads only whether each scan is free, not where its violators
lie, so it shares no shortcut with the calibration it checks.  Scans go
through the module attribute ``maxdtn.transmission.region_scan``, so a test
that replaces the scan replaces it here too.
"""

from maxdtn import transmission


def bisect_C(cfg, ell_max, re_max):
    def free(C):
        return transmission.region_is_free(transmission.region_scan(cfg, ell_max, re_max, C))

    if not free(transmission._C_HI):
        raise ValueError(f"region not zero-free even at C = {transmission._C_HI}")
    lo, hi = 0.0, transmission._C_HI
    while hi - lo > transmission._C_TOL:
        mid = 0.5 * (lo + hi)
        if free(mid):
            hi = mid
        else:
            lo = mid
    return hi + transmission._C_TOL
