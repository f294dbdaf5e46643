"""Independent references for the output checks, computed with mpmath.

Nothing here calls maxdtn: the Riccati-Bessel functions come from mpmath's
Bessel J, and the transmission determinant is assembled from them by its
closed form.
"""

import mpmath as mp

DPS = 40


def riccati_pair(ell, x):
    """(psi_ell(x), psi_ell'(x)) with psi_ell(x) = sqrt(pi x / 2) J_{ell+1/2}(x)."""
    with mp.workdps(DPS):
        x = mp.mpc(x)

        def psi(n):
            return mp.sqrt(mp.pi * x / 2) * mp.besselj(n + mp.mpf(1) / 2, x)

        p = psi(ell)
        dp = mp.cos(x) if ell == 0 else psi(ell - 1) - ell / x * p
        return +p, +dp


def rel_err(value, log_scale, ref):
    """|value e^log_scale - ref| / |ref|, so log-scaled results compare too."""
    with mp.workdps(DPS):
        v = mp.mpc(value) * mp.exp(log_scale)
        return float(abs(v - ref) / abs(ref))


def determinant(media, ell, pol, lam, R=1.0):
    """(det, scale) of the (ell, pol) transmission determinant of the ball.

    ``media`` is (eps1, mu1, c1, eps2, mu2, c2).  det follows the
    denominator-cleared closed form; scale is the larger of its two products,
    so |det| / scale measures the distance to a zero.
    """
    eps1, mu1, c1, eps2, mu2, c2 = media
    with mp.workdps(DPS):
        lam = mp.mpc(lam)
        p1, d1 = riccati_pair(ell, lam * mp.sqrt(eps1 * mu1) * R)
        p2, d2 = riccati_pair(ell, lam * mp.sqrt(eps2 * mu2) * R)
        w1 = c1 * mp.sqrt(mp.mpf(eps1) / mu1)
        w2 = c2 * mp.sqrt(mp.mpf(eps2) / mu2)
        if pol == "TE":
            t1, t2 = w1 * d1 * p2, w2 * d2 * p1
            det = 1j * (t1 - t2)
        else:
            t1, t2 = w1 * p1 * d2, w2 * p2 * d1
            det = -1j * (t1 - t2)
        return det, max(abs(t1), abs(t2))


def zero_residual(media, ell, pol, lam):
    """|det| / scale at lam: near 1e-16 at a true zero, order 1 elsewhere."""
    det, scale = determinant(media, ell, pol, lam)
    return float(abs(det) / scale)


def refine_zero(media, ell, pol, guess):
    """The determinant zero nearest ``guess``, by mpmath's secant solver."""
    with mp.workdps(DPS):
        z = mp.findroot(lambda lam: determinant(media, ell, pol, lam)[0],
                        mp.mpc(guess))
        return complex(z)
