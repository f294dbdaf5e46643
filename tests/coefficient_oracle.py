"""Coefficient-equation oracle for the transport recursion's amplitude table.

Both first-order equations are re-formed from the stored slots, x1-order by
x1-order, with their own curl term; the recursion's right-hand sides are not
reused.  The table's jets carry the three basis data as their batch axis, so
one pass checks every datum.
"""

from maxdtn.numerics import cross, vadd


def _grad_cross(gamma_cols, vec):
    """(gamma nabla') x vec = sum_{m=2,3} col_m(gamma) x d_m(vec)."""
    return vadd(cross(gamma_cols[1], [c.derivative("x2") for c in vec]),
                cross(gamma_cols[2], [c.derivative("x3") for c in vec]))


def equation_residual(table):
    """Largest |coefficient| of either equation over every retained slot
    (j, k), every basis datum and every jet coefficient, not only values."""
    z = table.sp.z
    gs = table.gs
    eps_k, mu_k, psi = table.eps_k, table.mu_k, table.psis
    ta, tb = table.batched["a"], table.batched["b"]
    gcols = [[[gs.gamma[i][c].coeffs[m] for i in range(3)] for c in range(3)]
             for m in range(table.K[0])]
    worst = 0.0
    for j in range(table.J + 1):
        for k in range(table.K[j]):
            e1 = e2 = [0.0 * gs.nu[0]] * 3
            for ell in range(k + 1):
                a, b = ta[(j, ell)], tb[(j, ell)]
                ca, cb = cross(psi[k - ell], a), cross(psi[k - ell], b)
                e1 = [e1[c] + ca[c] - z * mu_k[k - ell] * b[c] for c in range(3)]
                e2 = [e2[c] + cb[c] + z * eps_k[k - ell] * a[c] for c in range(3)]
            for ell in range(k + 1 if j >= 1 else 0):
                ga = _grad_cross(gcols[k - ell], ta[(j - 1, ell)])
                gb = _grad_cross(gcols[k - ell], tb[(j - 1, ell)])
                if (j - 1, ell + 1) in ta:
                    exa = cross(gcols[k - ell][0], ta[(j - 1, ell + 1)])
                    exb = cross(gcols[k - ell][0], tb[(j - 1, ell + 1)])
                    ga = [ga[c] + (ell + 1) * exa[c] for c in range(3)]
                    gb = [gb[c] + (ell + 1) * exb[c] for c in range(3)]
                e1 = [e1[c] - 1j * ga[c] for c in range(3)]
                e2 = [e2[c] - 1j * gb[c] for c in range(3)]
            worst = max([worst] + [c.max_abs() for c in e1 + e2])
    return worst
