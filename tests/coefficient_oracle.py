"""Coefficient-equation oracle for the transport recursion's amplitude table.

Both first-order equations are re-formed from the stored slots, x1-order by
x1-order, with their own curl term; the recursion's right-hand sides are not
reused.  The table's slots are jets of batch P + (3 basis, 3 component), so
one pass checks every datum.  The oracle reads a vector's components off its
last batch axis and forms its own cross and dot products from them, sharing
no vector helper with the package.  ``trial_batch_table`` rebuilds a
consistent table with each solvability choice solved as one batch of three
trials.
"""

import numpy as np

from maxdtn.transport import AmplitudeTable


def _components(v):
    """The three components of a vector: a list as is, a jet's last batch axis."""
    return v if isinstance(v, list) else [v[..., i] for i in range(3)]


def _cross(a, b):
    a, b = _components(a), _components(b)
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _dot(a, b):
    a, b = _components(a), _components(b)
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _grad_cross(gamma_cols, vec):
    """(gamma nabla') x vec = sum_{m=2,3} col_m(gamma) x d_m(vec)."""
    t2 = _cross(gamma_cols[1], vec.derivative("x2"))
    t3 = _cross(gamma_cols[2], vec.derivative("x3"))
    return [x + y for x, y in zip(t2, t3)]


def equation_residual(table):
    """Largest |coefficient| of either equation over every retained slot
    (j, k), every basis datum and every jet coefficient, not only values."""
    z = table.sp.z
    gs = table.gs
    eps_k, mu_k, psi = table.eps_k, table.mu_k, table.psis
    ta, tb = table.batched["a"], table.batched["b"]
    # the columns of each gamma_m, as jet 3-vectors
    gcols = [[gs.gamma_k(m)[..., c] for c in range(3)] for m in range(table.K[0])]
    worst = 0.0
    for j in range(table.J + 1):
        for k in range(table.K[j]):
            e1 = e2 = [0.0 * gs.gamma_k(0)[..., 0, 0]] * 3
            for ell in range(k + 1):
                a, b = ta[(j, ell)], tb[(j, ell)]
                ca, cb = _cross(psi[k - ell], a), _cross(psi[k - ell], b)
                a, b = _components(a), _components(b)
                e1 = [e1[c] + ca[c] - z * mu_k[k - ell] * b[c] for c in range(3)]
                e2 = [e2[c] + cb[c] + z * eps_k[k - ell] * a[c] for c in range(3)]
            for ell in range(k + 1 if j >= 1 else 0):
                ga = _grad_cross(gcols[k - ell], ta[(j - 1, ell)])
                gb = _grad_cross(gcols[k - ell], tb[(j - 1, ell)])
                if (j - 1, ell + 1) in ta:
                    exa = _cross(gcols[k - ell][0], ta[(j - 1, ell + 1)])
                    exb = _cross(gcols[k - ell][0], tb[(j - 1, ell + 1)])
                    ga = [ga[c] + (ell + 1) * exa[c] for c in range(3)]
                    gb = [gb[c] + (ell + 1) * exb[c] for c in range(3)]
                e1 = [e1[c] - 1j * ga[c] for c in range(3)]
                e2 = [e2[c] - 1j * gb[c] for c in range(3)]
            worst = max([worst] + [c.max_abs() for c in e1 + e2])
    return worst


def trial_batch_table(ps, N, J):
    """The consistent table of ``ps`` with every solvability slot solved as
    one trial batch (data, 0), (0, tau0), (0, tau1) through
    ``CrossSystem.solve``, every zero passed as an explicit zero vector.

    The right-hand sides come from the table's own ``rhs``; the trial
    weights sit on an axis ahead of the point, basis and component axes,
    and a point with r0 < 1e-12 takes the data trial alone.
    """
    tab = AmplitudeTable(ps, N, J, "consistent", True)
    zero = tab.nu * 0.0
    weights = np.eye(3).reshape((3, 3) + (1,) * (len(ps.points) + 2))
    flat = np.asarray(tab.r0 < 1e-12)
    for s in range(N + J):
        for j in range(min(s, J) + 1):
            k = s - j
            if k >= tab.K[j]:
                continue
            a_sh, b_sh = (zero if v is None else v for v in tab.rhs(j, k))
            if k == 0 or j == J or np.all(flat):
                slot = tab.system.solve(a_sh, b_sh, tab.g0 if j == k == 0 else zero)
            else:
                data, w0, w1 = weights
                g = w0 * tab.tau[0] + w1 * tab.tau[1]
                trial = tab.system.solve(data * a_sh, data * b_sh, g)
                curl = [_dot(u, g) + _dot(w, trial[2]) for u, w in tab.cokernel]
                rest = tab.defect(*tab.rhs(j + 1, k - 1))
                d0 = [rest[r] + 1j * k * curl[r][0] for r in range(2)]
                m = [[1j * k * curl[r][c + 1] for c in range(2)] for r in range(2)]
                det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
                inv_det = (det + flat.astype(float)).invert() * (~flat).astype(float)
                p1 = ((m[0][1] * d0[1] - m[1][1] * d0[0]) * inv_det)[..., None]
                p2 = ((m[1][0] * d0[0] - m[0][0] * d0[1]) * inv_det)[..., None]
                slot = tuple(v[0] + p1 * v[1] + p2 * v[2] for v in trial)
            tab.a[(j, k)], tab.b[(j, k)], tab.nxb[(j, k)] = slot
    return tab
