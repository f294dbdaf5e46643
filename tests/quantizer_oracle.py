"""Full-grid oracle for the quantizer's sampling and assembly.

Every symbol is sampled at all n^4 grid points on the flattened grid, as an
n^2 x n^2 array A[j, k] = a(x_j, h k), whatever variables it reads.  The
operators and the composition defect's factors are assembled from those
full samples, and the defect is applied by dense matrix-vector products
with its n^2 x n^2 factors.  The Lanczos stop rules are not part of this
oracle: the norms reuse the package's ``_power_norm`` and
``operator_norm``, so a difference in the results is one of sampling,
assembly or the arithmetic of an apply.
"""

import numpy as np

from maxdtn import quantizer


def flat(n):
    """The grid points and integer frequencies, each flattened to n^2."""
    x = np.arange(n) * (2.0 * np.pi / n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    X1, X2 = [v.ravel() for v in np.meshgrid(x, x, indexing="ij")]
    K1, K2 = [v.ravel() for v in np.meshgrid(k, k, indexing="ij")]
    return X1, X2, K1, K2


def sample(a, h, n):
    """A[j, k] = a(x_j, h k) at all n^2 x n^2 grid points, complex."""
    X1, X2, K1, K2 = flat(n)
    A = np.asarray(a(X1[:, None], X2[:, None], h * K1[None, :], h * K2[None, :]),
                   dtype=complex)
    return np.broadcast_to(A, (n * n, n * n)).copy()


def kind(a, h, n):
    """The kind of ``a`` decided on its full samples."""
    return quantizer._kind(sample(a, h, n).reshape(n, n, n, n), n, stacklevel=2)


def phases(n):
    """E[j, k] = e^{i k.x_j} on the flattened grid, n^2 x n^2."""
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    t = np.exp(2j * np.pi * (np.outer(np.arange(n), k) % n) / n)
    return (t[:, None, :, None] * t[None, :, None, :]).reshape(n * n, n * n)


def quantize_matrix(a, h, n):
    """Op_h(a)'s n^2 x n^2 matrix from the full samples: a diagonal for a
    multiplication, a circulant gathered from one spectrum for a
    multiplier, else row j the FFT of row j of A E."""
    A = sample(a, h, n)
    if np.all(A == A[:, :1]):
        return np.diag(A[:, 0])
    if np.all(A == A[:1, :]):
        spec = np.fft.fft2(A[0].reshape(n, n), norm="forward")
        j = np.arange(n)
        shift = (j[None, :] - j[:, None]) % n
        idx = (shift[:, None, :, None] * n + shift[None, :, None, :]).reshape(n * n, n * n)
        return np.take(spec, idx)
    K = (A * phases(n)).reshape(n * n, n, n)
    return np.fft.fft2(K, norm="forward").reshape(n * n, n * n)


def defect_factors(a, b, h, n):
    """K_a, K_b and K_ab: the full samples of a, b and their product, each
    times the phase table."""
    A, B = sample(a, h, n), sample(b, h, n)
    E = phases(n)
    return A * E, B * E, (A * B) * E


def defect_operator(Ka, Kb, Kab, n, scale):
    """D = Ka F Kb F - Kab F and its adjoint by dense matrix-vector products
    with the n^2 x n^2 factors, F the forward 2-D FFT normalized by n^2 and
    F^H the inverse FFT.  Each apply writes max(||Ka F Kb F v||,
    ||Kab F v||) / ||v|| to ``scale[0]``, as the package's operator does."""

    def fft(v):
        return np.fft.fft2(v.reshape(n, n), norm="forward").ravel()

    def ifft(w):
        return np.fft.ifft2(w.reshape(n, n)).ravel()

    def kh(K, w):
        return (w.conj() @ K).conj()

    def apply(v):
        u = fft(v)
        ab, c = Ka @ fft(Kb @ u), Kab @ u
        scale[0] = max(np.linalg.norm(ab), np.linalg.norm(c)) / np.linalg.norm(v)
        return ab - c

    def adjoint(w):
        return ifft(kh(Kb, ifft(kh(Ka, w))) - kh(Kab, w))

    return apply, adjoint


def composition_defects(a, b, h_list, n):
    """||Op(a)Op(b) - Op(ab)|| per h by the package's Lanczos on the
    oracle's dense factors."""
    defects = []
    for h in h_list:
        scale = [0.0]
        apply, adjoint = defect_operator(*defect_factors(a, b, h, n), n, scale)
        defects.append(quantizer._power_norm(apply, adjoint, n * n, scale))
    return np.array(defects)


def boundedness_norm(a, h, n):
    """max |a(h k)| for a multiplier, else the Lanczos norm of its matrix."""
    A = sample(a, h, n)
    if np.all(A == A[:1, :]):
        return float(np.max(np.abs(A[0])))
    return quantizer.operator_norm(quantize_matrix(a, h, n))
