"""Numerics for the sawtooth trigonometric-like system: exact inner products
of piecewise-linear functions, truncated Gram spectra, odd-multiplier double
sums, and operator deviation norms."""

import math

import numpy as np

from .cpwl import _merge, basis_fn
from .errors import ContractError, DomainError

MU_SQUARED = 96.0 / math.pi ** 4
ODD_SUM_CAP = 500


def inner_product(f, g):
    """Exact integral of f*g over [0, 1] for piecewise-linear f and g.

    On each piece of the merged grid the product is quadratic, so the
    two-point closed form (dx/6) * (f0*(2*g0 + g1) + f1*(g0 + 2*g1)) is exact.
    """
    grid, (fv, gv) = _merge((f.breakpoints, f.values), (g.breakpoints, g.values))
    dx = np.diff(grid)
    f0, f1 = fv[:-1], fv[1:]
    g0, g1 = gv[:-1], gv[1:]
    return float(np.sum(dx / 6.0 * (f0 * (2.0 * g0 + g1) + f1 * (g0 + 2.0 * g1))))


def gram_matrix(K):
    """Gram matrix of C_1..C_K, S_1..S_K: exact pairwise inner products.

    Every basis function has squared norm 1/3, so sqrt(3) times the basis is
    the normalized system and 3 * gram_matrix(K) has a unit diagonal.
    """
    if K < 1:
        raise DomainError("need K >= 1")
    fns = [basis_fn(kind, k) for kind in ("cosine", "sine") for k in range(1, K + 1)]
    n = 2 * K
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = inner_product(fns[i], fns[j])
    return gram


def frame_bounds(K):
    """Extreme eigenvalues of the truncated Gram matrix."""
    eigs = np.linalg.eigvalsh(gram_matrix(K))
    return float(eigs[0]), float(eigs[-1])


def odd_square_tail(M):
    """Upper bound on the discarded tail sum of (2m+1)**-2 beyond m = M."""
    return 1.0 / (2.0 * (2 * M + 1))


def _odd_multiplier_sum(k, ell, signed):
    """Sum over m,n <= ODD_SUM_CAP of (2m+1)**-2 (2n+1)**-2 on (2m+1)k =
    (2n+1)ell, with the alternating sign (-1)**(m+n) when signed."""
    ms = np.arange(ODD_SUM_CAP + 1)
    p = (2 * ms + 1) * k
    hit = p % ell == 0
    if not hit.any():
        return 0.0
    q = p[hit] // ell
    odd = q % 2 == 1
    q = q[odd]
    mm = ms[hit][odd]
    ns = (q - 1) // 2
    keep = ns <= ODD_SUM_CAP
    q = q[keep]
    mm = mm[keep]
    terms = 1.0 / ((2 * mm + 1).astype(float) ** 2 * q.astype(float) ** 2)
    if signed:
        terms = terms * np.where((mm + ns[keep]) % 2 == 0, 1.0, -1.0)
    return float(terms.sum())


def lemsum_lhs(u):
    """Truncated double sum over distinct index pairs of a nonnegative
    sequence, weighted by the odd-multiplier coincidence kernel."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or len(u) == 0:
        raise DomainError("need a one-dimensional sequence")
    if (u < 0).any():
        raise ContractError("sequence entries must be nonnegative")
    total = 0.0
    n = len(u)
    for a in range(n):
        if u[a] == 0.0:
            continue
        for b in range(n):
            if a == b or u[b] == 0.0:
                continue
            total += u[a] * u[b] * _odd_multiplier_sum(a + 1, b + 1, False)
    return total


def _odd_divisor_sum(k, ell, signed):
    """Exact sum over common divisors j of k and ell with odd quotients of
    (k/j)**-2 (ell/j)**-2, with alternating quotient signs when signed."""
    total = 0.0
    for j in range(1, min(k, ell) + 1):
        if k % j or ell % j:
            continue
        a, b = k // j, ell // j
        if a % 2 == 0 or b % 2 == 0:
            continue
        term = 1.0 / (a * a * b * b)
        if signed and ((a - 1) // 2 + (b - 1) // 2) % 2 == 1:
            term = -term
        total += term
    return total


def operator_gap(kind, K, adjoint=False):
    """Spectral norm of the truncated synthesis-operator deviation from the
    identity.

    The base form uses the K x K matrix with entries
    mu^2 * sum (2m+1)**-2 (2n+1)**-2 over coincidences (2m+1)k = (2n+1)l,
    truncated at ODD_SUM_CAP; the adjoint form uses the exact common-divisor sums.
    The sine system carries the alternating (-1)**m coefficient signs.
    """
    if kind not in ("cosine", "sine"):
        raise DomainError("kind must be 'cosine' or 'sine'")
    if K < 1:
        raise DomainError("need K >= 1")
    signed = kind == "sine"
    mat = np.empty((K, K))
    for i in range(K):
        for j in range(i, K):
            if adjoint:
                v = MU_SQUARED * _odd_divisor_sum(i + 1, j + 1, signed)
            else:
                v = MU_SQUARED * _odd_multiplier_sum(i + 1, j + 1, signed)
            mat[i, j] = v
            mat[j, i] = v
    eigs = np.linalg.eigvalsh(mat - np.eye(K))
    return float(np.abs(eigs).max())
