"""Numerics for the sawtooth trigonometric-like system: exact inner products
of piecewise-linear functions, truncated Gram spectra, odd-multiplier double
sums, and operator deviation norms."""

import math

import numpy as np

from . import cpwl
from .cpwl import _merge, basis_fn
from .errors import ContractError, DomainError, ResourceError

MU_SQUARED = 96.0 / math.pi ** 4
ODD_SUM_CAP = 500
_GRAM_BLOCK = 4096  # pieces per block; bounds the value arrays at O(K) per piece


def _gram(fns):
    """Exact integrals over [0, 1] of every product of two piecewise-linear
    fns, as one exactly symmetric matrix.

    Every function is linear on each piece of the merged grid, so with A and
    B the left and right values and w = dx/6 the closed form is
    (A*w)(2A + B)^T + (B*w)(A + 2B)^T, summed _GRAM_BLOCK pieces at a time.
    """
    grid, _ = _merge(*((f.breakpoints, None) for f in fns))
    gram = np.zeros((len(fns), len(fns)))
    for i in range(0, grid.size - 1, _GRAM_BLOCK):
        x = grid[i:i + _GRAM_BLOCK + 1]
        vals = np.array([np.interp(x, f.breakpoints, f.values) for f in fns])
        a, b = vals[:, :-1], vals[:, 1:]
        w = np.diff(x) / 6.0
        gram += (a * w) @ (2.0 * a + b).T + (b * w) @ (a + 2.0 * b).T
    return 0.5 * (gram + gram.T)


def inner_product(f, g):
    """Exact integral of f*g over [0, 1] for piecewise-linear f and g.

    On each piece of the merged grid the product is quadratic, so the
    two-point closed form (dx/6) * (f0*(2*g0 + g1) + f1*(g0 + 2*g1)) is exact.
    """
    return float(_gram([f, g])[0, 1])


def _check_size(K):
    """Refuse K with K * K past cpwl.DEFAULT_NODE_BUDGET (K > 1448 at the
    default) before anything is allocated: _kernel holds about eight K x K
    arrays and the Gram matrix is 2K x 2K."""
    if K * K > cpwl.DEFAULT_NODE_BUDGET:
        raise ResourceError(f"K = {K} needs {K * K} matrix entries, over the budget "
                            f"of {cpwl.DEFAULT_NODE_BUDGET}")


def gram_matrix(K):
    """Gram matrix of C_1..C_K, S_1..S_K: exact pairwise inner products.

    Every basis function has squared norm 1/3, so sqrt(3) times the basis is
    the normalized system and 3 * gram_matrix(K) has a unit diagonal.
    """
    if K < 1:
        raise DomainError("need K >= 1")
    _check_size(K)
    return _gram([basis_fn(kind, k) for kind in ("cosine", "sine") for k in range(1, K + 1)])


def frame_bounds(K):
    """Extreme eigenvalues of the truncated Gram matrix."""
    eigs = np.linalg.eigvalsh(gram_matrix(K))
    return float(eigs[0]), float(eigs[-1])


def odd_square_tail(M):
    """Upper bound on the discarded tail sum of (2m+1)**-2 beyond m = M."""
    return 1.0 / (2.0 * (2 * M + 1))


def _kernel(K, signed, adjoint):
    """The K x K coincidence kernel: entry (k, l) sums (2m+1)**-2 (2n+1)**-2
    over (2m+1)k = (2n+1)l, with the sign (-1)**(m+n) when signed.

    With g = gcd(k, l), a = k/g and b = l/g, the coincidences are 2m+1 = tb,
    2n+1 = ta for odd t, so a and b must be odd; each term is (ab)**-2 t**-4
    and its sign (-1)**((a+b)/2 - 1) does not depend on t.  The base form
    caps m, n at ODD_SUM_CAP, so t <= (2*ODD_SUM_CAP + 1) // max(a, b); the
    adjoint form sums t over the odd divisors of g.
    """
    _check_size(K)
    k = np.arange(1, K + 1)
    g = np.gcd.outer(k, k)
    a, b = k[:, None] // g, k // g
    if adjoint:
        t = np.arange(1, K + 1, 2)
        sums = np.concatenate([[0.0], (k[:, None] % t == 0) @ t ** -4.0])[g]
    else:
        # prefix[i] sums t**-4 over the first i odd t; a pair past the cap reads 0
        t = np.arange(1, 2 * ODD_SUM_CAP + 2, 2)
        prefix = np.concatenate([[0.0], np.cumsum(t ** -4.0)])
        sums = prefix[(t[-1] // np.maximum(a, b) + 1) // 2]
    sign = np.where(signed & ((a + b) // 2 % 2 == 0), -1.0, 1.0)
    return np.where(a * b % 2 == 1, sign * sums / (a * b).astype(float) ** 2, 0.0)


def lemsum_lhs(u):
    """Truncated double sum over distinct index pairs of a nonnegative
    sequence, weighted by the odd-multiplier coincidence kernel."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or len(u) == 0:
        raise DomainError("need a one-dimensional sequence")
    if not np.isfinite(u).all():
        raise DomainError("sequence entries must be finite")
    if (u < 0).any():
        raise ContractError("sequence entries must be nonnegative")
    kernel = _kernel(len(u), False, False)
    np.fill_diagonal(kernel, 0.0)
    return float(u @ kernel @ u)


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
    mat = MU_SQUARED * _kernel(K, kind == "sine", adjoint)
    eigs = np.linalg.eigvalsh(mat - np.eye(K))
    return float(np.abs(eigs).max())
