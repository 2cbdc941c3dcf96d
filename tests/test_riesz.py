"""Sawtooth-system numerics: inner products, Gram spectra, operator gaps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    random_spline,
    reference_gram_matrix,
    reference_kernel,
)
from spline2relu import cpwl, riesz
from spline2relu.errors import ContractError, DomainError, ResourceError


def test_basis_shapes():
    c1 = riesz.basis_fn("cosine", 1)
    assert np.array_equal(c1.breakpoints, [0.0, 0.5, 1.0])
    assert np.array_equal(c1.values, [1.0, -1.0, 1.0])
    s1 = riesz.basis_fn("sine", 1)
    assert np.array_equal(s1.breakpoints, [0.0, 0.25, 0.75, 1.0])
    assert np.array_equal(s1.values, [0.0, 1.0, -1.0, 0.0])
    for j in (1, 2, 5, 9):
        assert riesz.basis_fn("cosine", j).n_interior == 2 * j - 1
        assert riesz.basis_fn("sine", j).n_interior == 2 * j
    with pytest.raises(DomainError):
        riesz.basis_fn("cosine", 0)
    with pytest.raises(DomainError):
        riesz.basis_fn("tangent", 1)


def _simpson_product(f, g):
    """Exact integral of f * g via composite Simpson on the merged grid."""
    grid = np.union1d(f.breakpoints, g.breakpoints)
    mids = 0.5 * (grid[:-1] + grid[1:])
    pa = f(grid) * g(grid)
    pm = f(mids) * g(mids)
    dx = np.diff(grid)
    return float(np.sum(dx / 6.0 * (pa[:-1] + 4.0 * pm + pa[1:])))


def test_inner_product_known_values():
    c1 = riesz.basis_fn("cosine", 1)
    s1 = riesz.basis_fn("sine", 1)
    assert riesz.inner_product(c1, c1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert riesz.inner_product(s1, s1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert riesz.inner_product(c1, s1) == pytest.approx(0.0, abs=1e-15)


def test_inner_product_matches_simpson():
    rng = np.random.default_rng(50)
    for _ in range(15):
        f = random_spline(rng, int(rng.integers(0, 12)))
        g = random_spline(rng, int(rng.integers(0, 12)))
        assert riesz.inner_product(f, g) == pytest.approx(
            _simpson_product(f, g), abs=1e-13)


def test_gram_truncation_structure():
    gram = riesz.gram_matrix(4)
    assert gram.shape == (8, 8)
    assert np.abs(3.0 * np.diag(gram) - 1.0).max() <= 1e-12
    assert np.abs(gram - gram.T).max() == 0.0
    with pytest.raises(DomainError):
        riesz.gram_matrix(0)


def test_frame_bounds_interlace():
    assert riesz.frame_bounds(1) == (pytest.approx(1.0 / 3.0), pytest.approx(1.0 / 3.0))
    los, his = [], []
    for K in (1, 2, 4, 8, 16):
        lo, hi = riesz.frame_bounds(K)
        los.append(lo)
        his.append(hi)
        assert 1.0 / 6.0 - 1e-6 <= lo <= hi <= 0.5 + 1e-6
    assert all(b <= a + 1e-12 for a, b in zip(los, los[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(his, his[1:]))


def test_gram_quadratic_form_matches_function_norm():
    from spline2relu import cpwl

    K = 8
    gram = riesz.gram_matrix(K)
    fns = ([riesz.basis_fn("cosine", k) for k in range(1, K + 1)]
           + [riesz.basis_fn("sine", k) for k in range(1, K + 1)])
    rng = np.random.default_rng(51)
    for _ in range(20):
        v = rng.uniform(-1.0, 1.0, 2 * K) / math.sqrt(2 * K)
        combined = cpwl.combine(fns, v)
        quad = float(v @ gram @ v)
        norm = riesz.inner_product(combined, combined)
        assert abs(quad - norm) <= 1e-10


def test_odd_square_tail_dominates_numeric_tail():
    M = 500
    ms = np.arange(M + 1, 2_000_000)
    tail = float(np.sum(1.0 / (2.0 * ms + 1.0) ** 2))
    assert tail <= riesz.odd_square_tail(M)
    assert riesz.odd_square_tail(M) <= tail + 1e-6


def test_lemsum_enumeration_oracle():
    # k=1 against l=3: coincidences 2m+1 = 3(2n+1) with both m, n capped
    ns = np.arange(0, 167)
    kernel = float(np.sum((2.0 * ns + 1.0) ** -4)) / 9.0
    got = riesz.lemsum_lhs([1.0, 0.0, 1.0])
    assert got == pytest.approx(2.0 * kernel, rel=1e-12)
    assert riesz.lemsum_lhs([5.0]) == 0.0
    assert riesz.lemsum_lhs([1.0, 1.0]) == 0.0  # 2m+1 = 2(2n+1) impossible
    with pytest.raises(ContractError):
        riesz.lemsum_lhs([1.0, -1.0])
    with pytest.raises(DomainError):
        riesz.lemsum_lhs([])


def test_lemsum_bounded_by_square_norm():
    rng = np.random.default_rng(52)
    bound_const = math.pi ** 4 / 192.0
    for _ in range(40):
        u = rng.uniform(0.0, 1.0, int(rng.integers(1, 12)))
        assert riesz.lemsum_lhs(u) <= bound_const * float(u @ u) + 1e-12


def _base_oracle_gap(kind, K):
    """Infinite-sum closed form: entry is +-1/(a*b)**2 for the reduced pair."""
    mat = np.empty((K, K))
    for i in range(K):
        for j in range(K):
            g = math.gcd(i + 1, j + 1)
            a, b = (i + 1) // g, (j + 1) // g
            if a % 2 == 0 or b % 2 == 0:
                mat[i, j] = 0.0
                continue
            v = 1.0 / (a * a * b * b)
            if kind == "sine" and ((a + b) // 2 - 1) % 2 == 1:
                v = -v
            mat[i, j] = v
    eigs = np.linalg.eigvalsh(mat - np.eye(K))
    return float(np.abs(eigs).max())


def test_operator_gap_base_form():
    for kind in ("cosine", "sine"):
        for K in (8, 32):
            got = riesz.operator_gap(kind, K)
            assert abs(got - _base_oracle_gap(kind, K)) <= 1e-6
            assert got <= 0.5 + 1e-6
    assert riesz.operator_gap("cosine", 1) == pytest.approx(0.0, abs=1e-9)


def _adjoint_oracle_entry(k, ell, signed):
    total = 0.0
    for a in range(1, k + 1, 2):
        if k % a:
            continue
        j = k // a
        if ell % j:
            continue
        b = ell // j
        if b % 2 == 0:
            continue
        term = 1.0 / (a * a * b * b)
        if signed and ((a - 1) // 2 + (b - 1) // 2) % 2 == 1:
            term = -term
        total += term
    return total


def test_operator_gap_adjoint_form():
    for kind in ("cosine", "sine"):
        signed = kind == "sine"
        K = 12
        mat = np.array([[riesz.MU_SQUARED * _adjoint_oracle_entry(i + 1, j + 1, signed)
                         for j in range(K)] for i in range(K)])
        gap = float(np.abs(np.linalg.eigvalsh(mat - np.eye(K))).max())
        assert riesz.operator_gap(kind, K, adjoint=True) == pytest.approx(gap, abs=1e-12)
        assert riesz.operator_gap(kind, 32, adjoint=True) <= 0.5145 + 1e-6
    with pytest.raises(DomainError):
        riesz.operator_gap("secant", 4)
    with pytest.raises(DomainError):
        riesz.operator_gap("cosine", 0)


def test_mu_squared_normalizes_the_odd_fourth_power_sum():
    assert riesz.MU_SQUARED * math.pi ** 4 / 96.0 == pytest.approx(1.0, abs=1e-15)
    ms = np.arange(0, 200000)
    partial = float(np.sum(1.0 / (2.0 * ms + 1.0) ** 4))
    assert riesz.MU_SQUARED * partial == pytest.approx(1.0, abs=1e-12)


def test_kernel_matches_the_enumerations():
    for signed, adjoint in itertools.product((False, True), repeat=2):
        got = riesz._kernel(64, signed, adjoint)
        want = reference_kernel(64, signed, adjoint)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()
        assert np.array_equal(got, got.T)


def test_kernel_reads_zero_past_the_odd_sum_cap():
    # k = 1 against l = 2*ODD_SUM_CAP + 1 has the one coincidence m = 1000,
    # n = 0; one index further needs m past the cap
    kernel = riesz._kernel(1003, False, False)
    assert kernel[0, 1000] == kernel[1000, 0] == 1.0 / 1001 ** 2
    assert kernel[0, 1002] == kernel[1002, 0] == 0.0


def test_gram_matches_the_pairwise_sum():
    for K in (1, 4, 32, 64):
        got = riesz.gram_matrix(K)
        assert np.array_equal(got, got.T)
        assert np.abs(got - reference_gram_matrix(K)).max() <= 1e-15
    # K = 64 spans more than one block of pieces
    fns = [riesz.basis_fn(kind, k) for kind in ("cosine", "sine") for k in range(1, 65)]
    assert np.unique(np.concatenate([f.breakpoints for f in fns])).size - 1 > riesz._GRAM_BLOCK


def test_gram_memory_stays_blocked():
    tracemalloc.start()
    try:
        riesz.gram_matrix(128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_sizes_must_be_integers():
    with pytest.raises(TypeError):
        riesz.gram_matrix(2.5)
    for adjoint in (False, True):
        with pytest.raises(TypeError):
            riesz.operator_gap("cosine", 2.5, adjoint=adjoint)


def test_lemsum_refuses_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            riesz.lemsum_lhs([bad, 1.0])


def test_sizes_past_the_node_budget_are_refused(monkeypatch):
    # the default budget 2^21 caps K at 1448; checked without building anything
    riesz._check_size(1448)
    with pytest.raises(ResourceError, match="K = 1449 needs 2099601 matrix entries"):
        riesz._check_size(1449)
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 100)
    for call in (lambda: riesz.gram_matrix(11), lambda: riesz.frame_bounds(11),
                 lambda: riesz.operator_gap("cosine", 11),
                 lambda: riesz.operator_gap("sine", 11, adjoint=True),
                 lambda: riesz.lemsum_lhs(np.ones(11))):
        with pytest.raises(ResourceError, match="K = 11 needs 121"):
            call()
    assert riesz.gram_matrix(10).shape == (20, 20)
    assert riesz.operator_gap("sine", 10, adjoint=True) >= 0.0
