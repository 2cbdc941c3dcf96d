"""Compiler tests: spline paths, budgets, compositions, replication, atoms."""

import math

import numpy as np
import pytest

from conftest import (
    compose_chain,
    interval_sets,
    random_spline,
    reference_compile_wide,
    reference_interval_hats,
    reference_self_similar_oracle,
    same_cpwl,
    same_weights,
)
from spline2relu import cpwl
from spline2relu.compiler import (
    CompileReport,
    _compile_wide,
    _hat_classes,
    _interval_hats,
    block_size,
    compile_composition,
    compile_fourier_sum,
    compile_self_similar,
    compile_spline,
    compile_sum_of_compositions,
    fourier_atom,
    fourier_oracle,
    representative_chain,
    self_similar_oracle,
    spline_budget,
    takagi_network,
)
from spline2relu.errors import (
    BudgetError,
    ContractError,
    DegenerateCompositionError,
    DomainError,
)
from spline2relu.network import _closed_form, _depth_one, _depth_two, extract_cpwl, param_count
from spline2relu.riesz import basis_fn


def test_block_size_values():
    assert block_size(4) == 4
    assert block_size(5) == 6
    assert block_size(6) == 8
    assert block_size(7) == 10
    assert block_size(8) == 6
    assert block_size(13) == 11
    assert block_size(14) == 24
    with pytest.raises(DomainError):
        block_size(3)


def test_spline_budget_regimes():
    assert spline_budget(8, 6) == 61 * 6
    assert spline_budget(8, 5) == 8 * 8 + 4 * 8 + 1
    assert spline_budget(4, 4) == 19 * 4
    assert spline_budget(4, 3) == 4 * 4 + 4 * 4 + 1
    assert spline_budget(6, 8) == 25 * 8
    assert spline_budget(6, 7) == 6 * 6 + 4 * 6 + 1
    with pytest.raises(DomainError):
        spline_budget(3, 5)


def test_spline_budget_matches_the_three_regime_formula():
    """`spline_budget` reads its thresholds from `block_size`; this is the
    formula with every width regime written out."""
    def three_regimes(width, n):
        small = width * width + 4 * width + 1
        if width >= 8:
            return 61 * n if n >= ((width - 2) // 6) * (width - 2) else small
        if width == 4:
            return 19 * n if n >= 4 else small
        return 25 * n if n >= 2 * (width - 2) else small

    for width in range(4, 41):
        for n in range(401):
            assert spline_budget(width, n) == three_regimes(width, n), (width, n)


def test_compile_report_enforces_its_bound():
    assert CompileReport(4, 2, 100, 2).params == param_count(4, 2)
    with pytest.raises(BudgetError):
        CompileReport(width=4, depth=2, budget_bound=32, target_breakpoints=2)


def test_partition_indices_classes():
    """`_hat_classes` puts every hat-expansion index in one of 6q <= W-2
    classes whose nonzero members share a sign and sit at least three peaks
    apart; a batch of blocks is classed row by row."""
    rng = np.random.default_rng(30)
    for q, width in ((1, 8), (2, 14), (3, 20)):
        coeffs = rng.uniform(-1.0, 1.0, 40)
        coeffs[rng.integers(0, 40, 6)] = 0.0
        cls = _hat_classes(coeffs, q)
        assert cls.shape == coeffs.shape
        assert 0 <= cls.min() and cls.max() < 6 * q <= width - 2
        nonzero = np.flatnonzero(coeffs)
        for c in range(6 * q):
            members = nonzero[cls[nonzero] == c]
            assert len({coeffs[k] > 0 for k in members}) <= 1
            peaks = members // q + 1
            assert (np.diff(peaks) >= 3).all()
        batch = rng.uniform(-1.0, 1.0, (3, 12 * q))
        assert np.array_equal(_hat_classes(batch, q), [_hat_classes(row, q) for row in batch])


def test_compile_spline_exact_across_widths():
    rng = np.random.default_rng(31)
    worst = 0.0
    for width in (4, 5, 6, 7, 8, 9, 12, 13):
        for n in (0, 1, 2, 5, 17, 40):
            f = random_spline(rng, n)
            net, report = compile_spline(f, width)
            assert net.special and net.width == width
            assert report.params <= spline_budget(width, f.n_interior)
            worst = max(worst, cpwl.sup_diff(extract_cpwl(net), f))
    assert worst <= 1e-10


def test_compile_spline_handles_plain_lines():
    net, report = compile_spline(cpwl.line(-2.0, 1.0), 8)
    assert cpwl.sup_diff(extract_cpwl(net), cpwl.line(-2.0, 1.0)) <= 1e-12
    assert report.target_breakpoints == 0


def test_compile_spline_takes_the_ramps_below_two_hats_per_peak():
    """q = (W-2)//6 < 2 compiles with the ramps, every layer a reset; q >= 2
    with the wide form, every segment two deep.  At q = 1 the ramps take
    2*ceil(B/2) layers for the wide form's 2B (B blocks of W-2 knots): half
    its layers and params, plus one layer when B is odd."""
    rng = np.random.default_rng(36)
    for width in (8, 9, 13, 14, 19):
        net, _ = compile_spline(random_spline(rng, 40), width)
        assert _closed_form(net) is (_depth_one if width < 14 else _depth_two), width
    for width in (8, 13):
        for n in (1, 7, 200, 3200):
            f = random_spline(rng, n)
            net, _ = compile_spline(f, width)
            wide = _compile_wide(f, width)
            assert net.depth <= wide.depth // 2 + 1, (width, n)
            assert net.params <= wide.params / 2 + width * (width + 1), (width, n)


def test_ramps_stay_within_the_budget_at_w8_to_13():
    # compile_spline's CompileReport raises BudgetError past spline_budget
    rng = np.random.default_rng(37)
    for width in range(8, 14):
        for n in range(1, 261):
            _, report = compile_spline(random_spline(rng, n), width)
            assert report.params <= report.budget_bound == spline_budget(width, n)


def test_compile_spline_rejects_small_width():
    with pytest.raises(DomainError):
        compile_spline(cpwl.hat(), 3)


def test_compile_spline_knot_near_one():
    # the last gap cannot host the artificial breakpoints, so they go to the widest gap
    rng = np.random.default_rng(31)
    near = random_spline(rng, 40)
    x = near.breakpoints.copy()
    x[-2] = 1.0 - 1e-13
    cases = (
        (cpwl.CPwL([0.0, 0.3, 1.0 - 1e-13, 1.0], [0.0, 1.0, 0.5, 0.0]), 1e-12),
        (cpwl.CPwL(x, near.values), 1e-10),
    )
    for f, tol in cases:
        for width in (4, 5, 6, 7, 8, 13, 32):
            net, report = compile_spline(f, width)
            assert report.params <= spline_budget(width, f.n_interior)
            assert cpwl.sup_diff(extract_cpwl(net), f) <= tol


def _sparse_target():
    """200 knots, each a kink, off the endpoint line by 1 at every third knot
    only: at q = 1 the hat coefficients are the residual values, so every
    block leaves the negative classes empty."""
    f = random_spline(np.random.default_rng(35), 200)
    bump = np.arange(f.breakpoints.size) % 3 == 1
    return cpwl.CPwL(f.breakpoints, 1.0 - 3.0 * f.breakpoints + bump)


def _wide_corpus():
    """Random splines, the benchmark's three adversarial kinds (the
    reproducers of bench/README.md), a sparse target and knots near 1."""
    rng = np.random.default_rng(34)
    near = random_spline(rng, 50)
    x = near.breakpoints.copy()
    x[-2] = 1.0 - 1e-13
    cluster = cpwl.CPwL(np.r_[0.0, 0.5 + 1e-9 * np.arange(39), 1.0],
                        np.r_[0.0, np.tile([1.0, -1.0], 20)[:39], 0.0])
    big = np.random.default_rng(3)
    large = cpwl.CPwL(np.r_[0.0, np.sort(big.uniform(0.0, 1.0, 97)), 1.0],
                      big.uniform(-1e4, 1e4, 99))
    fixed = [cpwl.CPwL([0.0, 0.3, 1.0 - 1e-13, 1.0], [0.0, 1.0, 0.5, 0.0]),
             cpwl.CPwL(x, near.values), cluster, large, _sparse_target()]
    for width in (8, 9, 13, 14, 19, 20, 26, 31, 32, 38):
        for n in (0, 1, 5, 20, 97, 400):
            yield random_spline(rng, n), width
        for f in fixed:
            yield f, width


def test_compile_wide_matches_block_reference():
    for f, width in _wide_corpus():
        net = _compile_wide(f, width)
        assert same_weights(net, reference_compile_wide(f, width)), (width, f.n_interior)
    net = _compile_wide(_sparse_target(), 8)
    assert _sparse_target().n_interior == 200
    assert (~net.hidden_weights[::2, 1:-1].any(axis=-1)).sum(axis=1).min() >= 3


def test_narrow_depth_formula():
    rng = np.random.default_rng(33)
    for width in (4, 5, 6):
        for n in (2 * (width - 2), 4 * (width - 2) + 1, 30):
            f = random_spline(rng, n)
            net, _ = compile_spline(f, width)
            groups = math.ceil(f.n_interior / (2 * (width - 2)))
            assert net.depth == 2 * max(1, groups)


def test_representative_chain_recomposes():
    rng = np.random.default_rng(34)
    for k in (2, 3, 4):
        chain = [random_spline(rng, 3, 0.05, 0.95) for _ in range(k - 1)]
        chain.append(random_spline(rng, 3))
        reps = representative_chain(chain)
        assert len(reps) == k
        for rep in reps[:-1]:
            assert rep.values.min() >= -1e-9
            assert rep.values.max() <= 1.0 + 1e-9
        assert cpwl.sup_diff(compose_chain(reps), compose_chain(chain)) <= 1e-9


def test_representative_chain_rejects_constant_factor():
    flat = cpwl.line(0.0, 0.4)
    with pytest.raises(DegenerateCompositionError):
        representative_chain([flat, cpwl.hat()])


def test_compile_composition_exact_and_bounded():
    rng = np.random.default_rng(35)
    for k in (1, 2, 3, 4):
        chain = [random_spline(rng, int(rng.integers(1, 6)), 0.05, 0.95)
                 for _ in range(k - 1)]
        chain.append(random_spline(rng, int(rng.integers(1, 6))))
        net, report = compile_composition(chain, 8)
        want = compose_chain(chain)
        assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-9
        assert report.params <= 34 * report.target_breakpoints + 2 * k * (8 * 8 + 8)


def test_compile_composition_validation():
    with pytest.raises(DomainError):
        compile_composition([cpwl.hat()], 7)
    with pytest.raises(DomainError):
        compile_composition([], 8)
    with pytest.raises(DomainError):
        compile_composition([cpwl.line(2.0, -0.5), cpwl.hat()], 8)


def test_compile_sum_of_compositions():
    rng = np.random.default_rng(36)
    terms = []
    for _ in range(3):
        chain = [random_spline(rng, 2, 0.05, 0.95), random_spline(rng, 2)]
        terms.append((float(rng.uniform(-2.0, 2.0)), chain))
    net, report = compile_sum_of_compositions(terms, 10)
    want = cpwl.combine([compose_chain(c) for _, c in terms], [a for a, _ in terms])
    assert net.width == 10
    assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-9
    lengths = sum(len(c) for _, c in terms)
    assert report.params <= 44 * report.target_breakpoints + 2 * 10 * 11 * lengths
    with pytest.raises(DomainError):
        compile_sum_of_compositions(terms, 9)
    with pytest.raises(DomainError):
        compile_sum_of_compositions([], 10)


def _bump(points):
    """Pattern through the given (x, v) pairs, vanishing at 0 and 1."""
    xs = [0.0] + [x for x, _ in points] + [1.0]
    vs = [0.0] + [v for _, v in points] + [0.0]
    return cpwl.CPwL(xs, vs)


def test_self_similar_oracle_matches_manual():
    pattern = _bump([(0.5, 1.0)])
    intervals = [(0.0, 0.25), (0.5, 0.75)]
    want = self_similar_oracle(pattern, intervals)
    grid = np.linspace(0.0, 1.0, 2001)
    manual = np.zeros_like(grid)
    for a, b in intervals:
        inside = (grid >= a) & (grid <= b)
        manual[inside] = pattern((grid[inside] - a) / (b - a))
    assert np.abs(want(grid) - manual).max() <= 1e-12


def test_compile_self_similar_separated():
    pattern = _bump([(0.3, 0.8), (0.7, -0.5)])
    intervals = [(0.1, 0.2), (0.4, 0.55), (0.9, 1.0)]
    net, report = compile_self_similar(pattern, intervals, 8)
    want = self_similar_oracle(pattern, intervals)
    assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-10
    assert report.params <= 816 * (pattern.n_interior + len(intervals)) + 72 * 64


def test_compile_self_similar_touching_intervals():
    pattern = _bump([(0.5, 1.0)])
    intervals = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
    net, _ = compile_self_similar(pattern, intervals, 8)
    want = self_similar_oracle(pattern, intervals)
    assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-10


def test_compile_self_similar_randomized():
    rng = np.random.default_rng(37)
    for trial in range(12):
        k = int(rng.integers(1, 6))
        inner = np.sort(rng.choice(np.arange(1, 20), size=k, replace=False)) / 20.0
        pattern = cpwl.CPwL(np.concatenate(([0.0], inner, [1.0])),
                            np.concatenate(([0.0], rng.uniform(-1.0, 1.0, k), [0.0])))
        m = int(rng.integers(1, 9))
        edges = np.sort(rng.choice(np.arange(1, 40), size=2 * m, replace=False)) / 40.0
        intervals = [(edges[2 * i], edges[2 * i + 1]) for i in range(m)]
        if trial % 3 == 0:
            intervals = [(i / m, (i + 1) / m) for i in range(m)]
        width = (8, 10, 13)[trial % 3]
        net, report = compile_self_similar(pattern, intervals, width)
        want = self_similar_oracle(pattern, intervals)
        assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-9
        assert report.params <= 816 * (pattern.n_interior + m) + 72 * width * width


def test_compile_self_similar_zero_pattern():
    pattern = cpwl.CPwL([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    net, _ = compile_self_similar(pattern, [(0.2, 0.4)], 8)
    assert cpwl.sup_diff(extract_cpwl(net), cpwl.line(0.0, 0.0)) == 0.0


def test_compile_self_similar_validation():
    pattern = _bump([(0.5, 1.0)])
    with pytest.raises(DomainError):
        compile_self_similar(pattern, [(0.2, 0.4)], 7)
    with pytest.raises(DomainError):
        compile_self_similar(pattern, [], 8)
    with pytest.raises(DomainError):
        compile_self_similar(pattern, [(0.4, 0.2)], 8)
    with pytest.raises(DomainError):
        compile_self_similar(pattern, [(0.1, 0.5), (0.4, 0.6)], 8)
    lifted = cpwl.CPwL([0.0, 0.5, 1.0], [0.2, 1.0, 0.0])
    with pytest.raises(ContractError):
        compile_self_similar(lifted, [(0.2, 0.4)], 8)


def test_self_similar_builders_identical_to_node_loops():
    """The tents and the oracle, built in one pass over the candidate nodes,
    hold the node-appending loops' breakpoints and values to the bit, on
    interval sets that touch, start at 0, end at 1 or hold one interval."""
    rng = np.random.default_rng(21)
    for iv in interval_sets(rng, 300):
        pairs = [(float(a), float(b)) for a, b in iv]
        k = int(rng.integers(1, 6))
        inner = np.sort(rng.uniform(0.05, 0.95, k))
        pattern = cpwl.CPwL(np.concatenate(([0.0], inner, [1.0])),
                            np.concatenate((rng.uniform(-1.0, 1.0, k + 1), [0.0])))
        assert same_cpwl(self_similar_oracle(pattern, iv),
                         reference_self_similar_oracle(pattern, pairs))
        if (iv[1:, 0] > iv[:-1, 1]).all():
            for got, want in zip(_interval_hats(iv), reference_interval_hats(pairs)):
                assert same_cpwl(got, want)


def test_compile_self_similar_needs_pairs():
    """Intervals that are not an m x 2 table are refused, not reshaped."""
    pattern = _bump([(0.5, 1.0)])
    for intervals in ([0.2, 0.4, 0.6, 0.8], [(0.1, 0.2), (0.3,)],
                      np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])):
        with pytest.raises(DomainError, match=r"intervals must be \(a, b\) pairs"):
            compile_self_similar(pattern, intervals, 8)


def test_fourier_atoms_match_direct_constructions():
    for j in (1, 2, 3, 5, 8, 16, 33):
        for kind in ("cosine", "sine"):
            net = fourier_atom(kind, j)
            direct = basis_fn(kind, j)
            assert cpwl.sup_diff(extract_cpwl(net), direct) <= 1e-12
            levels = max(1, math.ceil(math.log2(j)))
            expected = levels + 1 if kind == "cosine" else levels + 2
            if j == 1:
                expected = 1 if kind == "cosine" else 2
            assert net.depth == expected
    with pytest.raises(DomainError):
        fourier_atom("tangent", 3)
    with pytest.raises(DomainError):
        fourier_atom("cosine", 0)


def test_fourier_oracle_breakpoint_counts():
    for j in (1, 2, 7, 12):
        assert basis_fn("cosine", j).n_interior == 2 * j - 1
        assert basis_fn("sine", j).n_interior == 2 * j
    terms = [(1, 1.0, 0.0), (3, 0.0, 2.0)]
    want = cpwl.combine([basis_fn("cosine", 1), basis_fn("sine", 3)], [1.0, 2.0])
    assert cpwl.sup_diff(fourier_oracle(terms), want) == 0.0


def test_compile_fourier_sum_exact_and_depth():
    rng = np.random.default_rng(38)
    for width in (6, 10, 14):
        indices = rng.choice(np.arange(1, 20), size=5, replace=False)
        terms = [(int(j), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
                 for j in indices]
        net, report = compile_fourier_sum(terms, width)
        want = fourier_oracle(terms)
        assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-10
        lam = max(j for j, _, _ in terms)
        group = (width - 2) // 4
        bound = 2 * math.ceil(len(terms) / group) * (math.ceil(math.log2(lam)) + 2)
        assert net.depth == bound
        assert report.params == param_count(width, net.depth)


def test_compile_fourier_sum_validation():
    with pytest.raises(DomainError):
        compile_fourier_sum([(1, 1.0, 0.0)], 5)
    with pytest.raises(DomainError):
        compile_fourier_sum([], 6)
    with pytest.raises(DomainError):
        compile_fourier_sum([(2, 1.0, 0.0), (2, 0.0, 1.0)], 6)
    with pytest.raises(DomainError):
        compile_fourier_sum([(0, 1.0, 0.0)], 6)


def test_takagi_network_matches_partial_sums():
    for m in (1, 4, 8):
        coeffs = [2.0 ** -(k + 1) for k in range(m)]
        net = takagi_network(coeffs)
        assert net.width == 4 and net.depth == m
        assert cpwl.sup_diff(extract_cpwl(net), cpwl.takagi_partial(coeffs)) <= 1e-12
    with pytest.raises(DomainError):
        takagi_network([])
