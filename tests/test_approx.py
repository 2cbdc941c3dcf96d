"""Approximation tests: patterns, quantization, approximants, splits, rates."""

import functools
import math

import numpy as np
import pytest

from conftest import (
    pattern_rich_target,
    reference_dyadic_sawtooth_sum,
    reference_lip_alpha_approximant,
    reference_panel_antiderivative,
    reference_quantize_values,
    reference_unblocked_sawtooth_sum,
    same_weights,
    sample_lip_ball,
)
from spline2relu import approx, cpwl, riesz
from spline2relu.compiler import compile_spline, takagi_network
from spline2relu.errors import ContractError, DomainError, ResourceError, StructureError
from spline2relu.network import ReluNetwork, extract_cpwl, values_at


def test_pattern_invariants():
    p = approx.Pattern((0, 1, 2, 1, 0))
    assert p.k == 4 and not p.is_zero()
    assert approx.Pattern((0, 0)).is_zero()
    with pytest.raises(StructureError):
        approx.Pattern((0,))
    with pytest.raises(StructureError):
        approx.Pattern((1, 0))
    with pytest.raises(StructureError):
        approx.Pattern((0, 1, 1, 1))
    with pytest.raises(StructureError):
        approx.Pattern((0, 2, 0, 0, 0))


def test_pattern_to_cpwl():
    p = approx.Pattern((0, 1, 0, -1, 0))
    f = p.to_cpwl(1.0)
    assert f(0.25) == 0.25
    assert f(0.75) == -0.25
    g = p.to_cpwl(0.5)
    assert abs(g(0.25) - 0.5) <= 1e-15


def test_quantize_recovers_plateaus_and_ties():
    g = cpwl.CPwL([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.125, 0.25, 0.125, 0.0])
    p = approx.quantize_pattern(g, 4, 1.0)
    assert p.levels == (0, 0, 1, 1, 0)


def test_quantize_simple_tent():
    p = approx.quantize_pattern(lambda x: np.minimum(x, 1.0 - x), 6, 1.0)
    assert p.levels[0] == 0 and p.levels[-1] == 0
    shape = p.to_cpwl(1.0)
    grid = np.linspace(0.0, 1.0, 10001)
    err = np.abs(np.minimum(grid, 1.0 - grid) - shape(grid)).max()
    assert err <= 2.0 / 6.0


def test_quantize_contract_violations():
    with pytest.raises(ContractError):
        approx.quantize_pattern(cpwl.line(1.0, 0.0), 4, 1.0)
    with pytest.raises(ContractError):
        approx.quantize_pattern(cpwl.hat(), 2, 1.0)
    with pytest.raises(DomainError):
        approx.quantize_pattern(cpwl.hat(), 1, 1.0)
    with pytest.raises(DomainError):
        approx.quantize_pattern(cpwl.hat(), 4, 1.5)


def test_quantize_random_ball_is_covered():
    rng = np.random.default_rng(40)
    grid = np.linspace(0.0, 1.0, 10001)
    distinct = set()
    for _ in range(60):
        g = sample_lip_ball(rng, 0.5)
        p = approx.quantize_pattern(g, 5, 0.5)
        distinct.add(p.levels)
        err = np.abs(g(grid) - p.to_cpwl(0.5)(grid)).max()
        assert err <= 2.0 * 5.0 ** -0.5
    assert 1 <= len(distinct) <= 3 ** 5


def _quantize_rows(rng, k, alpha, n=80):
    """Seeded (n, k+1) rows on the half-level grid: ties in every interior
    column and chains of them, nudged inside TIE_TOL (still ties) or past it,
    +-0, and rows that break each rule (a last step of up to two levels breaks
    the Lipschitz rule, and with it often the class rule)."""
    h = (1.0 / k) ** alpha
    t = np.cumsum(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (n, k + 1)), axis=1)
    t[:, 0] = t[:, -1] = 0.0
    t += rng.choice([0.0, 0.0, 0.0, 4e-13, -4e-13, 3e-10, -3e-10], t.shape) * (t != 0.0)
    vals = t * h
    vals[(t == 0.0) & (rng.random(t.shape) < 0.5)] = -0.0
    nan, inf, end, steep = (vals[i].copy() for i in range(4))
    nan[1], inf[k - 1], end[-1], steep[1] = np.nan, -np.inf, 1e-6, 1.5 * h
    end[0] = np.nan if rng.random() < 0.5 else end[0]  # finite is checked first
    extra = [nan, inf, end, steep]
    if k >= 4:  # levels 0, 0, 2: no step past the Lipschitz bound, a jump of two
        escape = np.zeros(k + 1)
        escape[1:4] = np.array([0.5 - 3e-10, 1.5 + 3e-10, 0.5]) * h
        extra.append(escape)
    return np.vstack([vals, *rng.permutation(extra)])


def _reference_rows(rows, k, alpha):
    """reference_quantize_values per row: levels, or the ContractError message."""
    out = []
    for row in rows:
        try:
            out.append(reference_quantize_values(row, k, alpha).levels)
        except ContractError as exc:
            out.append(str(exc))
    return out


def test_quantize_values_matches_the_reference():
    """One call over all rows reads the levels of the one-panel loop, row by
    row, and raises the message of the first row that breaks a rule."""
    rng = np.random.default_rng(44)
    messages = set()
    for k in range(2, 8):
        for alpha in (0.5, 0.75, 1.0):
            rows = _quantize_rows(rng, k, alpha)
            want = _reference_rows(rows, k, alpha)
            for row, w in zip(rows, want):
                try:
                    got = approx.quantize_pattern(lambda x, row=row: row, k, alpha).levels
                except ContractError as exc:
                    got = str(exc)
                assert got == w, (k, alpha, row)
            messages.update(w for w in want if isinstance(w, str))
            with pytest.raises(ContractError) as info:
                approx._quantize_values(rows, k, alpha)
            assert str(info.value) == next(w for w in want if isinstance(w, str))
            good = [i for i, w in enumerate(want) if not isinstance(w, str)]
            levels = approx._quantize_values(rows[good], k, alpha)
            assert levels.dtype == np.int64 and levels.tolist() == [list(want[i]) for i in good]
            t = rows[good] / (1.0 / k) ** alpha
            tie = np.abs(t - np.floor(t) - 0.5) <= approx.TIE_TOL
            # a tie in every interior column, and ties in a row (chains)
            assert tie[:, 1:-1].any(axis=0).all()
            assert (tie[:, 1:-2] & tie[:, 2:-1]).any() or k == 2
    assert len(messages) == 4
    # two rows that break different rules, in both orders: the first row decides
    k, alpha = 5, 0.5
    rows = _quantize_rows(rng, k, alpha)[-5:]
    want = _reference_rows(rows, k, alpha)
    for i in range(5):
        for j in range(5):
            if want[i] != want[j]:
                with pytest.raises(ContractError) as info:
                    approx._quantize_values(rows[[i, j]], k, alpha)
                assert str(info.value) == want[i]


def _kink_sum(rng, panels, alpha=0.5, kinks=8, rho=0.9):
    """A Hoelder target like the benchmark's: rho/(2K) sum_i s_i (|x - t_i|^a
    - (1-x) t_i^a - x (1-t_i)^a), each kink at the midpoint of its own panel."""
    centres = (np.sort(rng.choice(panels, kinks, replace=False)) + 0.5) / panels
    signs = rng.choice([-1.0, 1.0], kinks)

    def f(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for t, s in zip(centres, signs):
            total += s * (np.abs(x - t) ** alpha - (1.0 - x) * t ** alpha
                          - x * (1.0 - t) ** alpha)
        return rho / (2.0 * kinks) * total
    return approx.TargetFunction(f, lip_alpha=(alpha, rho))


def test_lip_approximant_matches_the_dict_grouping():
    """The one-call pattern stage, grouped by np.unique, builds the weights
    of the panel loop grouped in a dict, bit for bit."""
    rng = np.random.default_rng(45)
    cases = [(pattern_rich_target(rng, m, approx.pattern_resolution(m), 1.0)[0], 1.0, m)
             for m in (36, 81, 100)]
    kinks = _kink_sum(rng, 64)
    cases += [(kinks, 0.5, m) for m in (64, 256, 512)]
    for i, (f, alpha, m) in enumerate(cases):
        net, bound = approx.lip_alpha_approximant(f, alpha, m, 8)
        want, want_bound = reference_lip_alpha_approximant(f, alpha, m, 8)
        assert same_weights(net, want) and bound == want_bound, m
        nodes = np.arange(m + 1) / m
        interpolant = compile_spline(cpwl.CPwL(nodes, f(nodes)), 8)[0]
        assert net.params > interpolant.params or i >= 3  # patterns were added


def test_pattern_resolution_table():
    assert approx.pattern_resolution(17) is None
    assert approx.pattern_resolution(18) == 2
    assert approx.pattern_resolution(80) == 2
    assert approx.pattern_resolution(81) == 3
    assert approx.pattern_resolution(323) == 3
    assert approx.pattern_resolution(324) == 4
    assert approx.pattern_resolution(1024) == 4


def test_target_function_scalar_fallback():
    f = approx.TargetFunction(math.sqrt)
    assert f(0.25) == 0.5
    out = f(np.array([[0.0, 0.25], [1.0, 0.04]]))
    assert out.shape == (2, 2)
    assert np.array_equal(out, [[0.0, 0.5], [1.0, 0.2]])
    g = approx.TargetFunction(lambda x: np.asarray(x) * 2.0)
    assert g(np.array([0.5]))[0] == 1.0
    with pytest.raises(DomainError):
        approx.TargetFunction(math.sqrt, lip_alpha=(1.5, 1.0))
    with pytest.raises(DomainError):
        approx.TargetFunction(math.sqrt, lip_alpha=(0.5, -1.0))


def test_lip_approximant_contract_checks():
    f = approx.TargetFunction(np.sqrt, lip_alpha=(0.5, 1.0))
    with pytest.raises(DomainError):
        approx.lip_alpha_approximant(f, 0.5, 20, 7)
    with pytest.raises(DomainError):
        approx.lip_alpha_approximant(f, 0.5, 1, 8)
    with pytest.raises(ContractError):
        approx.lip_alpha_approximant(approx.TargetFunction(np.sqrt), 0.5, 20, 8)
    with pytest.raises(ContractError):
        approx.lip_alpha_approximant(f, 1.0, 20, 8)
    loud = approx.TargetFunction(np.sqrt, lip_alpha=(0.5, 1.5))
    with pytest.raises(ContractError):
        approx.lip_alpha_approximant(loud, 0.5, 20, 8)


def test_quantization_refuses_non_finite_samples():
    """A NaN sample passes both contract checks (NaN compares False); it is
    refused before math.floor sees it, through both entry points."""
    hole = lambda x: np.where((x > 0.0) & (x < 1.0), np.nan, 0.0)
    with pytest.raises(ContractError, match="sampled values must be finite"):
        approx.quantize_pattern(hole, 4, 1.0)
    # finite at the nodes i/36, NaN at the panel midpoints the patterns sample
    f = approx.TargetFunction(lambda x: np.where(np.abs(x * 36.0 % 1.0 - 0.5) < 1e-9, np.nan, 0.0),
                              lip_alpha=(0.5, 1.0))
    with pytest.raises(ContractError, match="sampled values must be finite"):
        approx.lip_alpha_approximant(f, 0.5, 36, 8)


def test_quantization_refuses_overflowing_steps_without_a_warning():
    # each step of this finite row overflows; the Lipschitz check says so
    r = np.array([0.0, 1.7e308, -1.7e308, 0.0])
    with pytest.raises(ContractError, match="sampled nodes violate the Lipschitz bound"):
        approx.quantize_pattern(lambda x: r, 3, 1.0)


def test_lip_approximant_small_m_is_pure_interpolation():
    f = approx.TargetFunction(np.sqrt, lip_alpha=(0.5, 1.0))
    net, bound = approx.lip_alpha_approximant(f, 0.5, 8, 8)
    assert bound == 8.0 ** -0.5
    assert approx.measure_sigma(f, net, 10001) <= 4.0 * 8.0 ** -0.5
    nodes = np.arange(9) / 8.0
    interp = cpwl.CPwL(nodes, np.sqrt(nodes))
    assert cpwl.sup_diff(extract_cpwl(net), interp) <= 1e-10


def test_lip_approximant_sqrt_full_path():
    f = approx.TargetFunction(np.sqrt, lip_alpha=(0.5, 1.0))
    net, bound = approx.lip_alpha_approximant(f, 0.5, 36, 8)
    k = approx.pattern_resolution(36)
    assert k == 2
    assert bound == 4.0 * (k * 36) ** -0.5
    assert approx.measure_sigma(f, net, 10001) <= 4.0 * (k * 36.0) ** -0.5
    assert net.width == 8


def test_lip_approximant_recovers_planted_patterns():
    rng = np.random.default_rng(41)
    f, pats = pattern_rich_target(rng, 36, 2, 1.0)
    net, bound = approx.lip_alpha_approximant(f, 1.0, 36, 8)
    assert bound == 4.0 / (2 * 36)
    assert approx.measure_sigma(f, net, 10001) <= 4.0 / (2 * 36.0)
    assert any(not p.is_zero() for p in pats)


def test_lip_approximant_exact_on_linear_targets():
    f = approx.TargetFunction(lambda x: 0.25 * np.asarray(x, dtype=float) + 0.1,
                              lip_alpha=(1.0, 0.25))
    net, _ = approx.lip_alpha_approximant(f, 1.0, 24, 8)
    assert approx.measure_sigma(f, net, 10001) <= 1e-10


def test_lip_approximant_builds_and_rate_experiment_measures(monkeypatch):
    """The builder never measures; rate_experiment measures each row once."""
    grids = []
    measure = approx.measure_sigma

    def counting(f, net, grid_n):
        grids.append(grid_n)
        return measure(f, net, grid_n)

    monkeypatch.setattr(approx, "measure_sigma", counting)
    f = approx.TargetFunction(np.sqrt, lip_alpha=(0.5, 1.0))
    approx.lip_alpha_approximant(f, 0.5, 36, 8)
    assert grids == []
    records = approx.rate_experiment(
        f, lambda m: approx.lip_alpha_approximant(f, 0.5, m, 8)[0], [8, 36], grid_n=513)
    assert grids == [513, 513]
    assert [r.reason for r in records] == ["", ""]


def test_sobolev_split_validation():
    with pytest.raises(DomainError):
        approx.sobolev_split(lambda x: x, 1.0, 0.1)
    with pytest.raises(DomainError):
        approx.sobolev_split(lambda x: x, 2.0, 0.0)


def test_sobolev_split_constant_derivative():
    split = approx.sobolev_split(lambda x: 2.0 * np.ones_like(x), 2.0, 1.0,
                                 anchor=0.5)
    f0, f1 = split
    xs = np.linspace(0.0, 1.0, 101)
    assert np.abs(f1(xs)).max() == 0.0
    assert np.abs(f0(xs) - (0.5 + 2.0 * xs)).max() <= 1e-12
    assert split.threshold == pytest.approx(2.0)
    assert split.l1_high == 0.0
    assert split.sup_low == pytest.approx(2.0)


def test_sobolev_split_power_law():
    fprime = lambda x: np.asarray(x, dtype=float) ** (-1.0 / 3.0)
    split = approx.sobolev_split(fprime, 2.0, 0.1)
    assert abs(split.lp_norm - math.sqrt(3.0)) <= 0.1
    assert split.quad_tol <= 0.02
    assert split.threshold == pytest.approx(0.1 ** -0.5 * split.lp_norm)
    assert split.f0.lip_alpha == (1.0, split.threshold)
    # the two halves reassemble the midpoint-rule antiderivative exactly
    panels = 1024
    mids = (np.arange(panels) + 0.5) / panels
    fp = fprime(mids)
    edges = np.concatenate(([0.0], np.cumsum(fp) / panels))
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 1.0, 100)
    idx = np.minimum((xs * panels).astype(int), panels - 1)
    want = edges[idx] + (xs - idx / panels) * fp[idx]
    got = split.f0(xs) + split.f1(xs)
    assert np.abs(got - want).max() <= 1e-8
    assert split.sup_low <= split.threshold * (1.0 + 1e-12)


def test_sobolev_split_parts_match_panel_formula():
    """The CPwL-backed parts stay within 4 ulp (of each part's largest
    magnitude) of the panel-by-panel antiderivative on [0, 1]."""
    panels = approx.SPLIT_PANELS
    mids = (np.arange(panels) + 0.5) / panels
    xs = np.concatenate((np.linspace(0.0, 1.0, 100001), np.arange(panels + 1) / panels,
                         np.random.default_rng(22).uniform(0.0, 1.0, 10000)))
    cases = [(lambda x: np.asarray(x) ** (-1.0 / 3.0), 2.0, 0.1, 0.0),
             (lambda x: 7.0 * np.cos(40.0 * np.asarray(x)), 3.0, 0.5, 0.25),
             (lambda x: np.abs(np.asarray(x) - 0.3) ** -0.4, 1.5, 0.02, -1.0),
             (lambda x: 1e3 * np.sin(3.0 * np.asarray(x)), 2.0, 0.3, 5.0)]
    for fprime, p, t, anchor in cases:
        split = approx.sobolev_split(fprime, p, t, anchor)
        fp = fprime(mids)
        low = np.clip(fp, -split.threshold, split.threshold)
        for part, panel_values, at_zero in ((split.f0, low, anchor), (split.f1, fp - low, 0.0)):
            want = reference_panel_antiderivative(panel_values, at_zero, xs)
            assert np.abs(part(xs) - want).max() <= 4 * np.spacing(np.abs(want).max())


def test_sobolev_split_refuses_a_derivative_that_is_not_finite():
    """NaN or inf on part of [0, 1]: on half of it, and right of every
    midpoint of the coarse rule, so that only the doubled rule sees it."""
    for bad in (np.nan, np.inf):
        for cut in (0.5, 1.0 - 0.375 / approx.SPLIT_PANELS):
            fprime = lambda x: np.where(np.asarray(x) > cut, bad, 1.0)
            with pytest.raises(DomainError, match="the derivative must be finite on"):
                approx.sobolev_split(fprime, 2.0, 0.1)


def test_measure_sigma_exact_for_pwl_targets():
    rng = np.random.default_rng(43)
    from conftest import random_spline
    from spline2relu.compiler import compile_spline
    f = random_spline(rng, 9)
    net, _ = compile_spline(f, 6)
    assert approx.measure_sigma(f, net, 11) <= 1e-11
    target = approx.TargetFunction(f)
    assert approx.measure_sigma(target, net, 11) <= 1e-11
    with pytest.raises(DomainError):
        approx.measure_sigma(f, net, 1)


def test_measure_sigma_reads_all_reset_networks_through_closed_form(monkeypatch):
    from conftest import random_spline
    from spline2relu.compiler import compile_spline
    f = random_spline(np.random.default_rng(44), 30)
    net, _ = compile_spline(f, 5)

    def refuse(self, x):
        raise AssertionError("forward is not the closed form")

    monkeypatch.setattr(ReluNetwork, "forward", refuse)
    assert approx.measure_sigma(f, net, 101) <= 1e-11


def test_measure_sigma_reads_closed_forms_as_values_at_does(monkeypatch):
    """On all-reset and two-deep networks, compiled splines at W = 4…20 and
    interpolant-only Hölder approximants at W >= 8 among them, the pruned
    extraction `measure_sigma` reads gives the error that the unpruned
    closed form of `values_at` gives at the same points, within 1e-12 of
    max(1, max |net|).  Pruning may drop a node within SLOPE_TOL of the chord
    of its neighbours; on 2691 seeded rows of this kind, 2602 read
    identically and the rest within 1.9e-13 of that scale."""
    from conftest import random_spline, two_deep_net
    from spline2relu.compiler import compile_spline

    def refuse(self, x):
        raise AssertionError("forward is not the closed form")

    def by_values_at(f, net, grid_n):
        pts = np.union1d(np.linspace(0.0, 1.0, grid_n), extract_cpwl(net).breakpoints)
        if isinstance(f, cpwl.CPwL):
            pts = np.union1d(pts, f.breakpoints)
        read = values_at(net, pts)
        return float(np.abs(approx._evaluate(f, pts) - read).max()), float(np.abs(read).max())

    monkeypatch.setattr(ReluNetwork, "forward", refuse)
    rng = np.random.default_rng(47)
    wave = approx.TargetFunction(lambda x: np.sin(7.0 * np.asarray(x)))
    cases = []
    for width in (4, 5, 8, 9, 13, 14, 20):
        for n in (1, 20, 150):
            for hi in (2.0, 1e3):
                f = random_spline(rng, n, -hi, hi)
                net = compile_spline(f, width)[0]
                cases += [(f, net, 257), (wave, net, 257)]
    cases += [(wave, two_deep_net(rng, width, segments), 257)
              for width in (5, 8) for segments in (2, 4)]
    for alpha in (0.5, 1.0):
        f = sample_lip_ball(rng, alpha)
        cases += [(f, approx.lip_alpha_approximant(f, alpha, m, width)[0], 1025)
                  for m in (2, 8) for width in (8, 12)]
    for f, net, grid_n in cases:
        want, scale = by_values_at(f, net, grid_n)
        assert abs(approx.measure_sigma(f, net, grid_n) - want) <= 1e-12 * max(1.0, scale)


def _sawtooth_target(order):
    """TargetFunction of sum_{i < order} 2^-(i+1) H^(i+1), a black box."""
    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        total = np.zeros_like(xs)
        for i in range(order):
            total += 2.0 ** -(i + 1) * cpwl.hat_iterate_value(i + 1, xs)
        return total
    return approx.TargetFunction(evaluate)


def test_measure_sigma_reads_stepped_networks_through_their_extraction(monkeypatch):
    net = takagi_network([2.0 ** -(i + 1) for i in range(10)])
    f = _sawtooth_target(30)
    g = extract_cpwl(net)
    pts = np.union1d(np.linspace(0.0, 1.0, 4097), g.breakpoints)
    want = float(np.abs(f(pts) - g(pts)).max())

    def refuse(self, x):
        raise AssertionError("forward reads the network a second time")

    monkeypatch.setattr(ReluNetwork, "forward", refuse)
    assert approx.measure_sigma(f, net, 4097) == want


def test_measure_sigma_past_the_node_budget_reads_values_at(monkeypatch):
    net = takagi_network([2.0 ** -(i + 1) for i in range(10)])
    f = _sawtooth_target(30)
    pts = np.linspace(0.0, 1.0, 4097)
    want = float(np.abs(f(pts) - values_at(net, pts)).max())
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 64)
    with pytest.warns(RuntimeWarning, match="64 nodes, the node budget"):
        got = approx.measure_sigma(f, net, 4097)
    assert math.isfinite(got) and got == want


def test_measure_sigma_against_black_box():
    coeffs = [2.0 ** -(k + 1) for k in range(10)]
    net = takagi_network(coeffs)
    err = approx.measure_sigma(_sawtooth_target(30), net, 4097)
    assert err <= 2.0 ** -10


def test_rate_experiment_rows_and_failures():
    f = approx.TargetFunction(lambda x: np.asarray(x, dtype=float) * 0.0)

    def builder(m):
        if m == 2:
            raise RuntimeError("boom")
        return takagi_network([0.0] * m)

    records = approx.rate_experiment(f, builder, [1, 2, 3], grid_n=33)
    assert [r.m for r in records] == [1, 2, 3]
    assert records[1].params == 0 and math.isnan(records[1].sup_error)
    assert records[0].sup_error == 0.0 and records[2].sup_error == 0.0
    with pytest.raises(DomainError):
        approx.rate_experiment(f, builder, [3, 2])
    with pytest.raises(DomainError):
        approx.rate_experiment(f, builder, [])


def test_rate_experiment_records_failure_reason():
    f = approx.TargetFunction(lambda x: np.asarray(x, dtype=float) * 0.0)

    def builder(m):
        if m == 2:
            raise ResourceError("extraction grew past 64 nodes")
        return takagi_network([0.0] * m)

    records = approx.rate_experiment(f, builder, [1, 2, 3], grid_n=33)
    assert [r.reason for r in records] == [
        "", "ResourceError: extraction grew past 64 nodes", ""]
    assert records[1].params == 0 and math.isnan(records[1].sup_error)
    assert approx.records_to_csv(records).splitlines()[0] == approx.CSV_HEADER


def test_rate_experiment_takagi_errors_shrink():
    target = approx.TargetFunction(
        lambda x: sum(2.0 ** -(i + 1) * cpwl.hat_iterate_value(i + 1, np.asarray(x, float))
                      for i in range(26)))
    builder = lambda m: takagi_network([2.0 ** -(i + 1) for i in range(m)])
    records = approx.rate_experiment(target, builder, [1, 2, 3, 4, 5, 6], grid_n=1025)
    errs = [r.sup_error for r in records]
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 2.0 ** -6


def test_takagi_family_builds_the_partial_sums():
    target, builder = approx.takagi_family(6)
    for k in (1, 4, 9):
        assert same_weights(builder(k), takagi_network([2.0 ** -(i + 1) for i in range(k)]))
    assert isinstance(target, approx.TargetFunction)
    with pytest.raises(DomainError, match="need at least one coefficient"):
        builder(0)


def test_takagi_target_matches_the_term_by_term_closed_form():
    """The doubling map carries the fractional part exactly on [0, 1], so the
    target of size m, the order m + 20 sum settled after m + 1 terms, equals
    the per-term np.mod of x 2^i to the bit: on measure_sigma's union grid at
    m = 20, on points none of which settle, on points that all settle, and on
    0-d inputs."""
    rng = np.random.default_rng(43)
    nodes = extract_cpwl(takagi_network([2.0 ** -(i + 1) for i in range(16)])).breakpoints
    union = np.union1d(np.linspace(0.0, 1.0, 4099), extract_cpwl(
        takagi_network([2.0 ** -(i + 1) for i in range(20)])).breakpoints)
    # (3i + 1) / (3 * 2^14) is not dyadic: its float settles only after
    # about 53 doublings
    thirds = np.arange(1, 3 * 2 ** 14, 3) / (3.0 * 2 ** 14)
    points = [np.linspace(0.0, 1.0, 4099), np.linspace(0.0, 1.0, 10001), nodes,
              np.array([0.0, 1.0 / 3.0, 1.0]), np.random.default_rng(19).uniform(0.0, 1.0, 20000),
              thirds]
    for m in (1, 2, 3, 14, 16, 20, 40):
        target = approx.takagi_family(m)[0]
        ref = reference_dyadic_sawtooth_sum(m + 20)
        den = 2.0 ** (m + 1)
        dyadic = rng.integers(0, int(den) + 1, 5000) / den
        assert np.mod(thirds * den, 1.0).all() and not np.mod(dyadic * den, 1.0).any()
        for xs in points + [dyadic] + ([union] if m == 20 else []):
            assert np.array_equal(target(xs), ref(xs))
        for x in (1.0 / 3.0, np.float64(0.25), np.array(1.0 / 3.0), np.array(0.5)):
            got = target(x)
            assert np.shape(got) == () and got == ref(x)


def test_blocked_takagi_target_matches_the_unblocked_reference(monkeypatch):
    """The Takagi target runs every term on one block of points before the
    next: block - 1, block, block + 1 and 3 block + 7 points (at the
    library's block and at a block of 7), 2-d arrays and 0-d inputs give the
    bits and shape of the unblocked reference, settled points included, read
    through the target and through its evaluator."""
    rng = np.random.default_rng(71)
    for block in (cpwl._SWEEP_BLOCK, 7):
        monkeypatch.setattr(cpwl, "_SWEEP_BLOCK", block)
        points = [np.sort(rng.uniform(0.0, 1.0, size)) for size in
                  (block - 1, block, block + 1, 3 * block + 7)]
        points[-1][::3] = rng.integers(0, 2 ** 12 + 1, points[-1][::3].size) / 2.0 ** 12
        rows = np.concatenate([points[0], points[2]]).reshape(2, -1)
        points += [rows, rows.T, np.array(0.375), np.array(1.0 / 3.0), 0.75]
        for m in (1, 14, 20):
            target = approx.takagi_family(m)[0]
            want_of = reference_unblocked_sawtooth_sum(m + 20, m + 1)
            for xs in points:
                want = want_of(xs)
                for got in (target(xs), target.evaluator(xs)):
                    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


def test_records_to_csv_format():
    records = [approx.ExperimentRecord(2, 33, 0.125, 1.5),
               approx.ExperimentRecord(4, 65, 0.0625, 2.5)]
    text = approx.records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == approx.CSV_HEADER == "m,params,sup_error,wall_ms"
    assert lines[1] == "2,33,0.125,1.5"
    assert len(lines) == 3 and text.endswith("\n")
    # the rows come from cpwl._format_rows: the bytes of one '%d,%d,%.17g,%.17g' per row
    records += [approx.ExperimentRecord(16, 0, float("nan"), 3e-5, "ResourceError: x"),
                approx.ExperimentRecord(2 ** 40 + 1, 10 ** 15, 1.0 / 3.0, 0.0),
                approx.ExperimentRecord(3, 7, 5e-324, 1e15)]
    assert approx.records_to_csv(records) == approx.CSV_HEADER + "\n" + "".join(
        "%d,%d,%.17g,%.17g\n" % (r.m, r.params, r.sup_error, r.wall_ms) for r in records)
    assert approx.records_to_csv([]) == approx.CSV_HEADER + "\n"


def test_ar_seminorm():
    records = [approx.ExperimentRecord(m, 0, 3.0 / (m + 1.0) ** 2, 0.0)
               for m in (1, 3, 7)]
    assert approx.ar_seminorm(records, 2.0) == pytest.approx(3.0)
    records.append(approx.ExperimentRecord(15, 0, float("nan"), 0.0))
    assert approx.ar_seminorm(records, 2.0) == pytest.approx(3.0)
    assert math.isnan(approx.ar_seminorm([], 1.0))


def test_union_of_many_grids_is_the_fold():
    """cpwl._union of three or more grids, with repeats and both zeros, holds
    the values of np.union1d folded over them, and of equal values keeps the
    first in the order given (the fold's choice), sign bit included."""
    rng = np.random.default_rng(75)
    for _ in range(300):
        grids = [rng.integers(0, 12, rng.integers(0, 15)) / 11.0
                 for _ in range(rng.integers(3, 7))]
        for g in grids:
            g[(g == 0.0) & (rng.random(g.size) < 0.5)] = -0.0
        got = cpwl._union(*grids)
        assert np.array_equal(got, functools.reduce(np.union1d, grids))
        assert np.array_equal(got, functools.reduce(cpwl._union, grids))
        zeros = np.concatenate(grids)
        zeros = zeros[zeros == 0.0]
        if zeros.size:
            assert np.signbit(got[got == 0.0]).tolist() == [np.signbit(zeros[0])]


def test_union_of_sorted_grids_is_union1d(monkeypatch):
    """cpwl._union, the one union of grids (`measure_sigma`'s point sets,
    `_merge`'s one call), gives the values of np.union1d with one stable sort:
    sorted, distinct sets that overlap or repeat, the unsorted cut lists with
    repeats that `compose` hands `_merge`, single nodes and an empty array
    (-0.0 and 0.0 count as one point, as in np.union1d).  `compose`,
    `combine` over 20 parts and the riesz Gram matrix read the same arrays
    as under np.union1d folded over the grids."""
    rng = np.random.default_rng(73)
    grid = np.linspace(0.0, 1.0, 4099)
    nodes = extract_cpwl(takagi_network([2.0 ** -(i + 1) for i in range(12)])).breakpoints
    pairs = [(grid, nodes), (nodes, grid), (grid, grid), (grid, np.array([0.5])),
             (np.array([-0.0, 1.0]), np.array([0.0, 0.25, 1.0])),
             (np.array([0.0, 0.5, -0.0, 0.5, 0.25]), np.array([0.25, -0.0, 1.0, 0.0])),
             (np.array([0.5]), np.array([0.5])), (np.array([0.75]), np.empty(0)),
             (np.empty(0), grid), (np.empty(0), np.empty(0))]
    for _ in range(20):
        a, b = (np.unique(rng.integers(0, 50, rng.integers(1, 40)) / 49.0) for _ in range(2))
        pairs.append((a, b))
        pairs.append(tuple(rng.integers(0, 50, rng.integers(0, 40)) / 49.0 for _ in range(2)))
    for a, b in pairs:
        got, want = cpwl._union(a, b), np.union1d(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    fs = [cpwl.basis_fn(kind, j) for kind in ("cosine", "sine") for j in range(3, 13)]
    coeffs = rng.normal(size=len(fs))
    f, g = cpwl.basis_fn("sine", 13), cpwl.hat_iterate(6)

    def outputs():
        composed, combined = cpwl.compose(f, g), cpwl.combine(fs, coeffs)
        return (composed.breakpoints, composed.values, combined.breakpoints,
                combined.values, riesz.gram_matrix(32))

    got = outputs()
    monkeypatch.setattr(cpwl, "_union", lambda *grids: functools.reduce(np.union1d, grids))
    for a, b in zip(got, outputs()):
        assert np.array_equal(a, b)
