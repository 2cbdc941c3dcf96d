"""Approximation tests: patterns, quantization, approximants, splits, rates."""

import math

import numpy as np
import pytest

from conftest import pattern_rich_target, reference_panel_antiderivative, sample_lip_ball
from spline2relu import approx, cpwl
from spline2relu.compiler import takagi_network
from spline2relu.errors import ContractError, DomainError, ResourceError, StructureError
from spline2relu.network import ReluNetwork, extract_cpwl


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


def test_measure_sigma_against_black_box():
    coeffs = [2.0 ** -(k + 1) for k in range(10)]
    net = takagi_network(coeffs)

    def deep_sum(x):
        xs = np.asarray(x, dtype=float)
        total = np.zeros_like(xs)
        for i in range(30):
            total += 2.0 ** -(i + 1) * cpwl.hat_iterate_value(i + 1, xs)
        return total

    err = approx.measure_sigma(approx.TargetFunction(deep_sum), net, 4097)
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


def test_records_to_csv_format():
    records = [approx.ExperimentRecord(2, 33, 0.125, 1.5),
               approx.ExperimentRecord(4, 65, 0.0625, 2.5)]
    text = approx.records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == approx.CSV_HEADER == "m,params,sup_error,wall_ms"
    assert lines[1] == "2,33,0.125,1.5"
    assert len(lines) == 3 and text.endswith("\n")


def test_ar_seminorm():
    records = [approx.ExperimentRecord(m, 0, 3.0 / (m + 1.0) ** 2, 0.0)
               for m in (1, 3, 7)]
    assert approx.ar_seminorm(records, 2.0) == pytest.approx(3.0)
    records.append(approx.ExperimentRecord(15, 0, float("nan"), 0.0))
    assert approx.ar_seminorm(records, 2.0) == pytest.approx(3.0)
    assert math.isnan(approx.ar_seminorm([], 1.0))
