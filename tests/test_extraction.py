"""Shared-grid extraction against the per-channel reference in conftest."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    plain_net,
    random_spline,
    reference_courses,
    reference_extract,
    same_lifts,
)
from spline2relu import approx, compiler, cpwl
from spline2relu.combinators import (
    compose_nets,
    concat_sum,
    embed_deeper,
    iterate_sum,
    stack_sum,
    zero_special,
)
from spline2relu.compiler import (
    compile_fourier_sum,
    compile_self_similar,
    compile_shallow,
    compile_spline,
    fourier_atom,
    fourier_oracle,
    takagi_network,
)
from spline2relu.errors import ResourceError, StructureError
from spline2relu.network import (
    ReluNetwork,
    _courses,
    extract_cpwl,
    hat_net,
    reset_layers,
    special_to_standard,
)

U = 2.0 ** -52


def _max_slope(f):
    return float(np.abs(np.diff(f.values) / np.diff(f.breakpoints)).max())


def _assert_close(got, want):
    """Roundoff bound relative to the steepest slope of the reference."""
    assert cpwl.sup_diff(got, want) <= 1e-12 * (1.0 + _max_slope(want))


def _assert_identical(got, want):
    assert np.array_equal(got.breakpoints, want.breakpoints)
    assert np.array_equal(got.values, want.values)


def test_hat_chains_identical_to_reference():
    net = hat_net()
    for k in range(1, 15):
        if k > 1:
            net = compose_nets(net, hat_net())
        _assert_identical(extract_cpwl(net), reference_extract(net))


def test_takagi_orders_identical_to_reference():
    for m in range(1, 15):
        net = takagi_network([2.0 ** -k for k in range(1, m + 1)])
        _assert_identical(extract_cpwl(net), reference_extract(net))


@pytest.mark.parametrize("width", [4, 5, 6, 7, 8, 13, 32])
def test_random_splines_match_reference(width):
    rng = np.random.default_rng(100 + width)
    for n in (1, 7, 40, 150):
        net, _ = compile_spline(random_spline(rng, n, -5.0, 5.0), width)
        _assert_close(extract_cpwl(net), reference_extract(net))


def test_plain_and_shallow_networks_match_reference():
    rng = np.random.default_rng(110)
    for n in (0, 3, 30):
        net = compile_shallow(random_spline(rng, n))
        _assert_close(extract_cpwl(net), reference_extract(net))
    for width in (4, 6, 9):
        net = plain_net(random_spline(rng, 12), width)
        _assert_close(extract_cpwl(net), reference_extract(net))


def test_fourier_sums_match_reference():
    rng = np.random.default_rng(111)
    for width in (6, 10):
        indices = rng.choice(np.arange(1, 20), size=4, replace=False)
        terms = [(int(j), float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
                 for j in indices]
        net, _ = compile_fourier_sum(terms, width)
        _assert_close(extract_cpwl(net), reference_extract(net))


def test_stack_and_iterate_sums_match_reference():
    rng = np.random.default_rng(112)
    nets = [plain_net(random_spline(rng, 5), 4) for _ in range(3)]
    net = stack_sum(nets, rng.uniform(-2.0, 2.0, 3))
    _assert_close(extract_cpwl(net), reference_extract(net))
    inner = plain_net(cpwl.CPwL([0.0, 0.3, 0.7, 1.0], [0.1, 0.9, 0.2, 0.6]), 4)
    net = iterate_sum(inner, rng.uniform(-1.0, 1.0, 4))
    _assert_close(extract_cpwl(net), reference_extract(net))


def test_collation_courses_match_reference():
    rng = np.random.default_rng(113)
    for width in (4, 6, 8):
        net, _ = compile_spline(random_spline(rng, 30), width)
        got, want = list(_courses(net)), reference_courses(net)
        assert len(got) == len(want) == net.depth - 1
        for g, w in zip(got, want):
            _assert_close(cpwl.CPwL(*g), w)
    with pytest.raises(StructureError):
        next(_courses(hat_net()))


def test_special_to_standard_lifts_match_reference():
    rng = np.random.default_rng(114)
    net, _ = compile_spline(random_spline(rng, 20, -3.0, -1.0), 5)
    lifts = [max(0.0, -float(c.values.min())) for c in reference_courses(net)]
    std = special_to_standard(net)
    assert len(lifts) == len(std.hidden_bias)
    for bias, ref, c in zip(std.hidden_bias, net.hidden_bias, lifts):
        assert abs(bias[-1] - ref[-1] - c) <= 1e-12 * (1.0 + c)


def _fourier_pairs():
    """Cosine/sine pairs j = 1..24 as compile_fourier_sum embeds them: at
    their own depth and at the depth of a sum reaching j = 24."""
    rng = np.random.default_rng(118)
    for scale in (1.0, 1e3):
        for j in range(1, 25):
            a, b = rng.uniform(-scale, scale, 2)
            pair = stack_sum([fourier_atom("cosine", j), fourier_atom("sine", j)], [a, b])
            for depth in sorted({2 * (max(0, math.ceil(math.log2(j))) + 2), 14}):
                yield embed_deeper(pair, depth)


def _adversarial():
    """The benchmark's three adversarial kinds: a 1e-9 knot cluster, values of
    +-1e4, and a knot 1e-13 below 1."""
    near = random_spline(np.random.default_rng(119), 50)
    x = near.breakpoints.copy()
    x[-2] = 1.0 - 1e-13
    return [_clustered(), _large_values(), cpwl.CPwL(x, near.values)]


def _compiled_splines():
    rng = np.random.default_rng(120)
    for width in (4, 5, 8, 9, 13, 20, 32):
        for f in [random_spline(rng, n, -3.0, 3.0) for n in (1, 20, 150)] + _adversarial():
            yield compile_spline(f, width)[0]


def _converted_inside(monkeypatch, build):
    """The special networks that `build()` hands to special_to_standard."""
    seen = []

    def record(net):
        seen.append(net)
        return special_to_standard(net)

    monkeypatch.setattr(compiler, "special_to_standard", record)
    build()
    monkeypatch.undo()
    return seen


def test_lifts_identical_to_reference_on_corpus(monkeypatch):
    nets = [*_fourier_pairs(), *_compiled_splines()]
    rng = np.random.default_rng(121)
    kink = approx.TargetFunction(lambda x: np.abs(np.asarray(x, float) - 0.3), lip_alpha=(1.0, 1.0))
    for width in (8, 10):
        pattern = cpwl.CPwL(np.linspace(0.0, 1.0, 6), np.r_[0.0, rng.uniform(-1.0, 1.0, 4), 0.0])
        intervals = [(0.1, 0.2), (0.2, 0.45), (0.6, 0.9)]
        nets += _converted_inside(monkeypatch,
                                  lambda: compile_self_similar(pattern, intervals, width))
        nets += _converted_inside(monkeypatch,
                                  lambda: approx.lip_alpha_approximant(kink, 1.0, 36, width))
    assert len(nets) > 150
    for net in nets:
        assert same_lifts(special_to_standard(net), net), net


def test_layers_that_write_nothing_keep_their_course():
    rng = np.random.default_rng(122)
    pair = stack_sum([fourier_atom("cosine", 5), fourier_atom("sine", 5)], [0.5, -1.5])
    # a constant -2.5 writes its collation bias alone, at the seam after it
    net = embed_deeper(concat_sum(compile_spline(cpwl.line(0.0, -2.5), 4)[0],
                                  compile_spline(random_spline(rng, 12), 4)[0],
                                  embed_deeper(pair, pair.depth + 2)), 30)
    assert net.hidden_bias[1, -1] == -2.5 and not net.hidden_weights[1, -1, :-1].any()
    writes = net.hidden_weights[:, -1, :-1].any(axis=1) | (net.hidden_bias[:, -1] != 0.0)
    assert 0 < writes.sum() < writes.size - 5
    courses = list(_courses(net))
    assert len(courses) == net.depth - 1
    assert not writes[0]
    assert np.array_equal(courses[0][0], [0.0, 1.0]) and np.array_equal(courses[0][1], [0.0, 0.0])
    for previous, (nodes, values), wrote in zip(courses, courses[1:], writes[1:]):
        if not wrote:
            assert nodes is previous[0] and values is previous[1]
    for got, want in zip(courses, reference_courses(net)):
        _assert_close(cpwl.CPwL(*got), want)
    assert same_lifts(special_to_standard(net), net)


def test_node_budget_counts_distinct_nodes():
    # 8 hats in sequence: 2^8 + 1 output nodes, but the shared grid peaks at
    # 641 nodes on the way (crossings of all four channels of a layer)
    deep = plain_net(cpwl.hat(), 4)
    for _ in range(7):
        deep = compose_nets(deep, plain_net(cpwl.hat(), 4))
    assert extract_cpwl(deep, node_budget=641).n_interior == 255
    with pytest.raises(ResourceError):
        extract_cpwl(deep, node_budget=640)


def test_reset_layer_counts_on_compiled_networks():
    rng = np.random.default_rng(115)
    narrow, _ = compile_spline(random_spline(rng, 6400), 4)
    assert narrow.depth - 1 == 3199
    assert np.array_equal(reset_layers(narrow), np.arange(narrow.depth))
    wide, _ = compile_spline(random_spline(rng, 400), 8)
    assert np.array_equal(reset_layers(wide), np.arange(0, wide.depth, 2))
    takagi = takagi_network([2.0 ** -k for k in range(1, 11)])
    assert np.array_equal(reset_layers(takagi), [0])
    assert np.array_equal(reset_layers(plain_net(random_spline(rng, 5), 4)), [0])


def _mixed(rng, kinds):
    """W=8 special networks of mixed segment depths, one per kind: a compiled
    spline (depth-2 segments), a zero network (depth-1 segments), a stack of
    one-layer W=6 networks with weights of both signs (depth-1 segments) and
    a stack of plain W=6 networks (deeper segments)."""
    nets = []
    for kind in kinds:
        if kind == 0:
            nets.append(compile_spline(random_spline(rng, int(rng.integers(1, 40))), 8)[0])
        elif kind == 1:
            nets.append(zero_special(8, int(rng.integers(1, 4))))
        elif kind == 2:
            shallow = [ReluNetwork(*rng.uniform(-2.0, 2.0, (2, 6)), np.zeros((0, 6, 6)),
                                   np.zeros((0, 6)), rng.uniform(-2.0, 2.0, 6), rng.uniform(-1, 1))
                       for _ in range(int(rng.integers(1, 4)))]
            nets.append(stack_sum(shallow, rng.uniform(-2.0, 2.0, len(shallow))))
        else:
            plain = [plain_net(random_spline(rng, int(rng.integers(9, 20))), 6)
                     for _ in range(int(rng.integers(1, 3)))]
            nets.append(stack_sum(plain, rng.uniform(-2.0, 2.0, len(plain))))
    return concat_sum(*nets)


def test_mixed_depth_segments_match_reference():
    rng = np.random.default_rng(116)
    net = _mixed(rng, [0, 1, 2, 3])
    depths = np.diff(np.append(reset_layers(net), net.depth))
    assert {1, 2} <= set(depths) and depths.max() > 2
    _assert_close(extract_cpwl(net), reference_extract(net))
    narrow = concat_sum(compile_spline(random_spline(rng, 30), 6)[0], zero_special(6, 2),
                        stack_sum([plain_net(random_spline(rng, 4), 4)] * 2, [1.0, -0.5]))
    _assert_close(extract_cpwl(narrow), reference_extract(narrow))


def test_depth_one_kinks_at_the_ends_match_reference():
    # units whose kink -b/a sits at 0 or 1, or outside [0, 1], on either side
    first = np.array([1.0, -1.0, 2.0, -3.0, 0.5, 4.0, -0.5, 0.0])
    bias = np.array([0.0, 0.0, -2.0, 3.0, -0.25, 1.0, 2.0, 0.5])
    edges = ReluNetwork(first, bias, np.zeros((0, 8, 8)), np.zeros((0, 8)),
                        np.linspace(-1.5, 2.0, 8), 0.25)
    net = stack_sum([edges, edges], [1.0, -0.5])
    assert np.array_equal(reset_layers(net), [0, 1])
    _assert_close(extract_cpwl(net), reference_extract(net))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), kinds=st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_concatenations_match_reference(seed, kinds):
    net = _mixed(np.random.default_rng(seed), kinds)
    _assert_close(extract_cpwl(net), reference_extract(net))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), kinds=st.lists(st.integers(1, 2), min_size=1, max_size=5))
def test_all_reset_concatenations_match_reference(seed, kinds):
    # every layer a reset: the closed form
    net = _mixed(np.random.default_rng(seed), kinds)
    assert reset_layers(net).size == net.depth
    _assert_close(extract_cpwl(net), reference_extract(net))


@pytest.mark.parametrize("width, n", [(4, 200), (8, 200)])
def test_segmented_network_respects_node_budget(width, n):
    net, _ = compile_spline(random_spline(np.random.default_rng(117), n), width)
    assert reset_layers(net).size > 1
    _assert_identical(extract_cpwl(net, node_budget=10 * n), extract_cpwl(net))
    with pytest.raises(ResourceError):
        extract_cpwl(net, node_budget=n // 2)


def _kappa_u(f):
    """kappa(f) u = (max |f| + max |f'|) 2^-52: what a one-ulp change in x
    costs, about the best any float64 extraction can do."""
    slopes = np.diff(f.values) / np.diff(f.breakpoints)
    return (float(np.abs(f.values).max()) + float(np.abs(slopes).max())) * U


def _clustered():
    x = np.r_[0.0, 0.5 + 1e-9 * np.arange(39), 1.0]
    return cpwl.CPwL(x, np.r_[0.0, np.tile([1.0, -1.0], 20)[:39], 0.0])


def _large_values():
    r = np.random.default_rng(3)
    return cpwl.CPwL(np.r_[0.0, np.sort(r.uniform(0, 1, 97)), 1.0], r.uniform(-1e4, 1e4, 99))


@pytest.mark.parametrize("target", [_clustered(), _large_values()], ids=["cluster", "1e4"])
@pytest.mark.parametrize("width", [4, 5, 6, 7])
def test_adversarial_narrow_splines_within_two_kappa_u(target, width):
    net, _ = compile_spline(target, width)
    assert cpwl.sup_diff(extract_cpwl(net), target) <= 2.0 * _kappa_u(target)


def test_fourier_canary_within_kappa_u():
    # the benchmark's large-coefficient sum: two segments of depth 14
    terms = [(18, -764.8866776838437, 836.5627152718496),
             (8, 567.8061312607904, 915.386755555927),
             (24, 2.7824910497016617, 764.850914379376)]
    net, _ = compile_fourier_sum(terms, 10)
    target = fourier_oracle(terms)
    assert _kappa_u(target) == pytest.approx(5.30e-11, rel=1e-3)
    assert cpwl.sup_diff(extract_cpwl(net), target) <= _kappa_u(target)
