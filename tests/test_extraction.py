"""Shared-grid extraction against the per-channel reference in conftest."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    exact_values,
    plain_net,
    random_spline,
    reference_collation_rail,
    reference_depth_two,
    reference_extract,
    reference_shared_relu,
    reference_unblocked_step,
    same_bits,
    same_cpwl,
    same_lifts,
    seam_rows,
    two_deep_net,
)
from spline2relu import approx, compiler, cpwl, network
from spline2relu.combinators import (
    compose_nets,
    concat_sum,
    embed_deeper,
    iterate_sum,
    stack_sum,
    zero_special,
)
from spline2relu.compiler import (
    _deepen,
    compile_composition,
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
    _SharedGrid,
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


def test_special_to_standard_lifts_match_reference():
    # one lift, the floor of every course, starts the collation rail
    rng = np.random.default_rng(114)
    for width in (5, 4, 6, 8):
        net, _ = compile_spline(random_spline(rng, 20, -3.0, -1.0), width)
        lift = max(0.0, -min(float(c.values.min()) for c in reference_collation_rail(net)))
        std = special_to_standard(net)
        assert lift > 0.0
        assert abs(std.in_bias[-1] - lift) <= 1e-12 * (1.0 + lift), width
        assert std.out_bias == net.out_bias - std.in_bias[-1]
        assert np.array_equal(std.hidden_bias, net.hidden_bias)
    with pytest.raises(StructureError, match="expected a special network"):
        special_to_standard(hat_net())


def _fourier_pairs():
    """Special networks for the lift corpus: stacked cosine/sine pairs
    j = 1..24 with coefficients up to 1e3, embedded at their own pair depth
    and at the depth of a sum reaching j = 24.  compile_fourier_sum no longer
    builds pairs this way; they stay as large-coefficient inputs to
    special_to_standard."""
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
    nets = [*_fourier_pairs(), *_compiled_splines(), *(n for n in _padded_corpus() if n.special)]
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


def test_layers_that_write_nothing_keep_their_course(monkeypatch):
    """The lift walk steps the shared grid up to the last layer that writes
    the collation rail, and no further."""
    rng = np.random.default_rng(122)
    pair = stack_sum([fourier_atom("cosine", 5), fourier_atom("sine", 5)], [0.5, -1.5])
    # a constant -2.5 writes its collation bias alone, at the seam after it
    net = embed_deeper(concat_sum(compile_spline(cpwl.line(0.0, -2.5), 4)[0],
                                  compile_spline(random_spline(rng, 12), 4)[0],
                                  embed_deeper(pair, pair.depth + 2)), 30)
    assert net.hidden_bias[1, -1] == -2.5 and not net.hidden_weights[1, -1, :-1].any()
    writes = net.hidden_weights[:, -1, :-1].any(axis=1) | (net.hidden_bias[:, -1] != 0.0)
    assert 0 < writes.sum() < writes.size - 5 and not writes[0]
    last = np.flatnonzero(writes).max()
    assert last < writes.size - 1
    step, steps = _SharedGrid.step, []

    def counted(shared, weights, bias):
        steps.append(weights)
        return step(shared, weights, bias)

    monkeypatch.setattr(_SharedGrid, "step", counted)
    std = special_to_standard(net)
    assert len(steps) == last
    monkeypatch.undo()
    assert same_lifts(std, net)


def test_node_budget_counts_distinct_nodes(monkeypatch):
    # 8 hats in sequence: 2^8 + 1 output nodes, but the shared grid peaks at
    # 641 nodes on the way (crossings of all four channels of a layer)
    deep = plain_net(cpwl.hat(), 4)
    for _ in range(7):
        deep = compose_nets(deep, plain_net(cpwl.hat(), 4))
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 641)
    assert extract_cpwl(deep).n_interior == 255
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 640)
    with pytest.raises(ResourceError):
        extract_cpwl(deep)


def test_reset_layer_counts_on_compiled_networks():
    rng = np.random.default_rng(115)
    narrow, _ = compile_spline(random_spline(rng, 6400), 4)
    assert narrow.depth - 1 == 3199
    assert np.array_equal(reset_layers(narrow), np.arange(narrow.depth))
    wide = compiler._compile_wide(random_spline(rng, 400), 8)
    assert np.array_equal(reset_layers(wide), np.arange(0, wide.depth, 2))
    takagi = takagi_network([2.0 ** -k for k in range(1, 11)])
    assert np.array_equal(reset_layers(takagi), [0])
    assert np.array_equal(reset_layers(plain_net(random_spline(rng, 5), 4)), [0])


def _mixed(rng, kinds):
    """W=8 special networks of mixed segment depths, one per kind: a wide-form
    spline (depth-2 segments), a zero network (depth-1 segments), a stack of
    one-layer W=6 networks with weights of both signs (depth-1 segments) and
    a stack of plain W=6 networks (deeper segments)."""
    nets = []
    for kind in kinds:
        if kind == 0:
            nets.append(compiler._compile_wide(random_spline(rng, int(rng.integers(1, 40))), 8))
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
def test_segmented_network_respects_node_budget(width, n, monkeypatch):
    net, _ = compile_spline(random_spline(np.random.default_rng(117), n), width)
    assert reset_layers(net).size > 1
    full = extract_cpwl(net)
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 10 * n)
    _assert_identical(extract_cpwl(net), full)
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", n // 2)
    with pytest.raises(ResourceError):
        extract_cpwl(net)


def _stepped(net, monkeypatch):
    """extract_cpwl of net through the layer stepper, as if it had no closed form."""
    with monkeypatch.context() as patch:
        patch.setattr(network, "_closed_form", lambda net: None)
        return extract_cpwl(net)


def _worst_error(f, net):
    """Largest |f - net| at the nodes of f, against the network's exact function."""
    exact = exact_values(net, f.breakpoints)
    return float(max(abs(Fraction(v) - e) for v, e in zip(f.values.tolist(), exact)))


@pytest.mark.parametrize("width", [8, 9, 13, 20, 26, 32])
def test_two_deep_closed_form_within_four_kappa_u_or_the_stepper(width, monkeypatch):
    """At its own nodes, the closed form (`_depth_two`) of a wide-form W >= 8
    spline is as close to the network's exact function as the larger of
    4 kappa u of the target and the layer stepper's worst error at its nodes.
    A few knots padded into one block sum hats far larger than the target,
    which no float extraction reads within a few kappa u; the two extractors
    sum a node's rows in different orders, which may cost one rounding of
    the largest value (u max|f|; the stepper was ahead by at most 0.003
    kappa u over 1296 such networks)."""
    rng = np.random.default_rng(130 + width)
    for n in (1, 7, 97):
        for scale in (2.0, 1e4):
            f = random_spline(rng, n, -scale, scale)
            net = compiler._compile_wide(f, width)
            assert network._closed_form(net) is network._depth_two
            stepped = _worst_error(_stepped(net, monkeypatch), net) + U * np.abs(f.values).max()
            bound = max(4.0 * _kappa_u(f), stepped)
            assert _worst_error(extract_cpwl(net), net) <= bound, (n, scale)


@pytest.mark.parametrize("width, blocks", [(14, 267), (20, 119)])
def test_many_block_wide_splines_within_four_kappa_u(width, blocks):
    """`compile_spline`'s largest wide forms: n = 6400 knots fill 267 blocks
    at W = 14 and 119 at W = 20, and the closed form still reads the target
    within the two-deep bound of 4 kappa u (0.64-1.54 kappa u measured)."""
    assert math.ceil(6400 / compiler.block_size(width)) == blocks
    for seed in (1, 2, 3):
        f = random_spline(np.random.default_rng(seed), 6400)
        net, _ = compile_spline(f, width)
        assert network._closed_form(net) is network._depth_two
        assert cpwl.sup_diff(extract_cpwl(net), f) <= 4.0 * _kappa_u(f), seed


def test_mixed_depth_networks_extract_as_stepped(monkeypatch):
    """A W = 8 wide-form spline joined to a stack of one-layer networks
    (segments one and two deep) and a Takagi network (one deep segment) have
    no closed form: they extract through the layer stepper, to the bit."""
    rng = np.random.default_rng(131)
    shallow = [ReluNetwork(*rng.uniform(-2.0, 2.0, (2, 6)), np.zeros((0, 6, 6)), np.zeros((0, 6)),
                           rng.uniform(-2.0, 2.0, 6), 0.5) for _ in range(2)]
    mixed = concat_sum(compiler._compile_wide(random_spline(rng, 30), 8),
                       stack_sum(shallow, [1.0, -0.5]))
    takagi = takagi_network([2.0 ** -k for k in range(1, 9)])
    assert {1, 2} <= set(np.diff(reset_layers(mixed), append=mixed.depth))
    for net in (mixed, takagi):
        assert network._closed_form(net) is None
        _assert_identical(extract_cpwl(net), _stepped(net, monkeypatch))


def test_depth_two_grows_its_grid_as_the_scatter_reference(monkeypatch):
    """`_depth_two` grows the segments' grids through one `cpwl._insert`
    call: nodes and values to the bit, signs of zero included, of the body
    that scattered them itself (`reference_depth_two`), on wide-form splines
    of values in [-s, s], s = 1 and 1e4, on the benchmark's W = 32
    clustered-knots spline, and on random two-deep networks, whose first
    collation read (zero in a compiled spline) is interpolated at the
    crossings too."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import workloads

    rng = np.random.default_rng(137)
    nets = [compiler._compile_wide(random_spline(rng, n, -scale, scale), width)
            for width in (8, 9, 13, 14, 20, 26, 32) for n in (1, 7, 97, 400, 3200)
            for scale in (1.0, 1e4)]
    adv = np.random.default_rng(workloads.ADVERSARIAL_SEED)
    canary = [gen(adv, workloads.ADVERSARIAL_N) for _ in (8, 13, 32)
              for gen in workloads.ADVERSARIAL.values()][7]
    nets.append(compile_spline(cpwl.CPwL(*canary), 32)[0])
    nets += [two_deep_net(rng, width, segments) for width in (4, 7, 10, 16)
             for segments in (1, 2, 5, 9) for _ in range(3)]
    for net in nets:
        assert network._closed_form(net) is network._depth_two
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as extract_cpwl
            same_bits(network._depth_two(net), reference_depth_two(net))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(4, 10), segments=st.integers(1, 4))
def test_two_deep_networks_match_reference(seed, width, segments):
    # random weights of both signs, zeros among them: not only compiled blocks
    net = two_deep_net(np.random.default_rng(seed), width, segments)
    assert network._closed_form(net) is network._depth_two
    _assert_close(extract_cpwl(net), reference_extract(net))


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


def test_knots_1e13_apart_on_ramps_within_kappa_u():
    """Three knots 1e-13 apart just below 0.95 among 20 random ones: the
    ramps of W = 8 and 13 extract within kappa u of the target (the wide
    form's hat solve divides by those gaps; it read 2.03 kappa u at W = 13)."""
    rng = np.random.default_rng(3)
    x = np.r_[0.0, np.sort(rng.uniform(0.0, 0.9, 20)), 0.95 - np.array([3e-13, 2e-13, 1e-13]), 1.0]
    f = cpwl.CPwL(x, rng.uniform(-2.0, 2.0, x.size))
    assert f.n_interior == 23
    for width in (8, 13):
        net, _ = compile_spline(f, width)
        assert cpwl.sup_diff(extract_cpwl(net), f) <= _kappa_u(f), width


def test_fourier_canary_within_kappa_u():
    # the benchmark's large-coefficient sum: two segments of depth 7
    terms = [(18, -764.8866776838437, 836.5627152718496),
             (8, 567.8061312607904, 915.386755555927),
             (24, 2.7824910497016617, 764.850914379376)]
    net, _ = compile_fourier_sum(terms, 10)
    target = fourier_oracle(terms)
    assert _kappa_u(target) == pytest.approx(5.30e-11, rel=1e-3)
    assert cpwl.sup_diff(extract_cpwl(net), target) <= _kappa_u(target)
    # pairs built without a lift read 0.29 kappa u (0.30 with the lift)
    assert cpwl.sup_diff(extract_cpwl(net), target) <= 0.5 * _kappa_u(target)


def test_converted_narrow_splines_stay_within_16_kappa_u():
    # the collation rail starts at one lift, the floor of every course, so its
    # rounding stays at the scale of the courses
    rng = np.random.default_rng(7)
    for width in (4, 5, 6, 7):
        for n in (200, 800):
            for hi in (2.0, 1e4):
                f = random_spline(rng, n, -hi, hi)
                std = special_to_standard(compile_spline(f, width)[0])
                assert cpwl.sup_diff(extract_cpwl(std), f) <= 16.0 * _kappa_u(f), (width, n, hi)


def test_extraction_identical_with_searched_crossings(monkeypatch):
    """Crossings that carry their segment give the extraction that sorted
    crossings placed by np.searchsorted give, bit for bit: Takagi orders
    1..16 and 30 seeded trigonometric sums."""
    rng = np.random.default_rng(29)
    nets = [takagi_network([2.0 ** -(i + 1) for i in range(m)]) for m in range(1, 17)]
    for _ in range(30):
        js = rng.choice(np.arange(1, 25), int(rng.integers(1, 4)), replace=False)
        terms = [(int(j), float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
                 for j in js]
        nets.append(compile_fourier_sum(terms, int(rng.integers(6, 12)))[0])
    got = [extract_cpwl(net) for net in nets]
    monkeypatch.setattr(_SharedGrid, "_relu", reference_shared_relu)
    for net, f in zip(nets, got):
        assert same_cpwl(f, extract_cpwl(net))


def _padded_corpus():
    """Seeded Fourier sums at W = 6, 10 and 14, `_deepen`-padded atoms,
    `embed_deeper` pairs, `compile_composition` networks, zero summands, a
    network whose first hidden layer is an identity layer, and Takagi orders
    1..16."""
    rng = np.random.default_rng(31)
    for width in (6, 10, 14):
        for _ in range(6):
            js = rng.choice(np.arange(1, 40), int(rng.integers(1, 6)), replace=False)
            yield compile_fourier_sum([(int(j), *rng.uniform(-2.0, 2.0, 2)) for j in js], width)[0]
    for kind in ("cosine", "sine"):
        for j in (1, 2, 3, 5, 8, 13, 33):
            atom = fourier_atom(kind, j)
            yield from (_deepen(atom, atom.depth + extra) for extra in (1, 7))
    yield from list(_fourier_pairs())[::5]
    for k in (1, 2, 3):
        chain = [random_spline(rng, 4, 0.05, 0.95) for _ in range(k - 1)] + [random_spline(rng, 5)]
        yield compile_composition(chain, 8)[0]
    yield from (zero_special(width, depth) for width, depth in ((4, 1), (4, 3), (7, 5)))
    # an identity first hidden layer steps: its prune drops the input layer's
    # kink at 0.5 (a slope change of 2e-20), which the 1e20 weight after it reads
    yield ReluNetwork([1.0, 2e-20], [0.0, -1e-20], [np.eye(2), [[1.0, 0.0], [0.0, 1e20]]],
                      [[0.0, 0.0], [0.0, -0.25]], [0.0, 1.0], 0.0)
    yield from (takagi_network([2.0 ** -(i + 1) for i in range(m)]) for m in range(1, 17))


def _identity_grid(grid, vals):
    """A plain network's shared grid set to (grid, vals); stepping it through
    the identity layer with zero bias reads vals as the pre-activation."""
    rows = vals.shape[0]
    shared = _SharedGrid(ReluNetwork(np.ones(rows), np.zeros(rows), np.eye(rows)[None],
                                     np.zeros((1, rows)), np.ones(rows), 0.0))
    shared.grid, shared.vals = grid, vals
    return shared


def _step_both(shared, weights, bias):
    """The grid, rows and return value of the blocked step, and of the
    unblocked reference step on a copy."""
    ref = _identity_grid(shared.grid, shared.vals)
    ref.__dict__.update(shared.__dict__)
    with np.errstate(over="ignore", invalid="ignore"):
        dropped = shared.step(weights, bias)
        ref_dropped = reference_unblocked_step(ref, weights, bias)
    assert dropped == ref_dropped
    return (shared.grid, shared.vals), (ref.grid, ref.vals)


@pytest.mark.parametrize("rows", [1, 2, 6])
def test_blocked_step_matches_the_unblocked_step(rows, monkeypatch):
    """The layer step runs block by block: grids of block - 1, block, block +
    1 and 3 block + 7 nodes, at the library's block and at a block of 7, step
    to the reference's grid and rows, through the identity layer and a mixing
    one."""
    rng = np.random.default_rng(67 + rows)
    for block in (cpwl._SWEEP_BLOCK, 7):
        monkeypatch.setattr(cpwl, "_SWEEP_BLOCK", block)
        for size in (block - 1, block, block + 1, 3 * block + 7):
            grid, vals = seam_rows(rng, size, rows)
            for weights in (np.eye(rows), rng.normal(size=(rows, rows))):
                bias = rng.normal(size=rows) * 0.1
                got, want = _step_both(_identity_grid(grid, vals), weights, bias)
                assert not np.array_equal(got[0], grid)
                same_bits(got, want)


def test_crossings_at_a_block_seam_are_inserted_once(monkeypatch):
    """Blocks of 8 segments meet at node 8: a row that crosses zero in the
    last segment of one block and in the first of the next, and a row that
    is 0 of either sign at the seam, step as the reference steps them; the
    prune drops every straight node around them."""
    monkeypatch.setattr(cpwl, "_SWEEP_BLOCK", 8)
    grid = np.linspace(0.0, 1.0, 25)
    for zero in (0.0, -0.0):
        vals = np.stack([np.full(25, 1.0), np.linspace(-1.0, 2.0, 25), 1.0 + grid])
        vals[0, 7:10] = [-1.0, 1.0, -1.0]
        vals[1, 8] = zero
        got, want = _step_both(_identity_grid(grid, vals), np.eye(3), np.zeros(3))
        same_bits(got, want)
        # one crossing on either side of the seam node, which kinks and stays
        inside = [((got[0] > grid[i]) & (got[0] < grid[i + 1])).sum() for i in (7, 8)]
        assert inside == [1, 1] and grid[8] in got[0]


def test_extraction_identical_with_the_unblocked_step(monkeypatch):
    """Takagi orders 1..20 and the padded corpus extract to the bits the
    unblocked step gives, at the library's block and, for the padded corpus,
    at a block of 7 segments and nodes; Takagi 21 outgrows the node budget
    with the reference's error."""
    takagi = [takagi_network([2.0 ** -(i + 1) for i in range(m)]) for m in range(1, 21)]
    corpus = list(_padded_corpus())
    got = [extract_cpwl(net) for net in takagi + corpus]
    monkeypatch.setattr(cpwl, "_SWEEP_BLOCK", 7)
    small = [extract_cpwl(net) for net in corpus]
    big = takagi_network([2.0 ** -(i + 1) for i in range(21)])
    monkeypatch.undo()
    with pytest.raises(ResourceError) as blocked:
        extract_cpwl(big)
    monkeypatch.setattr(_SharedGrid, "step", reference_unblocked_step)
    for net, f in zip(takagi + corpus, got):
        want = extract_cpwl(net)
        same_bits((f.breakpoints, f.values), (want.breakpoints, want.values))
    for net, f in zip(corpus, small):
        want = extract_cpwl(net)
        same_bits((f.breakpoints, f.values), (want.breakpoints, want.values))
    with pytest.raises(ResourceError) as unblocked:
        extract_cpwl(big)
    assert str(blocked.value) == str(unblocked.value) == "extraction grew past 2097152 nodes"
