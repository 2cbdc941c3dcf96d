"""Shared-grid extraction against the per-channel reference in conftest."""

import numpy as np
import pytest

from conftest import plain_net, random_spline, reference_courses, reference_extract
from spline2relu import cpwl
from spline2relu.combinators import compose_nets, iterate_sum, stack_sum
from spline2relu.compiler import (
    compile_fourier_sum,
    compile_shallow,
    compile_spline,
    takagi_network,
)
from spline2relu.errors import ResourceError, StructureError
from spline2relu.network import (
    collation_courses,
    extract_cpwl,
    hat_net,
    special_to_standard,
)


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
        got, want = collation_courses(net), reference_courses(net)
        assert len(got) == len(want) == net.depth - 1
        for g, w in zip(got, want):
            _assert_close(g, w)
    with pytest.raises(StructureError):
        collation_courses(hat_net())


def test_special_to_standard_lifts_match_reference():
    rng = np.random.default_rng(114)
    net, _ = compile_spline(random_spline(rng, 20, -3.0, -1.0), 5)
    lifts = [max(0.0, -float(c.values.min())) for c in reference_courses(net)]
    std = special_to_standard(net)
    assert len(lifts) == len(std.hidden_bias)
    for bias, ref, c in zip(std.hidden_bias, net.hidden_bias, lifts):
        assert abs(bias[-1] - ref[-1] - c) <= 1e-12 * (1.0 + c)


def test_node_budget_counts_distinct_nodes():
    # 8 hats in sequence: 2^8 + 1 output nodes, but the shared grid peaks at
    # 641 nodes on the way (crossings of all four channels of a layer)
    deep = plain_net(cpwl.hat(), 4)
    for _ in range(7):
        deep = compose_nets(deep, plain_net(cpwl.hat(), 4))
    assert extract_cpwl(deep, node_budget=641).n_interior == 255
    with pytest.raises(ResourceError):
        extract_cpwl(deep, node_budget=640)
