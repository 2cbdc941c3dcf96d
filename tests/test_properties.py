"""Property tests: compile -> extract round trips on adversarial spacings, and
the laws of the CPwL algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import reference_compile_wide, reference_extract, same_lifts, same_weights
from spline2relu import cpwl
from spline2relu.compiler import _compile_wide, compile_spline
from spline2relu.network import extract_cpwl, special_to_standard


@st.composite
def splines(draw, scale=10.0):
    """Up to 200 knots whose gaps spread over up to three decades, values in +-scale."""
    # hypothesis leans to small sizes; the second branches keep the extremes in
    n = draw(st.integers(0, 200) | st.integers(150, 200))
    decades = draw(st.floats(0.0, 3.0) | st.just(3.0))
    # fill=nothing draws every element, instead of repeating one fill value
    spread = draw(arrays(np.float64, n + 1, elements=st.floats(0.0, 1.0), fill=st.nothing()))
    gaps = 10.0 ** (decades * spread)
    inner = np.cumsum(gaps)[:-1] / gaps.sum()
    x = np.concatenate(([0.0], inner, [1.0]))
    values = draw(arrays(np.float64, n + 2, elements=st.floats(-scale, scale),
                         fill=st.nothing()))
    return cpwl.CPwL(x, values)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=splines(), width=st.integers(4, 32))
def test_compile_extract_round_trip(f, width):
    # roundoff grows with the steepest slope (1.7e-8 at three decades), so
    # the bound scales with it instead of a flat 1e-9
    bound = 1e-12 * (1.0 + float(np.abs(np.diff(f.values) / np.diff(f.breakpoints)).max()))
    net, _ = compile_spline(f, width)
    got = extract_cpwl(net)
    assert cpwl.sup_diff(got, f) <= bound
    assert cpwl.sup_diff(got, reference_extract(net)) <= bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=splines(1e3), width=st.integers(8, 38))
def test_compile_wide_matches_block_reference(f, width):
    assert same_weights(_compile_wide(f, width), reference_compile_wide(f, width))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(f=splines(1e3), width=st.integers(4, 38))
def test_lifts_identical_to_reference(f, width):
    net, _ = compile_spline(f, width)
    assert same_lifts(special_to_standard(net), net)


def _size(f):
    """max |slope| + max |value|: moving a node by one rounding moves the
    function by about eps times the slope there."""
    slopes = np.diff(f.values) / np.diff(f.breakpoints)
    return float(np.abs(slopes).max() + np.abs(f.values).max())


LAWS = settings(max_examples=30, deadline=None, derandomize=True)
coefficients = st.floats(-2.0, 2.0)


@LAWS
@given(f=splines(1e4), g=splines(1e4), a=coefficients, b=coefficients,
       c=st.floats(-1e4, 1e4))
def test_combine_is_pointwise(f, g, a, b, c):
    h = cpwl.combine([f, g], [a, b], c)
    xs = np.union1d(np.union1d(f.breakpoints, g.breakpoints), np.linspace(0.0, 1.0, 101))
    bound = 1e-12 * (1.0 + abs(a) * _size(f) + abs(b) * _size(g) + abs(c))
    assert np.abs(h(xs) - (a * f(xs) + b * g(xs) + c)).max() <= bound


@LAWS
@given(f=splines(1e4))
def test_relu_splits_a_function(f):
    neg = cpwl.combine([f], [-1.0])
    split = cpwl.combine([cpwl.relu(f), cpwl.relu(neg)], [1.0, -1.0])
    assert cpwl.sup_diff(split, f) <= 1e-12 * (1.0 + _size(f))


@LAWS
@given(f=splines(1e4))
def test_reflect_is_an_involution(f):
    assert cpwl.sup_diff(cpwl.reflect(cpwl.reflect(f)), f) <= 1e-12 * (1.0 + _size(f))


@LAWS
@given(f=splines(1e4))
def test_compose_with_identity(f):
    assert cpwl.sup_diff(cpwl.compose(f, cpwl.line(1.0, 0.0)), f) <= 1e-12 * (1.0 + _size(f))


@LAWS
@given(f=splines(1e4), g=splines(1e4))
def test_sup_diff_is_symmetric(f, g):
    assert cpwl.sup_diff(f, g) == cpwl.sup_diff(g, f)
