"""Property tests: compile -> extract round trips on adversarial spacings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import reference_extract
from spline2relu import cpwl
from spline2relu.compiler import compile_spline
from spline2relu.network import extract_cpwl


@st.composite
def splines(draw):
    """Up to 200 knots whose gaps spread over up to three decades, values in +-10."""
    # hypothesis leans to small sizes; the second branches keep the extremes in
    n = draw(st.integers(0, 200) | st.integers(150, 200))
    decades = draw(st.floats(0.0, 3.0) | st.just(3.0))
    # fill=nothing draws every element, instead of repeating one fill value
    spread = draw(arrays(np.float64, n + 1, elements=st.floats(0.0, 1.0), fill=st.nothing()))
    gaps = 10.0 ** (decades * spread)
    inner = np.cumsum(gaps)[:-1] / gaps.sum()
    x = np.concatenate(([0.0], inner, [1.0]))
    values = draw(arrays(np.float64, n + 2, elements=st.floats(-10.0, 10.0),
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
