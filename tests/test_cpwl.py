"""Function-algebra tests: canonical form, operations, closed forms, file IO."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_spline,
    reference_canonical,
    reference_hat_iterate,
    reference_relu,
    reference_sine_cpwl,
    reference_takagi_partial,
    reference_write_spline,
    same_cpwl,
)
from spline2relu import cpwl
from spline2relu.errors import DomainError, ParseError, ResourceError


def test_canonical_form_removes_collinear_nodes():
    f = cpwl.CPwL([0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 1.0, 2.0])
    assert f.n_interior == 0
    assert np.array_equal(f.breakpoints, [0.0, 1.0])
    assert np.array_equal(f.values, [0.0, 2.0])


def test_canonical_form_keeps_real_kinks():
    f = cpwl.CPwL([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert f.n_interior == 1
    g = cpwl.CPwL([0.0, 0.3, 0.5, 1.0], [0.0, 0.6, 1.0, 0.0])
    assert g.n_interior == 1


def test_canonical_form_refuses_an_overflowing_slope():
    # slopes 1e308 and 2e308 = inf: the kink at 0.5 is real but gap > tol
    # reads inf > inf
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match="slope overflows"):
            cpwl.CPwL([0.0, 0.5, 1.0], [0.0, 5e307, 1.5e308])
        with pytest.raises(DomainError, match="slope overflows"):
            cpwl.CPwL([0.0, 1e-320, 1.0], [0.0, 1.0, 1.0])
        # huge but finite slopes still canonicalize; a slope change that
        # overflows is a kink
        line = cpwl.CPwL([0.0, 0.5, 1.0], [0.0, 5e307, 1e308])
        assert np.array_equal(line.breakpoints, [0.0, 1.0])
        assert cpwl.CPwL([0.0, 0.5, 1.0], [0.0, 5e307, 0.0]).n_interior == 1


def test_constructor_validation():
    with pytest.raises(DomainError):
        cpwl.CPwL([0.0, 1.0], [1.0])
    with pytest.raises(DomainError):
        cpwl.CPwL([0.1, 1.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        cpwl.CPwL([0.0, 0.9], [0.0, 1.0])
    with pytest.raises(DomainError):
        cpwl.CPwL([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        cpwl.CPwL([0.0, 1.0], [np.nan, 0.0])
    with pytest.raises(DomainError):
        cpwl.CPwL([0.0], [0.0])


def test_immutability():
    f = cpwl.hat()
    with pytest.raises(AttributeError):
        f.values = np.array([0.0, 2.0, 0.0])
    assert not f.breakpoints.flags.writeable


def test_eval_exact_at_nodes_and_scalar_vs_array():
    f = cpwl.CPwL([0.0, 0.3, 1.0], [1.0, -2.0, 4.0])
    assert f(0.3) == -2.0
    assert f(0.0) == 1.0
    out = f(np.array([0.0, 0.3, 1.0]))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, [1.0, -2.0, 4.0])
    with pytest.raises(DomainError):
        f(1.5)


def test_line_and_hat():
    f = cpwl.line(3.0, -1.0)
    assert f(0.0) == -1.0 and f(1.0) == 2.0
    h = cpwl.hat()
    assert h(0.5) == 1.0 and h(0.25) == 0.5


def test_combine_matches_pointwise():
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(20):
        fs = [random_spline(rng, int(rng.integers(0, 9))) for _ in range(3)]
        coeffs = rng.uniform(-2.0, 2.0, 3)
        offset = float(rng.uniform(-1.0, 1.0))
        got = cpwl.combine(fs, coeffs, offset)(grid)
        want = offset + sum(c * f(grid) for c, f in zip(coeffs, fs))
        assert np.abs(got - want).max() <= 1e-12


def test_combine_interpolates_one_part_at_a_time():
    """Summing 16 sawtooth iterates holds about seven arrays of the merged
    grid's size at its peak; one interpolation per part held at once would
    add 16 more."""
    fs = [cpwl.hat_iterate(k) for k in range(1, 17)]
    n = fs[-1].breakpoints.size
    tracemalloc.start()
    try:
        cpwl.combine(fs, [1.0] * len(fs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * n


def test_add_is_weighted_sum():
    rng = np.random.default_rng(1)
    f = random_spline(rng, 4)
    g = random_spline(rng, 7)
    grid = np.linspace(0.0, 1.0, 501)
    got = cpwl.add(f, g, 2.0, -0.5)(grid)
    assert np.abs(got - (2.0 * f(grid) - 0.5 * g(grid))).max() <= 1e-12


def test_compose_order_and_values():
    two = cpwl.compose(cpwl.hat(), cpwl.hat())
    assert two.n_interior == 3
    assert np.array_equal(two.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(two.values, [0.0, 1.0, 0.0, 1.0, 0.0])
    rng = np.random.default_rng(2)
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(20):
        outer = random_spline(rng, int(rng.integers(1, 8)))
        inner = random_spline(rng, int(rng.integers(1, 8)), 0.0, 1.0)
        got = cpwl.compose(outer, inner)(grid)
        assert np.abs(got - outer(inner(grid))).max() <= 1e-10


def test_compose_rejects_escaping_inner():
    big = cpwl.line(2.0, -0.5)
    with pytest.raises(DomainError):
        cpwl.compose(cpwl.hat(), big)


def test_relu_inserts_exact_crossings():
    f = cpwl.line(2.0, -1.0)
    r = cpwl.relu(f)
    assert np.array_equal(r.breakpoints, [0.0, 0.5, 1.0])
    assert np.array_equal(r.values, [0.0, 0.0, 1.0])
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(20):
        f = random_spline(rng, int(rng.integers(0, 10)))
        got = cpwl.relu(f)(grid)
        assert np.abs(got - np.maximum(f(grid), 0.0)).max() <= 1e-12


def _outcome(build, *args):
    """The (nodes, values) that build(*args) gives, or its DomainError's text."""
    try:
        out = build(*args)
    except DomainError as exc:
        return str(exc)
    return (out.breakpoints, out.values) if isinstance(out, cpwl.CPwL) else out


def _same_outcome(got, want):
    """Bit for bit, signs of zero included, or the same error text."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return all(np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
               for a, b in zip(got, want))


def _check_rules_against_references(x, v):
    """The CPwL canonical form and cpwl.relu match the test-only references
    in conftest on the nodal arrays (x, v)."""
    x, v = np.array(x, dtype=float), np.array(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = _outcome(reference_canonical, x.copy(), v.copy())
        assert _same_outcome(_outcome(cpwl.CPwL, x.copy(), v.copy()), want)
        if not isinstance(want, str):
            f = cpwl.CPwL(x, v)
            assert _same_outcome(_outcome(cpwl.relu, f), _outcome(reference_relu, f))


def _line_plus(x, slope, jump):
    """Two lines of slope `slope` and slope * (1 + jump) meeting at x = 0.5."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.5, slope * x, slope * 0.5 + slope * (1.0 + jump) * (x - 0.5))


_OVERFLOWING_SLOPES = [([0.0, 0.5, 1.0], [0.0, 5e307, 1.5e308]), ([0.0, 1e-320, 1.0], [0.0, 1.0, 1.0])]
_RULE_EDGES = [
    ([0.0, 0.5, 1.0], [1e300, -1e300, 1e300]),  # a * b overflows to -inf
    ([0.0, 0.5, 1.0], [-1e300, 1e300, -1e300]),
    ([0.0, 0.5, 1.0], [-1e-300, 1e-300, -1e-300]),  # a * b underflows to -0
    ([0.0, 1.0], [-1e-15, 1.0]),  # crossings within CROSSING_SNAP of a node
    ([0.0, 1.0], [1.0, -1e-15]),
    ([0.0, 0.5, 1.0], [-1.0, 1.0, -5e-15]),
    ([0.0, 1.0], [-1e-14, 1.0 - 1e-14]),  # exactly CROSSING_SNAP from 0
    ([0.0, 1.0], [-1e-13, 1.0]),  # just outside it
    ([0.0, 1.0], [1.0, -2e-14]),
    ([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, -1.0, 0.0, 1.0, 0.0]),  # exact zeros at nodes
    ([0.0, 0.5, 1.0], [-0.0, 1.0, -0.0]),
    ([0.0, 0.5, 1.0], [0.0, -0.0, 0.0]),
    (np.linspace(0.0, 1.0, 6), 2.0 * np.linspace(0.0, 1.0, 6) - 1.0),  # collinear runs
    (np.linspace(0.0, 1.0, 11), 3.0 * np.linspace(0.0, 1.0, 11) - 1.3),
    ([0.0, 0.1, 0.2, 0.6, 0.8, 1.0], [1.0, 0.5, 0.0, 0.0, 0.0, -1.0]),
    *[([0.0, 0.5, 1.0], _line_plus([0.0, 0.5, 1.0], slope, jump))  # kinks next to SLOPE_TOL
      for slope in (1.0, -1.0, 1e5, -3e7, 0.25)
      for jump in (1.01e-10, 0.99e-10, -1.01e-10, -0.99e-10, 2e-10, 5e-11)],
    *_OVERFLOWING_SLOPES,
    ([0.0, 0.5, 1.0], [0.0, 5e307, 0.0]),  # a slope change that overflows is a kink
]


@pytest.mark.parametrize("x, v", _RULE_EDGES)
def test_rules_match_references_on_edges(x, v):
    _check_rules_against_references(x, v)


def test_rules_raise_on_an_overflowing_slope():
    with np.errstate(over="ignore"):
        for x, v in _OVERFLOWING_SLOPES:
            assert (_outcome(cpwl.CPwL, x, v) == cpwl.SLOPE_OVERFLOW
                    == _outcome(reference_canonical, np.array(x), np.array(v)))


@st.composite
def nodal_arrays(draw):
    """Up to 30 interior nodes, drawn one by one or spread at random, and
    values at scales from 1e-300 to 1e300: random signs, or a line plus noise
    near SLOPE_TOL, with zeros of both signs and values within CROSSING_SNAP
    of zero mixed in."""
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                              min_size=n, max_size=n, unique=True))
    else:
        inner = np.unique(rng.uniform(0.0, 1.0, n))
    x = np.concatenate(([0.0], np.sort(inner), [1.0]))
    v = rng.uniform(-1.0, 1.0, x.size)
    special = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 1e-14]), max_size=4))
    v[rng.integers(0, x.size, len(special))] = special
    if draw(st.booleans()):
        slope, root = draw(st.floats(-4.0, 4.0)), draw(st.floats(-0.5, 1.5))
        v = slope * (x - root) + draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-8])) * v
    return x, v * draw(st.sampled_from([1.0, 1e-300, 1e-150, 1e150, 1e300]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nodal_arrays())
def test_rules_match_references(xv):
    _check_rules_against_references(*xv)


def test_cpwl_owns_its_arrays():
    """Writing into the arrays a CPwL was built from, or into the base of a
    view it was built from, leaves the function as it was, whether the
    canonical form drops nodes or not; the caller's arrays stay writeable."""
    grid = np.linspace(0.0, 1.0, 9)
    for x, v in (([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]), ([0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 1.0, 0.0])):
        x, v = np.array(x), np.array(v)
        f = cpwl.CPwL(x, v)
        want = f(grid)
        assert x.flags.writeable and v.flags.writeable
        x[1] = v[1] = 0.375
        assert np.array_equal(f(grid), want)
    base = np.array([0.0, 1.0, 0.0, 7.0])
    f = cpwl.CPwL([0.0, 0.5, 1.0], base[:3])
    base[1] = 5.0
    assert f(0.5) == 1.0


def test_reflect_and_restrict():
    rng = np.random.default_rng(4)
    f = random_spline(rng, 6)
    grid = np.linspace(0.0, 1.0, 1001)
    assert np.abs(cpwl.reflect(f)(grid) - f(1.0 - grid)).max() <= 1e-12
    r = cpwl.restrict(f, 0.2, 0.7)
    assert np.abs(r(grid) - f(0.2 + 0.5 * grid)).max() <= 1e-12
    assert cpwl.sup_diff(cpwl.restrict(f, 0.0, 1.0), f) == 0.0


def test_sup_diff_attained_on_nodes():
    assert cpwl.sup_diff(cpwl.hat(), cpwl.line(0.0, 0.0)) == 1.0
    f = cpwl.CPwL([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])
    assert cpwl.sup_diff(f, cpwl.line(1.0, 0.0)) == 0.25
    assert cpwl.deviation(f, cpwl.line(1.0, 0.0)) == (0.25, 0.5)
    # ties go to the first node of the merged set
    assert cpwl.deviation(cpwl.line(0.0, 1.0), cpwl.hat()) == (1.0, 0.0)
    g = cpwl.CPwL([0.0, 0.3, 1.0], [0.0, -2.0, 0.5])
    assert cpwl.deviation(f, g) == (cpwl.sup_diff(f, g), 0.3)


def test_hat_iterate_against_closed_form():
    for k in range(1, 11):
        saw = cpwl.hat_iterate(k)
        assert saw.n_interior == 2 ** k - 1
        grid = np.linspace(0.0, 1.0, 4097)
        assert np.abs(saw(grid) - cpwl.hat_iterate_value(k, grid)).max() <= 1e-12


def test_hat_iterate_budget(monkeypatch):
    with pytest.raises(ResourceError):
        cpwl.hat_iterate(25)
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 100)
    with pytest.raises(ResourceError):
        cpwl.hat_iterate(8)


def test_takagi_partial_values_and_budget():
    zero = cpwl.takagi_partial([])
    assert cpwl.sup_diff(zero, cpwl.line(0.0, 0.0)) == 0.0
    coeffs = [2.0 ** -(k + 1) for k in range(10)]
    t = cpwl.takagi_partial(coeffs)
    grid = np.linspace(0.0, 1.0, 4097)
    want = sum(c * cpwl.hat_iterate_value(k + 1, grid) for k, c in enumerate(coeffs))
    assert np.abs(t(grid) - want).max() <= 1e-12
    with pytest.raises(ResourceError):
        cpwl.takagi_partial(np.ones(25))


def test_sawtooth_builders_identical_to_composition_chains():
    """hat_iterate and takagi_partial, built from the sawtooth's nodes, hold
    the composition chain's breakpoints and values to the bit."""
    for k in range(1, 17):
        assert same_cpwl(cpwl.hat_iterate(k), reference_hat_iterate(k)), k
    rng = np.random.default_rng(20)
    for m in range(15):
        for coeffs in ([2.0 ** -(i + 1) for i in range(m)], rng.uniform(-1.0, 1.0, m), [0.0] * m):
            assert same_cpwl(cpwl.takagi_partial(coeffs), reference_takagi_partial(coeffs)), m


def test_sine_basis_identical_to_node_loop():
    for k in range(1, 401):
        assert same_cpwl(cpwl.basis_fn("sine", k), reference_sine_cpwl(k)), k


def test_spline_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    f = random_spline(rng, 13)
    path = tmp_path / "f.spline"
    cpwl.write_spline(f, path)
    g = cpwl.read_spline(path)
    assert np.array_equal(f.breakpoints, g.breakpoints)
    assert np.array_equal(f.values, g.values)
    again = tmp_path / "g.spline"
    cpwl.write_spline(g, again)
    assert path.read_text() == again.read_text()


def test_spline_parse_errors(tmp_path):
    def failing(text):
        p = tmp_path / "bad.spline"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            cpwl.read_spline(p)
        return str(err.value)

    assert "line 1" in failing("")
    assert "line 1" in failing("not-a-count\n0 0\n1 1\n")
    assert "line 1" in failing("1\n0 0\n")
    assert "line 3" in failing("2\n0 0\n1\n")
    assert "line 3" in failing("2\n0 0\n1 oops\n")
    assert "line 4" in failing("2\n0 0\n1 1\ntrailing\n")
    assert "expected 'x value'" in failing("2\n0 0 7\n1 1\n")
    assert "start at 0" in failing("2\n0.5 0\n0.2 1\n")


def test_spline_parse_wraps_domain_errors(tmp_path):
    p = tmp_path / "bad.spline"
    p.write_text("2\n0.2 0\n1 1\n")
    with pytest.raises(ParseError):
        cpwl.read_spline(p)


def test_spline_parse_error_lines(tmp_path):
    """Full messages and line numbers; the first offending line in file order wins."""
    def failing(text):
        p = tmp_path / "bad.spline"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            cpwl.read_spline(p)
        return str(err.value), err.value.line

    # node lines may not be blank; trailing blank lines are fine
    assert failing("3\n0 0\n\n1 1\n") == ("line 3: expected 'x value'", 3)
    assert failing("3\n0 0\n  \t\n1 1\n") == ("line 3: expected 'x value'", 3)
    p = tmp_path / "ok.spline"
    p.write_text("3\n0 -0\n0.5 1e300\n1 5e-324\n\n  \n")
    f = cpwl.read_spline(p)
    assert np.array_equal(f.values, [0.0, 1e300, 5e-324])
    assert np.signbit(f.values[0])
    # a malformed number and a wrong count, each on its own
    assert failing("4\n0 0\n0.25 1\n0.5 1e\n1 1\n") == ("line 4: malformed number", 4)
    assert failing("4\n0 0\n0.25 1\n0.5\n1 1\n") == ("line 4: expected 'x value'", 4)
    assert failing("3\n0 0\n0.5 x y\n1 1\n") == ("line 3: expected 'x value'", 3)
    # two errors: the earlier line wins either way round
    assert failing("4\n0 0\n0.25 oops\n0.5\n1 1\n") == ("line 3: malformed number", 3)
    assert failing("4\n0 0\n0.25\n0.5 oops\n1 1\n") == ("line 3: expected 'x value'", 3)
    # too few lines is reported before any bad node line
    assert failing("4\n0 0\nx\n1 1\n") == ("line 4: expected 4 node lines, found 3", 4)
    # trailing content after blank lines; an earlier bad node line wins
    assert failing("2\n0 0\n1 1\n\n  \nextra\n") == (
        "line 6: trailing content after declared nodes", 6)
    assert failing("2\n0 0\n1 z\nextra\n") == ("line 3: malformed number", 3)
    # an invalid function parses but fails the CPwL check, without a line
    assert failing("2\n0.2 0\n1 1\n") == ("breakpoints must start at 0 and end at 1", None)


def test_write_spline_matches_reference(tmp_path):
    """Byte-identical to the per-number writer, and stable through a read."""
    odd = cpwl.CPwL([0.0, 5e-324, 1.0 / 3.0, 0.5, 0.75, 1.0],
                    [-0.0, 1e-323, 5e-324, 1e300, 1.0 / 3.0, 7.0])
    assert odd.breakpoints.size == 6
    rng = np.random.default_rng(23)
    for i, f in enumerate([cpwl.hat(), odd, random_spline(rng, 1), random_spline(rng, 400)]):
        path, ref, again = (tmp_path / f"{i}.{ext}" for ext in ("spline", "ref", "again"))
        cpwl.write_spline(f, path)
        reference_write_spline(f, ref)
        assert path.read_bytes() == ref.read_bytes()
        cpwl.write_spline(cpwl.read_spline(path), again)
        assert again.read_bytes() == ref.read_bytes()


def _percent_rows(values, sep):
    """'%.17g' text of a 2-d array, one '%' per number: the reference."""
    return "".join(sep.join("%.17g" % v for v in row) + "\n" for row in values.tolist())


def _format_edges():
    edges = [0.0, 5e-324, 1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
             1000000000000000.25, 1000000000000000.75, np.nextafter(1.0, 0.0),
             100000000000000.125]  # a tie below 1e15, rounded half to even
    for k in range(-5, 18):
        p = 10.0 ** k
        edges += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    # odd * 2^(x - 17) in [10^x, 10^(x + 1)) has 18 significant digits, the
    # last a 5: a tie at every fixed-notation exponent x
    for x in range(-4, 15):
        odd = math.ceil(10.0 ** x * 2.0 ** (17 - x)) | 1
        edges += [(odd + 2 * i) / 2.0 ** (17 - x) for i in range(3)]
    edges += [m / 2.0 ** k for m in (1, 3, 7, 99, 12345, 2 ** 53 - 1) for k in range(0, 80, 3)]
    edges = np.array(edges)
    return np.concatenate([edges, -edges])


def test_format_rows_matches_percent_on_edges():
    edges = _format_edges()
    assert cpwl._format_rows(edges[:, None], ",") == _percent_rows(edges[:, None], ",")
    rows = edges[:edges.size // 3 * 3].reshape(-1, 3)
    assert cpwl._format_rows(rows, " ") == _percent_rows(rows, " ")
    # random bit patterns (non-finite ones included) and log-uniform values
    # across the fixed-notation range
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(float).reshape(-1, 2)
    scaled = (10.0 ** rng.uniform(-5.0, 16.0, 40000) * rng.choice([-1.0, 1.0], 40000)).reshape(-1, 4)
    for values in (bits, scaled):
        assert cpwl._format_rows(values, ",") == _percent_rows(values, ",")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e15, 1e15),
                min_size=1, max_size=40))
def test_format_rows_matches_percent(values):
    column = np.array(values)[:, None]
    assert cpwl._format_rows(column, ",") == _percent_rows(column, ",")


def test_format_rows_memory_is_blocked():
    """2^20 values: the text is held twice (the blocks and their join) plus
    the scratch of one block, far below the hundreds of MB that formatting
    in one piece takes."""
    values = np.random.default_rng(32).uniform(-1.0, 1.0, (1 << 19, 2))
    tracemalloc.start()
    try:
        size = len(cpwl._format_rows(values, ","))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * size + (4 << 20)
