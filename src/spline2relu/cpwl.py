"""Continuous piecewise-linear functions on [0, 1] with exact nodal algebra.

A function is stored by its sorted breakpoints 0 = x_0 < ... < x_{n+1} = 1 and
the nodal values; between nodes it is the linear interpolant.  All operations
return canonical objects: interior nodes whose adjacent slopes agree within a
relative tolerance of 1e-10 are removed.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ParseError, ResourceError

SLOPE_TOL = 1e-10
# relu crossings closer than this to an existing node reuse that node
CROSSING_SNAP = 1e-14
# eval/compose tolerate this much float overshoot outside [0, 1]
EDGE_TOL = 1e-12
DEFAULT_NODE_BUDGET = 1 << 21
SLOPE_OVERFLOW = "a slope overflows, so a kink cannot be told from a straight node"


def _canonical_arrays(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop interior nodes whose adjacent slopes agree within SLOPE_TOL
    (relative).  A node to drop next to an overflowing slope raises
    DomainError: inf > inf is False, so the test cannot see its kink."""
    while x.size > 2:
        slopes = np.diff(v) / np.diff(x)
        gap = np.abs(np.diff(slopes))
        scale = np.maximum(1.0, np.maximum(np.abs(slopes[1:]), np.abs(slopes[:-1])))
        keep = gap > SLOPE_TOL * scale
        if keep.all():
            break
        if not np.isfinite(scale[~keep]).all():
            raise DomainError(SLOPE_OVERFLOW)
        mask = np.concatenate(([True], keep, [True]))
        x, v = x[mask], v[mask]
    return x, v


class CPwL:
    """Immutable continuous piecewise-linear function on [0, 1]."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        x = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape:
            raise DomainError("breakpoints and values must be 1-d arrays of equal length")
        if x.size < 2:
            raise DomainError("need at least the two endpoint nodes")
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise DomainError("nodes must be finite")
        if x[0] != 0.0 or x[-1] != 1.0:
            raise DomainError("breakpoints must start at 0 and end at 1")
        if not (np.diff(x) > 0).all():
            raise DomainError("breakpoints must be strictly increasing")
        x, v = _canonical_arrays(x, v)
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", x)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError("CPwL objects are immutable")

    @property
    def n_interior(self) -> int:
        """Number of breakpoints strictly inside (0, 1)."""
        return self.breakpoints.size - 2

    def eval(self, x) -> np.ndarray | float:
        """Evaluate at scalar or array x in [0, 1]; exact at nodes."""
        xa = np.asarray(x, dtype=float)
        if xa.size and (xa.min() < -EDGE_TOL or xa.max() > 1.0 + EDGE_TOL):
            raise DomainError("evaluation point outside [0, 1]")
        out = np.interp(np.clip(xa, 0.0, 1.0), self.breakpoints, self.values)
        return float(out) if np.isscalar(x) or xa.ndim == 0 else out

    __call__ = eval

    def __repr__(self) -> str:
        return f"CPwL(<{self.n_interior} interior nodes>)"


def line(slope: float, intercept: float) -> CPwL:
    """The affine function slope*x + intercept."""
    return CPwL([0.0, 1.0], [intercept, slope + intercept])


def hat() -> CPwL:
    """The unit hat: 0 at the endpoints, 1 at x = 1/2."""
    return CPwL([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])


def _merged_grid(fs: Iterable[CPwL]) -> np.ndarray:
    grids = [f.breakpoints for f in fs]
    out = grids[0]
    for g in grids[1:]:
        out = np.union1d(out, g)
    return out


def combine(fs: Sequence[CPwL], coeffs: Sequence[float], offset: float = 0.0) -> CPwL:
    """Affine combination sum_i coeffs[i]*fs[i] + offset on the merged node set."""
    if len(fs) != len(coeffs):
        raise DomainError("one coefficient per function required")
    if not fs:
        return line(0.0, offset)
    grid = _merged_grid(fs)
    vals = np.full(grid.shape, float(offset))
    for f, c in zip(fs, coeffs):
        if c != 0.0:
            vals += c * np.interp(grid, f.breakpoints, f.values)
    return CPwL(grid, vals)


def add(f: CPwL, g: CPwL, a: float = 1.0, b: float = 1.0) -> CPwL:
    """a*f + b*g."""
    return combine([f, g], [a, b])


def compose(f: CPwL, g: CPwL) -> CPwL:
    """f(g(x)).  Requires the range of g (its nodal values) inside [0, 1].

    Breakpoints of the result are g's breakpoints plus every preimage under g
    of an interior breakpoint of f.
    """
    gv = g.values
    if gv.min() < -EDGE_TOL or gv.max() > 1.0 + EDGE_TOL:
        raise DomainError("inner function escapes [0, 1]")
    x0 = g.breakpoints[:-1]
    dx = np.diff(g.breakpoints)
    a, b = gv[:-1], gv[1:]
    dv = b - a
    cuts = [g.breakpoints]
    for t in f.breakpoints[1:-1]:
        hit = ((a < t) & (t < b)) | ((b < t) & (t < a))
        if hit.any():
            cuts.append(x0[hit] + (t - a[hit]) * dx[hit] / dv[hit])
    grid = cuts[0]
    for extra in cuts[1:]:
        grid = np.union1d(grid, extra)
    inner = np.clip(np.interp(grid, g.breakpoints, g.values), 0.0, 1.0)
    vals = np.interp(inner, f.breakpoints, f.values)
    return CPwL(grid, vals)


def relu(f: CPwL) -> CPwL:
    """max(f, 0) with exact zero-crossing nodes inserted."""
    x, v = f.breakpoints, f.values
    a, b = v[:-1], v[1:]
    hit = (a * b) < 0.0
    if hit.any():
        x0 = x[:-1][hit]
        x1 = x[1:][hit]
        va = a[hit]
        vb = b[hit]
        cross = x0 - va * (x1 - x0) / (vb - va)
        near_left = np.abs(cross - x0) <= CROSSING_SNAP
        near_right = np.abs(cross - x1) <= CROSSING_SNAP
        cross = cross[~(near_left | near_right)]
        grid = np.union1d(x, cross)
        vals = np.interp(grid, x, v)
        # crossings carry exact zeros; interpolation noise is clamped anyway
        vals[np.isin(grid, cross)] = 0.0
    else:
        grid, vals = x, v
    return CPwL(grid, np.maximum(vals, 0.0))


def reflect(f: CPwL) -> CPwL:
    """f(1 - x)."""
    return CPwL((1.0 - f.breakpoints)[::-1], f.values[::-1])


def restrict(f: CPwL, lo: float, hi: float) -> CPwL:
    """f restricted to [lo, hi] and pulled back to [0, 1]."""
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError("need 0 <= lo < hi <= 1")
    inner = f.breakpoints[(f.breakpoints > lo) & (f.breakpoints < hi)]
    grid = np.concatenate(([lo], inner, [hi]))
    vals = np.interp(grid, f.breakpoints, f.values)
    newx = (grid - lo) / (hi - lo)
    newx[0], newx[-1] = 0.0, 1.0
    return CPwL(newx, vals)


def deviation(f: CPwL, g: CPwL) -> tuple[float, float]:
    """Exact sup |f - g| and the first node of the merged node set where it
    is attained."""
    grid = np.union1d(f.breakpoints, g.breakpoints)
    fv = np.interp(grid, f.breakpoints, f.values)
    gv = np.interp(grid, g.breakpoints, g.values)
    gap = np.abs(fv - gv)
    at = gap.argmax()
    return float(gap[at]), float(grid[at])


def sup_diff(f: CPwL, g: CPwL) -> float:
    """Exact sup |f - g| (attained on the merged node set)."""
    return deviation(f, g)[0]


def hat_iterate(k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> CPwL:
    """The k-fold self-composition of the hat (sawtooth with 2^k - 1 teeth nodes)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if (1 << k) + 1 > node_budget:
        raise ResourceError(f"sawtooth of order {k} exceeds the node budget")
    out = hat()
    for _ in range(k - 1):
        out = compose(hat(), out)
    return out


def takagi_partial(coeffs: Sequence[float], node_budget: int = DEFAULT_NODE_BUDGET) -> CPwL:
    """Exact partial sum sum_k coeffs[k-1] * H^(k) of hat self-compositions."""
    coeffs = list(coeffs)
    m = len(coeffs)
    if m == 0:
        return line(0.0, 0.0)
    if (1 << m) + 1 > node_budget:
        raise ResourceError(f"order {m} needs {(1 << m) + 1} nodes, over the budget")
    terms = [hat()]
    for _ in range(m - 1):
        terms.append(compose(hat(), terms[-1]))
    return combine(terms, coeffs)


def hat_iterate_value(k: int, x) -> np.ndarray | float:
    """Pointwise H^(k)(x) through the closed form, independent of CPwL algebra."""
    xa = np.asarray(x, dtype=float)
    t = np.mod(xa * float(2 ** (k - 1)), 1.0)
    out = 2.0 * np.minimum(t, 1.0 - t)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def basis_fn(kind: str, k: int) -> CPwL:
    """Exact CPwL of the k-th sawtooth cosine or sine basis function.

    The cosine alternates 1, -1 at the nodes i/(2k).  The sine is 0 at both
    ends and alternates 1, -1 at (l + 1/4)/k and (l + 3/4)/k.
    """
    if k < 1:
        raise DomainError("index must be >= 1")
    if kind == "cosine":
        return _cosine_cpwl(k)
    if kind == "sine":
        return _sine_cpwl(k)
    raise DomainError("kind must be 'cosine' or 'sine'")


def _cosine_cpwl(k: int) -> CPwL:
    xs = np.arange(2 * k + 1) / (2.0 * k)
    xs[-1] = 1.0
    vs = np.where(np.arange(2 * k + 1) % 2 == 0, 1.0, -1.0)
    return CPwL(xs, vs)


def _sine_cpwl(k: int) -> CPwL:
    xs = [0.0]
    vs = [0.0]
    for ell in range(k):
        xs.extend([(ell + 0.25) / k, (ell + 0.75) / k])
        vs.extend([1.0, -1.0])
    xs.append(1.0)
    vs.append(0.0)
    return CPwL(xs, vs)


def _numbers(lines: list[str], linenos, counts: list[int], count_error: str) -> np.ndarray:
    """The numbers on `lines`, line i holding counts[i] of them, converted in one
    pass.  Only lines that fail it are walked, so the first offending one raises
    ParseError: `count_error` (formats `want`, `found`) or 'malformed number'."""
    if list(map(len, map(str.split, lines))) == counts:
        tokens = itertools.chain.from_iterable(map(str.split, lines))
        try:
            return np.fromiter(map(float, tokens), float, sum(counts))
        except ValueError:
            pass
    for text, line, want in zip(lines, linenos, counts):
        tokens = text.split()
        if len(tokens) != want:
            raise ParseError(count_error.format(want=want, found=len(tokens)), line=line)
        try:
            list(map(float, tokens))
        except ValueError:
            raise ParseError("malformed number", line=line) from None


def write_spline(f: CPwL, path) -> None:
    """Write the node-count header and one 'x value' line per node, every
    number as %.17g (an exact round trip)."""
    n = f.breakpoints.size
    pairs = np.column_stack([f.breakpoints, f.values]).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"{n}\n" + ("%.17g %.17g\n" * n) % tuple(pairs))


def read_spline(path) -> CPwL:
    """Read the text format written by write_spline, validating all invariants."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty spline file", line=1)
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise ParseError("node count expected", line=1) from None
    if count < 2:
        raise ParseError("node count must be at least 2", line=1)
    if len(lines) < count + 1:
        raise ParseError(f"expected {count} node lines, found {len(lines) - 1}", line=len(lines))
    flat = _numbers(lines[1:count + 1], range(2, count + 2), [2] * count, "expected 'x value'")
    for i in range(count + 1, len(lines)):
        if lines[i].strip():
            raise ParseError("trailing content after declared nodes", line=i + 1)
    try:
        return CPwL(*flat.reshape(count, 2).T.copy())
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
