"""Continuous piecewise-linear functions on [0, 1] with exact nodal algebra.

A function is stored by its sorted breakpoints 0 = x_0 < ... < x_{n+1} = 1 and
the nodal values; between nodes it is the linear interpolant.  All operations
return canonical objects: interior nodes whose adjacent slopes agree within a
relative tolerance of 1e-10 are removed.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ParseError, ResourceError

SLOPE_TOL = 1e-10
# relu crossings closer than this to an existing node reuse that node
CROSSING_SNAP = 1e-14
# eval/compose tolerate this much float overshoot outside [0, 1]
EDGE_TOL = 1e-12
# most nodes an extraction, sawtooth or CLI grid may hold; read at call time
DEFAULT_NODE_BUDGET = 1 << 21
SLOPE_OVERFLOW = "a slope overflows, so a kink cannot be told from a straight node"


def _cross(x0: np.ndarray, x1: np.ndarray, va: np.ndarray, vb: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Zero crossings x0 - va (x1 - x0) / (vb - va) of the segments from
    (x0, va) to (x1, vb), whose end values have opposite signs, and the mask
    of those farther than CROSSING_SNAP from both ends: the others reuse an
    end node."""
    cross = x0 - va * (x1 - x0) / (vb - va)
    return cross, (np.abs(cross - x0) > CROSSING_SNAP) & (np.abs(cross - x1) > CROSSING_SNAP)


def _crossings(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sorted, distinct zero crossings of the rows v (one row, or rows x G)
    on the grid g (`_cross`).  A crossing within CROSSING_SNAP of either end
    of its segment reuses that node and is left out."""
    a, b = v[..., :-1], v[..., 1:]
    hit = np.nonzero(a * b < 0.0)  # (segments,) or (rows, segments)
    seg = hit[-1]
    if not seg.size:
        return g[:0]
    cross, far = _cross(g[seg], g[seg + 1], a[hit], b[hit])
    new = np.sort(cross[far])
    first = np.ones(new.size, dtype=bool)
    first[1:] = new[1:] != new[:-1]
    return new[first]


def _insert(g: np.ndarray, v: np.ndarray, new: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid g grown by the sorted, distinct nodes `new` (none of them in
    g), the rows v on it and the positions of the new nodes.  Each row is
    evaluated at a new node on its own segment with np.interp's arithmetic.
    With nothing to insert, g and v come back as they are."""
    if not new.size:
        return g, v, np.empty(0, dtype=np.intp)
    right = np.searchsorted(g, new)
    at = right + np.arange(new.size)
    left = right - 1
    gl, vl = g[left], v[..., left]
    mid = (v[..., right] - vl) / (g[right] - gl) * (new - gl) + vl
    old = np.ones(g.size + new.size, dtype=bool)
    old[at] = False
    grid = np.empty(old.size)
    grid[old] = g
    grid[at] = new
    vals = np.empty(v.shape[:-1] + old.shape)
    vals[..., old] = v
    vals[..., at] = mid
    return grid, vals, at


def _prune(g: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical form of the rows v (one row, or rows x G) on the grid
    g: drop every interior node where no row's adjacent slopes differ by more
    than SLOPE_TOL relative to max(1, |slope|), until every node left kinks.
    With nothing to drop, g and v come back as they are.  A node to drop next
    to a slope that overflows raises DomainError (inf > inf is False, so the
    test cannot see its kink); values that are not finite are left to the
    caller's check."""
    while g.size > 2:
        slopes = v[..., 1:] - v[..., :-1]
        slopes /= g[1:] - g[:-1]
        gap = slopes[..., 1:] - slopes[..., :-1]
        np.abs(gap, out=gap)
        np.abs(slopes, out=slopes)
        tol = np.maximum(slopes[..., 1:], slopes[..., :-1])
        np.maximum(tol, 1.0, out=tol)
        tol *= SLOPE_TOL
        kink = (gap > tol).reshape(-1, g.size - 2).any(axis=0)
        if kink.all():
            break
        if not np.isfinite(tol[..., ~kink]).all() and np.isfinite(v).all():
            raise DomainError(SLOPE_OVERFLOW)
        keep = np.concatenate(([True], kink, [True]))
        g, v = g[keep], v[..., keep]
    return g, v


def _merge(*parts: tuple[np.ndarray, np.ndarray | None]
           ) -> tuple[np.ndarray, Iterator[np.ndarray | None]]:
    """The union of the grids of the (grid, values) parts, folded left to
    right, and each part's values interpolated on it (None for a part given
    with None: its nodes only join the grid).  The values are interpolated
    as they are read, so a sum over many parts holds one at a time."""
    grid = functools.reduce(np.union1d, [g for g, _ in parts])
    return grid, (None if v is None else np.interp(grid, g, v) for g, v in parts)


class CPwL:
    """Immutable continuous piecewise-linear function on [0, 1]."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        x = np.array(breakpoints, dtype=float)
        v = np.array(values, dtype=float)
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
        x, v = _prune(x, v)
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


def combine(fs: Sequence[CPwL], coeffs: Sequence[float], offset: float = 0.0) -> CPwL:
    """Affine combination sum_i coeffs[i]*fs[i] + offset on the merged node set."""
    if len(fs) != len(coeffs):
        raise DomainError("one coefficient per function required")
    if not fs:
        return line(0.0, offset)
    # a zero coefficient's nodes still join the grid, but it is not interpolated
    grid, parts = _merge(*[(f.breakpoints, f.values if c != 0.0 else None)
                           for f, c in zip(fs, coeffs)])
    vals = np.full(grid.shape, float(offset))
    for fv, c in zip(parts, coeffs):
        if fv is not None:
            vals += c * fv
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
    cuts = []
    for t in f.breakpoints[1:-1]:
        hit = ((a < t) & (t < b)) | ((b < t) & (t < a))
        if hit.any():
            cuts.append(x0[hit] + (t - a[hit]) * dx[hit] / dv[hit])
    grid, (inner, *_) = _merge((g.breakpoints, gv), *[(cut, None) for cut in cuts])
    return CPwL(grid, np.interp(np.clip(inner, 0.0, 1.0), f.breakpoints, f.values))


def relu(f: CPwL) -> CPwL:
    """max(f, 0) with exact zero-crossing nodes inserted."""
    x, v = f.breakpoints, f.values
    grid, vals, at = _insert(x, v, _crossings(x, v))
    vals = np.maximum(vals, 0.0)
    vals[at] = 0.0  # crossings carry exact zeros, not the interpolated value
    return CPwL(grid, vals)


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
    grid, (fv, gv) = _merge((f.breakpoints, f.values), (g.breakpoints, g.values))
    gap = np.abs(fv - gv)
    at = gap.argmax()
    return float(gap[at]), float(grid[at])


def sup_diff(f: CPwL, g: CPwL) -> float:
    """Exact sup |f - g| (attained on the merged node set)."""
    return deviation(f, g)[0]


def hat_iterate(k: int) -> CPwL:
    """The k-fold self-composition of the hat (sawtooth with 2^k - 1 teeth
    nodes), built from its nodes i/2^k with values i mod 2."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if (1 << k) + 1 > DEFAULT_NODE_BUDGET:
        raise ResourceError(f"sawtooth of order {k} exceeds the node budget")
    i = np.arange((1 << k) + 1)
    return CPwL(i / float(1 << k), i % 2)


def takagi_partial(coeffs: Sequence[float]) -> CPwL:
    """Exact partial sum sum_k coeffs[k-1] * H^(k) of hat self-compositions."""
    coeffs = list(coeffs)
    m = len(coeffs)
    if (1 << m) + 1 > DEFAULT_NODE_BUDGET:
        raise ResourceError(f"order {m} needs {(1 << m) + 1} nodes, over the budget")
    return combine([hat_iterate(k) for k in range(1, m + 1)], coeffs)


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
    ell = np.arange(k)[:, None]
    xs = ((ell + np.array([0.25, 0.75])) / k).ravel()
    return CPwL(np.r_[0.0, xs, 1.0], np.r_[0.0, np.tile([1.0, -1.0], k), 0.0])


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


# `_format_rows` spells 1e-4 <= |v| < 1e15 and +-0 in numpy: %.17g writes
# these in fixed notation (decimal exponent -4 ... 14), so a number is a sign,
# a "0.000" prefix, 17 digits and a decimal point, cut down by a keep-mask.
# Every other value (tiny, subnormal, large, non-finite) goes through '%'.
# All integer steps use uint64 operands: numpy 1.24 turns uint64 mixed with
# int64 into float64.
_FORMAT_BLOCK = 4096  # values per block; bounds the scratch arrays
_U = np.uint64
_POW5 = np.array([5 ** i for i in range(23)], dtype=np.uint64)
# A row of one number is 40 bytes, five uint64 words: "-0.000" + d0 + ".",
# then four 4-digit groups spelled "d.d.d.d.".  Digit j sits at byte 6 + 2j
# with a point slot after it; the separator overwrites the last point slot.
_ROW = 40


@functools.cache  # built on first use, so importing the package stays cheap
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first word of a row by leading digit, the word of every 4-digit
    group, the index of a group's last nonzero digit (far below 0 for 0000),
    and the keep-masks of a row, indexed by ((case * 2 + negative) * 17 +
    last), `last` the index of the last nonzero digit; case is the decimal
    exponent + 4 for the 19 fixed-notation exponents, 19 for zero, 20 for a
    value spelled by '%' (only its separator is kept)."""
    group = np.arange(10000, dtype=np.int16)
    spell = np.full((10000, 8), ord("."), np.uint8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        spell[:, 2 * i] = group // scale % 10 + ord("0")
    head = np.frombuffer(b"".join(b"-0.000%d." % i for i in range(10)), np.uint64)
    last4 = np.where(group == 0, -100, 3 - (spell[:, 6::-2] != ord("0")).argmax(1)).astype(np.int8)
    col = np.arange(_ROW)
    exp = np.arange(-4, 15)[:, None, None, None]
    neg = np.arange(2)[None, :, None, None]
    last = np.arange(17)[None, None, :, None]
    digit = (col >= 6) & (col % 2 == 0) & (col < _ROW - 1)
    point = (col >= 7) & (col % 2 == 1) & (col < _ROW - 1)
    j = (col - 6) // 2  # digit index of a digit column and of the point after it
    keep = np.zeros((21, 2, 17, _ROW), bool)
    keep[:19] = (((col == 0) & (neg == 1))
                 | (((col == 1) | (col == 2)) & (exp < 0))
                 | ((col >= 3) & (col <= 5) & (col - 3 < -exp - 1))
                 | (digit & (j <= np.maximum(exp, last)))
                 | (point & (j == exp) & (last > exp)))
    keep[19, 1, :, 0] = True
    keep[19, :, :, 1] = True
    keep[..., -1] = True
    return head, spell.view(np.uint64).ravel(), last4, keep.reshape(-1, _ROW)


def _decimal(m: np.ndarray, exp: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round_half_even(m * 2^(exp - 1075) * 10^k) for 53-bit m and a shift
    1075 - exp - k in [1, 63]: m * 5^k (< 2^102) in two uint64 limbs, then
    shifted right."""
    low32, s32, one = _U(0xFFFFFFFF), _U(32), _U(1)
    p = _POW5[k]
    ml, mh, pl, ph = m & low32, m >> s32, p & low32, p >> s32
    cross = ml * ph + mh * pl  # < 2^54
    lo = ml * pl
    lo2 = lo + (cross << s32)
    hi = mh * ph + (cross >> s32) + (lo2 < lo).astype(np.uint64)
    s = _U(1075) - exp - k
    q = (lo2 >> s) | (hi << (_U(64) - s))
    rem, half = lo2 & ((one << s) - one), one << (s - one)
    return q + ((rem > half) | ((rem == half) & (q & one == one))).astype(np.uint64)


def _format_block(values: np.ndarray, seps: np.ndarray) -> str:
    """Text of a (rows, cols) block, each number followed by the separator
    byte of its column."""
    v = values.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e15)
    w = np.where(fast, a, 1.0)
    bits = w.view(np.uint64)
    exp = bits >> _U(52)
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    # 17 digits are round(w * 10^k) with k = 16 - decimal exponent; log10
    # can miss that exponent by one next to a power of ten
    k = (16.0 - np.floor(np.log10(w))).astype(np.uint64)
    d = _decimal(m, exp, k)
    while True:
        low, high = d < _U(10 ** 16), d >= _U(10 ** 17)
        off = low | high
        if not off.any():
            break
        k = k + low.astype(np.uint64) - high.astype(np.uint64)
        d[off] = _decimal(m[off], exp[off], k[off])
    first, rest = np.divmod(d, _U(10 ** 16))
    upper, lower = np.divmod(rest, _U(10 ** 8))
    groups = (*np.divmod(upper, _U(10 ** 4)), *np.divmod(lower, _U(10 ** 4)))
    head, group_words, last4, keeps = _format_tables()
    words = np.empty((len(v), _ROW // 8), np.uint64)
    words[:, 0] = head[first]
    last = np.zeros(len(v), np.intp)
    for i, g in enumerate(groups):
        words[:, i + 1] = group_words[g]
        np.maximum(last, last4[g] + (1 + 4 * i), out=last)
    rows = words.view(np.uint8)
    rows.reshape(values.shape + (_ROW,))[..., -1] = seps
    case = np.where(fast, 20 - k.astype(np.intp), np.where(a == 0.0, 19, 20))
    keep = keeps[(case * 2 + np.signbit(v)) * 17 + last]
    text = str(np.compress(keep.ravel(), rows.ravel()), "ascii")
    slow = np.flatnonzero(case == 20)
    if not slow.size:
        return text
    # a slow value kept only its separator: splice its '%' text in before it
    at = (np.cumsum(keep.sum(1))[slow] - 1).tolist()
    parts = []
    for start, end, num in zip([0] + at, at, v[slow].tolist()):
        parts += (text[start:end], "%.17g" % num)
    parts.append(text[at[-1]:])
    return "".join(parts)


def _format_rows(values, sep: str) -> str:
    """Every number of the 2-d array `values` as '%.17g', byte for byte,
    `sep` (one character) between the numbers of a row and a newline after
    each row.  Works in blocks of about _FORMAT_BLOCK values."""
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    seps = np.full(cols, ord(sep), np.uint8)
    seps[-1] = ord("\n")
    per = max(1, _FORMAT_BLOCK // cols)
    return "".join(_format_block(values[i:i + per], seps) for i in range(0, rows, per))


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
        return CPwL(*flat.reshape(count, 2).T)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
