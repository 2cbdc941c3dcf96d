"""Compilation of piecewise-linear targets into explicit network weights.

Every routine here emits weights whose extracted function reproduces the target
exactly (float rounding aside) together with a CompileReport whose parameter
count is guaranteed against an explicit budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import cpwl
from .combinators import (
    compose_nets,
    embed_deeper,
    pad_width,
    parallel_sum,
    stack_relu_sum,
    stack_sum,
    iterate_sum,
    zero_special,
)
from .errors import (
    BudgetError,
    ContractError,
    DegenerateCompositionError,
    DomainError,
)
from .network import (
    ReluNetwork,
    SpecialNetwork,
    _shallow,
    hat_net,
    param_count,
    rail_layer,
    special_to_standard,
)

# frozen budget constants for compile_self_similar: params <= C1*(k+m) + C2*W^2
SELF_SIMILAR_C1 = 816
SELF_SIMILAR_C2 = 72

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class CompileReport:
    """Size accounting for one compiled network: `params` follows from the
    width and depth by `param_count`, and a count past `budget_bound` raises
    BudgetError."""

    width: int
    depth: int
    params: int = field(init=False)
    budget_bound: int
    target_breakpoints: int

    def __post_init__(self):
        object.__setattr__(self, "params", param_count(self.width, self.depth))
        if self.params > self.budget_bound:
            raise BudgetError(
                f"{self.params} parameters exceed the guaranteed bound {self.budget_bound}"
            )


def _report(net, bound: int, n: int) -> CompileReport:
    return CompileReport(net.width, net.depth, int(bound), n)


def block_size(width: int) -> int:
    """Breakpoints absorbed per pair of layers by the paper's construction at
    the given width: q*(W-2) hats with q = (W-2)//6 at W >= 8, 2*(W-2) ramps
    at W = 4..7.  `spline_budget` counts these blocks, so it stays the
    paper's guarantee; `compile_spline` takes the ramps also where q < 2
    (W = 8..13), where they absorb twice a block per pair of layers."""
    if width >= 8:
        return ((width - 2) // 6) * (width - 2)
    if width >= 4:
        return 2 * (width - 2)
    raise DomainError("width must be at least 4")


def spline_budget(width: int, n: int) -> int:
    """Guaranteed parameter bound for compiling an n-breakpoint target:
    W^2 + 4W + 1 below one block of `block_size(width)` knots, and 61n
    (W >= 8), 19n (W = 4) or 25n (W = 5..7) from one block on."""
    if n < block_size(width):
        return width * width + 4 * width + 1
    return (61 if width >= 8 else 19 if width == 4 else 25) * n


def _hat_classes(coeffs: np.ndarray, q: int) -> np.ndarray:
    """Class of every hat-expansion index k along the last axis of `coeffs`.

    Index k (0-based) belongs to the hat with peak position t = k // q + 1 and
    reach i = t*q - k; the class fixes (sign, t mod 3, i), so members share a
    sign and sit at least three peaks apart, and there are 6q classes.
    """
    k = np.arange(coeffs.shape[-1])
    t = k // q + 1
    return np.where(coeffs > 0, 0, 3 * q) + (t % 3) * q + (t * q - k - 1)


def _hat_coefficients(y: np.ndarray, s: np.ndarray, q: int) -> np.ndarray:
    """Hat-basis coefficients of every block by one forward substitution.

    y (blocks, q*peaks + 2) are the block nodes, bounding nodes included, s
    the target values with s[:, 0] = s[:, -1] = 0.  Hat (t, i) has feet
    y[t*q - i], y[t*q + 1] and peak 1 at p = t*q, so it vanishes at the nodes
    of every other peak: nodes p-q+1 .. p-1 fix the reaches i = q .. 2 in
    turn and the peak fixes i = 1.  Returns (blocks, peaks, q) with the
    coefficient of hat (t, i), index k = t*q - i, at [:, t-1, q-i].
    """
    peaks = (y.shape[1] - 2) // q
    p = q * np.arange(1, peaks + 1)
    yp = y[:, p]
    coeff = np.empty((y.shape[0], peaks, q))
    for r in range(1, q):  # node p - q + r fixes reach q - r + 1, column r - 1
        u = y[:, p - q + r]
        acc = np.zeros(yp.shape)
        for j in range(r - 1):
            foot = y[:, p - q + j]
            acc += coeff[..., j] * (u - foot) / (yp - foot)
        foot = y[:, p - q + r - 1]
        coeff[..., r - 1] = (s[:, p - q + r] - acc) / ((u - foot) / (yp - foot))
    solved = np.zeros(yp.shape)
    for j in range(q - 1):
        solved += coeff[..., j]
    coeff[..., q - 1] = s[:, p] - solved  # hat value 1 at the peak
    return coeff


def _class_profiles(coeff: np.ndarray, y: np.ndarray, xs: np.ndarray, q: int) -> np.ndarray:
    """Values (blocks, 6q, peaks+2) at xs (0, the peaks, 1) of every class's
    pre-ReLU profile, whose positive part is exactly the class's hats.

    Each used hat (t, i) of magnitude m anchors its class to m at t and to the
    lines through its feet at t-1 and t+1; members sit three peaks apart, so
    no anchors collide.  Other nodes interpolate between anchors, or extend
    the first or last one, with np.interp's arithmetic; an empty class reads
    the zeros it started from.
    """
    blocks, peaks = coeff.shape[:2]
    pk = q * np.arange(1, peaks + 1)[:, None]
    foot_l = y[:, pk - q + np.arange(q)]
    foot_r = y[:, pk[:, 0] + 1, None]
    peak = y[:, pk]
    mag = np.abs(coeff)
    cls = _hat_classes(coeff.reshape(blocks, -1), q).reshape(coeff.shape)
    hat = np.nonzero(coeff)
    b, t, _ = hat  # t is the 0-based peak: the peak sits at xs[:, t + 1]
    c = cls[hat]
    vals = np.zeros((blocks, 6 * q, peaks + 2))
    anchored = np.zeros(vals.shape, dtype=bool)
    vals[b, c, t] = (mag * (xs[:, :-2, None] - foot_l) / (peak - foot_l))[hat]
    vals[b, c, t + 1] = mag[hat]
    vals[b, c, t + 2] = (mag * (xs[:, 2:, None] - foot_r) / (peak - foot_r))[hat]
    anchored[b, c, t] = anchored[b, c, t + 1] = anchored[b, c, t + 2] = True

    pos = np.arange(peaks + 2)
    lo = np.maximum.accumulate(np.where(anchored, pos, -1), axis=-1)
    hi = np.minimum.accumulate(np.where(anchored, pos, peaks + 2)[..., ::-1], axis=-1)[..., ::-1]
    ends = np.where(lo < 0, hi, lo).clip(0, peaks + 1)
    profile = np.take_along_axis(vals, ends, axis=-1)
    gap = ~anchored & (lo >= 0) & (hi <= peaks + 1)
    b, c, x = np.nonzero(gap)
    lo, hi = lo[gap], hi[gap]
    x_lo, v_lo = xs[b, lo], vals[b, c, lo]
    slope = (vals[b, c, hi] - v_lo) / (xs[b, hi] - x_lo)
    profile[gap] = slope * (xs[b, x] - x_lo) + v_lo
    return profile


def _pad_knots(knots: np.ndarray, total: int) -> np.ndarray:
    """Extend a sorted interior-knot list to `total` with evenly spaced points in
    one gap: the last gap, or the widest one when the last is too small.  The
    new points follow the real knots, so the result may need sorting."""
    missing = total - knots.size
    if missing <= 0:
        return knots
    edges = np.concatenate(([0.0], knots, [1.0]))
    lo = edges[-2]
    step = (1.0 - lo) / (missing + 1)
    if step < 1e-12:
        gap = np.diff(edges).argmax()
        lo = edges[gap]
        step = (edges[gap + 1] - lo) / (missing + 1)
    if step < 1e-12:
        raise DomainError("no gap wide enough to host artificial breakpoints")
    extra = lo + step * np.arange(1, missing + 1)
    return np.concatenate([knots, extra])


def _compile_wide(target: cpwl.CPwL, width: int) -> SpecialNetwork:
    """The paper's wide form, which `compile_spline` takes where q = (W-2)//6
    is at least 2 (W >= 14): subtract the endpoint line, cut the knots into
    blocks of q*(W-2) and build every block's hat sum at once.  It works at
    every W >= 8; at q = 1 the ramps of `_compile_narrow` need half its layers.

    Layer 2j is block j: row r is class r-1's profile, read from x and the
    relu(x - xi_t).  Layer 2j+1 is a seam: it seeds block j+1's relu(x - xi_t)
    from the source rail while the collation rail adds block j's signed rows.
    """
    q = (width - 2) // 6
    slope = float(target.values[-1] - target.values[0])
    offset = float(target.values[0])
    residual = cpwl.add(target, cpwl.line(slope, offset), 1.0, -1.0)
    size = block_size(width)
    n = residual.n_interior
    blocks = max(1, math.ceil(n / size))
    knots = np.sort(_pad_knots(residual.breakpoints[1:-1], blocks * size))
    full = np.concatenate(([0.0], knots, [1.0]))
    index = size * np.arange(blocks)[:, None] + np.arange(size + 2)
    y = full[index]
    s = residual.eval(full)[index]
    s[:, 0] = s[:, -1] = 0.0
    xi = y[:, q:-1:q]
    xs = np.pad(xi, ((0, 0), (1, 1)), constant_values=(0.0, 1.0))

    coeff = _hat_coefficients(y, s, q)
    profile = _class_profiles(coeff, y, xs, q)
    slopes = np.diff(profile) / np.diff(xs)[:, None]
    signs = np.where(profile.any(axis=-1), np.repeat([1.0, -1.0], 3 * q), 0.0)

    rows = slice(1, 6 * q + 1)
    hidden = np.tile(rail_layer(width), (2 * blocks - 1, 1, 1))
    bias = np.zeros((2 * blocks - 1, width))
    hidden[::2, rows, 0] = slopes[..., 0]
    hidden[::2, rows, 1:-1] = np.diff(slopes)
    bias[::2, rows] = profile[..., 0]
    hidden[1::2, 1:-1, 0] = 1.0
    hidden[1::2, -1, rows] = signs[:-1]
    bias[1::2, 1:-1] = -xi[1:]
    first = np.ones(width)
    first[-1] = 0.0
    first_bias = np.zeros(width)
    first_bias[1:-1] = -xi[0]
    out = np.zeros(width)
    out[0] += slope
    out[rows] = signs[-1]
    out[-1] = 1.0
    return SpecialNetwork(first, first_bias, hidden, bias, out, 0.0 + offset)  # never -0.0


def _compile_narrow(target: cpwl.CPwL, width: int) -> SpecialNetwork:
    """The paper's narrow form, which `compile_spline` takes where q = (W-2)//6
    is below 2 (W = 4..13): ramp accumulation, W-2 knots per layer, every
    layer a reset."""
    x, v = target.breakpoints, target.values
    slopes = np.diff(v) / np.diff(x)
    knots = x[1:-1]
    changes = np.diff(slopes)
    per = width - 2
    groups = 2 * max(1, math.ceil(knots.size / (2 * per)))
    full = _pad_knots(knots, groups * per).reshape(groups, per)
    coeff = np.zeros(full.shape)
    coeff.flat[:changes.size] = changes
    comp = slice(1, width - 1)

    # layer g seeds the ramps of knot group g from the source rail while the
    # collation rail collects group g-1
    first = np.zeros(width)
    first[:-1] = 1.0
    seeds = np.zeros((groups, width))
    seeds[:, comp] = -full
    hidden = np.tile(rail_layer(width), (groups - 1, 1, 1))
    hidden[:, comp, 0] = 1.0
    hidden[:, -1, comp] = coeff[:-1]
    out = np.zeros(width)
    out[0] = slopes[0]
    out[comp] = coeff[-1]
    out[-1] = 1.0
    return SpecialNetwork(first, seeds[0], hidden, seeds[1:], out, float(v[0]))


def compile_spline(target: cpwl.CPwL, width: int) -> tuple[SpecialNetwork, CompileReport]:
    """Exact special network for a piecewise-linear target at the given width.

    The ramps absorb 2(W-2) knots per two layers and the wide form q(W-2), so
    the ramps take q = (W-2)//6 < 2 (W = 4..13) and the wide form q >= 2; at
    the tie q = 2 the wide form reads closer to the target.  The report's
    bound is `spline_budget`, the paper's guarantee, which counts the wide
    form at every W >= 8; it is computed first, so W < 4 raises DomainError
    before anything is built.
    """
    n = target.n_interior
    bound = spline_budget(width, n)
    net = (_compile_wide if (width - 2) // 6 >= 2 else _compile_narrow)(target, width)
    return net, _report(net, bound, n)


def compile_shallow(target: cpwl.CPwL) -> ReluNetwork:
    """One-hidden-layer network with width n+1 computing the target directly."""
    x, v = target.breakpoints, target.values
    slopes = np.diff(v) / np.diff(x)
    w = target.n_interior + 1
    first = np.ones(w)
    fb = np.concatenate(([0.0], -x[1:-1]))
    out = np.concatenate(([slopes[0]], np.diff(slopes)))
    return _shallow(first, fb, out, float(v[0]))


def representative_chain(chain: Sequence[cpwl.CPwL]) -> list[cpwl.CPwL]:
    """Affine renormalization of a composition chain so every intermediate
    factor maps onto [0, 1]; the end-to-end composition is unchanged."""
    k = len(chain)
    if k == 1:
        return [chain[0]]
    reps = []
    lo = float(chain[0].values.min())
    hi = float(chain[0].values.max())
    if hi - lo <= _DEGENERATE_TOL:
        raise DegenerateCompositionError("first factor is constant")
    reps.append(cpwl.combine([chain[0]], [1.0 / (hi - lo)], -lo / (hi - lo)))
    for j in range(1, k):
        pulled = cpwl.restrict(chain[j], lo, hi)
        if j == k - 1:
            reps.append(pulled)
            break
        lo = float(pulled.values.min())
        hi = float(pulled.values.max())
        if hi - lo <= _DEGENERATE_TOL:
            raise DegenerateCompositionError(f"factor {j} is constant on its input range")
        reps.append(cpwl.combine([pulled], [1.0 / (hi - lo)], -lo / (hi - lo)))
    return reps


def compile_composition(chain: Sequence[cpwl.CPwL], width: int
                        ) -> tuple[ReluNetwork, CompileReport]:
    """Plain network computing chain[-1] o ... o chain[0] at the given width.

    The chain is replaced by its representative renormalization first, then
    each factor is compiled and the factors are fused end to end.
    """
    if width < 8:
        raise DomainError("composition compilation needs width >= 8")
    if not chain:
        raise DomainError("empty chain")
    for f in chain[:-1]:
        if f.values.min() < -cpwl.EDGE_TOL or f.values.max() > 1.0 + cpwl.EDGE_TOL:
            raise DomainError("intermediate factor escapes [0, 1]")
    reps = representative_chain(chain)
    net = compose_nets(*[special_to_standard(compile_spline(rep, width)[0]) for rep in reps])
    total_n = sum(rep.n_interior for rep in reps)
    k = len(chain)
    bound = 34 * total_n + 2 * k * (width * width + width)
    return net, _report(net, bound, total_n)


def compile_sum_of_compositions(terms: Sequence[tuple[float, Sequence[cpwl.CPwL]]],
                                width: int) -> tuple[SpecialNetwork, CompileReport]:
    """Special network for sum_i a_i * (chain_i composition), factors at width-2."""
    if width < 10:
        raise DomainError("sums of compositions need width >= 10")
    if not terms:
        raise DomainError("need at least one term")
    weights = [float(a) for a, _ in terms]
    compiled = [compile_composition(chain, width - 2) for _, chain in terms]
    net = stack_sum([c[0] for c in compiled], weights)
    total_n = sum(c[1].target_breakpoints for c in compiled)
    chain_lengths = sum(len(chain) for _, chain in terms)
    bound = 44 * total_n + 2 * width * (width + 1) * chain_lengths
    return net, _report(net, bound, total_n)


def _left_to_right(xs: np.ndarray, vs: np.ndarray) -> cpwl.CPwL:
    """CPwL through the candidate nodes (0, 0), (xs, vs), (1, 0) in that
    order, keeping each node that lies right of every earlier one."""
    xs = np.r_[0.0, xs, 1.0]
    keep = np.r_[True, xs[1:] > np.maximum.accumulate(xs)[:-1]]
    return cpwl.CPwL(xs[keep], np.r_[0.0, vs, 0.0][keep])


def _interval_hats(intervals: np.ndarray) -> tuple[cpwl.CPwL, cpwl.CPwL]:
    """Tent systems for pattern replication over strictly separated intervals
    (an (m, 2) array of rows a_i, b_i).

    The first tent rises over each interval [a_i, b_i] and returns to zero at
    the midpoint c_i of the following gap; the second rises from b_i to c_i and
    returns to zero at the next interval's start.  An interval reaching x = 1
    ends in a plain ramp with no second tent: it is the last, so its c_i and
    next start are 1 and add no node.
    """
    a, b = intervals.T
    nxt = np.r_[a[1:], 1.0]
    c = 0.5 * (b + nxt)
    levels = np.tile([0.0, 1.0, 0.0], len(a))
    return (_left_to_right(np.column_stack([a, b, c]).ravel(), levels),
            _left_to_right(np.column_stack([b, c, nxt]).ravel(), levels))


def self_similar_oracle(pattern: cpwl.CPwL,
                        intervals: Sequence[tuple[float, float]]) -> cpwl.CPwL:
    """Exact CPwL of sum_i pattern(h_i (x - a_i)) over the given intervals
    (an (m, 2) array or a sequence of (a, b) pairs)."""
    a, b = np.reshape(np.asarray(intervals, dtype=float), (len(intervals), 2)).T[:, :, None]
    return _left_to_right((a + (b - a) * pattern.breakpoints).ravel(),
                          np.tile(pattern.values, len(a)))


def _similar_term(pattern: cpwl.CPwL, intervals: np.ndarray, width: int) -> ReluNetwork:
    """Plain width-(W-2) network for (pattern o T - pattern~ o That) on the
    given strictly separated intervals (pattern nonnegative)."""
    tent, tent_hat = _interval_hats(intervals)
    s_net, sh_net, t_net, th_net = [special_to_standard(compile_spline(g, width - 4)[0])
                                    for g in (pattern, cpwl.reflect(pattern), tent, tent_hat)]
    terms = [compose_nets(t_net, s_net), compose_nets(th_net, sh_net)]
    return special_to_standard(stack_sum(terms, [1.0, -1.0]))


def compile_self_similar(pattern: cpwl.CPwL,
                         intervals: Sequence[tuple[float, float]],
                         width: int) -> tuple[SpecialNetwork, CompileReport]:
    """Special network replicating a pattern over disjoint intervals.

    The pattern must vanish at 0 and 1.  The intervals are an (m, 2) array or
    a sequence of (a, b) pairs; any other shape raises DomainError.  Interval
    interiors must be disjoint; shared endpoints are handled by splitting the list into odd and even
    positions, and sign changes by splitting the pattern into its positive and
    negative parts, each replicated through a rectified tent composition.
    """
    if width < 8:
        raise DomainError("self-similar compilation needs width >= 8")
    try:
        iv = np.asarray(intervals, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("intervals must be (a, b) pairs") from None
    if not iv.size:
        raise DomainError("need at least one interval")
    if iv.ndim != 2 or iv.shape[1] != 2:
        raise DomainError("intervals must be (a, b) pairs")
    a, b = iv.T
    if not ((0.0 <= a) & (a < b) & (b <= 1.0)).all():
        raise DomainError("intervals must be nondegenerate inside [0, 1]")
    if (b[:-1] > a[1:]).any():
        raise DomainError("interval interiors must be disjoint and sorted")
    if abs(pattern.eval(0.0)) > _DEGENERATE_TOL or abs(pattern.eval(1.0)) > _DEGENERATE_TOL:
        raise ContractError("pattern must vanish at both endpoints")
    fixed = pattern.values.copy()
    fixed[0] = 0.0
    fixed[-1] = 0.0
    pattern = cpwl.CPwL(pattern.breakpoints, fixed)

    k = pattern.n_interior
    m = len(iv)
    pos = cpwl.relu(pattern)
    neg = cpwl.relu(cpwl.combine([pattern], [-1.0]))
    strictly_separated = (b[:-1] < a[1:]).all()

    # intervals sharing an endpoint exist only when there are two or more,
    # so both alternating groups are nonempty
    groups = [iv] if strictly_separated else [iv[0::2], iv[1::2]]
    parts: list[tuple[cpwl.CPwL, np.ndarray, float]] = []
    for half, sign in ((pos, 1.0), (neg, -1.0)):
        if half.values.max() == 0.0:
            continue
        parts += [(half, group, sign) for group in groups]

    bound = SELF_SIMILAR_C1 * (k + m) + SELF_SIMILAR_C2 * width * width
    oracle_n = self_similar_oracle(pattern, iv).n_interior
    if not parts:
        net = zero_special(width, 1)
        return net, _report(net, bound, oracle_n)
    nets = [_similar_term(p, g, width) for p, g, _ in parts]
    net = stack_relu_sum(nets, [s for _, _, s in parts])
    return net, _report(net, bound, oracle_n)


def fourier_atom(kind: str, j: int) -> ReluNetwork:
    """Width-2 network for the j-th sawtooth cosine or sine pattern.

    The cosine pattern repeats C(t) = 1 - 2*hat(t) j times; depth is
    ceil(log2 j) + 1.  The sine pattern is the cosine advanced by 3/4 of a
    period, built with one extra halving layer; depth is ceil(log2 j) + 2.
    """
    if j < 1:
        raise DomainError("index must be >= 1")
    if kind == "cosine":
        halvings = max(0, math.ceil(math.log2(j)))
    elif kind == "sine":
        halvings = math.ceil(math.log2(j)) + 1 if j > 1 else 1
    else:
        raise DomainError("kind must be 'cosine' or 'sine'")
    scale = j / float(2 ** halvings)
    shift = 0.75 / float(2 ** halvings) if kind == "sine" else 0.0
    flip = _shallow([1.0, 1.0], [0.0, -0.5], [-4.0, 8.0], 1.0)  # 1 - 2*hat
    if halvings == 0:
        return flip
    first = _shallow([scale, scale], [shift, shift - 0.5], [2.0, -4.0], 0.0)
    return compose_nets(first, *[hat_net()] * (halvings - 1), flip)


def fourier_oracle(terms: Sequence[tuple[int, float, float]]) -> cpwl.CPwL:
    """Direct CPwL of sum_j a_j * cosine_j + b_j * sine_j."""
    fs, cs = [], []
    for j, a, b in terms:
        if a != 0.0:
            fs.append(cpwl.basis_fn("cosine", j))
            cs.append(a)
        if b != 0.0:
            fs.append(cpwl.basis_fn("sine", j))
            cs.append(b)
    return cpwl.combine(fs, cs) if fs else cpwl.line(0.0, 0.0)


def compile_fourier_sum(terms: Sequence[tuple[int, float, float]], width: int
                        ) -> tuple[SpecialNetwork, CompileReport]:
    """Special network for a finite sawtooth-trigonometric sum.

    `terms` lists (index, cosine coefficient, sine coefficient).  Pairs are
    grouped floor((width-2)/4) at a time; each group's width-4 pair networks
    are padded to one common depth and run side by side, and the groups are
    summed sequentially.
    """
    if width < 6:
        raise DomainError("trigonometric sums need width >= 6")
    if not terms:
        raise DomainError("need at least one term")
    indices = [j for j, _, _ in terms]
    if len(set(indices)) != len(indices):
        raise DomainError("duplicate indices in terms")
    if min(indices) < 1:
        raise DomainError("indices must be >= 1")
    lam = max(indices)
    p = 2 * (max(0, math.ceil(math.log2(lam))) + 2)
    group_size = (width - 2) // 4
    pairs = []
    for j, a, b in terms:
        pair = stack_sum([fourier_atom("cosine", j), fourier_atom("sine", j)], [a, b])
        pairs.append(special_to_standard(embed_deeper(pair, p)))
    blocks = []
    for g in range(0, len(pairs), group_size):
        block = parallel_sum(pairs[g:g + group_size])
        blocks.append(pad_width(block, width - 2))
    net = stack_sum(blocks)
    depth_bound = math.ceil(len(terms) / group_size) * p
    oracle_n = fourier_oracle(terms).n_interior
    return net, _report(net, param_count(width, depth_bound), oracle_n)


def takagi_network(coeffs: Sequence[float]) -> SpecialNetwork:
    """Width-4 special network for sum_k coeffs[k-1] * H^(k) (depth = len(coeffs))."""
    if len(coeffs) == 0:
        raise DomainError("need at least one coefficient")
    return iterate_sum(hat_net(), coeffs)
