"""Shared random constructions used across the test modules."""

import math
from fractions import Fraction

import numpy as np

from spline2relu import approx, cpwl
from spline2relu.combinators import concat_sum
from spline2relu.compiler import _pad_knots, block_size, compile_spline
from spline2relu.errors import DomainError, ResourceError
from spline2relu.network import (
    ReluNetwork,
    SpecialNetwork,
    _depth_one,
    _SharedGrid,
    hat_net,
    rail_layer,
    reset_layers,
    special_to_standard,
)


def _reference_mask(net):
    """ReLU channels: all of a plain network, all but the two rails of a special one."""
    mask = np.ones(net.width, dtype=bool)
    if net.special:
        mask[0] = mask[-1] = False
    return mask


def reference_canonical(x, v):
    """Canonical-form loop kept as a test-only reference for the CPwL
    constructor: drop interior nodes whose adjacent slopes agree within
    SLOPE_TOL (relative); a node to drop next to an overflowing slope raises."""
    while x.size > 2:
        slopes = np.diff(v) / np.diff(x)
        gap = np.abs(np.diff(slopes))
        scale = np.maximum(1.0, np.maximum(np.abs(slopes[1:]), np.abs(slopes[:-1])))
        keep = gap > cpwl.SLOPE_TOL * scale
        if keep.all():
            break
        if not np.isfinite(scale[~keep]).all():
            raise DomainError(cpwl.SLOPE_OVERFLOW)
        mask = np.concatenate(([True], keep, [True]))
        x, v = x[mask], v[mask]
    return x, v


def reference_relu(f):
    """One-function ReLU kept as a test-only reference for cpwl.relu, so the
    per-channel references below share no crossing code with the extractor."""
    x, v = f.breakpoints, f.values
    a, b = v[:-1], v[1:]
    hit = (a * b) < 0.0
    if hit.any():
        x0 = x[:-1][hit]
        x1 = x[1:][hit]
        va = a[hit]
        vb = b[hit]
        cross = x0 - va * (x1 - x0) / (vb - va)
        near_left = np.abs(cross - x0) <= cpwl.CROSSING_SNAP
        near_right = np.abs(cross - x1) <= cpwl.CROSSING_SNAP
        cross = cross[~(near_left | near_right)]
        grid = np.union1d(x, cross)
        vals = np.interp(grid, x, v)
        vals[np.isin(grid, cross)] = 0.0
    else:
        grid, vals = x, v
    return cpwl.CPwL(grid, np.maximum(vals, 0.0))


def _reference_affine(states, weights, bias):
    out = []
    for i in range(weights.shape[0]):
        nz = np.nonzero(weights[i])[0]
        out.append(cpwl.combine([states[j] for j in nz], weights[i, nz], bias[i]))
    return out


def reference_extract(net, node_budget=cpwl.DEFAULT_NODE_BUDGET):
    """Per-channel extraction kept as a test-only reference.

    Propagates one canonical CPwL per channel: affine layers are nodal
    combinations, ReLU inserts exact zero-crossing nodes (skipping the rails).
    """
    mask = _reference_mask(net)

    def clamp(states):
        total = sum(s.breakpoints.size for s in states)
        if total > node_budget:
            raise ResourceError(f"extraction grew past {node_budget} nodes")
        return [reference_relu(s) if mask[i] else s for i, s in enumerate(states)]

    states = [cpwl.line(w, b) for w, b in zip(net.in_weights, net.in_bias)]
    states = clamp(states)
    for weights, bias in zip(net.hidden_weights, net.hidden_bias):
        states = clamp(_reference_affine(states, weights, bias))
    return _reference_affine(states, net.out_weights[None, :], [net.out_bias])[0]


def reference_courses(net):
    """Per-channel pre-ReLU collation courses after hidden layers 1..L-1."""
    mask = _reference_mask(net)
    states = [cpwl.line(w, b) for w, b in zip(net.in_weights, net.in_bias)]
    states = [reference_relu(s) if mask[i] else s for i, s in enumerate(states)]
    courses = []
    for weights, bias in zip(net.hidden_weights, net.hidden_bias):
        states = _reference_affine(states, weights, bias)
        courses.append(states[-1])
        states = [reference_relu(s) if mask[i] else s for i, s in enumerate(states)]
    return courses


def reference_lifts(net):
    """Collation lifts of special_to_standard kept as a test-only reference:
    one canonical CPwL course built at every hidden layer, on a shared grid
    that steps through the whole network."""
    step = _SharedGrid(net, cpwl.DEFAULT_NODE_BUDGET)
    course = cpwl.line(0.0, 0.0)
    lifts = []
    for weights, bias in zip(net.hidden_weights, net.hidden_bias):
        inc = step.readout(weights[-1], bias[-1])
        grid = np.union1d(course.breakpoints, step.grid)
        vals = np.interp(grid, course.breakpoints, course.values)
        vals += np.interp(grid, step.grid, inc)
        course = cpwl.CPwL(grid, vals)
        lifts.append(max(0.0, -float(course.values.min())))
        step.held = course.breakpoints.size
        step.affine(weights, bias)
        step.relu()
        step.prune()
    return lifts


def same_lifts(std, net):
    """std holds net's weights lifted by reference_lifts, to the bit."""
    lifts = reference_lifts(net)
    hidden_bias = net.hidden_bias.copy()
    hidden_bias[:, -1] += lifts
    want = ReluNetwork(net.in_weights, net.in_bias, net.hidden_weights, hidden_bias,
                       net.out_weights, net.out_bias - sum(lifts))
    return same_weights(std, want)


def reference_write_network(net, path):
    """Per-number network writer kept as a test-only reference for write_network."""
    kind = "special" if net.special else "standard"
    layers = [(net.in_weights[:, None], net.in_bias),
              *zip(net.hidden_weights, net.hidden_bias),
              (net.out_weights[None, :], [net.out_bias])]
    with open(path, "w") as fh:
        fh.write(f"{net.width} {net.depth} {kind}\n")
        for weights, bias in layers:
            r, c = weights.shape
            fh.write(f"{r} {c}\n")
            for row in weights:
                fh.write(" ".join(f"{w:.17g}" for w in row) + "\n")
            fh.write(" ".join(f"{b:.17g}" for b in bias) + "\n")


def reference_write_spline(f, path):
    """Per-number spline writer kept as a test-only reference for write_spline."""
    with open(path, "w") as fh:
        fh.write(f"{f.breakpoints.size}\n")
        for x, v in zip(f.breakpoints, f.values):
            fh.write(f"{x:.17g} {v:.17g}\n")


def reference_eval_csv(net, grid_n):
    """Per-row text of `spline2relu eval`, kept as a test-only reference: a
    special network whose every layer is a reset is read from its closed
    form's nodes by np.interp, any other network by `forward`."""
    xs = np.linspace(0.0, 1.0, grid_n)
    if net.special and reset_layers(net).size == net.depth:
        ys = np.interp(xs, *_depth_one(net))
    else:
        ys = net.forward(xs)
    rows = ["x,value"] + ["%.17g,%.17g" % (x, y) for x, y in zip(xs, ys)]
    return "\n".join(rows) + "\n"


def exact_values(net, xs):
    """The network's own function at the points xs, as Fractions: every float
    weight and point is a dyadic rational, so stepping the layers exactly
    (zero weights skipped) separates the error of a float evaluation from the
    rounding already in the weights."""
    mask = _reference_mask(net).tolist()

    def rows(weights, bias):
        return [([(j, Fraction(w)) for j, w in enumerate(row) if w != 0.0], Fraction(b))
                for row, b in zip(np.asarray(weights).tolist(), np.asarray(bias).tolist())]

    layers = [rows(net.in_weights[:, None], net.in_bias)]
    layers += [rows(w, b) for w, b in zip(net.hidden_weights, net.hidden_bias)]
    (out, out_bias), = rows(net.out_weights[None], [net.out_bias])
    values = []
    for x in xs:
        state = [Fraction(float(x))]
        for layer in layers:
            state = [sum((w * state[j] for j, w in row), b) for row, b in layer]
            state = [max(s, 0) if relu else s for s, relu in zip(state, mask)]
        values.append(sum((w * state[j] for j, w in out), out_bias))
    return values


def _reference_hat_coefficients(y, s, q, peaks):
    """Per-block forward substitution: the equations at the q nodes owned by
    each peak are triangular."""
    coeff = np.zeros(peaks * q)
    for t in range(1, peaks + 1):
        p = t * q
        solved = {}
        for u in range(p - q + 1, p + 1):
            if u == p:
                residual = s[p] - sum(solved.values())
                solved[p - u + 1] = residual  # i = 1, hat value 1 at the peak
            else:
                i_new = p - u + 1
                acc = 0.0
                for i, c in solved.items():
                    acc += c * (y[u] - y[p - i]) / (y[p] - y[p - i])
                w = (y[u] - y[p - i_new]) / (y[p] - y[p - i_new])
                solved[i_new] = (s[u] - acc) / w
        for i, c in solved.items():
            coeff[p - i] = c  # phi index k = t*q - i (0-based)
    return coeff


def _reference_class_profile(cls, coeff, y, q, peaks):
    """Nodal profile (xs, vs, sign) of one class's pre-ReLU function: anchors
    at the used peaks and their neighbours, np.interp between them."""
    xs = np.concatenate(([0.0], y[q:peaks * q + 1:q], [1.0]))
    sign = 1.0 if coeff[cls[0]] > 0 else -1.0
    det = {}
    edge0 = None
    edge1 = None
    for k in cls:
        t = (k // q) + 1
        i = t * q - k
        mag = abs(coeff[k])
        p = t * q
        foot_l, peak, foot_r = y[p - i], y[p], y[p + 1]
        det[t] = mag
        left = lambda x: mag * (x - foot_l) / (peak - foot_l)
        right = lambda x: mag * (x - foot_r) / (peak - foot_r)
        if t - 1 >= 1:
            det[t - 1] = left(y[p - q])
        else:
            edge0 = left(0.0)
        if t + 1 <= peaks:
            det[t + 1] = right(y[p + q])
        else:
            edge1 = right(1.0)
    order = sorted(det)
    vs = np.empty(xs.size)
    anchor_x = [xs[t] for t in order]
    anchor_v = [det[t] for t in order]
    vs[1:-1] = np.interp(xs[1:-1], anchor_x, anchor_v)
    vs[0] = edge0 if edge0 is not None else anchor_v[0]
    vs[-1] = edge1 if edge1 is not None else anchor_v[-1]
    return xs, vs, sign


def _reference_block_special(y, s, width, q):
    """Depth-2 special network for one residual block."""
    peaks = width - 2
    coeff = _reference_hat_coefficients(y, s, q, peaks)
    classes = [[] for _ in range(width - 2)]
    for k, c in enumerate(coeff):
        if c != 0.0:
            t = (k // q) + 1
            classes[(0 if c > 0 else 3 * q) + (t % 3) * q + (t * q - k - 1)].append(k)
    xi = y[q:peaks * q + 1:q]
    first = np.zeros(width)
    first[:-1] = 1.0
    fb = np.zeros(width)
    fb[1:-1] = -xi
    mid = rail_layer(width)
    mb = np.zeros(width)
    out = np.zeros(width)
    out[-1] = 1.0
    for row, cls in enumerate(classes, start=1):
        if not cls:
            continue
        xs, vs, sign = _reference_class_profile(cls, coeff, y, q, peaks)
        slopes = np.diff(vs) / np.diff(xs)
        mid[row, 0] = slopes[0]
        mid[row, 1:-1] = np.diff(slopes)
        mb[row] = vs[0]
        out[row] = sign
    return SpecialNetwork(first, fb, mid[None], mb[None], out, 0.0)


def reference_compile_wide(target, width):
    """Block-at-a-time W >= 8 compile kept as a test-only reference: one hat
    solve, one class profile per used class and one validated network per
    block, joined by concat_sum."""
    q = (width - 2) // 6
    slope = float(target.values[-1] - target.values[0])
    offset = float(target.values[0])
    residual = cpwl.add(target, cpwl.line(slope, offset), 1.0, -1.0)
    size = block_size(width)
    n = residual.n_interior
    blocks = max(1, math.ceil(n / size))
    knots = np.sort(_pad_knots(residual.breakpoints[1:-1], blocks * size))
    full = np.concatenate(([0.0], knots, [1.0]))
    vals = residual.eval(full)
    nets = []
    for j in range(blocks):
        y = full[j * size:(j + 1) * size + 2]
        s = vals[j * size:(j + 1) * size + 2].copy()
        s[0] = 0.0
        s[-1] = 0.0
        nets.append(_reference_block_special(y, s, width, q))
    net = concat_sum(*nets)
    out = net.out_weights.copy()
    out[0] += slope
    return SpecialNetwork(net.in_weights, net.in_bias, net.hidden_weights, net.hidden_bias,
                          out, net.out_bias + offset)


def same_weights(a, b):
    """The six arrays of two networks hold the same numbers, signs of zeros
    included."""
    pairs = [(getattr(a, f), getattr(b, f)) for f in
             ("in_weights", "in_bias", "hidden_weights", "hidden_bias", "out_weights", "out_bias")]
    return all(np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
               for x, y in pairs)


def overflowing_net():
    """W=3 network of odd values whose forward pass overflows: in layer 1
    (layer 0 is the input layer) for x in (0, 1], in layer 2 at x = 0."""
    odd = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, 7.0, -12.0, 0.0, 2.0 ** 60, -1e-300])
    return ReluNetwork(odd[:3], odd[3:6], np.resize(odd, (2, 3, 3)),
                       np.resize(odd[::-1], (2, 3)), odd[6:], -0.0)


def overflowing_reset_net():
    """W=4, depth-2 special network whose every layer is a reset and whose
    collation rail overflows in layer 1: it adds 1e308 relu(1e308 x)."""
    weights = rail_layer(4)
    weights[1:3, 0] = 1.0
    weights[-1, 1] = 1e308
    return SpecialNetwork([1.0, 1e308, 1.0, 0.0], np.zeros(4), [weights], np.zeros((1, 4)),
                          [0.0, 0.0, 0.0, 1.0], 0.0)


def slope_overflow_nets():
    """Finite networks with a real kink at 0.5 between slopes 1e308 and 2e308
    = inf: in the output row (depth 1) and in a hidden layer (depth 2)."""
    first, first_b = [1.0, 1.0], [0.0, -0.5]
    return [ReluNetwork(first, first_b, np.zeros((0, 2, 2)), np.zeros((0, 2)), [1e308, 1e308], 0.0),
            ReluNetwork(first, first_b, [[[1e308, 1e308], [0.0, 0.0]]], np.zeros((1, 2)),
                        [1.0, 0.0], 0.0)]


def text_io_networks(rng):
    """Networks whose files pin the writer's number format: the hat (W=2,
    depth 1), a converted plain network, compiled special networks at
    W = 4 (depth 250), 8 and 32, and one holding -0.0, 5e-324, 1e300, 1/3
    and integers.  Its channels 1 and 2 are 0 on [0, 1] in every layer, so
    its large weights meet only zeros and every value stays finite."""
    nets = [hat_net(), plain_net(random_spline(rng, 6), 5)]
    nets += [compile_spline(random_spline(rng, n), w)[0] for w, n in ((4, 500), (8, 40), (32, 90))]
    third, tiny, huge, big, neg_tiny = 1.0 / 3.0, 5e-324, 1e300, 2.0 ** 60, -1e-300
    hidden = [[[7.0, huge, big], [neg_tiny, third, huge], [-12.0, tiny, -0.0]],
              [[third, big, huge], [-12.0, 7.0, huge], [neg_tiny, tiny, big]]]
    nets.append(ReluNetwork([third, 7.0, -12.0], [tiny, -12.0, -0.0], hidden,
                            [[0.0, -12.0, neg_tiny], [tiny, -0.0, 0.0]], [big, huge, neg_tiny], -0.0))
    return nets


def random_spline(rng, n, low=-2.0, high=2.0):
    """Random CPwL with n interior breakpoints spaced at least 1/(4(n+1))."""
    gaps = rng.uniform(0.4, 1.6, n + 1)
    inner = np.cumsum(gaps)[:-1] / gaps.sum()
    x = np.concatenate(([0.0], inner, [1.0]))
    return cpwl.CPwL(x, rng.uniform(low, high, n + 2))


def gentle_unit_spline(rng, max_knots=3):
    """Unit-range spline on a coarse tenths grid, safe to self-compose."""
    n = int(rng.integers(1, max_knots + 1))
    ticks = np.sort(rng.choice(np.arange(1, 10), size=n, replace=False)) / 10.0
    x = np.concatenate(([0.0], ticks, [1.0]))
    return cpwl.CPwL(x, rng.uniform(0.0, 1.0, n + 2))


def plain_net(f, width=4):
    """Plain ReLU network computing the spline f exactly."""
    net, _ = compile_spline(f, width)
    return special_to_standard(net)


def compose_chain(chain):
    """chain[-1] o ... o chain[0] as a single CPwL."""
    out = chain[0]
    for f in chain[1:]:
        out = cpwl.compose(f, out)
    return out


def sample_lip_ball(rng, alpha):
    """Random function vanishing at 0 and 1 with Lip-alpha seminorm below one.

    Sums a few kink atoms c * |x - t|**alpha, subtracts the line through the
    endpoint values, and rescales by the pairwise seminorm measured over a
    fine mesh joined with the kink centers.
    """
    count = int(rng.integers(1, 7))
    centers = rng.uniform(0.0, 1.0, count)
    coeffs = rng.uniform(-1.0, 1.0, count)

    def raw(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, t in zip(coeffs, centers):
            out = out + c * np.abs(x - t) ** alpha
        return out

    v0 = float(raw(np.array([0.0]))[0])
    v1 = float(raw(np.array([1.0]))[0])

    def pinned(x):
        x = np.asarray(x, dtype=float)
        return raw(x) - (1.0 - x) * v0 - x * v1

    mesh = np.union1d(np.arange(841) / 840.0, np.clip(centers, 0.0, 1.0))
    gv = pinned(mesh)
    dx = np.abs(mesh[:, None] - mesh[None, :])
    np.fill_diagonal(dx, 1.0)
    semi = float((np.abs(gv[:, None] - gv[None, :]) / dx ** alpha).max())
    rho = float(rng.uniform(0.3, 0.97))
    if semi < 1e-12:
        return approx.TargetFunction(
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lip_alpha=(alpha, 0.0))
    scale = rho / semi
    return approx.TargetFunction(lambda x: scale * pinned(x), lip_alpha=(alpha, rho))


def pattern_rich_target(rng, m, k, alpha, theta=0.9):
    """Piecewise-linear target carrying a random pattern on every 1/m panel.

    Each panel holds theta * 2 * m**(-alpha) * S_i(m x - i) for a random
    level pattern S_i at resolution k; the factor theta < 1 keeps the node
    values strictly between quantization levels so the panel residuals
    quantize back to exactly S_i.  Returns the target and the pattern list.
    """
    pats = []
    for _ in range(m):
        levels = [0]
        for j in range(k - 1):
            step = int(rng.integers(-1, 2))
            nxt = levels[-1] + step
            if abs(nxt) > k - 2 - j:
                nxt = levels[-1] - int(np.sign(levels[-1]) or 1) * abs(step)
            levels.append(int(nxt))
        levels.append(0)
        if abs(levels[-2]) > 1:
            levels[-2] = 1 if levels[-2] > 0 else -1
        pats.append(approx.Pattern(tuple(levels)))

    xs, vs = [0.0], [0.0]
    amp = 2.0 * float(m) ** (-alpha) * theta
    for i, pat in enumerate(pats):
        shape = pat.to_cpwl(alpha)
        for bx, bv in zip(shape.breakpoints[1:], shape.values[1:]):
            x = (i + bx) / m
            if x > xs[-1]:
                xs.append(x)
                vs.append(amp * bv)
            else:
                vs[-1] = amp * bv
    f = cpwl.CPwL(xs, vs)
    return approx.TargetFunction(f, lip_alpha=(alpha, 1.0)), pats
