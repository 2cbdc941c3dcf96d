"""Shared random constructions used across the test modules."""

import math
from fractions import Fraction

import numpy as np

from spline2relu import approx, cpwl, riesz
from spline2relu.combinators import concat_sum, pad_width, parallel_sum, stack_sum
from spline2relu.compiler import (
    _DEGENERATE_TOL,
    _deepen,
    _pad_knots,
    block_size,
    compile_self_similar,
    compile_spline,
    fourier_atom,
)
from spline2relu.errors import (
    ContractError,
    DegenerateCompositionError,
    DomainError,
    ResourceError,
    StructureError,
)
from spline2relu.network import (
    ReluNetwork,
    SpecialNetwork,
    _depth_one,
    _depth_two,
    _SharedGrid,
    _sum_parts,
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


def reference_crossings(g, v):
    """Sorted, distinct zero crossings of the rows v on the grid g, kept as a
    test-only reference for cpwl._crossings: np.unique in place of carrying
    each crossing's segment through the sort."""
    a, b = v[..., :-1], v[..., 1:]
    hit = np.nonzero(a * b < 0.0)
    seg = hit[-1]
    cross, far = cpwl._cross(g[seg], g[seg + 1], a[hit], b[hit])
    return np.unique(cross[far])


def reference_insert(g, v, new, right):
    """Fancy-index body of cpwl._insert, kept as a test-only reference for
    its gathers: the grid g grown by the sorted, distinct nodes `new`, the
    rows v on it and the positions of the new nodes."""
    if not new.size:
        return g, v, np.empty(0, dtype=np.intp)
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


def reference_shared_relu(shared, layer):
    """_SharedGrid._relu with the crossings of reference_crossings, each
    placed by np.searchsorted, and the nodes inserted by reference_insert,
    all on the whole grid at once, kept as a test-only reference for the
    layer step's ReLU."""
    pre = layer(slice(None))
    new = reference_crossings(shared.grid, pre)
    if shared.grid.size + new.size + shared.held > cpwl.DEFAULT_NODE_BUDGET:
        raise ResourceError(f"extraction grew past {cpwl.DEFAULT_NODE_BUDGET} nodes")
    shared.grid, v, _ = reference_insert(shared.grid, pre, new,
                                         np.searchsorted(shared.grid, new))
    shared.vals = np.maximum(v, 0.0, out=v)


def seam_rows(rng, size, rows):
    """A grid of `size` nodes and rows on it (one row when rows is 0): signs
    that change in nearly half of the segments, zeros of both signs, and
    every fifth interior node straight in every row, so the prune drops
    it."""
    g = np.linspace(0.0, 1.0, size)
    g[1:-1] += rng.uniform(-0.3, 0.3, size - 2) / (size - 1)
    v = rng.normal(size=(max(rows, 1), size)) + 0.4
    v[rng.random(v.shape) < 0.05] = 0.0
    v[rng.random(v.shape) < 0.05] = -0.0
    for i in range(2, size - 1, 5):
        v[:, i] = v[:, i - 1] + (v[:, i + 1] - v[:, i - 1]) * (
            (g[i] - g[i - 1]) / (g[i + 1] - g[i - 1]))
    return g, (v if rows else v[0])


def reference_unblocked_crossings(g, v):
    """cpwl._crossings before the blocked layer step, kept as a test-only
    reference: the hits found on the 2-d rows, gathered by fancy indexing."""
    a, b = v[..., :-1], v[..., 1:]
    hit = np.nonzero(a * b < 0.0)
    seg = hit[-1]
    if not seg.size:
        return g[:0], seg
    cross, far = cpwl._cross(g.take(seg), g.take(seg + 1), a[hit], b[hit])
    cross, seg = cross[far], seg[far]
    order = np.argsort(cross, kind="stable")
    new, right = cross[order], seg[order] + 1
    first = np.ones(new.size, dtype=bool)
    first[1:] = new[1:] != new[:-1]
    return new[first], right[first]


def reference_unblocked_insert(g, v, new, right):
    """cpwl._insert before the blocked layer step, kept as a test-only
    reference: the old nodes placed by a 2-d boolean mask."""
    if not new.size:
        return g, v, np.empty(0, dtype=np.intp)
    at = right + np.arange(new.size)
    left = right - 1
    gl, vl = g.take(left), np.take(v, left, axis=-1)
    mid = (np.take(v, right, axis=-1) - vl) / (g.take(right) - gl) * (new - gl) + vl
    old = np.ones(g.size + new.size, dtype=bool)
    old[at] = False
    grid = np.empty(old.size)
    grid[old] = g
    grid[at] = new
    vals = np.empty(v.shape[:-1] + old.shape)
    vals[..., old] = v
    vals[..., at] = mid
    return grid, vals, at


def reference_unblocked_prune(g, v):
    """cpwl._prune before the blocked kink test, kept as a test-only
    reference: every interior node tested in one pass."""
    while g.size > 2:
        slopes = v[..., 1:] - v[..., :-1]
        slopes /= g[1:] - g[:-1]
        gap = slopes[..., 1:] - slopes[..., :-1]
        np.abs(gap, out=gap)
        np.abs(slopes, out=slopes)
        tol = np.maximum(slopes[..., 1:], slopes[..., :-1])
        np.maximum(tol, 1.0, out=tol)
        tol *= cpwl.SLOPE_TOL
        kink = (gap > tol).reshape(-1, g.size - 2).any(axis=0)
        if kink.all():
            break
        if not np.isfinite(tol[..., ~kink]).all() and np.isfinite(v).all():
            raise DomainError(cpwl.SLOPE_OVERFLOW)
        keep = np.concatenate(([True], kink, [True]))
        g, v = g[keep], v[..., keep]
    return g, v


def reference_unblocked_step(shared, weights, bias):
    """_SharedGrid.step before blocking, kept as a test-only reference: one
    matmul over the whole grid, then the crossings, insert and prune of the
    unblocked references above."""
    shared.vals = weights[shared.rows, shared.rows] @ shared.vals
    if shared.special:
        shared.vals += np.multiply.outer(weights[shared.rows, 0], shared.grid)
    shared.vals += bias[shared.rows, None]
    new, right = reference_unblocked_crossings(shared.grid, shared.vals)
    if shared.grid.size + new.size + shared.held > cpwl.DEFAULT_NODE_BUDGET:
        raise ResourceError(f"extraction grew past {cpwl.DEFAULT_NODE_BUDGET} nodes")
    shared.grid, v, _ = reference_unblocked_insert(shared.grid, shared.vals, new, right)
    shared.vals = np.maximum(v, 0.0, out=v)
    size = shared.grid.size
    shared.grid, shared.vals = reference_unblocked_prune(shared.grid, shared.vals)
    return shared.grid.size < size


def reference_unblocked_sawtooth_sum(order, settle):
    """The Takagi target of `approx.takagi_family` before blocking, kept as a
    test-only reference: every term runs over all points at once, and the
    points with t = 0 are set aside after `settle` terms (m + 1 in the
    target of size m = order - 20)."""
    def run(t, total, terms):
        term = np.empty_like(t)
        for i in terms:
            np.subtract(1.0, t, out=term)
            np.minimum(t, term, out=term)
            term *= 2.0 ** -i
            total += term
            t += t
            np.subtract(t, 1.0, out=t, where=t >= 1.0)

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        t = np.array(np.mod(xs, 1.0))
        total = np.zeros_like(xs)
        run(t, total, range(min(settle, order)))
        if settle < order:
            live = np.flatnonzero(t)
            rest = total.take(live)
            run(t.take(live), rest, range(settle, order))
            np.put(total, live, rest)
        return total
    return evaluate


def _reference_affine(states, weights, bias):
    out = []
    for i in range(weights.shape[0]):
        nz = np.nonzero(weights[i])[0]
        out.append(cpwl.combine([states[j] for j in nz], weights[i, nz], bias[i]))
    return out


def reference_extract(net):
    """Per-channel extraction kept as a test-only reference.

    Propagates one canonical CPwL per channel: affine layers are nodal
    combinations, ReLU inserts exact zero-crossing nodes (skipping the rails).
    """
    mask = _reference_mask(net)

    def clamp(states):
        total = sum(s.breakpoints.size for s in states)
        if total > cpwl.DEFAULT_NODE_BUDGET:
            raise ResourceError(f"extraction grew past {cpwl.DEFAULT_NODE_BUDGET} nodes")
        return [reference_relu(s) if mask[i] else s for i, s in enumerate(states)]

    states = [cpwl.line(w, b) for w, b in zip(net.in_weights, net.in_bias)]
    states = clamp(states)
    for weights, bias in zip(net.hidden_weights, net.hidden_bias):
        states = clamp(_reference_affine(states, weights, bias))
    return _reference_affine(states, net.out_weights[None, :], [net.out_bias])[0]


def reference_collation_rail(net):
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


def reference_fourier_sum_full_depth(terms, width):
    """compile_fourier_sum's network with every atom padded to the global
    depth 2 * (ceil(log2 lambda) + 2), kept as a test-only reference: the
    library pads each group's atoms only to the depth of its deepest atom,
    and the layers it leaves out are identity layers after every state."""
    p = 2 * (max(0, math.ceil(math.log2(max(j for j, _, _ in terms)))) + 2)
    group_size = (width - 2) // 4
    pairs = [parallel_sum([_deepen(fourier_atom("cosine", j), p),
                           _deepen(fourier_atom("sine", j), p)], [a, b])
             for j, a, b in terms]
    blocks = []
    for g in range(0, len(pairs), group_size):
        block = parallel_sum(pairs[g:g + group_size])
        blocks.append(pad_width(block, width - 2))
    return stack_sum(blocks)


def reference_lifts(net):
    """Per-layer collation floors max(0, -min course l) kept as a test-only
    reference for special_to_standard, whose one lift is their max: one
    canonical CPwL course built at every hidden layer, on a shared grid that
    steps through the whole network."""
    shared = _SharedGrid(net)
    course = cpwl.line(0.0, 0.0)
    lifts = []
    for weights, bias in zip(net.hidden_weights, net.hidden_bias):
        inc = shared.readout(weights[-1], bias[-1])
        grid = np.union1d(course.breakpoints, shared.grid)
        vals = np.interp(grid, course.breakpoints, course.values)
        vals += np.interp(grid, shared.grid, inc)
        course = cpwl.CPwL(grid, vals)
        lifts.append(max(0.0, -float(course.values.min())))
        shared.held = course.breakpoints.size
        shared.step(weights, bias)
    return lifts


def same_lifts(std, net):
    """std is net to the bit, except that its collation rail starts at the one
    lift max(reference_lifts(net)) (in_bias[-1]) and out_bias removes it."""
    lift = max(reference_lifts(net), default=0.0)
    in_bias = net.in_bias.copy()
    in_bias[-1] = lift
    want = ReluNetwork(net.in_weights, in_bias, net.hidden_weights, net.hidden_bias,
                       net.out_weights, net.out_bias - lift)
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
    special network whose segments between resets are all one layer deep
    (`_depth_one`) or all two deep (`_depth_two`) is read from its closed
    form's nodes by np.interp, any other network by `forward`."""
    xs = np.linspace(0.0, 1.0, grid_n)
    depths = set(np.diff(np.append(reset_layers(net), net.depth)).tolist()) if net.special else ()
    if depths == {1}:
        ys = np.interp(xs, *_depth_one(net))
    elif depths == {2}:
        ys = np.interp(xs, *_depth_two(net))
    else:
        ys = net.forward(xs)
    rows = ["x,value"] + ["%.17g,%.17g" % (x, y) for x, y in zip(xs, ys)]
    return "\n".join(rows) + "\n"


def exact_values(net, xs):
    """The network's own function at the points xs, as Fractions: every float
    weight and point is a dyadic rational, so stepping the layers exactly
    (zero weights skipped) separates the error of a float evaluation from the
    rounding already in the weights.  Each state is held as integers over one
    power of two: 2^1074 times any finite float is an integer, and after each
    layer the common factors of two are shifted out."""
    mask = _reference_mask(net).tolist()
    scale = 1074

    def ints(a):
        return [int(Fraction(v) * (1 << scale)) for v in np.asarray(a, dtype=float).ravel().tolist()]

    def rows(weights, bias):
        flat, cols = ints(weights), np.shape(weights)[1]
        return [([(j, w) for j, w in enumerate(flat[i * cols:(i + 1) * cols]) if w], b)
                for i, b in enumerate(ints(bias))]

    layers = [rows(net.in_weights[:, None], net.in_bias)]
    layers += [rows(w, b) for w, b in zip(net.hidden_weights, net.hidden_bias)]
    layers.append(rows(net.out_weights[None], [net.out_bias]))
    values = []
    for x in xs:
        state, shift = ints([x]), scale  # the state is state[j] / 2^shift
        for k, layer in enumerate(layers):
            state = [sum((w * state[j] for j, w in row), b << shift) for row, b in layer]
            shift += scale
            if k < len(layers) - 1:
                state = [max(s, 0) if relu else s for s, relu in zip(state, mask)]
            low = min([(s & -s).bit_length() - 1 for s in state if s] + [shift])
            state = [s >> low for s in state]
            shift -= low
        values.append(Fraction(state[0], 1 << shift))
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


def reference_depth_two(net):
    """`network._depth_two` before its grid grew through `cpwl._insert`, kept
    as a test-only reference: the crossings, the rows' sums and the first
    collation read placed by a scatter of its own."""
    comp = slice(1, -1)
    hidden, bias = net.hidden_weights, net.hidden_bias
    a = np.concatenate([net.in_weights[None, comp], hidden[1::2, comp, 0]])
    b = np.concatenate([net.in_bias[None, comp], bias[1::2, comp]])
    read = np.concatenate([hidden[:, -1, comp], net.out_weights[None, comp]])
    segments, size = a.shape[0], a.shape[1] + 2
    t = -b / a
    grid = np.zeros((segments, size))
    grid[:, 1:-1] = np.where((t > 0.0) & (t < 1.0), t, 0.0)  # the rest repeat node 0
    grid[:, -1] = 1.0
    grid.sort(axis=1)
    units = a[..., None] * grid[:, None] + b[..., None]
    np.maximum(units, 0.0, out=units)
    first = (read[0::2, None] @ units)[:, 0]
    rows = hidden[0::2, comp, comp] @ units
    del units
    rows += hidden[0::2, comp, 0, None] * grid[:, None]
    rows += bias[0::2, comp, None]

    # every row's crossings, sorted and made distinct within each segment
    lo, hi = rows[..., :-1], rows[..., 1:]
    hit = np.nonzero(lo * hi < 0.0)
    seg, k = hit[0], hit[2]
    cross, far = cpwl._cross(grid[seg, k], grid[seg, k + 1], lo[hit], hi[hit])
    seg, k, cross = seg[far], k[far], cross[far]
    order = np.lexsort((cross, seg))
    seg, k, cross = seg[order], k[order], cross[order]
    new = np.ones(cross.size, dtype=bool)
    new[1:] = (cross[1:] != cross[:-1]) | (seg[1:] != seg[:-1])
    seg, k, cross = seg[new], k[new], cross[new]

    # rows and first read at the crossings, on their interval, in place
    left = grid[seg, k]
    span = grid[seg, k + 1] - left
    cross_off = cross - left
    below = rows[seg, :, k]
    mid = rows[seg, :, k + 1]
    mid -= below
    mid /= span[:, None]
    mid *= cross_off[:, None]
    mid += below
    del below
    np.maximum(mid, 0.0, out=mid)
    mid *= read[1::2][seg]
    at_cross = mid.sum(axis=1)
    del mid
    below = first[seg, k]
    at_cross += (first[seg, k + 1] - below) / span * cross_off + below
    np.maximum(rows, 0.0, out=rows)
    at_nodes = first + (read[1::2, None] @ rows)[:, 0]

    # one (grid, values) part per segment: crossings inserted, repeats dropped
    at = seg * size + k + 1 + np.arange(seg.size)
    old = np.ones(segments * size + seg.size, dtype=bool)
    old[at] = False
    x = np.empty(old.size)
    x[old] = grid.ravel()
    x[at] = cross
    v = np.empty(old.size)
    v[old] = at_nodes.ravel()
    v[at] = at_cross
    start = np.zeros(old.size, dtype=bool)
    start[np.arange(segments) * size + np.searchsorted(seg, np.arange(segments))] = True
    keep = start.copy()
    keep[1:] |= x[1:] != x[:-1]
    bounds = np.flatnonzero(start[keep])[1:]
    x, v = _sum_parts(list(zip(np.split(x[keep], bounds), np.split(v[keep], bounds))))
    slope = np.append(hidden[:, -1, 0], net.out_weights[0]).sum()
    value = np.append(bias[:, -1], net.out_bias).sum()
    v += slope * x
    v += value
    return x, v


def same_cpwl(f, g):
    """Two CPwL functions hold the same breakpoints and values."""
    return np.array_equal(f.breakpoints, g.breakpoints) and np.array_equal(f.values, g.values)


def same_bits(got, want):
    """Equal sequences of arrays, shapes and signs of zero included
    (np.array_equal reads -0.0 == 0.0)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


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


def two_deep_net(rng, width, segments):
    """Random special network whose every segment between resets (see
    `reset_layers`) is two layers deep: the units of each reset layer read x
    alone, the layer after it reads them and x, and every collation row reads
    x, the units before it and a bias.  About a third of the weights are
    zero, the units' x weights included."""
    comp = slice(1, -1)

    def draw(*shape):
        return rng.uniform(-2.0, 2.0, shape) * (rng.random(shape) < 0.7)

    depth = 2 * segments
    hidden = np.tile(rail_layer(width), (depth - 1, 1, 1))
    bias = np.zeros((depth - 1, width))
    hidden[:, comp, 0] = draw(depth - 1, width - 2)
    hidden[0::2, comp, comp] = draw(segments, width - 2, width - 2)
    # one weight that is never zero keeps the layer after each reset from being one
    hidden[0::2, 1, 1] = rng.choice([-1.0, 1.0], segments) * rng.uniform(0.5, 2.0, segments)
    hidden[:, -1, :-1] = draw(depth - 1, width - 1)
    bias[:, 1:] = draw(depth - 1, width - 1)
    return SpecialNetwork(np.r_[1.0, draw(width - 2), 0.0], np.r_[0.0, draw(width - 2), 0.0],
                          hidden, bias, np.r_[draw(width - 1), 1.0], float(draw()))


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


def reference_representative_chain(chain):
    """`compiler.representative_chain` before its one loop, kept as a
    test-only reference: factor 0 renormalized on its own, then a loop over
    the later factors."""
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


def reference_quantize_values(vals, k, alpha):
    """One-panel loop kept as a test-only reference for approx._quantize_values:
    the Pattern of one sampled row vals (k+1), ties resolved toward the
    previously chosen level."""
    h_alpha = (1.0 / k) ** alpha
    if not np.isfinite(vals).all():
        raise ContractError("sampled values must be finite")
    if abs(vals[0]) > approx.ENDPOINT_TOL or abs(vals[-1]) > approx.ENDPOINT_TOL:
        raise ContractError("function must vanish at 0 and 1")
    steps = np.abs(np.diff(vals))
    if steps.max() > h_alpha * (1.0 + approx.NODE_SLACK) + 1e-15:
        raise ContractError("sampled nodes violate the Lipschitz bound")
    levels = [0]
    for j in range(1, k + 1):
        t = vals[j] / h_alpha
        base = math.floor(t)
        frac = t - base
        if abs(frac - 0.5) <= approx.TIE_TOL:
            beta = base if levels[-1] <= base else base + 1
        elif frac < 0.5:
            beta = base
        else:
            beta = base + 1
        levels.append(beta)
    try:
        return approx.Pattern(tuple(levels))
    except StructureError as exc:
        raise ContractError(f"quantized levels escape the pattern class: {exc}")


def reference_lip_alpha_approximant(f, alpha, m, width):
    """approx.lip_alpha_approximant with its pattern stage as a panel loop over
    reference_quantize_values, grouped in a dict: kept as a test-only reference
    (the contract checks on f are left to the library)."""
    nodes = np.arange(m + 1, dtype=float) / m
    vals = f(nodes)
    net, _ = compile_spline(cpwl.CPwL(nodes, vals), width)
    k = approx.pattern_resolution(m)
    sub = np.arange(k + 1, dtype=float) / k
    xs = ((np.arange(m, dtype=float)[:, None] + sub[None, :]) / m).ravel()
    fv = f(xs).reshape(m, k + 1)
    tv = np.interp(xs, nodes, vals).reshape(m, k + 1)
    scale = 0.5 * float(m) ** alpha
    groups = {}
    for i in range(m):
        pattern = reference_quantize_values(scale * (fv[i] - tv[i]), k, alpha)
        if not pattern.is_zero():
            groups.setdefault(pattern.levels, []).append(i)
    terms = []
    for levels, panels in groups.items():
        shape = approx.Pattern(levels).to_cpwl(alpha)
        scaled = cpwl.combine([shape], [2.0 * float(m) ** (-alpha)])
        intervals = np.column_stack([panels, np.add(panels, 1)]) / m
        terms.append(compile_self_similar(scaled, intervals, width)[0])
    return concat_sum(net, *terms), 4.0 * (k * m) ** (-alpha)


def reference_hat_iterate(k):
    """Composition chain kept as a test-only reference for cpwl.hat_iterate:
    the hat composed with itself k - 1 times."""
    out = cpwl.hat()
    for _ in range(k - 1):
        out = cpwl.compose(cpwl.hat(), out)
    return out


def reference_takagi_partial(coeffs):
    """Composition chain kept as a test-only reference for cpwl.takagi_partial."""
    coeffs = list(coeffs)
    if not coeffs:
        return cpwl.line(0.0, 0.0)
    terms = [cpwl.hat()]
    for _ in range(len(coeffs) - 1):
        terms.append(cpwl.compose(cpwl.hat(), terms[-1]))
    return cpwl.combine(terms, coeffs)


def reference_sine_cpwl(k):
    """Node-by-node loop kept as a test-only reference for basis_fn("sine", k)."""
    xs, vs = [0.0], [0.0]
    for ell in range(k):
        xs.extend([(ell + 0.25) / k, (ell + 0.75) / k])
        vs.extend([1.0, -1.0])
    xs.append(1.0)
    vs.append(0.0)
    return cpwl.CPwL(xs, vs)


def reference_interval_hats(intervals):
    """Node-appending loop kept as a test-only reference for
    compiler._interval_hats, over a list of (a, b) pairs."""
    m = len(intervals)
    xs_t, vs_t = [0.0], [0.0]
    xs_h, vs_h = [0.0], [0.0]

    def push(xs, vs, x, v):
        if x > xs[-1]:
            xs.append(x)
            vs.append(v)

    for i, (a, b) in enumerate(intervals):
        nxt = intervals[i + 1][0] if i + 1 < m else 1.0
        push(xs_t, vs_t, a, 0.0)
        push(xs_t, vs_t, b, 1.0)
        if b < 1.0:
            c = 0.5 * (b + nxt)
            push(xs_t, vs_t, c, 0.0)
            push(xs_h, vs_h, b, 0.0)
            push(xs_h, vs_h, c, 1.0)
            push(xs_h, vs_h, nxt, 0.0)
    push(xs_t, vs_t, 1.0, 0.0)
    push(xs_h, vs_h, 1.0, 0.0)
    return cpwl.CPwL(xs_t, vs_t), cpwl.CPwL(xs_h, vs_h)


def reference_self_similar_oracle(pattern, intervals):
    """Node-appending loop kept as a test-only reference for
    compiler.self_similar_oracle."""
    xs, vs = [0.0], [0.0]
    for a, b in intervals:
        px = a + (b - a) * pattern.breakpoints
        for x, v in zip(px, pattern.values):
            if x > xs[-1]:
                xs.append(float(x))
                vs.append(float(v))
    if xs[-1] < 1.0:
        xs.append(1.0)
        vs.append(0.0)
    return cpwl.CPwL(xs, vs)


def reference_panel_antiderivative(panel_values, anchor, x):
    """Panel-by-panel evaluator kept as a test-only reference for
    approx.sobolev_split's parts: anchor plus the integral from 0 to x of the
    function equal to panel_values[i] on the i-th of len(panel_values)
    uniform panels, the last panel extended to x = 1."""
    panel_values = np.asarray(panel_values, dtype=float)
    panels = len(panel_values)
    edges = np.concatenate(([0.0], np.cumsum(panel_values) / panels))
    xs = np.asarray(x, dtype=float)
    idx = np.clip(np.floor(xs * panels).astype(int), 0, panels - 1)
    return anchor + edges[idx] + (xs - idx / panels) * panel_values[idx]


def interval_sets(rng, count):
    """Seeded (m, 2) interval arrays for the self-similar builders, in turn:
    a partition of [0, 1] into m touching intervals, strictly separated
    intervals from a = 0 to b = 1, a single interval, separated intervals on
    a grid with about half of them touching the one before, and separated
    intervals drawn uniformly."""
    for t in range(count):
        m = int(rng.integers(1, 12))
        kind = t % 5
        if kind == 0:
            inner = np.sort(rng.choice(np.arange(1, 64), m - 1, replace=False)) / 64.0
            edges = np.concatenate(([0.0], inner, [1.0]))
            iv = np.column_stack([edges[:-1], edges[1:]])
        elif kind == 2:
            iv = np.sort(rng.uniform(0.0, 1.0, 2))[None, :]
        elif kind == 3:
            iv = (np.sort(rng.choice(np.arange(97), 2 * m, replace=False)) / 96.0).reshape(m, 2)
            for i in range(1, m):
                if rng.random() < 0.5:
                    iv[i, 0] = iv[i - 1, 1]
        else:
            iv = np.sort(rng.uniform(0.0, 1.0, 2 * m)).reshape(m, 2)
            if kind == 1:
                iv[0, 0], iv[-1, 1] = 0.0, 1.0
        yield iv


def reference_dyadic_sawtooth_sum(order):
    """Term-by-term closed form kept as a test-only reference for the Takagi
    target of `approx.takagi_family`: term i is 2^-(i+1) H^(i+1)(x), each
    read by cpwl.hat_iterate_value's np.mod of x 2^i."""
    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        total = np.zeros_like(xs)
        for i in range(order):
            total = total + 2.0 ** -(i + 1) * cpwl.hat_iterate_value(i + 1, xs)
        return total
    return evaluate


def reference_odd_multiplier_sum(k, ell, signed):
    """Enumeration kept as a test-only reference for riesz._kernel's base
    form: sum over m,n <= ODD_SUM_CAP of (2m+1)**-2 (2n+1)**-2 on
    (2m+1)k = (2n+1)ell, with the alternating sign (-1)**(m+n) when signed."""
    ms = np.arange(riesz.ODD_SUM_CAP + 1)
    p = (2 * ms + 1) * k
    hit = p % ell == 0
    if not hit.any():
        return 0.0
    q = p[hit] // ell
    odd = q % 2 == 1
    q = q[odd]
    mm = ms[hit][odd]
    ns = (q - 1) // 2
    keep = ns <= riesz.ODD_SUM_CAP
    q = q[keep]
    mm = mm[keep]
    terms = 1.0 / ((2 * mm + 1).astype(float) ** 2 * q.astype(float) ** 2)
    if signed:
        terms = terms * np.where((mm + ns[keep]) % 2 == 0, 1.0, -1.0)
    return float(terms.sum())


def reference_odd_divisor_sum(k, ell, signed):
    """Divisor loop kept as a test-only reference for riesz._kernel's adjoint
    form: sum over common divisors j of k and ell with odd quotients of
    (k/j)**-2 (ell/j)**-2, with alternating quotient signs when signed."""
    total = 0.0
    for j in range(1, min(k, ell) + 1):
        if k % j or ell % j:
            continue
        a, b = k // j, ell // j
        if a % 2 == 0 or b % 2 == 0:
            continue
        term = 1.0 / (a * a * b * b)
        if signed and ((a - 1) // 2 + (b - 1) // 2) % 2 == 1:
            term = -term
        total += term
    return total


def reference_kernel(K, signed, adjoint):
    """riesz._kernel entry by entry from the two references above."""
    entry = reference_odd_divisor_sum if adjoint else reference_odd_multiplier_sum
    return np.array([[entry(k, ell, signed) for ell in range(1, K + 1)]
                     for k in range(1, K + 1)])


def reference_inner_product(f, g):
    """Two-function closed form on the pair's own merged grid, kept as a
    test-only reference for riesz's one-grid Gram sum."""
    grid = np.union1d(f.breakpoints, g.breakpoints)
    fv = np.interp(grid, f.breakpoints, f.values)
    gv = np.interp(grid, g.breakpoints, g.values)
    dx = np.diff(grid)
    f0, f1 = fv[:-1], fv[1:]
    g0, g1 = gv[:-1], gv[1:]
    return float(np.sum(dx / 6.0 * (f0 * (2.0 * g0 + g1) + f1 * (g0 + 2.0 * g1))))


def reference_gram_matrix(K):
    """Pairwise Gram matrix of C_1..C_K, S_1..S_K from reference_inner_product."""
    fns = [cpwl.basis_fn(kind, k) for kind in ("cosine", "sine") for k in range(1, K + 1)]
    n = 2 * K
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = reference_inner_product(fns[i], fns[j])
    return gram
