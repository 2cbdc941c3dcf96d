"""ReLU network data model: forward pass, exact extraction, serialization.

A network of width W and depth L is the map A_L o relu o A_{L-1} o ... o relu o A_0
from [0, 1] to R, where A_0 is W x 1, the hidden A_l are W x W, and A_L is 1 x W.

A "special" network reserves channel 0 as a source channel (carries x through
every hidden layer) and channel W-1 as a collation channel (accumulates partial
results and never feeds a computational node); both are exempt from ReLU.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import cpwl
from .errors import DomainError, ParseError, ResourceError, StructureError


def param_count(width: int, depth: int) -> int:
    """Total number of weights and biases: W(W+1)L - (W-1)^2 + 2."""
    return width * (width + 1) * depth - (width - 1) ** 2 + 2


_FIELDS = ("in_weights", "in_bias", "hidden_weights", "hidden_bias", "out_weights", "out_bias")


class ReluNetwork:
    """A network held as six arrays, validated once, read-only and immutable.

    `in_weights` and `in_bias` (W,) are the input column and its biases,
    `hidden_weights` (L-1, W, W) and `hidden_bias` (L-1, W) the hidden maps,
    `out_weights` (W,) the output row and `out_bias` its scalar bias.  `width`
    is W, `depth` is the hidden-layer count L.
    """

    special = False

    def __init__(self, in_weights, in_bias, hidden_weights, hidden_bias, out_weights, out_bias):
        arrays = [np.array(a, dtype=float) for a in
                  (in_weights, in_bias, hidden_weights, hidden_bias, out_weights, out_bias)]
        w_in, b_in, hidden, b_hidden, w_out, b_out = arrays
        width = w_in.size
        if w_in.shape != (width,):
            raise StructureError("input layer must be W x 1")
        if hidden.ndim != 3 or hidden.shape[1:] != (width, width):
            raise StructureError("hidden layers must be W x W")
        if w_out.shape != (width,):
            raise StructureError("output layer must be 1 x W")
        if b_in.shape != (width,) or b_hidden.shape != hidden.shape[:2] or b_out.shape != ():
            raise StructureError("every layer needs one bias per row")
        if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
            raise StructureError("weights and bias must be finite")
        for a in arrays:
            a.setflags(write=False)
        arrays[-1] = float(b_out)
        for name, a in zip(_FIELDS, arrays):
            object.__setattr__(self, name, a)
        self._check_structure()

    def __setattr__(self, name, value):
        raise AttributeError("network objects are immutable")

    def _check_structure(self):
        pass

    @property
    def width(self) -> int:
        return self.in_weights.size

    @property
    def depth(self) -> int:
        return self.hidden_weights.shape[0] + 1

    @property
    def params(self) -> int:
        return param_count(self.width, self.depth)

    def _lower_bound(self) -> np.ndarray:
        """Per-channel clamp: 0 on ReLU channels, -inf on ReLU-free rails."""
        return np.zeros(self.width)

    def _states(self, xa: np.ndarray):
        """Hidden states after layers 0 .. L-1 at the points xa; two buffers
        take turns, so each state is overwritten two steps later."""
        lb = self._lower_bound()[:, None]
        state = self.in_weights[:, None] @ xa[None, :]
        state += self.in_bias[:, None]
        np.maximum(state, lb, out=state)
        yield state
        spare = np.empty_like(state)
        for weights, bias in zip(self.hidden_weights, self.hidden_bias):
            np.matmul(weights, state, out=spare)
            spare += bias[:, None]
            np.maximum(spare, lb, out=spare)
            state, spare = spare, state
            yield state

    def _not_finite(self, xa: np.ndarray) -> DomainError:
        """The error for a network whose value at some of xa is not finite: it
        names the first layer (0 the input layer, L the output) whose state is
        not finite there."""
        if not np.isfinite(xa).all():
            return DomainError("x must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            layer = next((k for k, state in enumerate(self._states(xa))
                          if not np.isfinite(state).all()), self.depth)
        return DomainError(f"network value is not finite: layer {layer} of {self.depth} "
                           "overflows")

    def forward(self, x):
        """Evaluate at scalar or 1-d array x.  A value that is not finite (a
        layer overflowed) raises DomainError naming that layer."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            *_, state = self._states(xa)
            out = self.out_weights @ state + self.out_bias
        if not np.isfinite(out).all():
            raise self._not_finite(xa)
        return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def __repr__(self) -> str:
        kind = "SpecialNetwork" if self.special else "ReluNetwork"
        return f"{kind}(width={self.width}, depth={self.depth})"


class SpecialNetwork(ReluNetwork):
    """Network with ReLU-free source (channel 0) and collation (channel W-1) rails."""

    special = True

    _HIDDEN_RULES = (
        "hidden layers must copy the source channel",
        "collation channel must only accumulate into itself",
        "source channel bias must stay 0",
    )

    def _check_structure(self):
        width = self.width
        if width < 4:
            raise StructureError("special networks need width >= 4")
        if self.in_weights[0] != 1.0 or self.in_weights[-1] != 0.0:
            raise StructureError("input layer must seed the source channel with x only")
        if self.in_bias[0] != 0.0 or self.in_bias[-1] != 0.0:
            raise StructureError("source and collation biases must start at 0")
        hidden = self.hidden_weights
        rail = rail_layer(width)
        broken = np.array([
            (hidden[:, 0] != rail[0]).any(axis=1),
            (hidden[:, :, -1] != rail[:, -1]).any(axis=1),
            self.hidden_bias[:, 0] != 0.0,
        ])
        if broken.any():
            # the first broken layer decides, then the rule order above
            layer = broken.any(axis=0).argmax()
            raise StructureError(self._HIDDEN_RULES[broken[:, layer].argmax()])
        if self.out_weights[-1] != 1.0:
            raise StructureError("output layer must read the collation channel")

    def _lower_bound(self) -> np.ndarray:
        lb = np.zeros(self.width)
        lb[0] = lb[-1] = -np.inf
        return lb


class _SharedGrid:
    """The live channels of a network as one rows x G array on one sorted grid.

    A plain network keeps all W channels.  A special network keeps only its
    W-2 computational channels: the source rail is exactly x (the grid itself)
    and the collation rail, which no computational node reads, is left to the
    caller through `readout`.  Every row is linear between adjacent grid nodes.
    `held` counts nodes the caller keeps outside the grid, for the budget.
    """

    def __init__(self, net: ReluNetwork):
        self.special = net.special
        self.rows = slice(1, net.width - 1) if net.special else slice(None)
        self.live = net.width - 2 if net.special else net.width
        self.held = 0
        self.grid = np.array([0.0, 1.0])
        weights, bias = net.in_weights[self.rows, None], net.in_bias[self.rows, None]
        self._relu(lambda nodes: weights * self.grid[nodes] + bias)

    def readout(self, weights: np.ndarray, bias: float) -> np.ndarray:
        """Values on the grid of the affine row weights . state + bias, without
        the collation rail's own term."""
        out = weights[self.rows] @ self.vals
        if self.special:
            out += weights[0] * self.grid
        out += bias
        return out

    def step(self, weights: np.ndarray, bias: np.ndarray) -> bool:
        """Advance the live rows through one hidden layer: its affine map on
        the grid and the ReLU (`_relu`), then a joint prune that drops the
        nodes where no row kinks (`cpwl._prune`, the CPwL canonical form
        applied to all rows at once).  True when the prune dropped some node."""
        inner, source = weights[self.rows, self.rows], weights[self.rows, 0]
        shift = bias[self.rows, None]

        def layer(nodes):
            out = inner @ self.vals[:, nodes]
            if self.special:
                out += np.multiply.outer(source, self.grid[nodes])
            out += shift
            return out

        self._relu(layer)
        size = self.grid.size
        self.grid, self.vals = cpwl._prune(self.grid, self.vals)
        return self.grid.size < size

    def _relu(self, layer) -> None:
        """Set the rows to the ReLU of `layer(nodes)`, the pre-activation rows
        on a slice of grid nodes, with every row's zero crossings inserted
        into the grid (`cpwl._crossings`, `cpwl._insert`) and then clamped at
        0.  Every row is evaluated at the new nodes by its own linear segment,
        so a crossing row holds its clamped value at the rounded crossing, not
        the forced 0 of `cpwl.relu`.  `live` counts the rows.

        The grid is read in blocks of cpwl._SWEEP_BLOCK segments that meet at
        one node.  Each crossing lies inside its segment, so the blocks'
        crossings, taken in order, are sorted and distinct.  A first pass
        finds them, so the node budget is checked before the grown arrays
        exist; a second writes each block into them.
        """
        g = self.grid
        blocks = []
        for start in range(0, g.size - 1, cpwl._SWEEP_BLOCK):
            nodes = slice(start, start + cpwl._SWEEP_BLOCK + 1)
            x, pre = g[nodes], layer(nodes)
            blocks.append((x, pre, *cpwl._crossings(x, pre)))
        size = g.size + sum([new.size for _, _, new, _ in blocks])
        if size + self.held > cpwl.DEFAULT_NODE_BUDGET:
            raise ResourceError(f"extraction grew past {cpwl.DEFAULT_NODE_BUDGET} nodes")
        self.grid, self.vals = np.empty(size), np.empty((self.live, size))
        start = 0
        for x, pre, new, right in blocks:
            end = start + x.size + new.size
            _, vals, _ = cpwl._insert(x, pre, new, right, (self.grid[start:end],
                                                           self.vals[:, start:end]))
            np.maximum(vals, 0.0, out=vals)
            start = end - 1


def _sum_parts(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sum (grid, values) CPwL parts pairwise, O(N log parts)."""
    while len(parts) > 1:
        merged = []
        for pa, pb in zip(parts[::2], parts[1::2]):
            grid, (va, vb) = cpwl._merge(pa, pb)
            merged.append((grid, va + vb))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def reset_layers(net: ReluNetwork) -> np.ndarray:
    """Layers that restart the computational channels from x alone: layer 0
    and, in a special network, every hidden layer l whose computational block
    hidden_weights[l-1, 1:-1, 1:-1] is zero.  The network is the sum of the
    segments between them; a plain network is one segment."""
    if not net.special:
        return np.zeros(1, dtype=int)
    reset = ~net.hidden_weights[:, 1:-1, 1:-1].any(axis=(1, 2))
    return np.concatenate(([0], 1 + np.flatnonzero(reset)))


def _depth_one(net: SpecialNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and values of a special network whose every layer is a reset.

    Layer l's units relu(a x + b) are read only by the row after it (layer
    l+1's collation row, the output row after the last layer), so the network
    is alpha x + beta + sum_i c_i relu(a_i x + b_i), read straight from the
    weights.  The kinks -b_i/a_i inside (0, 1) are sorted once; the slope
    changes c_i |a_i| are prefix-summed into slopes and the slopes integrated
    into values from x = 0.  Callers run it under np.errstate and check the
    values: a zero a_i divides by zero, and large weights may overflow.
    """
    comp = slice(1, -1)
    a = np.concatenate([net.in_weights[None, comp], net.hidden_weights[:, comp, 0]]).ravel()
    b = np.concatenate([net.in_bias[None, comp], net.hidden_bias[:, comp]]).ravel()
    read = np.concatenate([net.hidden_weights[:, -1], net.out_weights[None]])
    c = read[:, comp].ravel()
    t = -b / a
    live = np.where(a > 0.0, t <= 0.0, t > 0.0)  # active just right of 0
    value = np.concatenate([net.hidden_bias[:, -1], [net.out_bias], c * np.maximum(b, 0.0)]).sum()
    slope = np.concatenate([read[:, 0], (c * a)[live]]).sum()
    inside = (t > 0.0) & (t < 1.0) & (c != 0.0)
    order = np.argsort(t[inside])
    kinks, change = t[inside][order], (c * np.abs(a))[inside][order]
    first = np.flatnonzero(np.diff(kinks, prepend=-1.0))
    x = np.concatenate(([0.0], kinks[first], [1.0]))
    slopes = np.cumsum(np.concatenate(([slope], np.add.reduceat(change, first))))
    return x, np.cumsum(np.concatenate(([value], slopes * np.diff(x))))


def _depth_two(net: SpecialNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and values of a special network whose every segment (see
    `reset_layers`) is two layers deep.

    Segment j is the reset layer 2j, whose units relu(a x + b) read x alone,
    and layer 2j+1, whose rows read those units and x.  Only the collation
    rows of layers 2j+1 and 2j+2 (the output row after the last segment) read
    them, so the network is alpha x + beta plus one part per segment.  All
    segments are read at once, as arrays over (segments, rows, nodes): each
    segment's grid is 0, 1 and its kinks -b/a, on which one batched matmul
    gives layer 2j+1's rows pointwise.  Their zero crossings (`cpwl._cross`)
    join the grid, and every row is interpolated there on its interval with
    `cpwl._insert`'s arithmetic; one `cpwl._insert` call grows the segments'
    grids, laid end to end.  The parts are summed pairwise (`_sum_parts`).
    Callers run it under np.errstate and check the values, as for `_depth_one`.
    """
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

    # rows at the crossings, on their interval, in place
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
    np.maximum(rows, 0.0, out=rows)
    at_nodes = first + (read[1::2, None] @ rows)[:, 0]

    # one (grid, values) part per segment: crossings inserted, repeats dropped
    x, (v, first), at = cpwl._insert(grid.ravel(), np.stack([at_nodes.ravel(), first.ravel()]),
                                     cross, seg * size + k + 1)
    v[at] = at_cross + first[at]
    start = np.zeros(x.size, dtype=bool)
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


def _closed_form(net: ReluNetwork):
    """`_depth_one` for a special network whose every segment (see
    `reset_layers`) is one layer deep, `_depth_two` when every segment is two
    deep, None for any other network: one test of the segment depths."""
    if net.special:
        depths = np.unique(np.diff(reset_layers(net), append=net.depth))
        if depths.size == 1:
            return {1: _depth_one, 2: _depth_two}.get(int(depths[0]))
    return None


def extract_cpwl(net: ReluNetwork) -> cpwl.CPwL:
    """Exact symbolic function computed by the network on [0, 1].

    A special network whose segments between resets (see `reset_layers`)
    are all one layer deep or all two deep is read from its weights in
    closed form (`_depth_one`, `_depth_two`).  Any other network steps one
    hidden layer at a time on a shared grid (`_SharedGrid.step`): a matmul, a ReLU
    that inserts zero crossings, and a joint prune.  The collation rail of a
    special network is summed on the grid while the grid only grows; when the
    prune drops nodes the partial sum is set aside, and all set-aside parts
    are summed pairwise once at the end.

    `cpwl.DEFAULT_NODE_BUDGET` bounds the distinct nodes held at any time:
    the shared grid plus the set-aside collation nodes, or the closed form's
    nodes.  Past it, ResourceError is raised.  Values that are not finite raise DomainError
    naming the first layer that overflows (see `ReluNetwork.forward`).
    """
    # values that are not finite are checked here, so numpy need not warn
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, v = _extract(net)
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise net._not_finite(x[np.isfinite(x)])
        return cpwl.CPwL(x, v)


def values_at(net: ReluNetwork, xs) -> np.ndarray:
    """The network's values at the points xs, a 1-d array in [0, 1].

    A special network whose segments between resets (see `reset_layers`)
    are all one layer deep or all two deep is read from the (nodes, values)
    of its closed form (`_depth_one`, `_depth_two`, as in `extract_cpwl`) by
    `np.interp`, as `CPwL.eval` reads a function.  The closed form holds at
    most one node per unit plus the crossings of each row between a
    segment's nodes, a count bounded by the parameter count, so no node
    budget applies.  Any other network steps every layer through
    `ReluNetwork.forward`.  A value that is not finite raises the DomainError
    of `extract_cpwl`, naming the first layer that overflows.
    """
    xa = np.asarray(xs, dtype=float)
    if not ((xa >= 0.0) & (xa <= 1.0)).all():
        raise DomainError("evaluation point outside [0, 1]")
    closed = _closed_form(net)
    if closed is None:
        return net.forward(xa)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, v = closed(net)
        out = np.interp(xa, x, v)
    if not (np.isfinite(v).all() and np.isfinite(out).all()):
        raise net._not_finite(x)
    return out


def _extract(net: ReluNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and values of `extract_cpwl`, before the finiteness check.  It and
    the lift walk in `special_to_standard` are the two loops over `_SharedGrid.step`."""
    closed = _closed_form(net)
    if closed is not None:
        x, v = closed(net)
        if x.size > cpwl.DEFAULT_NODE_BUDGET:
            raise ResourceError(f"extraction grew past {cpwl.DEFAULT_NODE_BUDGET} nodes")
        return x, v
    shared = _SharedGrid(net)
    parts = []
    rail_grid, rail = shared.grid, np.zeros(shared.grid.size)
    for weights, bias in zip(net.hidden_weights, net.hidden_bias):
        if shared.special:
            # until the prune drops a node the grid only grows: same size, same grid
            if rail.size != shared.grid.size:
                rail = np.interp(shared.grid, rail_grid, rail)
            rail_grid = shared.grid
            rail += shared.readout(weights[-1], bias[-1])
        if shared.step(weights, bias) and shared.special:
            parts.append((rail_grid, rail))
            shared.held += rail.size
            rail_grid, rail = shared.grid, np.zeros(shared.grid.size)
    out = shared.readout(net.out_weights, net.out_bias)
    out += np.interp(shared.grid, rail_grid, rail)
    parts.append((shared.grid, out))
    return _sum_parts(parts)


def special_to_standard(net: SpecialNetwork) -> ReluNetwork:
    """Equivalent plain network on [0, 1].

    The source rail is nonnegative, so its ReLU is free.  The collation rail,
    which carries itself forward, starts at one lift C = max(0, -min of all its
    courses), and the output removes it; the hidden layers pass through as they are.
    One walk steps the shared grid up to the last layer that writes the rail; each
    such layer adds its collation row (the self weight aside) and bias, read on the
    grid, to the canonical course so far (`cpwl._merge`, `cpwl._prune`).
    """
    if not isinstance(net, SpecialNetwork):
        raise StructureError("expected a special network")
    hidden, bias = net.hidden_weights, net.hidden_bias
    writes = hidden[:, -1, :-1].any(axis=1) | (bias[:, -1] != 0.0)
    nodes, values, lowest = np.array([0.0, 1.0]), np.zeros(2), 0.0
    # values that are not finite are checked here, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        shared = _SharedGrid(net)
        for layer in range(np.flatnonzero(writes).max(initial=-1) + 1):
            if layer:
                shared.step(hidden[layer - 1], bias[layer - 1])
            if not writes[layer]:
                continue
            inc = shared.readout(hidden[layer, -1], bias[layer, -1])
            grid, (vals, inc) = cpwl._merge((nodes, values), (shared.grid, inc))
            vals += inc
            if not np.isfinite(vals).all():
                raise DomainError(f"collation course is not finite: layer {layer + 1} of "
                                  f"{net.depth} overflows")
            nodes, values = cpwl._prune(grid, vals)
            shared.held = nodes.size
            lowest = min(lowest, float(values.min()))
    lift = max(0.0, -lowest)
    in_bias = net.in_bias.copy()
    in_bias[-1] = lift
    return ReluNetwork(net.in_weights, in_bias, hidden, bias, net.out_weights,
                       net.out_bias - lift)


def rail_layer(width: int) -> np.ndarray:
    """Hidden weights (W x W, zero bias) of a width-W special network layer that
    carries only the two rails: the source channel copies x, the collation
    channel keeps its sum."""
    weights = np.zeros((width, width))
    weights[0, 0] = weights[-1, -1] = 1.0
    return weights


def _shallow(first, first_bias, out, out_bias) -> ReluNetwork:
    """Network with one hidden layer and no hidden-to-hidden maps."""
    width = len(first)
    return ReluNetwork(first, first_bias, np.zeros((0, width, width)), np.zeros((0, width)),
                       out, out_bias)


def hat_net() -> ReluNetwork:
    """Width-2, depth-1 network computing the unit hat: 2(x)_+ - 4(x - 1/2)_+."""
    return _shallow([1.0, 1.0], [0.0, -0.5], [2.0, -4.0], 0.0)


def write_network(net: ReluNetwork, path) -> None:
    """Header 'W L kind', then per layer a dims line, weight rows, and the bias;
    every number as %.17g (an exact round trip)."""
    w, depth = net.width, net.depth
    kind = "special" if net.special else "standard"
    row = " ".join(["%.17g"] * w) + "\n"
    hidden = np.concatenate([net.hidden_weights, net.hidden_bias[:, None]], axis=1)
    per = max(1, cpwl._FORMAT_BLOCK // (w * w + w))  # hidden layers per '%' call
    with open(path, "w") as fh:
        fh.write((f"{w} {depth} {kind}\n{w} 1\n" + "%.17g\n" * w + row)
                 % (*net.in_weights.tolist(), *net.in_bias.tolist()))
        for i in range(0, depth - 1, per):
            block = hidden[i:i + per]
            fh.write((f"{w} {w}\n" + row * (w + 1)) * len(block) % tuple(block.ravel().tolist()))
        fh.write((f"1 {w}\n" + row + "%.17g\n") % (*net.out_weights.tolist(), net.out_bias))


def read_network(path) -> ReluNetwork:
    """Read the write_network format; the special flag re-runs shape validation.
    Blank lines are skipped; the dims lines are checked per layer, the number
    lines in one pass (see `cpwl._numbers`)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    counts = list(map(len, map(str.split, lines)))
    linenos = list(itertools.compress(itertools.count(1), counts))
    body = list(itertools.compress(lines, counts))
    if not body:
        raise ParseError("unexpected end of file", line=max(1, len(lines)))
    parts, lineno = body[0].split(), linenos[0]
    if len(parts) != 3 or parts[2] not in ("special", "standard"):
        raise ParseError("expected 'W L special|standard'", line=lineno)
    try:
        width, depth = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("malformed width or depth", line=lineno) from None
    if width < 1 or depth < 1:
        raise ParseError("width and depth must be positive", line=lineno)
    step = width + 2  # non-blank lines per layer; the output layer has 3
    end = total = depth * step + 4
    error = None
    for k, pos in enumerate(range(1, min(len(body), total), step)):
        r, c = (width, 1) if k == 0 else (1, width) if k == depth else (width, width)
        try:
            dims = tuple(map(int, body[pos].split()))
        except ValueError:
            dims = ()
        if dims != (r, c):
            text = "expected 'rows cols'" if len(dims) != 2 else f"layer {k} must be {r} x {c}"
            error, end = ParseError(text, line=linenos[pos]), pos
            break
    rows, row_lines = body[1:end], linenos[1:end]
    del rows[::step], row_lines[::step]
    n = len(rows)
    want = ([1] * min(width, n) + [width] * min((width + 1) * (depth - 1) + 2, n) + [1])[:n]
    values = cpwl._numbers(rows, row_lines, want, "expected {want} numbers, found {found}")
    if error is not None or len(body) < total:
        raise error or ParseError("unexpected end of file", line=max(1, len(lines)))
    if len(body) > total:
        raise ParseError("trailing content after final layer", line=linenos[total])
    hidden = values[2 * width:-width - 1].reshape(depth - 1, width + 1, width)
    cls = SpecialNetwork if parts[2] == "special" else ReluNetwork
    try:
        return cls(values[:width], values[width:2 * width], hidden[:, :width], hidden[:, width],
                   values[-width - 1:-1], values[-1])
    except StructureError as exc:
        raise ParseError(str(exc)) from exc
