"""Assembly operations that build bigger networks out of exact smaller ones.

All constructions here are weight-level: the returned networks compute the
stated combination exactly (up to float rounding), which the test suite checks
against the symbolic CPwL oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import StructureError
from .network import AffineLayer, ReluNetwork, SpecialNetwork, rail_layer


def _common_width(nets) -> int:
    widths = {n.width for n in nets}
    if len(widths) != 1:
        raise StructureError("all networks must share one width")
    return widths.pop()


def zero_special(width: int, depth: int) -> SpecialNetwork:
    """Special network of the given size computing the zero function."""
    if depth < 1:
        raise StructureError("depth must be >= 1")
    first = np.zeros((width, 1))
    first[0, 0] = 1.0
    out = np.zeros((1, width))
    out[0, -1] = 1.0
    layers = [AffineLayer(first, np.zeros(width))]
    layers.extend([rail_layer(width)] * (depth - 1))
    layers.append(AffineLayer(out, [0.0]))
    return SpecialNetwork(layers)


def concat_sum(*nets: SpecialNetwork) -> SpecialNetwork:
    """Special network of depth sum(L_i) computing sum_i nets[i](x).

    The networks run one after another.  Each seam seeds the next network's
    computational nodes from the source rail and drops the previous network's
    output into the collation rail.
    """
    if not nets:
        raise StructureError("need at least one network")
    if not all(n.special for n in nets):
        raise StructureError("concat_sum needs special networks")
    width = _common_width(nets)
    layers = list(nets[0].layers[:-1])
    for prev, nxt in zip(nets, nets[1:]):
        out1, in2 = prev.layers[-1], nxt.layers[0]
        seam_w = np.zeros((width, width))
        seam_w[1:-1, 0] = in2.weights[1:-1, 0]
        seam_w[0, 0] = 1.0
        seam_w[-1, :] = out1.weights[0]
        seam_b = in2.bias.copy()
        seam_b[-1] = out1.bias[0]
        layers.append(AffineLayer(seam_w, seam_b))
        layers.extend(nxt.layers[1:-1])
    layers.append(nets[-1].layers[-1])
    return SpecialNetwork(layers)


def embed_deeper(net: SpecialNetwork, depth: int) -> SpecialNetwork:
    """Pad a special network with a zero summand so its depth becomes `depth`."""
    if depth < net.depth:
        raise StructureError("target depth is smaller than the current depth")
    if depth == net.depth:
        return net
    return concat_sum(net, zero_special(net.width, depth - net.depth))


def compose_nets(inner: ReluNetwork, outer: ReluNetwork) -> ReluNetwork:
    """Depth L1 + L2 network computing outer(inner(x)) with a fused interface."""
    width = _common_width([inner, outer])
    out1 = inner.layers[-1]
    in2 = outer.layers[0]
    seam_w = in2.weights @ out1.weights
    seam_b = in2.weights[:, 0] * out1.bias[0] + in2.bias
    layers = list(inner.layers[:-1])
    layers.append(AffineLayer(seam_w, seam_b))
    layers.extend(outer.layers[1:])
    return ReluNetwork(layers)


def _weights_vector(nets, weights) -> np.ndarray:
    if weights is None:
        return np.ones(len(nets))
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(nets),):
        raise StructureError("one weight per network required")
    return w


def _on_rails(lay: AffineLayer, width: int, block: slice) -> tuple[np.ndarray, np.ndarray]:
    """A rail layer of the given width with `lay` on the `block` channels."""
    weights = rail_layer(width).weights.copy()
    weights[block, block] = lay.weights
    bias = np.zeros(width)
    bias[block] = lay.bias
    return weights, bias


def _lift(net: ReluNetwork, coeff: float) -> SpecialNetwork:
    """Width W+2 special network running `net` on channels 1..W; its output
    row adds coeff * net(x) into the collation rail."""
    width = net.width + 2
    comp = slice(1, -1)
    first = np.zeros((width, 1))
    first[0, 0] = 1.0
    first[comp] = net.layers[0].weights
    fb = np.zeros(width)
    fb[comp] = net.layers[0].bias
    layers = [AffineLayer(first, fb)]
    layers.extend(AffineLayer(*_on_rails(lay, width, comp)) for lay in net.layers[1:-1])
    out = net.layers[-1]
    final = np.zeros((1, width))
    final[0, comp] = coeff * out.weights[0]
    final[0, -1] = 1.0
    layers.append(AffineLayer(final, [coeff * out.bias[0]]))
    return SpecialNetwork(layers)


def stack_sum(nets: Sequence[ReluNetwork], weights=None) -> SpecialNetwork:
    """Width W+2 special network of depth sum(L_i) computing sum_i w_i f_i(x).

    The concatenation of the lifted networks: each runs on the computational
    channels, and its output is folded into the collation rail at the next seam.
    """
    if not nets:
        raise StructureError("need at least one network")
    coeff = _weights_vector(nets, weights)
    return concat_sum(*(_lift(net, c) for net, c in zip(nets, coeff)))


def _rectified(net: ReluNetwork) -> ReluNetwork:
    """Depth L+1 network computing (net(x))_+: the output row becomes a hidden
    ReLU node on channel 0, which the new output layer reads."""
    width = net.width
    out = net.layers[-1]
    rect_w = np.zeros((width, width))
    rect_w[0] = out.weights[0]
    rect_b = np.zeros(width)
    rect_b[0] = out.bias[0]
    read = np.zeros((1, width))
    read[0, 0] = 1.0
    return ReluNetwork(net.layers[:-1] + (AffineLayer(rect_w, rect_b), AffineLayer(read, [0.0])))


def stack_relu_sum(nets: Sequence[ReluNetwork], weights=None) -> SpecialNetwork:
    """Width W+2 special network of depth k + sum(L_i) computing sum_i w_i (f_i(x))_+.

    `stack_sum` of the networks, each extended by one rectifying layer.
    """
    return stack_sum([_rectified(net) for net in nets], weights)


def iterate_sum(net: ReluNetwork, coeffs: Sequence[float]) -> SpecialNetwork:
    """Width W+2 special network of depth m*L computing sum_i coeffs[i] f^(i)(x).

    f^(i) is the i-fold self-composition.  The copies are the hidden layers of
    the lifted network, chained with fused seams, and each iterate is folded
    into the collation rail as it completes.
    """
    coeff = np.asarray(coeffs, dtype=float)
    if coeff.ndim != 1 or coeff.size == 0:
        raise StructureError("need at least one coefficient")
    t_in, t_out = net.layers[0], net.layers[-1]
    fused = AffineLayer(t_in.weights @ t_out.weights,
                        t_in.weights[:, 0] * t_out.bias[0] + t_in.bias)
    lifted = _lift(net, coeff[-1])
    body = list(lifted.layers[1:-1])
    comp = slice(1, -1)
    layers = [lifted.layers[0]]
    for c in coeff[:-1]:
        seam_w, seam_b = _on_rails(fused, lifted.width, comp)
        seam_w[-1, comp] = c * t_out.weights[0]
        seam_b[-1] = c * t_out.bias[0]
        layers += body + [AffineLayer(seam_w, seam_b)]
    layers += body + [lifted.layers[-1]]
    return SpecialNetwork(layers)


def iterate_apply_sum(tnet: ReluNetwork, gnet: ReluNetwork,
                      coeffs: Sequence[float]) -> SpecialNetwork:
    """Special network computing sum_i coeffs[i] g(t^(i)(x)).

    Width W1 + W2 + 2, depth L(m+1): the iterate pipeline and the applied
    network advance in parallel phases of L layers, one phase per term plus a
    priming phase, with seams handing each finished iterate to both blocks.
    """
    coeff = np.asarray(coeffs, dtype=float)
    if coeff.ndim != 1 or coeff.size == 0:
        raise StructureError("need at least one coefficient")
    if tnet.depth != gnet.depth:
        raise StructureError("iterate and applied networks must have equal depth")
    m = coeff.size
    w1, w2 = tnet.width, gnet.width
    width = w1 + w2 + 2
    tb = slice(1, w1 + 1)
    gb = slice(w1 + 1, w1 + w2 + 1)
    t_in, t_out = tnet.layers[0], tnet.layers[-1]
    g_in, g_out = gnet.layers[0], gnet.layers[-1]

    first = np.zeros((width, 1))
    first[0, 0] = 1.0
    first[tb, 0] = t_in.weights[:, 0]
    fb = np.zeros(width)
    fb[tb] = t_in.bias
    layers = [AffineLayer(first, fb)]

    rail = rail_layer(width)
    for phase in range(1, m + 2):
        if phase > 1:
            # seam entering this phase: iterate t^(phase-1) is ready
            mm, b = rail.weights.copy(), np.zeros(width)
            if phase <= m:
                mm[tb, tb] = t_in.weights @ t_out.weights
                b[tb] = t_in.weights[:, 0] * t_out.bias[0] + t_in.bias
            mm[gb, tb] = g_in.weights @ t_out.weights
            b[gb] = g_in.weights[:, 0] * t_out.bias[0] + g_in.bias
            if phase > 2:
                mm[-1, gb] = coeff[phase - 3] * g_out.weights[0]
                b[-1] = coeff[phase - 3] * g_out.bias[0]
            layers.append(AffineLayer(mm, b))
        inner = tnet.layers[1:-1] if phase <= m else gnet.layers[1:-1]
        for r in range(len(inner)):
            mm, b = rail.weights.copy(), np.zeros(width)
            if phase <= m:
                mm[tb, tb] = tnet.layers[1 + r].weights
                b[tb] = tnet.layers[1 + r].bias
            if phase > 1:
                mm[gb, gb] = gnet.layers[1 + r].weights
                b[gb] = gnet.layers[1 + r].bias
            layers.append(AffineLayer(mm, b))
    final = np.zeros((1, width))
    final[0, gb] = coeff[m - 1] * g_out.weights[0]
    final[0, -1] = 1.0
    layers.append(AffineLayer(final, [coeff[m - 1] * g_out.bias[0]]))
    return SpecialNetwork(layers)


def pad_width(net: ReluNetwork, width: int) -> ReluNetwork:
    """Zero-pad a plain network to a larger width; padded channels stay at 0."""
    w = net.width
    if width < w:
        raise StructureError("cannot shrink a network")
    if width == w:
        return net
    extra = width - w
    first = np.vstack([net.layers[0].weights, np.zeros((extra, 1))])
    fb = np.concatenate([net.layers[0].bias, np.zeros(extra)])
    layers = [AffineLayer(first, fb)]
    for lay in net.layers[1:-1]:
        mm = np.zeros((width, width))
        mm[:w, :w] = lay.weights
        layers.append(AffineLayer(mm, np.concatenate([lay.bias, np.zeros(extra)])))
    out = np.hstack([net.layers[-1].weights, np.zeros((1, extra))])
    layers.append(AffineLayer(out, net.layers[-1].bias))
    return ReluNetwork(layers)


def parallel_sum(nets: Sequence[ReluNetwork], weights=None) -> ReluNetwork:
    """Block-diagonal merge of equal-depth plain networks, outputs summed."""
    if not nets:
        raise StructureError("need at least one network")
    depths = {n.depth for n in nets}
    if len(depths) != 1:
        raise StructureError("all networks must share one depth")
    coeff = _weights_vector(nets, weights)
    widths = [n.width for n in nets]
    width = sum(widths)
    offs = np.concatenate([[0], np.cumsum(widths)])

    first = np.vstack([n.layers[0].weights for n in nets])
    fb = np.concatenate([n.layers[0].bias for n in nets])
    layers = [AffineLayer(first, fb)]
    for r in range(1, depths.pop()):
        mm = np.zeros((width, width))
        b = np.zeros(width)
        for i, n in enumerate(nets):
            sl = slice(offs[i], offs[i + 1])
            mm[sl, sl] = n.layers[r].weights
            b[sl] = n.layers[r].bias
        layers.append(AffineLayer(mm, b))
    out = np.zeros((1, width))
    bias = 0.0
    for i, n in enumerate(nets):
        out[0, offs[i]:offs[i + 1]] = coeff[i] * n.layers[-1].weights[0]
        bias += coeff[i] * n.layers[-1].bias[0]
    layers.append(AffineLayer(out, [bias]))
    return ReluNetwork(layers)
