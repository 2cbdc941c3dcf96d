"""Assembly operations that build bigger networks out of exact smaller ones.

All constructions here are weight-level: the returned networks compute the
stated combination exactly (up to float rounding), which the test suite checks
against the symbolic CPwL oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import StructureError
from .network import ReluNetwork, SpecialNetwork, _rails


def _common_width(nets) -> int:
    widths = {n.width for n in nets}
    if len(widths) != 1:
        raise StructureError("all networks must share one width")
    return widths.pop()


def _plain(nets) -> None:
    """Plain combinators take one network or more, and they apply ReLU on
    every channel, which would break the rails of a special network."""
    if not nets:
        raise StructureError("need at least one network")
    if any(n.special for n in nets):
        raise StructureError("plain combinators need plain networks; "
                             "convert with special_to_standard first")


def _chain(parts, seams) -> np.ndarray:
    """Per-layer arrays `parts` joined along the layer axis, with one entry of
    `seams` between each neighbouring pair."""
    joined = [parts[0]]
    for seam, part in zip(seams, parts[1:]):
        joined += [seam[None], part]
    return np.concatenate(joined)


def zero_special(width: int, depth: int) -> SpecialNetwork:
    """Special network of the given size computing the zero function."""
    if depth < 1:
        raise StructureError("depth must be >= 1")
    first, out = np.zeros((2, width))
    first[0] = out[-1] = 1.0
    return SpecialNetwork(first, np.zeros(width), _rails(width, depth - 1),
                          np.zeros((depth - 1, width)), out, 0.0)


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
    if len(nets) == 1:
        return nets[0]
    prev, nxt = nets[:-1], nets[1:]
    seams = _rails(width, len(nxt))
    seams[:, 1:-1, 0] = [n.in_weights[1:-1] for n in nxt]
    seams[:, -1] = [n.out_weights for n in prev]
    seam_b = np.array([n.in_bias for n in nxt])
    seam_b[:, -1] = [n.out_bias for n in prev]
    return SpecialNetwork(nets[0].in_weights, nets[0].in_bias,
                          _chain([n.hidden_weights for n in nets], seams),
                          _chain([n.hidden_bias for n in nets], seam_b),
                          nets[-1].out_weights, nets[-1].out_bias)


def embed_deeper(net: SpecialNetwork, depth: int) -> SpecialNetwork:
    """Pad a special network with a zero summand so its depth becomes `depth`."""
    if depth < net.depth:
        raise StructureError("target depth is smaller than the current depth")
    if depth == net.depth:
        return net
    return concat_sum(net, zero_special(net.width, depth - net.depth))


def _fused(inner: ReluNetwork, outer: ReluNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Weights and bias of the hidden layer feeding inner's output into outer's
    input layer."""
    return (outer.in_weights[:, None] @ inner.out_weights[None, :],
            outer.in_weights * inner.out_bias + outer.in_bias)


def compose_nets(*nets: ReluNetwork) -> ReluNetwork:
    """Depth sum(L_i) network computing nets[-1](...nets[0](x)), with one fused
    seam between each neighbouring pair."""
    _plain(nets)
    _common_width(nets)
    seams = [_fused(inner, outer) for inner, outer in zip(nets, nets[1:])]
    return ReluNetwork(nets[0].in_weights, nets[0].in_bias,
                       _chain([n.hidden_weights for n in nets], [w for w, _ in seams]),
                       _chain([n.hidden_bias for n in nets], [b for _, b in seams]),
                       nets[-1].out_weights, nets[-1].out_bias)


def _weights_vector(nets, weights) -> np.ndarray:
    if weights is None:
        return np.ones(len(nets))
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(nets),):
        raise StructureError("one weight per network required")
    return w


def _embedded(net: ReluNetwork, hidden: np.ndarray, block: slice):
    """The arrays of `net` on the `block` channels of a wider network whose
    hidden weights start as `hidden`; every other entry starts at 0."""
    width = hidden.shape[-1]
    first, first_b, out = np.zeros((3, width))
    first[block], first_b[block], out[block] = net.in_weights, net.in_bias, net.out_weights
    hidden[:, block, block] = net.hidden_weights
    hidden_b = np.zeros((len(hidden), width))
    hidden_b[:, block] = net.hidden_bias
    return first, first_b, hidden, hidden_b, out


def _lift(net: ReluNetwork, coeff: float) -> SpecialNetwork:
    """Width W+2 special network running `net` on channels 1..W; its output
    row adds coeff * net(x) into the collation rail."""
    width = net.width + 2
    first, first_b, hidden, hidden_b, out = _embedded(
        net, _rails(width, net.depth - 1), slice(1, -1))
    first[0] = out[-1] = 1.0
    out[1:-1] *= coeff
    return SpecialNetwork(first, first_b, hidden, hidden_b, out, coeff * net.out_bias)


def stack_sum(nets: Sequence[ReluNetwork], weights=None) -> SpecialNetwork:
    """Width W+2 special network of depth sum(L_i) computing sum_i w_i f_i(x).

    The concatenation of the lifted networks: each runs on the computational
    channels, and its output is folded into the collation rail at the next seam.
    """
    _plain(nets)
    coeff = _weights_vector(nets, weights)
    return concat_sum(*(_lift(net, c) for net, c in zip(nets, coeff)))


def _rectified(net: ReluNetwork) -> ReluNetwork:
    """Depth L+1 network computing (net(x))_+: the output row becomes a hidden
    ReLU node on channel 0, which the new output layer reads."""
    width = net.width
    rect = np.zeros((1, width, width))
    rect[0, 0] = net.out_weights
    rect_b = np.zeros((1, width))
    rect_b[0, 0] = net.out_bias
    read = np.zeros(width)
    read[0] = 1.0
    return ReluNetwork(net.in_weights, net.in_bias,
                       np.concatenate([net.hidden_weights, rect]),
                       np.concatenate([net.hidden_bias, rect_b]), read, 0.0)


def stack_relu_sum(nets: Sequence[ReluNetwork], weights=None) -> SpecialNetwork:
    """Width W+2 special network of depth k + sum(L_i) computing sum_i w_i (f_i(x))_+.

    `stack_sum` of the networks, each extended by one rectifying layer.
    """
    _plain(nets)
    return stack_sum([_rectified(net) for net in nets], weights)


def iterate_sum(net: ReluNetwork, coeffs: Sequence[float]) -> SpecialNetwork:
    """Width W+2 special network of depth m*L computing sum_i coeffs[i] f^(i)(x).

    f^(i) is the i-fold self-composition.  The copies are the hidden layers of
    the lifted network, chained with fused seams, and each iterate is folded
    into the collation rail as it completes.
    """
    _plain([net])
    coeff = np.asarray(coeffs, dtype=float)
    if coeff.ndim != 1 or coeff.size == 0:
        raise StructureError("need at least one coefficient")
    lifted = _lift(net, coeff[-1])
    comp = slice(1, -1)
    seams = _rails(lifted.width, coeff.size - 1)
    seam_b = np.zeros((coeff.size - 1, lifted.width))
    seams[:, comp, comp], seam_b[:, comp] = _fused(net, net)
    seams[:, -1, comp] = coeff[:-1, None] * net.out_weights
    seam_b[:, -1] = coeff[:-1] * net.out_bias
    return SpecialNetwork(lifted.in_weights, lifted.in_bias,
                          _chain([lifted.hidden_weights] * coeff.size, seams),
                          _chain([lifted.hidden_bias] * coeff.size, seam_b),
                          lifted.out_weights, lifted.out_bias)


def iterate_apply_sum(tnet: ReluNetwork, gnet: ReluNetwork,
                      coeffs: Sequence[float]) -> SpecialNetwork:
    """Special network computing sum_i coeffs[i] g(t^(i)(x)).

    Width W1 + W2 + 2, depth L(m+1): the iterate pipeline and the applied
    network advance in parallel phases of L layers, one phase per term plus a
    priming phase, with seams handing each finished iterate to both blocks.
    """
    _plain([tnet, gnet])
    coeff = np.asarray(coeffs, dtype=float)
    if coeff.ndim != 1 or coeff.size == 0:
        raise StructureError("need at least one coefficient")
    if tnet.depth != gnet.depth:
        raise StructureError("iterate and applied networks must have equal depth")
    m = coeff.size
    width = tnet.width + gnet.width + 2
    tb = slice(1, tnet.width + 1)
    gb = slice(tnet.width + 1, -1)

    # m + 1 phases of L - 1 hidden layers: t runs in the first m, g in the last m
    inner = tnet.depth - 1
    phases = _rails(width, (m + 1) * inner).reshape(m + 1, inner, width, width)
    phases[:m, :, tb, tb] = tnet.hidden_weights
    phases[1:, :, gb, gb] = gnet.hidden_weights
    phase_b = np.zeros(phases.shape[:-1])
    phase_b[:m, :, tb] = tnet.hidden_bias
    phase_b[1:, :, gb] = gnet.hidden_bias
    # the seam after phase s hands t^(s+1) to both blocks and collects g(t^s)
    seams = _rails(width, m)
    seam_b = np.zeros((m, width))
    seams[:-1, tb, tb], seam_b[:-1, tb] = _fused(tnet, tnet)
    seams[:, gb, tb], seam_b[:, gb] = _fused(tnet, gnet)
    seams[1:, -1, gb] = coeff[:-1, None] * gnet.out_weights
    seam_b[1:, -1] = coeff[:-1] * gnet.out_bias

    first, first_b, out = np.zeros((3, width))
    first[0] = out[-1] = 1.0
    first[tb], first_b[tb] = tnet.in_weights, tnet.in_bias
    out[gb] = coeff[-1] * gnet.out_weights
    return SpecialNetwork(first, first_b, _chain(phases, seams), _chain(phase_b, seam_b),
                          out, coeff[-1] * gnet.out_bias)


def pad_width(net: ReluNetwork, width: int) -> ReluNetwork:
    """Zero-pad a plain network to a larger width; padded channels stay at 0."""
    _plain([net])
    w = net.width
    if width < w:
        raise StructureError("cannot shrink a network")
    if width == w:
        return net
    hidden = np.zeros((net.depth - 1, width, width))
    return ReluNetwork(*_embedded(net, hidden, slice(0, w)), net.out_bias)


def parallel_sum(nets: Sequence[ReluNetwork], weights=None) -> ReluNetwork:
    """Block-diagonal merge of equal-depth plain networks, outputs summed."""
    _plain(nets)
    depths = {n.depth for n in nets}
    if len(depths) != 1:
        raise StructureError("all networks must share one depth")
    coeff = _weights_vector(nets, weights)
    offs = np.cumsum([0] + [n.width for n in nets])
    hidden = np.zeros((depths.pop() - 1, offs[-1], offs[-1]))
    for n, lo, hi in zip(nets, offs, offs[1:]):
        hidden[:, lo:hi, lo:hi] = n.hidden_weights
    return ReluNetwork(np.concatenate([n.in_weights for n in nets]),
                       np.concatenate([n.in_bias for n in nets]), hidden,
                       np.concatenate([n.hidden_bias for n in nets], axis=1),
                       np.concatenate([c * n.out_weights for c, n in zip(coeff, nets)]),
                       sum(c * n.out_bias for c, n in zip(coeff, nets)))
