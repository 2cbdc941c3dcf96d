"""Network representation tests: parameter counts, rails, extraction, file IO."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    overflowing_net,
    overflowing_reset_net,
    plain_net,
    random_spline,
    reference_write_network,
    same_bits,
    slope_overflow_nets,
    text_io_networks,
)
from spline2relu import cpwl
from spline2relu.compiler import (
    _compile_wide,
    _deepen,
    compile_shallow,
    compile_spline,
    takagi_network,
)
from spline2relu.errors import DomainError, ParseError, ResourceError, StructureError
from spline2relu.network import (
    ReluNetwork,
    SpecialNetwork,
    _closed_form,
    _depth_one,
    _depth_two,
    extract_cpwl,
    hat_net,
    param_count,
    rail_layer,
    read_network,
    special_to_standard,
    values_at,
    write_network,
)


def test_param_count_closed_form():
    assert param_count(4, 2) == 33
    assert param_count(2, 1) == 7
    for w, depth in ((2, 5), (4, 3), (8, 2), (13, 6)):
        total = (w * 1 + w) + (depth - 1) * (w * w + w) + (1 * w + 1)
        assert param_count(w, depth) == total


def test_params_property_matches_closed_form():
    rng = np.random.default_rng(10)
    for width in (4, 5, 8):
        net, report = compile_spline(random_spline(rng, 9), width)
        assert net.params == param_count(net.width, net.depth)
        assert report.params == net.params


NO_HIDDEN = (np.zeros((0, 2, 2)), np.zeros((0, 2)))


def test_affine_layer_validation():
    """The network arrays are copied, checked for finiteness and frozen."""
    weights = np.array([1.0, 2.0])
    net = ReluNetwork(weights, [0.0, 1.0], *NO_HIDDEN, [1.0, 1.0], 0.0)
    weights[0] = 5.0
    assert net.in_weights.shape == (2,) and net.in_weights[0] == 1.0
    with pytest.raises(StructureError):
        ReluNetwork([np.inf, 0.0], [0.0, 0.0], *NO_HIDDEN, [1.0, 1.0], 0.0)
    with pytest.raises(StructureError):
        ReluNetwork([1.0, 0.0], [0.0, np.nan], *NO_HIDDEN, [1.0, 1.0], 0.0)
    with pytest.raises(AttributeError):
        net.in_bias = np.zeros(2)
    with pytest.raises(ValueError):
        net.in_bias[0] = 3.0


def test_relu_network_shape_validation():
    good = hat_net()
    assert good.width == 2 and good.depth == 1
    assert good.hidden_weights.shape == (0, 2, 2) and good.hidden_bias.shape == (0, 2)
    with pytest.raises(StructureError, match="hidden layers must be W x W"):
        ReluNetwork([1.0, 1.0], [0.0, 0.0], np.zeros((1, 2, 3)), np.zeros((1, 2)),
                    [1.0, 0.0], 0.0)
    with pytest.raises(StructureError, match="output layer must be 1 x W"):
        ReluNetwork([1.0, 1.0], [0.0, 0.0], *NO_HIDDEN, [1.0, 0.0, 0.0], 0.0)
    with pytest.raises(StructureError, match="input layer must be W x 1"):
        ReluNetwork([[1.0, 1.0]], [0.0, 0.0], *NO_HIDDEN, [1.0, 0.0], 0.0)
    with pytest.raises(StructureError, match="every layer needs one bias per row"):
        ReluNetwork([1.0, 1.0], [0.0], *NO_HIDDEN, [1.0, 0.0], 0.0)


def test_hat_net_and_identity_net():
    assert cpwl.sup_diff(extract_cpwl(hat_net()), cpwl.hat()) == 0.0
    grid = np.linspace(0.0, 1.0, 257)
    assert np.abs(hat_net().forward(grid) - cpwl.hat()(grid)).max() <= 1e-15


def test_forward_scalar_and_array():
    net = hat_net()
    assert net.forward(0.5) == 1.0
    out = net.forward(np.array([0.0, 0.25, 0.5]))
    assert out.shape == (3,)
    assert np.array_equal(out, [0.0, 0.5, 1.0])


def test_forward_matches_masked_loop():
    """The lower-bound clamp reproduces the masked ReLU loop bit for bit."""
    rng = np.random.default_rng(115)
    xs = np.linspace(0.0, 1.0, 1001)

    def masked(net):
        mask = np.ones(net.width, dtype=bool)
        if net.special:
            mask[0] = mask[-1] = False
        state = net.in_weights[:, None] @ xs[None, :] + net.in_bias[:, None]
        state[mask] = np.maximum(state[mask], 0.0)
        for weights, bias in zip(net.hidden_weights, net.hidden_bias):
            state = weights @ state + bias[:, None]
            state[mask] = np.maximum(state[mask], 0.0)
        return (net.out_weights[None, :] @ state + net.out_bias)[0]

    for width in (4, 7, 13):
        net, _ = compile_spline(random_spline(rng, 25, -3.0, 3.0), width)
        assert net.special
        assert np.array_equal(net.forward(xs), masked(net))
        std = special_to_standard(net)
        assert isinstance(std, ReluNetwork) and not std.special
        assert np.array_equal(std.forward(xs), masked(std))


def test_overflow_is_an_error_naming_the_layer():
    """A value that is not finite raises DomainError naming the first layer
    (0 the input layer, L the output) that overflows; forward and
    extract_cpwl do so without numpy warnings."""
    net = overflowing_net()
    # the output row alone overflows at x = 1: 1.2e308 + 0.6e308
    loud = ReluNetwork([1.0, 1.0], [0.0, -0.5], np.zeros((0, 2, 2)), np.zeros((0, 2)),
                       [1.2e308, 1.2e308], 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, layer in ((lambda: net.forward(np.linspace(0.0, 1.0, 11)), "layer 1 of 3"),
                            (lambda: net.forward(0.0), "layer 2 of 3"),
                            (lambda: loud.forward([0.0, 1.0]), "layer 1 of 1")):
            with pytest.raises(DomainError, match=f"not finite: {layer} overflows"):
                call()
        assert loud.forward(0.5) == 1.2e308 * 0.5
        with pytest.raises(DomainError, match="x must be finite"):
            hat_net().forward([0.5, np.nan])
        for bad, layer in ((net, "layer 1 of 3"), (loud, "layer 1 of 1")):
            with pytest.raises(DomainError, match=f"not finite: {layer} overflows"):
                extract_cpwl(bad)


def test_identity_padding_keeps_the_layer_that_overflows_named():
    """Identity layers after the layer that overflows leave forward, values_at
    and extract_cpwl naming that layer, of the padded depth."""
    base = overflowing_net()
    for extra in (1, 4):
        net = _deepen(base, base.depth + extra)
        for call, layer in ((lambda: net.forward(np.linspace(0.0, 1.0, 11)), 1),
                            (lambda: net.forward(0.0), 2),
                            (lambda: values_at(net, np.linspace(0.0, 1.0, 11)), 1),
                            (lambda: extract_cpwl(net), 1)):
            with pytest.raises(DomainError) as error:
                call()
            assert str(error.value) == (f"network value is not finite: layer {layer} of "
                                        f"{net.depth} overflows")


def test_values_at_reads_all_reset_networks_in_closed_form(monkeypatch):
    """values_at interpolates the closed form of a network whose segments are
    all one layer deep (W = 4, 5) or all two deep (wide form, W = 8, 32),
    with no node budget, and steps any other network through forward, to the
    bit."""
    rng = np.random.default_rng(16)
    xs = np.linspace(0.0, 1.0, 1001)
    narrow = [compile_spline(random_spline(rng, 40), width)[0] for width in (4, 5)]
    wide = [_compile_wide(random_spline(rng, 40), width) for width in (8, 32)]
    stepped = [takagi_network([2.0 ** -k for k in range(1, 6)]), special_to_standard(narrow[0])]
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 40)
    for net, closed in [(net, _depth_one) for net in narrow] + [(net, _depth_two) for net in wide]:
        with pytest.raises(ResourceError):
            extract_cpwl(net)
        assert np.array_equal(values_at(net, xs), np.interp(xs, *closed(net)))
        assert np.abs(values_at(net, xs) - net.forward(xs)).max() <= 1e-12
    for net in stepped:
        assert np.array_equal(values_at(net, xs), net.forward(xs))
    with pytest.raises(DomainError, match="outside"):
        values_at(wide[0], [0.5, 1.5])
    with pytest.raises(DomainError, match="not finite: layer 1 of 2 overflows"):
        values_at(overflowing_reset_net(), xs)


def test_two_deep_overflow_is_an_error_naming_the_layer():
    """A two-deep network (closed form `_depth_two`) whose rows overflow
    raises the DomainError of forward in extract_cpwl and values_at, without
    numpy warnings: layer 1 reads 1e308 relu(1e308 x)."""
    weights = rail_layer(4)
    weights[1:3, 1] = 1e308
    net = SpecialNetwork([1.0, 1e308, 1.0, 0.0], np.zeros(4), [weights], np.zeros((1, 4)),
                         [0.0, 1.0, 0.0, 1.0], 0.0)
    assert _closed_form(net) is _depth_two
    xs = np.linspace(0.0, 1.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: extract_cpwl(net), lambda: values_at(net, xs), lambda: net.forward(xs)):
            with pytest.raises(DomainError, match="not finite: layer 1 of 2 overflows"):
                call()


def test_closed_form_peaks_below_forward():
    """extract_cpwl and values_at of a compiled W = 32, n = 3200 spline (the
    closed form `_depth_two`) allocate no more at their peak than forward on
    the 10001-point grid of `spline2relu eval`."""
    net, _ = compile_spline(random_spline(np.random.default_rng(17), 3200), 32)
    xs = np.linspace(0.0, 1.0, 10001)
    peaks = []
    for call in (lambda: extract_cpwl(net), lambda: values_at(net, xs), lambda: net.forward(xs)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[:2]) <= peaks[2], peaks


def test_slope_overflow_is_an_error(monkeypatch):
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 40)
    for net in slope_overflow_nets():
        assert net.forward(0.5) == 5e307 and net.forward(1.0) == 1.5e308
        with pytest.raises(DomainError, match="slope overflows"):
            extract_cpwl(net)
    # a layer whose values overflow is named, though its slopes overflow too
    hot = ReluNetwork([1.0, 1.0], [0.0, -0.5], [[[1.2e308, 1.2e308], [1.0, 0.0]]],
                      np.zeros((1, 2)), [1.0, 0.0], 0.0)
    with pytest.raises(DomainError, match="not finite: layer 1 of 2 overflows"):
        extract_cpwl(hot)


def test_overflowing_collation_course_is_an_error():
    # the collation row adds 1e308 x twice: the course reaches 2e308 = inf at x = 1
    weights = rail_layer(4)
    weights[-1, 1:3] = 1e308
    net = SpecialNetwork([1.0, 1.0, 1.0, 0.0], np.zeros(4), [weights], np.zeros((1, 4)),
                         [0.0, 0.0, 0.0, 1.0], 0.0)
    with pytest.raises(DomainError, match="course is not finite: layer 1 of 2 overflows"):
        special_to_standard(net)


def test_compile_shallow_exact():
    rng = np.random.default_rng(11)
    for n in (0, 1, 5, 20):
        f = random_spline(rng, n)
        net = compile_shallow(f)
        assert net.depth == 1 and net.width == f.n_interior + 1
        assert cpwl.sup_diff(extract_cpwl(net), f) <= 1e-12


def test_extraction_node_budget(monkeypatch):
    deep = plain_net(cpwl.hat(), 4)
    from spline2relu.combinators import compose_nets
    for _ in range(7):
        deep = compose_nets(deep, plain_net(cpwl.hat(), 4))
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 64)
    with pytest.raises(ResourceError):
        extract_cpwl(deep)


def test_special_structure_enforced():
    rng = np.random.default_rng(12)
    net, _ = compile_spline(random_spline(rng, 6), 5)
    assert net.special
    for row, col, value in ((0, 1, 0.5), (2, -1, 1.0)):
        bad = net.hidden_weights.copy()
        bad[0, row, col] = value
        with pytest.raises(StructureError):
            SpecialNetwork(net.in_weights, net.in_bias, bad, net.hidden_bias,
                           net.out_weights, net.out_bias)
    with pytest.raises(StructureError, match="special networks need width >= 4"):
        SpecialNetwork([1.0, 1.0, 0.0], np.zeros(3), np.zeros((0, 3, 3)), np.zeros((0, 3)),
                       [0.0, 0.0, 1.0], 0.0)
    for end in (0, -1):
        bias = net.in_bias.copy()
        bias[end] = 0.5
        with pytest.raises(StructureError, match="source and collation biases must start at 0"):
            SpecialNetwork(net.in_weights, bias, net.hidden_weights, net.hidden_bias,
                           net.out_weights, net.out_bias)
    out = net.out_weights.copy()
    out[-1] = 0.5
    with pytest.raises(StructureError, match="output layer must read the collation channel"):
        SpecialNetwork(net.in_weights, net.in_bias, net.hidden_weights, net.hidden_bias,
                       out, net.out_bias)


def test_special_structure_checked_in_the_last_of_many_layers():
    rng = np.random.default_rng(17)
    net, _ = compile_spline(random_spline(rng, 240), 4)
    assert net.depth >= 100
    copy_msg = "hidden layers must copy the source channel"
    collate_msg = "collation channel must only accumulate into itself"
    bias_msg = "source channel bias must stay 0"

    def broken(k, weight=None, source_bias=0.0):
        """Hidden weights and biases with hidden layer k broken."""
        w, b = net.hidden_weights.copy(), net.hidden_bias.copy()
        if weight is not None:
            row, col, value = weight
            w[k, row, col] = value
        b[k, 0] = source_bias
        return w, b

    def build(hidden):
        return SpecialNetwork(net.in_weights, net.in_bias, *hidden,
                              net.out_weights, net.out_bias)

    last = net.depth - 2
    cases = [
        (broken(last, (0, 1, 0.5)), copy_msg),           # source row
        (broken(last, (1, -1, 1.0)), collate_msg),       # collation off-diagonal
        (broken(last, (-1, -1, 0.5)), collate_msg),      # collation diagonal != 1
        (broken(last, source_bias=0.25), bias_msg),      # source bias
    ]
    for hidden, message in cases:
        with pytest.raises(StructureError, match=message):
            build(hidden)
    # with several broken layers the first one decides
    weights, bias = broken(0, source_bias=0.25)
    weights[last] = broken(last, (0, 1, 0.5))[0][last]
    with pytest.raises(StructureError, match=bias_msg):
        build((weights, bias))


def test_special_forward_matches_extraction():
    rng = np.random.default_rng(13)
    f = random_spline(rng, 11, -3.0, 1.0)
    net, _ = compile_spline(f, 6)
    grid = np.linspace(0.0, 1.0, 1001)
    assert np.abs(net.forward(grid) - extract_cpwl(net)(grid)).max() <= 1e-11
    assert np.abs(net.forward(grid) - f(grid)).max() <= 1e-11


def test_special_to_standard_equivalence():
    rng = np.random.default_rng(15)
    for width in (4, 6, 9):
        f = random_spline(rng, 10, -2.0, -0.5)
        net, _ = compile_spline(f, width)
        std = special_to_standard(net)
        assert not std.special
        assert std.width == net.width and std.depth == net.depth
        grid = np.linspace(0.0, 1.0, 801)
        assert np.abs(std.forward(grid) - net.forward(grid)).max() <= 1e-11
        assert cpwl.sup_diff(extract_cpwl(std), f) <= 1e-11
    with pytest.raises(StructureError):
        special_to_standard(hat_net())


def test_network_file_roundtrip(tmp_path):
    rng = np.random.default_rng(16)
    f = random_spline(rng, 7)
    net, _ = compile_spline(f, 5)
    path = tmp_path / "net.relu"
    write_network(net, path)
    back = read_network(path)
    assert back.special
    assert back.width == net.width and back.depth == net.depth
    assert cpwl.sup_diff(extract_cpwl(back), f) <= 1e-11
    again = tmp_path / "again.relu"
    write_network(back, again)
    assert path.read_text() == again.read_text()
    std = special_to_standard(net)
    write_network(std, path)
    assert not read_network(path).special


def test_network_parse_errors(tmp_path):
    def failing(text):
        p = tmp_path / "bad.relu"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            read_network(p)
        return str(err.value)

    assert "line 1" in failing("")
    assert "line 1" in failing("2 1\n")
    assert "line 1" in failing("2 1 fancy\n")
    assert "line 1" in failing("x 1 standard\n")
    assert failing("0 1 standard\n") == "line 1: width and depth must be positive"
    assert "line 2" in failing("2 1 standard\n3 1\n")
    assert "line 3" in failing("2 1 standard\n2 1\n1\n")
    assert "line 3" in failing("2 1 standard\n2 1\nbad\n")
    # truncated after the first layer
    assert "end of file" in failing("2 1 standard\n2 1\n1\n1\n0 0\n")


def test_network_parse_rejects_broken_rails(tmp_path):
    net, _ = compile_spline(cpwl.hat(), 4)
    p = tmp_path / "net.relu"
    write_network(net, p)
    lines = p.read_text().splitlines()
    # ruin the source-channel seed in the input layer
    lines[2] = "0.5"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        read_network(p)


def test_trailing_garbage_rejected(tmp_path):
    net = hat_net()
    p = tmp_path / "net.relu"
    write_network(net, p)
    p.write_text(p.read_text() + "\nextra stuff\n")
    with pytest.raises(ParseError) as err:
        read_network(p)
    assert "trailing" in str(err.value)


def _six_layer_lines(tmp_path):
    """Lines of a W=2, depth-6 standard network file: layer k < 6 has its
    dims on line 2 + 4k, its rows on the next two lines and its bias after;
    layer 6 has dims on line 26, its row on 27 and its bias on 28."""
    rng = np.random.default_rng(3)
    net = ReluNetwork(rng.normal(size=2), rng.normal(size=2), rng.normal(size=(5, 2, 2)),
                      rng.normal(size=(5, 2)), rng.normal(size=2), 0.5)
    path = tmp_path / "six.relu"
    write_network(net, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 28 and lines[25] == "1 2"
    return net, lines


def test_network_parse_error_lines(tmp_path):
    """Full messages and line numbers; the first offending line in file order wins."""
    net, good = _six_layer_lines(tmp_path)
    path = tmp_path / "edited.relu"

    def parse(lines, tail="\n"):
        path.write_text("\n".join(lines) + tail)
        return read_network(path)

    def failing(edits, tail="\n", insert=()):
        lines = list(good)
        for lineno, text in edits.items():
            lines[lineno - 1] = text
        for lineno, text in sorted(insert, reverse=True):
            lines.insert(lineno - 1, text)
        with pytest.raises(ParseError) as err:
            parse(lines, tail)
        return str(err.value), err.value.line

    # blank and whitespace-only lines between rows are skipped
    spaced = list(good)
    for at in (27, 16, 15, 3, 2):
        spaced.insert(at - 1, "  \t" if at % 2 else "")
    back = parse(spaced, "\n\n   \n")
    for name in ("in_weights", "in_bias", "hidden_weights", "hidden_bias", "out_weights"):
        assert np.array_equal(getattr(back, name), getattr(net, name))
    assert back.out_bias == net.out_bias
    # a malformed number in a hidden weight row and in a bias row, layers 3 and 4
    assert failing({15: good[14].split()[0] + " 1.0x"}) == ("line 15: malformed number", 15)
    assert failing({21: "0.25 --1"}) == ("line 21: malformed number", 21)
    # a wrong count in a bias row; a count error outranks a bad number on its line
    assert failing({17: "1 2 3"}) == ("line 17: expected 2 numbers, found 3", 17)
    assert failing({16: "1 x y"}) == ("line 16: expected 2 numbers, found 3", 16)
    # wrong dims at a hidden layer and at the output layer
    assert failing({10: "2 3"}) == ("line 10: layer 2 must be 2 x 2", 10)
    assert failing({26: "2 2"}) == ("line 26: layer 6 must be 1 x 2", 26)
    assert failing({10: "2 2 2"}) == ("line 10: expected 'rows cols'", 10)
    assert failing({14: "2 x"}) == ("line 14: expected 'rows cols'", 14)
    # two errors in one layer: the earlier line wins either way round
    assert failing({15: "1 oops", 17: "1"}) == ("line 15: malformed number", 15)
    assert failing({15: "1", 16: "1 oops"}) == ("line 15: expected 2 numbers, found 1", 15)
    assert failing({19: "7", 20: "7 7 7"}) == ("line 19: expected 2 numbers, found 1", 19)
    # errors in two layers, or an error before a missing or extra line
    assert failing({22: "9 9", 16: "1 #"}) == ("line 16: malformed number", 16)
    assert failing({13: "1 2 3"}, tail="\n" + "\n".join(good[-3:]) + "\n") == (
        "line 13: expected 2 numbers, found 3", 13)
    # blank lines shift the physical line number of a later error
    assert failing({17: "1 2 3"}, insert=[(15, ""), (15, " ")]) == (
        "line 19: expected 2 numbers, found 3", 19)
    # a header declaring more than the file holds fails at the first layer that differs
    assert failing({1: "2 999999999 standard"}) == ("line 26: layer 6 must be 2 x 2", 26)
    assert failing({1: "999999999 1 standard"}) == ("line 2: layer 0 must be 999999999 x 1", 2)

    def truncated(keep, edits=None):
        lines = good[:keep]
        lines.extend(edits or ())
        path.write_text("\n".join(lines) + "\n\n  \n")
        with pytest.raises(ParseError) as err:
            read_network(path)
        return str(err.value), err.value.line

    # missing layers: end of file reports the last physical line
    assert truncated(25) == ("line 27: unexpected end of file", 27)
    assert truncated(20) == ("line 22: unexpected end of file", 22)
    assert truncated(20, ["1 x"]) == ("line 21: malformed number", 21)
    # trailing content after the final layer, past blank lines
    assert failing({}, tail="\n\n \nmore\n") == (
        "line 31: trailing content after final layer", 31)
    # a non-finite number parses but fails the network check, without a line
    assert failing({19: "nan 1"}) == ("weights and bias must be finite", None)


def test_network_parse_errors_past_the_first_parse_block(tmp_path):
    """A W = 2, depth-400 file has 1202 number lines, more than one block of
    cpwl._PARSE_BLOCK: layer k < 400 has its dims on line 2 + 4k and its rows
    and bias on the next three lines.  An error in a later block, or at the
    seam of two, gives the same message and physical line as the unblocked
    reader; an earlier error still wins."""
    rng = np.random.default_rng(41)
    net = ReluNetwork(rng.normal(size=2), rng.normal(size=2), rng.normal(size=(399, 2, 2)),
                      rng.normal(size=(399, 2)), rng.normal(size=2), 0.5)
    path = tmp_path / "deep.relu"
    write_network(net, path)
    good = path.read_text().splitlines()
    numbered = [n for n in range(3, len(good) + 1) if (n - 2) % 4]
    assert len(good) == 1604 and good[1601] == "1 2" and len(numbered) > cpwl._PARSE_BLOCK

    def parse(edits=(), insert=()):
        lines = list(good)
        for lineno, text in dict(edits).items():
            lines[lineno - 1] = text
        for lineno, text in sorted(insert, reverse=True):
            lines.insert(lineno - 1, text)
        path.write_text("\n".join(lines) + "\n")
        return read_network(path)

    def failing(edits, insert=()):
        with pytest.raises(ParseError) as err:
            parse(edits, insert)
        return str(err.value), err.value.line

    back = parse()
    names = ("in_weights", "in_bias", "hidden_weights", "hidden_bias", "out_weights")
    same_bits([getattr(back, name) for name in names], [getattr(net, name) for name in names])
    assert back.out_bias == net.out_bias
    seam = numbered[cpwl._PARSE_BLOCK]  # the first number line of the second block
    assert failing({1563: "0.5 1.0x"}) == ("line 1563: malformed number", 1563)
    assert failing({1565: "1 2 3"}) == ("line 1565: expected 2 numbers, found 3", 1565)
    assert failing({1562: "2 3"}) == ("line 1562: layer 390 must be 2 x 2", 1562)
    assert failing({1602: "2 2"}) == ("line 1602: layer 400 must be 1 x 2", 1602)
    assert failing({1602: "1 2 2"}) == ("line 1602: expected 'rows cols'", 1602)
    assert failing({seam: "x 1"}) == (f"line {seam}: malformed number", seam)
    assert failing({seam - 1: "1"}) == (f"line {seam - 1}: expected 2 numbers, found 1", seam - 1)
    # the first offending line wins across blocks and over a later dims fault
    assert failing({1563: "oops", 7: "1 2 3"}) == ("line 7: expected 2 numbers, found 3", 7)
    assert failing({1562: "2 3", 1400: "1 x"}) == ("line 1400: malformed number", 1400)
    assert failing({1563: "1 x", 1562: "3 2"}) == ("line 1562: layer 390 must be 2 x 2", 1562)
    # blank lines shift the physical line of an error in a later block
    assert failing({1565: "7"}, insert=[(4, ""), (900, "  ")]) == (
        "line 1567: expected 2 numbers, found 1", 1567)
    # a header declaring more layers than the file holds
    assert failing({1: "2 999999999 standard"}) == ("line 1602: layer 400 must be 2 x 2", 1602)


def test_network_dims_lines_parse_in_any_integer_spelling(tmp_path):
    """Dims lines that differ from the written text only in spelling ('04 4',
    '4  4', '+4\t4') read as the written ones; a later wrong dims line is
    still named by its layer."""
    net, _ = compile_spline(random_spline(np.random.default_rng(8), 9), 4)
    path = tmp_path / "net.relu"
    write_network(net, path)
    good = path.read_text().splitlines()
    heads = list(range(2, len(good) + 1, 6))
    assert [good[n - 1] for n in heads[:3]] == ["4 1", "4 4", "4 4"] and len(heads) == net.depth + 1
    lines = list(good)
    lines[0] = "04 " + lines[0].split(" ", 1)[1]
    for n, text in zip(heads[1:], ("04 4", "4  4", "+4\t4", "4 04")):
        lines[n - 1] = text
    lines[heads[-1] - 1] = "1 04"
    path.write_text("\n".join(lines) + "\n")
    back = read_network(path)
    assert back.special and back.out_bias == net.out_bias
    names = ("in_weights", "in_bias", "hidden_weights", "hidden_bias", "out_weights")
    same_bits([getattr(back, name) for name in names], [getattr(net, name) for name in names])
    lines[heads[-2] - 1] = "4 5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_network(path)
    k = net.depth - 1
    assert (str(err.value), err.value.line) == (f"line {heads[-2]}: layer {k} must be 4 x 4", heads[-2])


def test_read_network_peak_stays_flat(tmp_path):
    """Reading the W = 4, n = 6400 compiled spline (depth 3200, 19,204 lines)
    holds one block of tokens at a time: its tracemalloc peak reads 4.48 MB,
    as before the blocked split, and 7.47 MB with every line's tokens held."""
    net, _ = compile_spline(random_spline(np.random.default_rng(5), 6400), 4)
    path = tmp_path / "deep.relu"
    write_network(net, path)
    tracemalloc.start()
    try:
        back = read_network(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.depth == 3200
    assert peak <= 5.0e6, peak


def test_write_network_matches_reference(tmp_path):
    """Byte-identical to the per-number writer, and stable through a read."""
    for i, net in enumerate(text_io_networks(np.random.default_rng(21))):
        path, ref, again = (tmp_path / f"{i}.{ext}" for ext in ("relu", "ref", "again"))
        write_network(net, path)
        reference_write_network(net, ref)
        assert path.read_bytes() == ref.read_bytes()
        write_network(read_network(path), again)
        assert again.read_bytes() == ref.read_bytes()
