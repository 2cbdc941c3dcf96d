"""Assembly-operation tests: every combinator against the function algebra."""

import numpy as np
import pytest

from conftest import compose_chain, gentle_unit_spline, plain_net, random_spline, same_weights
from spline2relu import cpwl
from spline2relu.combinators import (
    compose_nets,
    concat_sum,
    embed_deeper,
    iterate_apply_sum,
    iterate_sum,
    pad_width,
    parallel_sum,
    stack_relu_sum,
    stack_sum,
    zero_special,
)
from spline2relu.compiler import compile_spline
from spline2relu.errors import StructureError
from spline2relu.network import extract_cpwl, hat_net, special_to_standard


def test_zero_special_is_zero():
    for width, depth in ((4, 1), (5, 3), (8, 2)):
        net = zero_special(width, depth)
        assert net.width == width and net.depth == depth
        assert cpwl.sup_diff(extract_cpwl(net), cpwl.line(0.0, 0.0)) == 0.0
    with pytest.raises(StructureError):
        zero_special(4, 0)


def test_concat_sum_exact_and_sized():
    rng = np.random.default_rng(20)
    for _ in range(10):
        f = random_spline(rng, int(rng.integers(1, 9)))
        g = random_spline(rng, int(rng.integers(1, 9)))
        a, _ = compile_spline(f, 6)
        b, _ = compile_spline(g, 6)
        net = concat_sum(a, b)
        assert net.special
        assert net.width == 6 and net.depth == a.depth + b.depth
        assert cpwl.sup_diff(extract_cpwl(net), cpwl.add(f, g)) <= 1e-10


def test_concat_sum_rejects_mismatches():
    a, _ = compile_spline(cpwl.hat(), 4)
    b, _ = compile_spline(cpwl.hat(), 5)
    with pytest.raises(StructureError):
        concat_sum(a, b)
    with pytest.raises(StructureError):
        concat_sum(plain_net(cpwl.hat(), 4), plain_net(cpwl.hat(), 4))


def test_concat_sum_is_variadic():
    rng = np.random.default_rng(25)
    a, b, c = (compile_spline(random_spline(rng, n), 8)[0] for n in (9, 30, 4))
    once = concat_sum(a, b, c)
    folded = concat_sum(concat_sum(a, b), c)
    assert once.depth == folded.depth
    for field in ("in_weights", "in_bias", "hidden_weights", "hidden_bias",
                  "out_weights", "out_bias"):
        assert np.array_equal(getattr(once, field), getattr(folded, field))
    alone = concat_sum(a)
    assert alone.special and alone.depth == a.depth
    assert cpwl.sup_diff(extract_cpwl(alone), extract_cpwl(a)) == 0.0
    with pytest.raises(StructureError):
        concat_sum()


def test_plain_combinators_reject_special_networks():
    # ReLU on the rails would break these; special_to_standard converts first
    rng = np.random.default_rng(26)
    f = random_spline(rng, 30, -3.0, 0.0)
    net, _ = compile_spline(f, 8)
    std = special_to_standard(net)
    identity = plain_net(cpwl.line(1.0, 0.0), 8)
    same_function = [
        lambda n: compose_nets(identity, n),
        lambda n: stack_sum([n]),
        lambda n: parallel_sum([n]),
        lambda n: pad_width(n, 10),
    ]
    other = [
        lambda n: stack_relu_sum([n]),
        lambda n: iterate_sum(n, [1.0, 0.5]),
        lambda n: iterate_apply_sum(n, n, [1.0]),
    ]
    for build in same_function + other:
        with pytest.raises(StructureError):
            build(net)
        build(std)
    for build in same_function:
        assert cpwl.sup_diff(extract_cpwl(build(std)), f) <= 1e-11


@pytest.mark.parametrize("build", [
    lambda nets: compose_nets(*nets),
    stack_sum,
    stack_relu_sum,
    parallel_sum,
], ids=["compose_nets", "stack_sum", "stack_relu_sum", "parallel_sum"])
def test_plain_combinators_check_their_inputs_in_one_place(build):
    with pytest.raises(StructureError, match="^need at least one network$"):
        build([])
    special, _ = compile_spline(cpwl.hat(), 4)
    with pytest.raises(StructureError, match="^plain combinators need plain networks"):
        build([special])


def test_embed_deeper():
    net, _ = compile_spline(cpwl.hat(), 4)
    deeper = embed_deeper(net, net.depth + 3)
    assert deeper.depth == net.depth + 3
    assert cpwl.sup_diff(extract_cpwl(deeper), cpwl.hat()) <= 1e-12
    assert embed_deeper(net, net.depth) is net
    with pytest.raises(StructureError):
        embed_deeper(net, net.depth - 1)


def test_compose_nets_exact():
    rng = np.random.default_rng(21)
    for _ in range(10):
        inner_f = random_spline(rng, int(rng.integers(1, 7)), 0.0, 1.0)
        outer_f = random_spline(rng, int(rng.integers(1, 7)))
        inner = plain_net(inner_f, 5)
        outer = plain_net(outer_f, 5)
        net = compose_nets(inner, outer)
        assert net.depth == inner.depth + outer.depth
        assert net.width == 5
        want = cpwl.compose(outer_f, inner_f)
        assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-10


def test_stack_sum_exact():
    rng = np.random.default_rng(22)
    for _ in range(10):
        count = int(rng.integers(1, 5))
        fs = [random_spline(rng, int(rng.integers(1, 7))) for _ in range(count)]
        nets = [plain_net(f, 4) for f in fs]
        weights = rng.uniform(-2.0, 2.0, count)
        net = stack_sum(nets, weights)
        assert net.special
        assert net.width == 6
        assert net.depth == sum(n.depth for n in nets)
        want = cpwl.combine(fs, weights)
        assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-10


def test_stack_sum_default_weights():
    f = cpwl.hat()
    net = stack_sum([plain_net(f, 4), plain_net(f, 4)])
    assert cpwl.sup_diff(extract_cpwl(net), cpwl.combine([f], [2.0])) <= 1e-12


def test_stack_relu_sum_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        count = int(rng.integers(1, 5))
        fs = [random_spline(rng, int(rng.integers(1, 7))) for _ in range(count)]
        nets = [plain_net(f, 4) for f in fs]
        weights = rng.uniform(-2.0, 2.0, count)
        net = stack_relu_sum(nets, weights)
        assert net.width == 6
        assert net.depth == count + sum(n.depth for n in nets)
        want = cpwl.combine([cpwl.relu(f) for f in fs], weights)
        assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-10


def test_weight_vector_validation():
    nets = [plain_net(cpwl.hat(), 4)]
    with pytest.raises(StructureError):
        stack_sum(nets, [1.0, 2.0])
    with pytest.raises(StructureError):
        stack_sum([])
    with pytest.raises(StructureError):
        stack_relu_sum([])


def test_iterate_sum_exact():
    rng = np.random.default_rng(24)
    for _ in range(8):
        f = gentle_unit_spline(rng)
        net = plain_net(f, 4)
        m = int(rng.integers(1, 5))
        coeffs = rng.uniform(-1.0, 1.0, m)
        out = iterate_sum(net, coeffs)
        assert out.width == 6
        assert out.depth == m * net.depth
        iterates, cur = [], None
        for _ in range(m):
            cur = f if cur is None else cpwl.compose(f, cur)
            iterates.append(cur)
        want = cpwl.combine(iterates, coeffs)
        assert cpwl.sup_diff(extract_cpwl(out), want) <= 1e-10
    with pytest.raises(StructureError):
        iterate_sum(plain_net(cpwl.hat(), 4), [])


def test_iterate_sum_reproduces_sawtooth_sums():
    from spline2relu.network import hat_net
    coeffs = [2.0 ** -(k + 1) for k in range(6)]
    net = iterate_sum(hat_net(), coeffs)
    assert net.width == 4 and net.depth == 6
    assert cpwl.sup_diff(extract_cpwl(net), cpwl.takagi_partial(coeffs)) <= 1e-12


def test_iterate_apply_sum_exact():
    from spline2relu.network import special_to_standard

    rng = np.random.default_rng(25)
    for _ in range(8):
        t_f = gentle_unit_spline(rng)
        g_f = random_spline(rng, int(rng.integers(1, 4)))
        ta, _ = compile_spline(t_f, 4)
        ga, _ = compile_spline(g_f, 4)
        depth = max(ta.depth, ga.depth)
        tnet = special_to_standard(embed_deeper(ta, depth))
        gnet = special_to_standard(embed_deeper(ga, depth))
        m = int(rng.integers(1, 4))
        coeffs = rng.uniform(-1.0, 1.0, m)
        out = iterate_apply_sum(tnet, gnet, coeffs)
        assert out.width == tnet.width + gnet.width + 2
        assert out.depth == (m + 1) * tnet.depth
        terms, cur = [], None
        for _ in range(m):
            cur = t_f if cur is None else cpwl.compose(t_f, cur)
            terms.append(cpwl.compose(g_f, cur))
        want = cpwl.combine(terms, coeffs)
        assert cpwl.sup_diff(extract_cpwl(out), want) <= 1e-9


def test_iterate_apply_sum_depth_mismatch():
    a = plain_net(cpwl.hat(), 4)
    b = plain_net(cpwl.hat_iterate(3), 4)
    assert a.depth != b.depth
    with pytest.raises(StructureError):
        iterate_apply_sum(a, b, [1.0])
    with pytest.raises(StructureError, match="need at least one coefficient"):
        iterate_apply_sum(hat_net(), hat_net(), [])


def test_pad_width():
    net = plain_net(cpwl.hat(), 4)
    wide = pad_width(net, 7)
    assert wide.width == 7 and wide.depth == net.depth
    assert cpwl.sup_diff(extract_cpwl(wide), cpwl.hat()) <= 1e-12
    assert pad_width(net, 4) is net
    with pytest.raises(StructureError):
        pad_width(net, 3)


def test_parallel_sum_exact():
    rng = np.random.default_rng(26)
    f = random_spline(rng, 3)
    g = random_spline(rng, 3)
    a = plain_net(f, 4)
    b = plain_net(g, 4)
    assert a.depth == b.depth
    net = parallel_sum([a, b], [1.5, -0.5])
    assert net.width == 8 and net.depth == a.depth
    want = cpwl.combine([f, g], [1.5, -0.5])
    assert cpwl.sup_diff(extract_cpwl(net), want) <= 1e-11
    with pytest.raises(StructureError):
        parallel_sum([a, plain_net(random_spline(rng, 9), 4)])
    with pytest.raises(StructureError):
        parallel_sum([])


def test_compose_chain_helper_matches_network_chain():
    rng = np.random.default_rng(27)
    chain = [random_spline(rng, 2, 0.0, 1.0), random_spline(rng, 2, 0.0, 1.0),
             random_spline(rng, 2)]
    nets = [plain_net(f, 6) for f in chain]
    net = compose_nets(*nets)
    assert cpwl.sup_diff(extract_cpwl(net), compose_chain(chain)) <= 1e-10
    assert same_weights(net, compose_nets(compose_nets(nets[0], nets[1]), nets[2]))
    assert same_weights(compose_nets(nets[0]), nets[0])
    with pytest.raises(StructureError):
        compose_nets()
