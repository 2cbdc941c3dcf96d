"""End-to-end acceptance checks for the whole package.

Every test prints exactly one "criterion N: PASS|FAIL - detail" line before
asserting, so the verdict for each criterion shows up in the report even when
a later assertion trips.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    gentle_unit_spline,
    pattern_rich_target,
    plain_net,
    random_spline,
    sample_lip_ball,
)
from spline2relu import approx, combinators, compiler, cpwl, network, riesz


def _line(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} - {detail}")


def _inline_budget(width, n):
    """Parameter-budget formula recomputed from scratch for cross-checking."""
    small = width * width + 4 * width + 1
    if width >= 8:
        block = ((width - 2) // 6) * (width - 2)
        return 61 * n if n >= block else small
    if width == 4:
        return 19 * n if n >= 4 else small
    return 25 * n if n >= 2 * (width - 2) else small


@pytest.fixture(scope="module")
def spline_corpus():
    """200 random splines compiled at cycling widths, with wall time."""
    rng = np.random.default_rng(1234)
    widths = (4, 5, 6, 8, 13)
    entries = []
    start = time.perf_counter()
    for i in range(200):
        n = int(rng.integers(1, 201))
        f = random_spline(rng, n)
        width = widths[i % len(widths)]
        net, report = compiler.compile_spline(f, width)
        dev = cpwl.sup_diff(network.extract_cpwl(net), f)
        entries.append((f, width, report, dev))
    wall = time.perf_counter() - start
    return {"entries": entries, "wall": wall}


def test_criterion_01_random_spline_exactness(spline_corpus):
    entries = spline_corpus["entries"]
    wall = spline_corpus["wall"]
    worst = max(dev for _, _, _, dev in entries)
    ok = worst <= 1e-9 and wall < 60.0
    _line(1, ok, f"200 random splines, worst sup deviation {worst:.3g} "
                 f"(limit 1e-9), wall {wall:.1f}s (limit 60s)")
    assert worst <= 1e-9
    assert wall < 60.0


def test_criterion_02_parameter_budgets(spline_corpus):
    entries = spline_corpus["entries"]
    violations = []
    for f, width, report, _ in entries:
        n = report.target_breakpoints
        bound = _inline_budget(width, n)
        if report.params > bound or report.budget_bound != bound:
            violations.append((width, n, report.params, bound))
    ok = not violations
    _line(2, ok, f"{len(entries)} compilations against the recomputed budget "
                 f"formula, {len(violations)} violations")
    assert not violations, violations[:3]


def test_criterion_03_param_count_closed_form():
    value = network.param_count(4, 2)
    net, report = compiler.compile_spline(cpwl.hat(), 4)
    ok = value == 33 and report.params == 33 and net.params == 33
    _line(3, ok, f"param_count(4, 2) = {value}, compiled hat at width 4 uses "
                 f"{report.params} parameters (expected 33)")
    assert value == 33
    assert report.params == 33
    assert net.params == 33


def test_criterion_04_hat_composition_growth():
    params = []
    interiors = []
    net = network.hat_net()
    for k in range(1, 15):
        if k > 1:
            net = combinators.compose_nets(net, network.hat_net())
        params.append(net.params)
        interiors.append(network.extract_cpwl(net).n_interior)
    want_interiors = [2 ** k - 1 for k in range(1, 15)]
    want_params = [6 * k + 1 for k in range(1, 15)]
    ok = interiors == want_interiors and params == want_params
    _line(4, ok, f"hat chains up to depth 14: interior breakpoints "
                 f"{interiors[-1]} (= 2^14 - 1), parameters follow 6k + 1 "
                 f"exactly (k=14 -> {params[-1]})")
    assert interiors == want_interiors
    assert params == want_params


def test_criterion_05_takagi_partial_sums():
    base = np.linspace(0.0, 1.0, 4097)
    worst_ratio_dyadic = 0.0
    worst_ratio_square = 0.0
    for m in range(1, 15):
        coeffs = [2.0 ** -k for k in range(1, m + 1)]
        ext = network.extract_cpwl(compiler.takagi_network(coeffs))
        grid = np.union1d(base, ext.breakpoints)
        oracle = np.zeros_like(grid)
        for k in range(1, m + 21):
            oracle += 2.0 ** -k * cpwl.hat_iterate_value(k, grid)
        err = np.abs(ext(grid) - oracle).max()
        assert err <= 2.0 ** -m, (m, err)
        worst_ratio_dyadic = max(worst_ratio_dyadic, err / 2.0 ** -m)

        coeffs = [4.0 ** -k for k in range(1, m + 1)]
        ext = network.extract_cpwl(compiler.takagi_network(coeffs))
        grid = np.union1d(base, ext.breakpoints)
        err = np.abs(ext(grid) - grid * (1.0 - grid)).max()
        assert err <= 4.0 ** -m / 3.0, (m, err)
        worst_ratio_square = max(worst_ratio_square, err / (4.0 ** -m / 3.0))
    ok = worst_ratio_dyadic <= 1.0 and worst_ratio_square <= 1.0
    _line(5, ok, f"orders 1..14: dyadic sawtooth sums within 2^-m of the "
                 f"order m+20 reference (worst ratio {worst_ratio_dyadic:.2f}),"
                 f" x(1-x) sums within 4^-m/3 (worst ratio "
                 f"{worst_ratio_square:.2f})")
    assert ok


def test_criterion_06_pattern_quantization():
    rng = np.random.default_rng(4242)
    grid = np.linspace(0.0, 1.0, 10 ** 4)
    buckets = {}
    worst_ratio = 0.0
    bad = []
    for i in range(500):
        alpha = (0.5, 1.0)[i % 2]
        k = 3 + (i // 2) % 6
        g = sample_lip_ball(rng, alpha)
        pat = approx.quantize_pattern(g, k, alpha)
        if len(pat.levels) != k + 1 or pat.levels[0] != 0 or pat.levels[-1] != 0:
            bad.append((i, "shape", pat.levels))
            continue
        if max(abs(a - b) for a, b in zip(pat.levels, pat.levels[1:])) > 1:
            bad.append((i, "step", pat.levels))
            continue
        err = np.abs(g(grid) - pat.to_cpwl(alpha)(grid)).max()
        bound = 2.0 * k ** -alpha
        if err > bound:
            bad.append((i, "error", err, bound))
        worst_ratio = max(worst_ratio, err / bound)
        buckets.setdefault((alpha, k), set()).add(pat.levels)
    over = [(key, len(pats)) for key, pats in buckets.items()
            if len(pats) > 3 ** key[1]]
    ok = not bad and not over
    _line(6, ok, f"500 random smoothness-ball samples quantized at k=3..8: "
                 f"worst error ratio {worst_ratio:.2f} of the 2k^-alpha "
                 f"bound, {len(bad)} violations, all {len(buckets)} buckets "
                 f"within the 3^k distinct-pattern cap")
    assert not bad, bad[:3]
    assert not over, over


def test_criterion_07_lip_alpha_rates():
    runs = []

    def measured(f, alpha, m):
        return approx.measure_sigma(f, approx.lip_alpha_approximant(f, alpha, m, 8)[0], 10001)

    kink = approx.TargetFunction(lambda x: np.abs(np.asarray(x, float) - 0.5),
                                 lip_alpha=(1.0, 1.0))
    kink_rows = []
    for m in (8, 16, 32, 64, 128, 256, 512, 1024):
        k = approx.pattern_resolution(m) or 1
        err = measured(kink, 1.0, m)
        runs.append((err, 4.0 / (k * m)))
        kink_rows.append((m, err))

    root = approx.TargetFunction(np.sqrt, lip_alpha=(0.5, 1.0))
    for m in (10, 36, 100):
        k = approx.pattern_resolution(m) or 1
        runs.append((measured(root, 0.5, m), 4.0 * (k * m) ** -0.5))

    rng = np.random.default_rng(77)
    for m in (36, 81):
        k = approx.pattern_resolution(m)
        target, _ = pattern_rich_target(rng, m, k, 1.0)
        runs.append((measured(target, 1.0, m), 4.0 / (k * m)))

    bad = [(err, bound) for err, bound in runs if err > bound]
    worst_ratio = max(err / bound for err, bound in runs)

    fit_rows = [(m, err) for m, err in kink_rows if err > 1e-12]
    if len(fit_rows) >= 2:
        xs = np.log([m * math.log(m) for m, _ in fit_rows])
        ys = np.log([err for _, err in fit_rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
        slope_ok = slope <= -0.9
        note = f"kink-target log-log slope {slope:.3f} (limit -0.9)"
    else:
        slope_ok = True
        note = ("kink target reproduced exactly at every even node count "
                "(all errors below 1e-12), slope fit vacuous")

    ok = not bad and slope_ok
    _line(7, ok, f"{len(runs)} approximant runs all within the 4(km)^-alpha "
                 f"guarantee (worst ratio {worst_ratio:.3f}); {note}")
    assert not bad, bad
    assert slope_ok


def _bump_pattern(rng, k):
    """Nonnegative pattern with k interior nodes vanishing at both ends."""
    xs = np.linspace(0.0, 1.0, k + 2)
    vs = np.concatenate(([0.0], rng.uniform(0.3, 1.0, k), [0.0]))
    return cpwl.CPwL(xs, vs)


def test_criterion_08_self_similar_compression():
    rng = np.random.default_rng(88)
    widths = (8, 10, 13)
    bad = []
    for trial in range(10):
        k = int(rng.integers(1, 9))
        m = int(rng.integers(1, 33))
        width = widths[trial % len(widths)]
        pattern = _bump_pattern(rng, k)
        if trial % 4 == 1:
            signs = np.where(rng.uniform(size=k) < 0.4, -1.0, 1.0)
            vals = pattern.values.copy()
            vals[1:-1] *= signs
            pattern = cpwl.CPwL(pattern.breakpoints, vals)
        if trial % 3 == 0:
            edges = np.linspace(0.0, 1.0, m + 1)
            intervals = [(edges[i], edges[i + 1]) for i in range(m)]
        else:
            edges = (np.arange(2 * m) + rng.uniform(0.1, 0.9, 2 * m)) / (2 * m)
            intervals = [(edges[2 * i], edges[2 * i + 1]) for i in range(m)]
        net, report = compiler.compile_self_similar(pattern, intervals, width)
        dev = cpwl.sup_diff(network.extract_cpwl(net),
                            compiler.self_similar_oracle(pattern, intervals))
        kk = pattern.n_interior
        bound = 816 * (kk + m) + 72 * width * width
        if dev > 1e-9 or report.params > bound:
            bad.append((trial, dev, report.params, bound))

    diag = [(2, 4), (4, 8), (8, 16), (8, 32)]
    rng = np.random.default_rng(9)
    ratios = []
    for k, m in diag:
        pattern = _bump_pattern(rng, k)
        edges = np.linspace(0.0, 1.0, m + 1)
        intervals = [(edges[i], edges[i + 1]) for i in range(m)]
        net, report = compiler.compile_self_similar(pattern, intervals, 10)
        dev = cpwl.sup_diff(network.extract_cpwl(net),
                            compiler.self_similar_oracle(pattern, intervals))
        if dev > 1e-9:
            bad.append(("diag", k, m, dev))
        ratios.append(report.params / (k * m))
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    compressed = ratios[-1] <= 0.35 * ratios[0]

    ok = not bad and decreasing and compressed
    shown = ", ".join(f"{r:.1f}" for r in ratios)
    _line(8, ok, f"10 randomized replications exact within 1e-9 under the "
                 f"816(k+m) + 72W^2 budget; parameters per produced "
                 f"breakpoint fall along the (k, m) diagonal: {shown}")
    assert not bad, bad[:3]
    assert decreasing, ratios
    assert compressed, ratios


def test_criterion_09_fourier_atoms_and_sums():
    worst_atom = 0.0
    bad = []
    for j in range(1, 65):
        for kind in ("cosine", "sine"):
            ext = network.extract_cpwl(compiler.fourier_atom(kind, j))
            ref = riesz.basis_fn(kind, j)
            dev = cpwl.sup_diff(ext, ref)
            worst_atom = max(worst_atom, dev)
            if dev > 1e-12 or ext.n_interior != ref.n_interior:
                bad.append((kind, j, dev, ext.n_interior, ref.n_interior))

    rng = np.random.default_rng(99)
    checked = 0
    for width in (6, 10, 14):
        for _ in range(3):
            count = int(rng.integers(1, 8))
            indices = rng.choice(np.arange(1, 41), size=count, replace=False)
            terms = [(int(j), float(rng.uniform(-1, 1)),
                      float(rng.uniform(-1, 1))) for j in indices]
            net, report = compiler.compile_fourier_sum(terms, width)
            lam = max(j for j, _, _ in terms)
            group = (width - 2) // 4
            bound = 2 * math.ceil(count / group) * ((lam - 1).bit_length() + 2)
            # each group is as deep as the sine of its largest index
            depth = sum((max(j for j, _, _ in terms[g:g + group]) - 1).bit_length() + 2
                        for g in range(0, count, group))
            dev = cpwl.sup_diff(network.extract_cpwl(net),
                                compiler.fourier_oracle(terms))
            if (net.depth != depth or report.budget_bound != network.param_count(width, bound)
                    or report.params > report.budget_bound or dev > 1e-9):
                bad.append((width, terms, net.depth, depth, dev))
            checked += 1

    ok = not bad
    _line(9, ok, f"128 harmonic atoms match their closed-form profiles "
                 f"(worst deviation {worst_atom:.2g}, breakpoint counts "
                 f"exact); {checked} random sums hit the depth "
                 f"sum_g(ceil(log2 lambda_g)+2) exactly, within the "
                 f"2*ceil(k/g)*(ceil(log2 lambda)+2) bound")
    assert not bad, bad[:3]


def test_criterion_10_riesz_numerics():
    lo, hi = riesz.frame_bounds(32)
    frame_ok = (1.0 / 6.0 - 1e-6) <= lo <= hi <= (0.5 + 1e-6)

    K = 32
    fns = [riesz.basis_fn("cosine", j) for j in range(1, K + 1)]
    fns += [riesz.basis_fn("sine", j) for j in range(1, K + 1)]
    gram = riesz.gram_matrix(K)
    rng = np.random.default_rng(2718)
    worst_quad = 0.0
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, 2 * K) / math.sqrt(2 * K)
        f = cpwl.combine(fns, v)
        worst_quad = max(worst_quad,
                         abs(float(v @ gram @ v) - riesz.inner_product(f, f)))
    quad_ok = worst_quad <= 1e-10

    worst_lemsum = 0.0
    cap = math.pi ** 4 / 192.0
    for _ in range(100):
        u = rng.uniform(0.0, 1.0, int(rng.integers(1, 13)))
        ratio = riesz.lemsum_lhs(u) / (cap * float(u @ u))
        worst_lemsum = max(worst_lemsum, ratio)
    lemsum_ok = worst_lemsum <= 1.0 + 1e-12

    gaps = {(kind, adj): riesz.operator_gap(kind, 64, adjoint=adj)
            for kind in ("cosine", "sine") for adj in (False, True)}
    gap_ok = all(g <= 0.5 + 1e-6 for (_, adj), g in gaps.items() if not adj)
    gap_ok = gap_ok and all(g <= 0.5145 + 1e-6
                            for (_, adj), g in gaps.items() if adj)

    ok = frame_ok and quad_ok and lemsum_ok and gap_ok
    _line(10, ok, f"K=32 frame bounds ({lo:.4f}, {hi:.4f}) inside "
                  f"[1/6, 1/2]; 100 quadratic forms match integrals within "
                  f"{worst_quad:.2g}; 100 pair sums at most {worst_lemsum:.3f} "
                  f"of the pi^4/192 cap; base gaps "
                  f"{gaps[('cosine', False)]:.3f}/{gaps[('sine', False)]:.3f} "
                  f"<= 1/2, adjoint gaps {gaps[('cosine', True)]:.4f}/"
                  f"{gaps[('sine', True)]:.4f} <= 0.5145")
    assert frame_ok, (lo, hi)
    assert quad_ok, worst_quad
    assert lemsum_ok, worst_lemsum
    assert gap_ok, gaps


def test_criterion_11_combinator_semantics():
    rng = np.random.default_rng(1111)
    ops = (["concat"] * 170 + ["stack"] * 170 + ["stack_relu"] * 165
           + ["compose"] * 165 + ["iterate"] * 165 + ["iterate_apply"] * 165)
    failures = []
    worst = 0.0

    def check(tag, net, target, width, depth):
        nonlocal worst
        dev = cpwl.sup_diff(network.extract_cpwl(net), target)
        worst = max(worst, dev)
        if dev > 1e-9:
            failures.append((tag, "deviation", dev))
        if net.width != width or net.depth != depth:
            failures.append((tag, "shape", net.width, net.depth, width, depth))

    for idx, op in enumerate(ops):
        tag = f"{op}#{idx}"
        if op == "concat":
            w = (4, 5)[idx % 2]
            f1 = random_spline(rng, int(rng.integers(1, 7)))
            f2 = random_spline(rng, int(rng.integers(1, 7)))
            a, _ = compiler.compile_spline(f1, w)
            b, _ = compiler.compile_spline(f2, w)
            check(tag, combinators.concat_sum(a, b), cpwl.add(f1, f2),
                  w, a.depth + b.depth)
        elif op == "stack":
            count = int(rng.integers(2, 5))
            fs = [random_spline(rng, int(rng.integers(1, 5)))
                  for _ in range(count)]
            nets = [plain_net(f) for f in fs]
            wts = rng.uniform(-2.0, 2.0, count)
            check(tag, combinators.stack_sum(nets, wts),
                  cpwl.combine(fs, wts), 6, sum(n.depth for n in nets))
        elif op == "stack_relu":
            count = int(rng.integers(2, 5))
            fs = [random_spline(rng, int(rng.integers(1, 5)))
                  for _ in range(count)]
            nets = [plain_net(f) for f in fs]
            wts = rng.uniform(-2.0, 2.0, count)
            target = cpwl.combine([cpwl.relu(f) for f in fs], wts)
            check(tag, combinators.stack_relu_sum(nets, wts), target,
                  6, count + sum(n.depth for n in nets))
        elif op == "compose":
            inner_f = gentle_unit_spline(rng)
            outer_f = random_spline(rng, int(rng.integers(1, 5)))
            inner = plain_net(inner_f)
            outer = plain_net(outer_f)
            check(tag, combinators.compose_nets(inner, outer),
                  cpwl.compose(outer_f, inner_f),
                  4, inner.depth + outer.depth)
        elif op == "iterate":
            f = gentle_unit_spline(rng)
            net = plain_net(f)
            m = int(rng.integers(1, 4))
            coeffs = rng.uniform(-1.0, 1.0, m)
            iterates = [f]
            for _ in range(m - 1):
                iterates.append(cpwl.compose(f, iterates[-1]))
            check(tag, combinators.iterate_sum(net, coeffs),
                  cpwl.combine(iterates, coeffs), 6, m * net.depth)
        else:
            t_f = gentle_unit_spline(rng)
            g_f = random_spline(rng, int(rng.integers(1, 4)))
            t_s, _ = compiler.compile_spline(t_f, 4)
            g_s, _ = compiler.compile_spline(g_f, 4)
            depth = max(t_s.depth, g_s.depth)
            tnet = network.special_to_standard(
                combinators.embed_deeper(t_s, depth))
            gnet = network.special_to_standard(
                combinators.embed_deeper(g_s, depth))
            m = int(rng.integers(1, 4))
            coeffs = rng.uniform(-1.0, 1.0, m)
            terms = []
            power = t_f
            for _ in range(m):
                terms.append(cpwl.compose(g_f, power))
                power = cpwl.compose(t_f, power)
            check(tag, combinators.iterate_apply_sum(tnet, gnet, coeffs),
                  cpwl.combine(terms, coeffs), 10, (m + 1) * depth)

    ok = not failures
    _line(11, ok, f"1000 combinator applications across six constructions "
                  f"match their closed-form composites (worst deviation "
                  f"{worst:.2g}) with exact width/depth bookkeeping, "
                  f"{len(failures)} failures")
    assert not failures, failures[:3]
