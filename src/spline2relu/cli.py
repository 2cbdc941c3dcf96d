"""Command line entry point: compile splines, verify and evaluate networks,
run rate experiments and basis-system numerics, and emit CSV/SVG artifacts."""

import argparse
import functools
import math
import sys

import numpy as np

from . import approx, cpwl, riesz
from .compiler import (compile_fourier_sum, compile_spline, fourier_atom,
                       fourier_oracle, takagi_network)
from .errors import ResourceError, Spline2ReluError
from .network import extract_cpwl, read_network, values_at, write_network

DEFAULT_SEED = 42


def _parse_sizes(text):
    """Size list: either comma separated values or an inclusive a:b range."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise Spline2ReluError(f"bad size list {text!r}; use 'a:b' or 'a,b,c'") from None


def _parse_terms(text):
    """Trigonometric sum terms 'j:a:b,j:a:b' -> ((j, a, b), ...)."""
    out = []
    for tok in text.split(","):
        if not tok:
            continue
        try:
            j, a, b = tok.split(":")
            out.append((int(j), float(a), float(b)))
        except ValueError:
            raise Spline2ReluError(f"bad term {tok!r}; expected index:cos:sin") from None
    return tuple(out)


def _svg_loglog(path, series):
    """Minimal log-log SVG scatter/line plot; series is [(label, xs, ys)]."""
    width, height, margin = 640, 440, 60
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
           if x > 0 and y > 0 and math.isfinite(y)]
    if not pts:
        raise Spline2ReluError("nothing to plot: no positive finite points")
    lx = [math.log10(p[0]) for p in pts]
    ly = [math.log10(p[1]) for p in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def to_px(x, y):
        px = margin + (math.log10(x) - x0) / (x1 - x0) * (width - 2 * margin)
        py = height - margin - (math.log10(y) - y0) / (y1 - y0) * (height - 2 * margin)
        return px, py

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
             f'height="{height - 2 * margin}" fill="none" stroke="black"/>']
    for i, (label, xs, ys) in enumerate(series):
        color = colors[i % len(colors)]
        coords = " ".join("%.2f,%.2f" % to_px(x, y) for x, y in zip(xs, ys)
                          if x > 0 and y > 0 and math.isfinite(y))
        if coords:
            lines.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        lines.append(f'<text x="{margin + 8}" y="{margin + 18 + 16 * i}" '
                     f'fill="{color}" font-size="13">{label}</text>')
    lines.append(f'<text x="{margin}" y="{height - margin + 28}" font-size="12">'
                 f'log10 x in [{x0:.2f}, {x1:.2f}]</text>')
    lines.append(f'<text x="{margin}" y="{margin - 10}" font-size="12">'
                 f'log10 y in [{y0:.2f}, {y1:.2f}]</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _report_line(report):
    text = (f"width={report.width} depth={report.depth} params={report.params} "
            f"budget={report.budget_bound} breakpoints={report.target_breakpoints}")
    if report.note:
        text += f" note={report.note}"
    return text


def _emit(text, path):
    """Write text to the file at path, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_compile(args):
    target = cpwl.read_spline(args.spline)
    net, report = compile_spline(target, args.width)
    if args.out:
        write_network(net, args.out)
    print(_report_line(report))
    return 0


def _run_verify(args):
    net = read_network(args.network)
    target = cpwl.read_spline(args.spline)
    deviation, at = cpwl.deviation(extract_cpwl(net), target)
    print(f"max deviation = {deviation:.17g}\nat x = {at:.17g}")
    return 0


def _run_eval(args):
    net = read_network(args.network)
    xs = np.linspace(0.0, 1.0, args.grid_n)
    _emit("x,value\n" + cpwl._format_rows(np.column_stack([xs, values_at(net, xs)]), ","), args.out)
    return 0


def _rates_setup(args):
    if args.family == "takagi":
        f = approx.TargetFunction(_dyadic_sawtooth_sum(max(_parse_sizes(args.ms)) + 20))
        builder = lambda m: takagi_network([2.0 ** -(i + 1) for i in range(m)])
    elif args.family == "lip":
        f = approx.TargetFunction(lambda x: np.abs(np.asarray(x, dtype=float) - 0.5),
                                  lip_alpha=(args.alpha, 1.0))
        builder = lambda m: approx.lip_alpha_approximant(f, args.alpha, m, args.width)[0]
    else:
        raise Spline2ReluError(f"unknown rate family {args.family!r}")
    return f, builder


def _run_rates(args):
    ms = _parse_sizes(args.ms)
    if not ms:
        raise Spline2ReluError("no sizes given; use --ms")
    f, builder = _rates_setup(args)
    records = approx.rate_experiment(f, builder, ms, grid_n=args.grid_n)
    for r in records:
        if r.reason:
            print(f"rates: m={r.m} failed: {r.reason}", file=sys.stderr)
    text = approx.records_to_csv(records)
    _emit(text, args.out)
    if args.svg:
        ms = [r.m for r in records]
        errs = [r.sup_error for r in records]
        mlogm = [m * math.log(max(m, 2)) for m in ms]
        _svg_loglog(args.svg, [("error vs m", ms, errs),
                              ("error vs m*ln(m)", mlogm, errs)])
    return 0


def _run_riesz(args):
    lo, hi = riesz.frame_bounds(args.K)
    rows = [("frame_K", float(args.K)), ("lambda_min", lo), ("lambda_max", hi)]
    for kind in ("cosine", "sine"):
        rows.append((f"gap_base_{kind}", riesz.operator_gap(kind, args.gap_k)))
        rows.append((f"gap_adjoint_{kind}",
                     riesz.operator_gap(kind, args.gap_k, adjoint=True)))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        u = rng.uniform(0.0, 1.0, int(rng.integers(2, 16)))
        bound = math.pi ** 4 / 192.0 * float(np.sum(u * u))
        if bound > 0:
            worst = max(worst, riesz.lemsum_lhs(u) / bound)
    rows.append(("lemsum_worst_ratio", worst))
    rows.append(("odd_sum_tail", riesz.odd_square_tail(riesz.ODD_SUM_CAP)))
    text = "\n".join("%s,%.17g" % (name, value) for name, value in rows) + "\n"
    if args.out:
        _emit(text, args.out)
    sys.stdout.write(text)
    return 0


def _dyadic_sawtooth_sum(order):
    """Pointwise evaluator of the order-m dyadic sawtooth sum via the closed
    form, usable at depths where the explicit node list would not fit."""
    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        total = np.zeros_like(xs)
        for i in range(order):
            total = total + 2.0 ** -(i + 1) * cpwl.hat_iterate_value(i + 1, xs)
        return total
    return evaluate


def _run_takagi(args):
    coeffs = [2.0 ** -(i + 1) for i in range(args.order)]
    net = takagi_network(coeffs)
    target = approx.TargetFunction(_dyadic_sawtooth_sum(args.order + 20))
    error = approx.measure_sigma(target, net, args.grid_n)
    if args.out:
        write_network(net, args.out)
    print(f"order={args.order} width={net.width} depth={net.depth} "
          f"params={net.params} sup_error={error:.17g}")
    return 0


def _run_fourier(args):
    terms = _parse_terms(args.terms)
    if terms:
        net, report = compile_fourier_sum(terms, args.width)
        target = fourier_oracle(terms)
        error = cpwl.sup_diff(extract_cpwl(net), target)
        print(_report_line(report) + f" sup_error={error:.17g}")
    elif args.kind and args.index is not None:
        net = fourier_atom(args.kind, args.index)
        target = cpwl.basis_fn(args.kind, args.index)
        error = cpwl.sup_diff(extract_cpwl(net), target)
        print(f"kind={args.kind} index={args.index} width={net.width} "
              f"depth={net.depth} params={net.params} sup_error={error:.17g}")
    else:
        raise Spline2ReluError("give either --terms or both --kind and --index")
    if args.out:
        write_network(net, args.out)
    return 0


_DISPATCH = {
    "compile": _run_compile,
    "verify": _run_verify,
    "eval": _run_eval,
    "rates": _run_rates,
    "riesz": _run_riesz,
    "takagi": _run_takagi,
    "fourier": _run_fourier,
}


def run(args):
    """Execute one parsed command (an argparse namespace from the CLI parser);
    returns the process exit status."""
    if args.command not in _DISPATCH:
        raise Spline2ReluError(f"unknown command {args.command!r}")
    # each check reads its flag only where the command takes it
    grid_n, width = getattr(args, "grid_n", 2), getattr(args, "width", 4)
    if grid_n < 2:
        raise Spline2ReluError("--grid must be at least 2")
    if grid_n > cpwl.DEFAULT_NODE_BUDGET:
        raise ResourceError(f"--grid must be at most {cpwl.DEFAULT_NODE_BUDGET}")
    if width < 4:
        raise Spline2ReluError("--width must be at least 4")
    return _DISPATCH[args.command](args)


@functools.cache  # built once per process: `main` may run many times
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spline2relu",
        description="Compile piecewise-linear functions to exact ReLU networks "
                    "and run the verification experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *names, grid=101):
        """Add the shared flags `names` to p: each subcommand takes only the
        flags it reads."""
        specs = {"width": dict(type=int, default=8), "grid": dict(type=int, default=grid, dest="grid_n"),
                 "seed": dict(type=int, default=DEFAULT_SEED), "out": {}, "svg": {}}
        for name in names:
            p.add_argument("--" + name, **specs[name])

    p = sub.add_parser("compile", help="compile a spline file to a network file")
    p.add_argument("spline")
    flags(p, "width", "out")

    p = sub.add_parser("verify", help="max deviation between a network and a spline")
    p.add_argument("network")
    p.add_argument("spline")

    p = sub.add_parser("eval", help="evaluate a network file on a uniform grid")
    p.add_argument("network")
    flags(p, "grid", "out")

    p = sub.add_parser("rates", help="rate experiment CSV for a builder family")
    p.add_argument("--family", choices=("takagi", "lip"), default="takagi")
    p.add_argument("--ms", default="1:12")
    p.add_argument("--alpha", type=float, default=1.0)
    flags(p, "width", "grid", "out", "svg", grid=4097)

    p = sub.add_parser("riesz", help="frame bounds, operator gaps, double-sum checks")
    p.add_argument("--K", type=int, default=32)
    p.add_argument("--gap-k", type=int, default=64, dest="gap_k")
    p.add_argument("--trials", type=int, default=100)
    flags(p, "seed", "out")

    p = sub.add_parser("takagi", help="build the order-m dyadic sawtooth sum network")
    p.add_argument("--order", type=int, default=10)
    flags(p, "grid", "out", grid=10001)

    p = sub.add_parser("fourier", help="build a single atom or a trigonometric sum")
    p.add_argument("--kind", choices=("cosine", "sine"), default=None)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--terms", default="")
    flags(p, "width", "out")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except (Spline2ReluError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
