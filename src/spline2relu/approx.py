"""Approximation procedures: pattern quantization of Lipschitz residuals,
interpolation-plus-pattern approximants, derivative-truncation splits, and
grid-based error measurement harnesses."""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import cpwl
from .combinators import concat_sum
from .compiler import compile_self_similar, compile_spline
from .errors import ContractError, DomainError, ResourceError, StructureError
from .network import extract_cpwl, values_at

ENDPOINT_TOL = 1e-9
NODE_SLACK = 1e-9
TIE_TOL = 1e-12
SPLIT_PANELS = 1024


class TargetFunction:
    """Black-box real function on [0, 1], optionally with a declared
    Lipschitz-alpha exponent and seminorm bound.

    The evaluator may be scalar-only or vectorized; calls with numpy arrays
    fall back to elementwise evaluation when the evaluator cannot broadcast.
    """

    def __init__(self, evaluator, lip_alpha=None):
        self.evaluator = evaluator
        if lip_alpha is None:
            self.lip_alpha = None
        else:
            alpha, bound = lip_alpha
            if not 0.0 < alpha <= 1.0:
                raise DomainError("Lipschitz exponent must lie in (0, 1]")
            if bound < 0.0:
                raise DomainError("Lipschitz bound must be nonnegative")
            self.lip_alpha = (float(alpha), float(bound))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        flat = np.atleast_1d(xs).ravel()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                vals = np.asarray(self.evaluator(flat), dtype=float)
            if vals.shape != flat.shape:
                raise ValueError
        except (TypeError, ValueError, DeprecationWarning):
            vals = np.array([float(self.evaluator(float(t))) for t in flat])
        if xs.ndim == 0:
            return float(vals[0])
        return vals.reshape(xs.shape)


def _evaluate(f, xs):
    """Evaluate a TargetFunction, CPwL, or plain callable on an array."""
    if isinstance(f, (TargetFunction, cpwl.CPwL)):
        return np.atleast_1d(np.asarray(f(xs), dtype=float))
    return TargetFunction(f)(np.asarray(xs, dtype=float))


@dataclass(frozen=True)
class Pattern:
    """Integer level sequence quantizing a residual on the uniform grid.

    Levels start and end at zero and change by at most one per step, so at
    resolution k there are no more than 3**k distinct patterns.
    """

    levels: tuple

    def __post_init__(self):
        levels = tuple(int(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise StructureError("a pattern needs at least two levels")
        if levels[0] != 0 or levels[-1] != 0:
            raise StructureError("pattern levels must start and end at zero")
        for a, b in zip(levels, levels[1:]):
            if abs(b - a) > 1:
                raise StructureError("pattern levels may change by at most one")

    @property
    def k(self):
        return len(self.levels) - 1

    def is_zero(self):
        return all(v == 0 for v in self.levels)

    def to_cpwl(self, alpha):
        """CPwL with nodes j/k and values levels[j] * k**(-alpha)."""
        k = self.k
        scale = float(k) ** (-alpha)
        xs = np.arange(k + 1, dtype=float) / k
        return cpwl.CPwL(xs, np.array(self.levels, dtype=float) * scale)


@dataclass
class ExperimentRecord:
    """One row of a rate experiment: grid error of a size-m network build.

    A row whose build or measurement raised carries a NaN error, params = 0
    and `reason` = "<ExceptionClass>: <message>"; its CSV row is m,0,nan,wall_ms.
    """

    m: int
    params: int
    sup_error: float
    wall_ms: float
    reason: str = ""


CSV_HEADER = "m,params,sup_error,wall_ms"


def records_to_csv(records):
    """Render experiment records as CSV text with a fixed header."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append("%d,%d,%.17g,%.17g" % (r.m, r.params, r.sup_error, r.wall_ms))
    return "\n".join(lines) + "\n"


def _quantize_values(vals, k, alpha):
    """Quantize sampled node values to a Pattern, ties resolved toward the
    previously chosen level."""
    h_alpha = (1.0 / k) ** alpha
    if not np.isfinite(vals).all():
        raise ContractError("sampled values must be finite")
    if abs(vals[0]) > ENDPOINT_TOL or abs(vals[-1]) > ENDPOINT_TOL:
        raise ContractError("function must vanish at 0 and 1")
    steps = np.abs(np.diff(vals))
    if steps.max() > h_alpha * (1.0 + NODE_SLACK) + 1e-15:
        raise ContractError("sampled nodes violate the Lipschitz bound")
    levels = [0]
    for j in range(1, k + 1):
        t = vals[j] / h_alpha
        base = math.floor(t)
        frac = t - base
        if abs(frac - 0.5) <= TIE_TOL:
            beta = base if levels[-1] <= base else base + 1
        elif frac < 0.5:
            beta = base
        else:
            beta = base + 1
        levels.append(beta)
    try:
        return Pattern(tuple(levels))
    except StructureError as exc:
        raise ContractError(f"quantized levels escape the pattern class: {exc}")


def quantize_pattern(g, k, alpha):
    """Pattern whose induced CPwL is within 2*k**(-alpha) of g on [0, 1].

    g must vanish at both endpoints and have Lipschitz-alpha seminorm at most
    one; the contract is checked at the k+1 sampled nodes.
    """
    if k < 2:
        raise DomainError("pattern resolution k must be at least 2")
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    nodes = np.arange(k + 1, dtype=float) / k
    vals = _evaluate(g, nodes)
    return _quantize_values(vals, k, alpha)


def pattern_resolution(m):
    """Largest k >= 2 with 3**k * k <= m, or None when no such k exists."""
    best = None
    k = 2
    while 3 ** k * k <= m:
        best = k
        k += 1
    return best


def lip_alpha_approximant(f, alpha, m, width):
    """(net, bound): a network approximating a unit Lipschitz-alpha target,
    and the sup error it guarantees, 4*(k*m)**(-alpha) with patterns at
    resolution k, or m**(-alpha) for the interpolant alone.

    Interpolates f at i/m, quantizes each rescaled panel residual to a pattern
    at resolution k (the largest k with 3**k * k <= m), replicates each
    distinct nonzero pattern over its panels, and sums everything.  When m is
    too small for k >= 2 the interpolant alone is returned.  The network is
    not measured here; `measure_sigma` and `rate_experiment` measure it.
    """
    if width < 8:
        raise DomainError("the approximant needs width >= 8")
    if m < 2:
        raise DomainError("need at least two panels")
    if not isinstance(f, TargetFunction) or f.lip_alpha is None:
        raise ContractError("target must declare a Lipschitz exponent and bound")
    decl_alpha, seminorm = f.lip_alpha
    if abs(decl_alpha - alpha) > 1e-12:
        raise ContractError("declared exponent does not match alpha")
    if seminorm > 1.0 + 1e-12:
        raise ContractError("Lipschitz seminorm must be normalized to at most one")

    nodes = np.arange(m + 1, dtype=float) / m
    vals = _evaluate(f, nodes)
    interpolant = cpwl.CPwL(nodes, vals)
    net, _ = compile_spline(interpolant, width)

    k = pattern_resolution(m)
    if k is None:
        return net, float(m) ** (-alpha)
    sub = np.arange(k + 1, dtype=float) / k
    xs = ((np.arange(m, dtype=float)[:, None] + sub[None, :]) / m).ravel()
    fv = _evaluate(f, xs).reshape(m, k + 1)
    tv = np.interp(xs, nodes, vals).reshape(m, k + 1)
    scale = 0.5 * float(m) ** alpha
    groups = {}
    for i in range(m):
        pattern = _quantize_values(scale * (fv[i] - tv[i]), k, alpha)
        if not pattern.is_zero():
            groups.setdefault(pattern.levels, []).append(i)
    terms = []
    for levels, panels in groups.items():
        shape = Pattern(levels).to_cpwl(alpha)
        scaled = cpwl.combine([shape], [2.0 * float(m) ** (-alpha)])
        intervals = np.column_stack([panels, np.add(panels, 1)]) / m
        terms.append(compile_self_similar(scaled, intervals, width)[0])
    return concat_sum(net, *terms), 4.0 * (k * m) ** (-alpha)


@dataclass
class SplitResult:
    """Two-part derivative-truncation split f = f0 + f1.

    f0 has derivative clamped to [-threshold, threshold] (so it is Lipschitz
    with constant threshold) and carries the anchor value at 0; f1 absorbs the
    large-derivative part and vanishes at 0.  Norm fields come from the same
    midpoint quadrature that defines the split.
    """

    f0: TargetFunction
    f1: TargetFunction
    threshold: float
    lp_norm: float
    quad_tol: float
    l1_high: float
    sup_low: float

    def __iter__(self):
        yield self.f0
        yield self.f1


def sobolev_split(fprime, p, t, anchor=0.0):
    """Split a function by clamping its derivative at t**(-1/p) * ||f'||_p.

    All integrals use the composite midpoint rule on SPLIT_PANELS panels;
    quad_tol reports the change in ||f'||_p when the panel count doubles.
    f0 and f1 wrap the CPwL antiderivatives of the clamped panel derivative
    and of its remainder, so they evaluate on [0, 1] only.  A derivative that
    is not finite at a midpoint of either rule raises DomainError.
    """
    if not 1.0 < p < math.inf:
        raise DomainError("need 1 < p < infinity")
    if t <= 0.0:
        raise DomainError("need t > 0")

    fp, fine = [_evaluate(fprime, (np.arange(n, dtype=float) + 0.5) / n)
                for n in (SPLIT_PANELS, 2 * SPLIT_PANELS)]
    if not (np.isfinite(fp).all() and np.isfinite(fine).all()):
        raise DomainError("the derivative must be finite on [0, 1]")
    lp_norm, lp_fine = [float(np.mean(np.abs(v) ** p) ** (1.0 / p)) for v in (fp, fine)]
    quad_tol = abs(lp_fine - lp_norm)

    lam = t ** (-1.0 / p) * lp_norm
    low = np.clip(fp, -lam, lam)
    high = fp - low
    # the antiderivative of a panel-constant derivative is linear on each panel
    edges = np.arange(SPLIT_PANELS + 1) / SPLIT_PANELS
    f0 = TargetFunction(cpwl.CPwL(edges, anchor + np.r_[0.0, np.cumsum(low)] / SPLIT_PANELS),
                        lip_alpha=(1.0, lam))
    f1 = TargetFunction(cpwl.CPwL(edges, np.r_[0.0, np.cumsum(high)] / SPLIT_PANELS))
    return SplitResult(f0, f1, lam, lp_norm, quad_tol,
                       float(np.mean(np.abs(high))), float(np.abs(low).max()))


def measure_sigma(f, net, grid_n):
    """Max deviation |f - net| (the network read by `values_at`) over a uniform
    grid joined with the network's breakpoints (and the target's own breakpoints
    when it is piecewise linear), so piecewise-linear targets are measured exactly.

    A network whose extraction outgrows the node budget is measured on the
    grid (and the target's breakpoints) alone, with a RuntimeWarning."""
    if grid_n < 2:
        raise DomainError("need at least two grid points")
    pts = np.linspace(0.0, 1.0, grid_n)
    try:
        pts = np.union1d(pts, extract_cpwl(net).breakpoints)
    except ResourceError as exc:
        warnings.warn(f"{exc}, the node budget; measuring on the {grid_n}-point grid "
                      "without the network's breakpoints", RuntimeWarning, stacklevel=2)
    source = f.evaluator if isinstance(f, TargetFunction) else f
    if isinstance(source, cpwl.CPwL):
        pts = np.union1d(pts, source.breakpoints)
    return float(np.abs(_evaluate(f, pts) - values_at(net, pts)).max())


def rate_experiment(f, builder, ms, grid_n=4097):
    """One ExperimentRecord per m: build a network with builder(m) and measure
    its grid error against f.  Builder or measurement failures yield a
    NaN-error row with the exception in `reason` instead of aborting the
    sweep; rows always come back in ascending m."""
    ms = [int(m) for m in ms]
    if not ms:
        raise DomainError("need at least one size")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise DomainError("sizes must be strictly ascending")

    def one(m):
        start = time.perf_counter()
        reason = ""
        try:
            net = builder(m)
            error = measure_sigma(f, net, grid_n)
            params = net.params
        except Exception as exc:
            error = float("nan")
            params = 0
            reason = f"{type(exc).__name__}: {exc}"
        wall_ms = (time.perf_counter() - start) * 1000.0
        return ExperimentRecord(m, params, error, wall_ms, reason)

    return [one(m) for m in ms]


def ar_seminorm(records, r):
    """Empirical approximation-space seminorm sup_m (m+1)**r * sup_error."""
    vals = [(rec.m + 1) ** r * rec.sup_error for rec in records
            if math.isfinite(rec.sup_error)]
    return max(vals) if vals else float("nan")
