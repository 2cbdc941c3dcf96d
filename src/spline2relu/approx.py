"""Approximation procedures: pattern quantization of Lipschitz residuals,
interpolation-plus-pattern approximants, derivative-truncation splits, and
grid-based error measurement harnesses."""

import functools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import cpwl
from .combinators import concat_sum
from .compiler import compile_self_similar, compile_spline, takagi_network
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
    rows = [(r.m, r.params, r.sup_error, r.wall_ms) for r in records]
    return CSV_HEADER + "\n" + cpwl._format_rows(np.array(rows, float).reshape(-1, 4), ",")


def _quantize_values(vals, k, alpha):
    """Int levels of the sampled rows vals (n, k+1): the nearest level, ties
    resolved toward the level before.  Rules, in order: finite, zero ends,
    Lipschitz bound, pattern class; the first row that breaks one raises
    ContractError for the first one it breaks."""
    h_alpha = (1.0 / k) ** alpha
    finite = np.isfinite(vals).all(axis=1)
    ends = (np.abs(vals[:, 0]) > ENDPOINT_TOL) | (np.abs(vals[:, -1]) > ENDPOINT_TOL)
    vals = np.where(finite[:, None], vals, 0.0)  # a row that is not finite reads 0 from here
    with np.errstate(over="ignore", invalid="ignore"):  # a steep row may overflow
        steep = np.abs(np.diff(vals)).max(axis=1) > h_alpha * (1.0 + NODE_SLACK) + 1e-15
        t = vals / h_alpha
        base = np.floor(t)
        tie = np.abs(t - base - 0.5) <= TIE_TOL
        levels = np.rint(t)  # a row with zero ends starts at level 0
        for j in np.flatnonzero(tie[:, 1:].any(axis=0)) + 1:
            rows = tie[:, j]
            levels[rows, j] = np.clip(levels[rows, j - 1], base[rows, j], base[rows, j] + 1.0)
        broken = np.column_stack([~finite, ends, steep, (levels[:, -1] != 0)
                                  | (np.abs(np.diff(levels)) > 1).any(axis=1)])
    if broken.any():
        row, rule = divmod(int(broken.argmax()), 4)  # the first such row, then its first rule
        if rule == 3:
            try:
                Pattern(levels[row])
            except StructureError as exc:
                raise ContractError(f"quantized levels escape the pattern class: {exc}")
        raise ContractError(("sampled values must be finite", "function must vanish at 0 and 1",
                             "sampled nodes violate the Lipschitz bound")[rule])
    return levels.astype(np.int64)


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
    return Pattern(_quantize_values(_evaluate(g, nodes)[None], k, alpha)[0])


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
    levels = _quantize_values(0.5 * float(m) ** alpha * (fv - tv), k, alpha)
    kinds, first, inverse = np.unique(levels, axis=0, return_index=True, return_inverse=True)
    terms = []
    for kind in first.argsort():
        if kinds[kind].any():
            shape = Pattern(kinds[kind]).to_cpwl(alpha)
            scaled = cpwl.combine([shape], [2.0 * float(m) ** (-alpha)])
            panels = np.flatnonzero(inverse.ravel() == kind)  # numpy 2.0.0 keeps a 2-d shape
            intervals = np.column_stack([panels, panels + 1]) / m
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
    """Max deviation |f - net| over a uniform grid joined with the network's
    breakpoints (and the target's own breakpoints when it is piecewise
    linear), so piecewise-linear targets are measured exactly.  The network
    is read through its own extraction (`extract_cpwl`), once.

    A network whose extraction outgrows the node budget is read by
    `values_at` on the grid (and the target's breakpoints) alone, with a
    RuntimeWarning."""
    if grid_n < 2:
        raise DomainError("need at least two grid points")
    pts = np.linspace(0.0, 1.0, grid_n)
    try:
        read = extract_cpwl(net)
    except ResourceError as exc:
        warnings.warn(f"{exc}, the node budget; measuring on the {grid_n}-point grid "
                      "without the network's breakpoints", RuntimeWarning, stacklevel=2)
        read = functools.partial(values_at, net)
    else:
        pts = cpwl._union(pts, read.breakpoints)
    source = f.evaluator if isinstance(f, TargetFunction) else f
    if isinstance(source, cpwl.CPwL):
        pts = cpwl._union(pts, source.breakpoints)
    return float(np.abs(_evaluate(f, pts) - read(pts)).max())


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


def takagi_family(m):
    """(target, builder) of the Takagi rate family up to size m >= 1.

    builder(k) is `takagi_network` with coefficients 2^-(i+1), i < k, whose
    output is the order-k sawtooth partial sum.  target is the dyadic
    sawtooth sum of order m + 20, sum_{i < m+20} 2^-(i+1) H^(i+1)(x), read
    pointwise, so at depths where the explicit node list would not fit.

    Term i reads t, the fractional part of 2^i x, as min(t, 1 - t) 2^-i; t is
    carried by the doubling map (double, then subtract 1 where it reached 1).
    For x >= 0, so on [0, 1] where the target is defined, np.mod, doubling
    and t - 1 for t in [1, 2) are exact, so t and every term equal those of
    `cpwl.hat_iterate_value` to the bit.  For negative x np.mod rounds the
    fractional part and doubling carries that rounding into later terms, so
    the result can differ from that closed form in its last bits.  Every
    step runs in place on t and one term buffer.

    After the first m + 1 terms the points whose t reached 0 (every dyadic
    point with denominator up to 2^(m+1), so every breakpoint j/2^k, k <= m,
    of the networks builder makes) are set aside: their t stays 0, so each
    later term adds exactly +0.0 there.  The remaining terms run on the
    other points only, and their totals are put back.  The points are read
    cpwl._SWEEP_BLOCK at a time, every term on one block before the next.

    An m below 1 raises `DomainError`: its later terms would run over
    negative i, scaled by 2^-i > 1, so the target would be no sawtooth sum.
    """
    if m < 1:
        raise DomainError(f"the Takagi family needs a size m >= 1, got {m}")

    def run(t, total, term, terms):
        for i in terms:
            np.subtract(1.0, t, out=term)
            np.minimum(t, term, out=term)
            term *= 2.0 ** -i
            total += term
            t += t
            np.subtract(t, 1.0, out=t, where=t >= 1.0)

    def evaluate(x):
        xs = np.asarray(x, dtype=float)
        t = np.mod(xs.ravel(), 1.0)
        total = np.zeros(t.size)
        term = np.empty(min(t.size, cpwl._SWEEP_BLOCK))
        for start in range(0, t.size, cpwl._SWEEP_BLOCK):
            part = slice(start, start + cpwl._SWEEP_BLOCK)
            tb, sb = t[part], total[part]
            run(tb, sb, term[:tb.size], range(m + 1))
            live = np.flatnonzero(tb)
            rest = sb.take(live)
            run(tb.take(live), rest, term[:live.size], range(m + 1, m + 20))
            np.put(sb, live, rest)
        return total.reshape(xs.shape)

    def builder(k):
        return takagi_network([2.0 ** -(i + 1) for i in range(k)])

    return TargetFunction(evaluate), builder


def ar_seminorm(records, r):
    """Empirical approximation-space seminorm sup_m (m+1)**r * sup_error."""
    vals = [(rec.m + 1) ** r * rec.sup_error for rec in records
            if math.isfinite(rec.sup_error)]
    return max(vals) if vals else float("nan")
