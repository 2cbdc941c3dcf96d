"""Independent reference checks for the benchmark.

Nothing here imports spline2relu: network files are parsed and evaluated
with plain numpy, and the sweep targets come from their closed forms, so a
wrong answer from the program cannot also be the answer it is checked against.
"""

import math
import re

import numpy as np

# the package's own acceptance tolerance for exact compilation
EXACT_TOL = 1e-9

_REPORT = re.compile(r"width=(\d+) depth=(\d+) params=(\d+) budget=(\d+) breakpoints=(\d+)")
_DEVIATION = re.compile(r"^max deviation = (\S+)$", re.M)


def param_count(width, depth):
    """W(W+1)L - (W-1)^2 + 2 weights and biases for width W, depth L."""
    return width * (width + 1) * depth - (width - 1) ** 2 + 2


def spline_budget(width, n):
    """Closed-form parameter budget of an n-breakpoint spline at width W."""
    small = width * width + 4 * width + 1
    if width >= 8:
        block = ((width - 2) // 6) * (width - 2)
        return 61 * n if n >= block else small
    if width == 4:
        return 19 * n if n >= 4 else small
    return 25 * n if n >= 2 * (width - 2) else small


def parse_report(text):
    """(width, depth, params, budget, breakpoints) from a compile report line."""
    match = _REPORT.search(text)
    if match is None:
        raise ValueError(f"no compile report in {text!r}")
    return tuple(int(g) for g in match.groups())


def parse_deviation(text):
    """The float printed by `verify` as 'max deviation = <value>'."""
    match = _DEVIATION.search(text)
    if match is None:
        raise ValueError(f"no verify line in {text!r}")
    return float(match.group(1))


def read_network_file(path):
    """(kind, layers) from a network file; layers are (weights, bias) pairs."""
    with open(path) as fh:
        tokens = fh.read().split()
    width, depth, kind = int(tokens[0]), int(tokens[1]), tokens[2]
    nums = np.array(tokens[3:], dtype=float)
    pos = 0
    layers = []
    for _ in range(depth + 1):
        rows, cols = int(nums[pos]), int(nums[pos + 1])
        pos += 2
        weights = nums[pos:pos + rows * cols].reshape(rows, cols)
        pos += rows * cols
        layers.append((weights, nums[pos:pos + rows]))
        pos += rows
    if pos != nums.size or layers[0][0].shape != (width, 1):
        raise ValueError(f"{path}: malformed network file")
    return kind, layers


def forward(kind, layers, xs):
    """Evaluate a parsed network; special networks skip ReLU on the two rails."""
    width = layers[0][0].shape[0]
    relu = np.ones((width, 1), dtype=bool)
    if kind == "special":
        relu[[0, -1]] = False
    state = np.asarray(xs, dtype=float)[None, :]
    for weights, bias in layers[:-1]:
        state = weights @ state + bias[:, None]
        np.maximum(state, 0.0, out=state, where=relu)
    weights, bias = layers[-1]
    return (weights @ state + bias[:, None])[0]


def spline_probe(knots, values):
    """Every node and every segment midpoint, with the exact target value."""
    mids = 0.5 * (knots[:-1] + knots[1:])
    xs = np.concatenate((knots, mids))
    ys = np.concatenate((values, 0.5 * (values[:-1] + values[1:])))
    return xs, ys


def network_matches(path, knots, values, tol=EXACT_TOL):
    """True when the network file reproduces the spline at its probe points."""
    kind, layers = read_network_file(path)
    xs, ys = spline_probe(knots, values)
    got = forward(kind, layers, xs)
    return bool(np.all(np.abs(got - ys) <= tol))


def read_eval_csv(path, grid_n):
    """(x, value) columns of an `eval` CSV, or None unless it has the header
    and exactly the uniform grid of grid_n points."""
    with open(path) as fh:
        header = fh.readline().strip()
        data = np.array(fh.read().replace(",", " ").split(), dtype=float)
    if header != "x,value" or data.size != 2 * grid_n:
        return None
    data = data.reshape(grid_n, 2)
    if not np.array_equal(data[:, 0], np.linspace(0.0, 1.0, grid_n)):
        return None
    return data[:, 0], data[:, 1]


def eval_matches(path, knots, values, grid_n, tol=EXACT_TOL):
    """True when an `eval` CSV has the uniform grid and the target's values."""
    cols = read_eval_csv(path, grid_n)
    if cols is None:
        return False
    xs, ys = cols
    return bool(np.all(np.abs(ys - np.interp(xs, knots, values)) <= tol))


def sawtooth_cosine(j):
    """Nodes of the j-th sawtooth cosine: +-1 alternating at multiples of 1/(2j)."""
    xs = np.arange(2 * j + 1) / (2.0 * j)
    return xs, np.where(np.arange(2 * j + 1) % 2 == 0, 1.0, -1.0)


def sawtooth_sine(j):
    """Nodes of the j-th sawtooth sine: 0 at the ends, +1 at (l+1/4)/j, -1 at (l+3/4)/j."""
    inner = ((np.arange(j)[:, None] + np.array([0.25, 0.75])[None, :]) / j).ravel()
    xs = np.concatenate(([0.0], inner, [1.0]))
    vals = np.concatenate(([0.0], np.tile([1.0, -1.0], j), [0.0]))
    return xs, vals


def trig_sum(terms):
    """Nodes and values of sum_j a_j C_j + b_j S_j on the union of all nodes."""
    parts = []
    for j, a, b in terms:
        if a != 0.0:
            parts.append((a,) + sawtooth_cosine(j))
        if b != 0.0:
            parts.append((b,) + sawtooth_sine(j))
    grid = np.unique(np.concatenate([xs for _, xs, _ in parts]))
    vals = np.zeros_like(grid)
    for c, xs, vs in parts:
        vals += c * np.interp(grid, xs, vs)
    return grid, vals


def takagi_bound(m):
    """Sup of the sawtooth tail beyond order m: (2/3) 2^-m."""
    return (2.0 / 3.0) * 2.0 ** -m


def takagi_error_ok(m, error):
    """An order-m error should be close to, and never above, (2/3) 2^-m."""
    ratio = error / takagi_bound(m)
    return math.isfinite(ratio) and 0.5 <= ratio <= 1.0 + 1e-6


def holder_guarantee(m, alpha, k):
    """4 (k m)^-alpha with patterns at resolution k, else m^-alpha (interpolant)."""
    return 4.0 * (k * m) ** -alpha if k else float(m) ** -alpha


def pattern_resolution(m):
    """Largest k >= 2 with 3^k k <= m, or None."""
    best = None
    k = 2
    while 3 ** k * k <= m:
        best = k
        k += 1
    return best


RIESZ_LIMITS = {
    "lambda_min": (1.0 / 6.0, 0.5),
    "lambda_max": (1.0 / 6.0, 0.5),
    "gap_base_cosine": (0.0, 0.5),
    "gap_adjoint_cosine": (0.0, 0.5),
    "gap_base_sine": (0.0, 0.5),
    "gap_adjoint_sine": (0.0, 0.5),
    "lemsum_worst_ratio": (0.0, 1.0),
}


def riesz_ok(text):
    """Frame bounds in [1/6, 1/2], operator gaps <= 1/2, pair-sum ratio <= 1."""
    rows = dict(line.split(",", 1) for line in text.strip().splitlines())
    for name, (lo, hi) in RIESZ_LIMITS.items():
        value = float(rows[name])
        if not lo <= value <= hi:
            return False
    return True
