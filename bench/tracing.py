"""Spans around the public functions of each spline2relu module.

The tracer replaces every public function of the layer modules (and
`ReluNetwork.forward`) with a wrapper, in every module namespace that binds
it, so calls made through `from .x import f` are seen too.  Spans live in
flat arrays (name, start, end, parent, job) and are written out at the end;
per-layer metrics are derived from them after the run.  Nothing is patched
unless `install` is called, so untraced runs execute the original code.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "cpwl", "network", "combinators", "compiler", "approx", "riesz")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.counts = Counter()
        self._patched = []

    # -- recording -------------------------------------------------------
    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _parent_name(self):
        return self.names[self.name[self.stack[-1]]] if self.stack else ""

    def _wrap(self, fn, name):
        nid = self._intern(name)
        module = name.partition(".")[0]
        observe = _OBSERVERS.get(module)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                if self._parent_name().partition(".")[0] != module:
                    self.counts[f"{module}.errors"] += 1
                raise
            self._close(idx)
            if observe is not None:
                observe(self, name, args, kwargs, out)
            return out
        return traced

    # -- patching --------------------------------------------------------
    def install(self):
        """Wrap every public function of the layer modules wherever it is bound."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"spline2relu.{layer}")
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    originals[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "spline2relu" and not mod_name.startswith("spline2relu."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        network = sys.modules["spline2relu.network"]
        forward = network.ReluNetwork.forward
        self._patched.append((network.ReluNetwork, "forward", forward))
        network.ReluNetwork.forward = self._wrap(forward, "network.forward")

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output ----------------------------------------------------------
    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _network_of(out):
    return out[0] if isinstance(out, tuple) else out


def _observe_cpwl(tracer, name, args, kwargs, out):
    bps = getattr(out, "breakpoints", None)
    if bps is not None:
        tracer.counts["cpwl.nodes_out"] += bps.size


def _observe_combinators(tracer, name, args, kwargs, out):
    tracer.counts["network.layers_validated"] += out.depth


def _observe_compiler(tracer, name, args, kwargs, out):
    net = _network_of(out)
    if hasattr(net, "depth"):
        tracer.counts["compiler.depth_total"] += net.depth


def _observe_network(tracer, name, args, kwargs, out):
    if name == "network.extract_cpwl" and tracer._parent_name() == "approx.measure_sigma":
        tracer.counts["approx.measure_points"] += out.breakpoints.size


def _observe_approx(tracer, name, args, kwargs, out):
    if name == "approx.measure_sigma":
        grid_n = args[2] if len(args) > 2 else kwargs["grid_n"]
        tracer.counts["approx.measure_points"] += grid_n


def _observe_cli(tracer, name, args, kwargs, out):
    if name == "cli.main" and out != 0:
        tracer.counts["cli.errors"] += 1


_OBSERVERS = {
    "cpwl": _observe_cpwl,
    "combinators": _observe_combinators,
    "compiler": _observe_compiler,
    "network": _observe_network,
    "approx": _observe_approx,
    "cli": _observe_cli,
}

# span names reported as inclusive `<name>_ms`, call counts and observed counts
TIMED = (
    "combinators.concat_sum", "compiler.compile_spline", "network.extract_cpwl",
    "cpwl.combine", "cpwl.relu", "network.forward", "cpwl.read_spline",
    "network.read_network", "network.write_network", "compiler.compile_self_similar",
    "network.special_to_standard", "combinators.compose_nets",
    "combinators.stack_relu_sum", "combinators.iterate_sum", "compiler.takagi_network",
    "compiler.compile_fourier_sum", "approx.lip_alpha_approximant",
    "approx.measure_sigma", "riesz.frame_bounds", "riesz.operator_gap",
    "riesz.lemsum_lhs",
)
CALLS = ("combinators.concat_sum", "cpwl.combine", "cpwl.relu", "riesz.inner_product")
COUNTS = ("network.layers_validated", "compiler.depth_total", "cpwl.nodes_out",
          "approx.measure_points")


def layer_metrics(tracer, rounds):
    """Per-round per-layer metrics: ms per span name, call counts, self time per
    module (span minus its direct children), and the observed counts."""
    spans = tracer.arrays()
    dur_ms = (spans["end_ns"] - spans["start_ns"]) / 1e6
    parent = spans["parent"]
    has_parent = parent >= 0
    child_ms = np.bincount(parent[has_parent], weights=dur_ms[has_parent],
                           minlength=dur_ms.size)
    self_ms = dur_ms - child_ms
    names = np.array(tracer.names + [""])
    span_names = names[spans["name"]] if dur_ms.size else np.array([], dtype=str)
    modules = np.array([n.partition(".")[0] for n in span_names])
    out = {}
    for name in TIMED:
        out[f"{name}_ms"] = (float(dur_ms[span_names == name].sum()) / rounds, "ms")
    for name in CALLS:
        out[f"{name}.calls"] = (int(np.count_nonzero(span_names == name)) // rounds, "count")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (float(self_ms[modules == layer].sum()) / rounds, "ms")
        out[f"{layer}.errors"] = (tracer.counts[f"{layer}.errors"] // rounds, "count")
    for name in COUNTS:
        out[name] = (tracer.counts[name] // rounds, "count")
    return out
