"""Span recorder for the traced benchmark run.

The tracer wraps the package's functions at the module attributes the
program calls through, so no file of the package changes. Each wrapped call
records a span (layer, start, end, parent) and bumps the layer's counters;
spans stay in memory until the run writes them out. A layer's self time is
its spans' duration minus the time covered by their direct child spans.
"""
import functools
import importlib
import os
import time

# (module, attribute path, layer). The same layer appears once per module
# that binds the function under its own name, because each binding is a
# separate path the program can call through.
WRAP_POINTS = [
    ("textileplate.cli", "build_cell_mesh", "geometry.build"),
    ("textileplate.cli", "build_solid_cell_mesh", "geometry.build"),
    ("textileplate.cli", "build_textile_mesh", "geometry.build"),
    ("textileplate.cli", "assemble", "elasticity.assemble"),
    ("textileplate.homogenize", "assemble", "elasticity.assemble"),
    ("textileplate.cli", "solve", "elasticity.solve"),
    ("textileplate.homogenize", "solve", "elasticity.solve"),
    ("textileplate.cli", "solve_cell_problems", "homogenize.cell_problems"),
    ("textileplate.homogenize", "solve_cell_problems", "homogenize.cell_problems"),
    ("textileplate.cli", "compute_plate_tensors", "homogenize.tensors"),
    ("textileplate.homogenize", "compute_plate_tensors", "homogenize.tensors"),
    ("textileplate.cli", "solve_prestress", "homogenize.prestress"),
    ("textileplate.homogenize", "solve_prestress", "homogenize.prestress"),
    ("textileplate.plate", "solve_linear", "plate.linear_solve"),
    ("textileplate.buckling", "solve_linear", "plate.linear_solve"),
    ("textileplate.plate", "minimize_vk", "plate.minimize"),
    ("textileplate.buckling", "minimize_vk", "plate.minimize"),
    ("textileplate.plate", "PlateOperator.hessian", "plate.hessian"),
    ("textileplate.plate", "PlateOperator.gradient", "plate.gradient"),
    ("textileplate.plate", "PlateOperator.energy", "plate.energy"),
    ("textileplate.buckling", "sweep_buckling_2d", "buckling.sweep"),
    ("textileplate.cli", "export_vtk", "vtk_io.export"),
    ("textileplate.vtk_io", "export_vtk", "vtk_io.export"),
]

# SciPy sparse solver entry points reached through `textileplate.plate.spla`.
# The module attribute is replaced by a proxy, so only calls made from the
# plate module are traced.
SPARSE_ENTRY_POINTS = {
    "spsolve": "plate.factor",
    "splu": "plate.factor",
    "factorized": "plate.factor",
    "eigsh": "plate.eig",
    "lobpcg": "plate.eig",
}


def _count_solve(tracer, args, kwargs, result):
    _, info = result
    tracer.add("elasticity.cg_iterations", int(info["iterations"]))
    system = args[0] if args else kwargs["system"]
    tracer.maximum("elasticity.dofs", int(system.K.shape[0]))


def _count_hexes(tracer, args, kwargs, result):
    tracer.add("geometry.hexes", int(result.n_hexes))


def _count_bytes(tracer, args, kwargs, result):
    tracer.add("vtk_io.bytes", os.path.getsize(result))


COUNTERS = {
    "elasticity.solve": _count_solve,
    "geometry.build": _count_hexes,
    "vtk_io.export": _count_bytes,
}


class Span:
    __slots__ = ("index", "layer", "parent", "start", "end", "raised")

    def __init__(self, index, layer, parent, start):
        self.index = index
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = None
        self.raised = False

    def as_dict(self):
        return {
            "layer": self.layer,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "raised": self.raised,
        }


class _SparseProxy:
    """Stands in for `scipy.sparse.linalg` inside one module."""

    def __init__(self, target, wrapped):
        self._target = target
        self._wrapped = wrapped

    def __getattr__(self, name):
        if name in self._wrapped:
            return self._wrapped[name]
        return getattr(self._target, name)


class Tracer:
    """Records spans and counters while `active`; inert otherwise."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.counters = {}
        self._stack = []
        self._undo = []
        self.missing = []

    # -- recording -------------------------------------------------------
    def open(self, layer):
        parent = self._stack[-1].index if self._stack else None
        span = Span(len(self.spans), layer, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, raised=False):
        span.end = time.perf_counter()
        span.raised = raised
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.layer} closed out of order")

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def reset(self):
        if self._stack:
            raise RuntimeError("reset while spans are open")
        self.spans = []
        self.counters = {}

    def traced(self, layer, fn):
        tracer = self
        on_result = COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, raised=True)
                raise
            tracer.close(span)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap every wrap point that exists; remember how to undo it."""
        for module_name, path, layer in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            # look in __dict__ so a class attribute is restored as the plain
            # function, not as a bound method
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.traced(layer, original))
            self._undo.append((owner, attr, original))
        plate = importlib.import_module("textileplate.plate")
        spla = getattr(plate, "spla", None)
        if spla is None:
            self.missing.append("textileplate.plate.spla")
            return
        wrapped = {
            name: self.traced(layer, getattr(spla, name))
            for name, layer in SPARSE_ENTRY_POINTS.items()
            if hasattr(spla, name)
        }
        plate.spla = _SparseProxy(spla, wrapped)
        self._undo.append((plate, "spla", spla))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _below(spans, span, layer):
    """Whether some ancestor of `span` belongs to `layer`."""
    ancestor = span.parent
    while ancestor is not None:
        if spans[ancestor].layer == layer:
            return True
        ancestor = spans[ancestor].parent
    return False


def layer_totals(spans):
    """Per layer: calls, raised calls, total time and self time.

    Total time counts only the outermost span of a layer, so a layer that
    re-enters itself is not counted twice.
    """
    duration = [s.end - s.start for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += duration[s.index]
    out = {}
    for s in spans:
        entry = out.setdefault(
            s.layer, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["raised"] += int(s.raised)
        entry["self_s"] += duration[s.index] - child_time[s.index]
        if not _below(spans, s, s.layer):
            entry["total_s"] += duration[s.index]
    return out


# metric -> (layer, field). Time fields are per-round seconds, count fields
# per-round totals; run.py takes medians of times and requires the counts
# to repeat across rounds.
_LAYER_FIELDS = [
    ("geometry.build_s", "geometry.build", "total_s"),
    ("elasticity.assemble_s", "elasticity.assemble", "total_s"),
    ("elasticity.assemble_calls", "elasticity.assemble", "calls"),
    ("elasticity.solve_s", "elasticity.solve", "total_s"),
    ("elasticity.solve_calls", "elasticity.solve", "calls"),
    ("homogenize.cell_problems_s", "homogenize.cell_problems", "total_s"),
    ("homogenize.cell_problems_self_s", "homogenize.cell_problems", "self_s"),
    ("homogenize.tensors_s", "homogenize.tensors", "total_s"),
    ("homogenize.prestress_s", "homogenize.prestress", "total_s"),
    ("homogenize.prestress_self_s", "homogenize.prestress", "self_s"),
    ("homogenize.prestress_calls", "homogenize.prestress", "calls"),
    ("plate.linear_solve_s", "plate.linear_solve", "total_s"),
    ("plate.linear_solve_self_s", "plate.linear_solve", "self_s"),
    ("plate.linear_solve_calls", "plate.linear_solve", "calls"),
    ("plate.minimize_s", "plate.minimize", "total_s"),
    ("plate.minimize_self_s", "plate.minimize", "self_s"),
    ("plate.minimize_calls", "plate.minimize", "calls"),
    ("plate.hessian_s", "plate.hessian", "total_s"),
    ("plate.hessian_calls", "plate.hessian", "calls"),
    ("plate.gradient_s", "plate.gradient", "total_s"),
    ("plate.gradient_calls", "plate.gradient", "calls"),
    ("plate.energy_s", "plate.energy", "total_s"),
    ("plate.energy_calls", "plate.energy", "calls"),
    ("plate.factor_s", "plate.factor", "total_s"),
    ("plate.factor_calls", "plate.factor", "calls"),
    ("plate.eig_s", "plate.eig", "total_s"),
    ("plate.eig_calls", "plate.eig", "calls"),
    ("plate.eig_unconverged", "plate.eig", "raised"),
    ("buckling.sweep_s", "buckling.sweep", "total_s"),
    ("buckling.sweep_self_s", "buckling.sweep", "self_s"),
    ("vtk_io.export_s", "vtk_io.export", "total_s"),
    ("cli.self_s", "cli", "self_s"),
]
_COUNTER_METRICS = [
    "geometry.hexes",
    "elasticity.cg_iterations",
    "elasticity.dofs",
    "vtk_io.bytes",
]


def round_metrics(spans, counters):
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    totals = layer_totals(spans)
    out = {}
    for metric, layer, field in _LAYER_FIELDS:
        timed = field.endswith("_s")
        value = totals.get(layer, {}).get(field, 0.0 if timed else 0)
        out[metric] = (value, "s" if timed else "count")
    for metric in _COUNTER_METRICS:
        out[metric] = (counters.get(metric, 0), "bytes" if metric == "vtk_io.bytes" else "count")
    hessians = out["plate.hessian_calls"][0]
    ratio = out["plate.factor_calls"][0] / hessians if hessians else 0.0
    out["plate.factor_per_hessian"] = (ratio, "ratio")
    sweeps = totals.get("buckling.sweep", {}).get("calls", 0)
    points = sum(
        1 for s in spans if s.layer == "plate.minimize" and _below(spans, s, "buckling.sweep")
    )
    out["buckling.points"] = (points / sweeps if sweeps else 0, "count")
    out["trace.spans"] = (len(spans), "count")
    return out


def missing_layers(required, calls_per_round):
    """Required layers that recorded no call in some round."""
    return [layer for layer in required if not all(c.get(layer) for c in calls_per_round)]
