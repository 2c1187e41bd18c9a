"""Traced mode: spans and counts around natlib's public functions.

``Tracer.install`` wraps every public function of each layer module and the
arithmetic methods of ``ParamPoly``, ``TruncSeries`` and
``TwoColouredCycle``, and patches every name that refers to the original in
every loaded natlib module (``from ... import`` copies, aliases such as
``__radd__ = __add__``).  ``uninstall`` puts the originals back.

Each call of a wrapped function outside a hot boundary becomes a span
(id, parent, workload call, name, start, end).  Calls of hot boundaries are
only summed, as count and time, per parent span.  Self time is a call's
duration minus that of the wrapped calls it made.  Everything stays in
memory until ``dump`` writes it out.
"""

from __future__ import annotations

import inspect
import json
import time

LAYERS = ("trees", "perms", "nat_core", "formulas", "series", "natdk",
          "bijections", "treedoc")

METHODS = {
    ("formulas", "ParamPoly"): (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__",
        "__eq__", "exact_div_univariate", "substitute",
    ),
    ("series", "TruncSeries"): (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
        "__pow__", "__eq__", "partial_derivative", "integral_from_zero",
        "constant_term", "exp", "log", "inverse", "compose_into_nilpotent",
        "coefficient", "truncate", "map_coefficients", "substitute_params",
        "restrict_zero", "rename_variables",
    ),
    ("perms", "TwoColouredCycle"): ("__post_init__",),
}

# Boundaries crossed per vertex, term or tree: summed, not kept as spans.
# Every wrapped method, and every function of trees, perms and natdk except
# the shape enumerations, is hot as well.
HOT = {
    "nat_core.merge", "nat_core.nat_stats", "nat_core.split",
    "nat_core.count_by_recursion",
    "formulas.q_int", "formulas.q_factorial", "formulas.rising_factorial",
    "formulas.stirling2", "formulas.stirling2_q", "formulas.weight",
    "formulas.sigma_readings", "formulas.dk_geometric_size",
    "series.pump", "series.phi_weight",
    "bijections.zeta", "bijections.zeta_inverse",
}
COLD_TREES = {"trees.enumerate_binary_trees", "trees.enumerate_ordered_trees",
              "trees.enumerate_dk_trees"}

SOLVERS = {"series.solve_N", "series.solve_M", "series.solve_N_dk",
           "series.solve_Bp_Op", "series.closed_N_ab", "series.closed_hook_gf",
           "series.closed_hook_log_gf"}
NAT_ENUM = {"nat_core.enumerate_nats_by_size", "nat_core.enumerate_nats_of_shape"}
DK_ENUM = {"natdk.enumerate_dknats_of_shape"}
VALIDATE = {"nat_core.validate_nat", "nat_core.validate_geometric"}
# names whose nested calls of one another count once (results, inclusive time)
GROUPS = {name: group for group, names in (
    ("solver", SOLVERS), ("nat_enum", NAT_ENUM), ("dk_enum", DK_ENUM),
    ("validate", VALIDATE),
) for name in names}


def _coefficients(result) -> int:
    series = result if isinstance(result, tuple) else (result,)
    return sum(len(s.coeffs) for s in series)


RESULT_COUNTERS = {
    **{name: _coefficients for name in SOLVERS},
    **{name: len for name in NAT_ENUM | DK_ENUM},
}


def _is_hot(name: str) -> bool:
    layer, _, rest = name.partition(".")
    if "." in rest or name in HOT:
        return True
    return layer in ("trees", "perms", "natdk") and name not in COLD_TREES


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


class Tracer:
    def __init__(self):
        self.paused = False
        self.stats: dict[str, list] = {}  # name -> [calls, self s, outermost s]
        self.hot: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, s]
        self.spans: list[tuple] = []  # (id, parent, call, name, start, end)
        self.results: dict[str, int] = {}  # name -> items returned
        self._stack: list[list] = []  # frames: [span id, child s]
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self._call = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans for the benchmark's own calls --------------------------------

    def begin_call(self, call_id: int) -> None:
        self._next_id += 1
        self._call = call_id
        self._stack = [[self._next_id, 0.0, time.perf_counter()]]

    def end_call(self, name: str) -> None:
        span_id, _, start = self._stack.pop()
        self.spans.append((span_id, None, self._call, name, start, time.perf_counter()))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        hot = _is_hot(name)
        key = GROUPS.get(name, name)
        count_result = RESULT_COUNTERS.get(name)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer.paused or not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            depth = tracer._depth
            outer = not depth.get(key)
            depth[key] = depth.get(key, 0) + 1
            if hot:
                frame = [parent[0], 0.0]
            else:
                tracer._next_id += 1
                frame = [tracer._next_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[key] -= 1
                elapsed = end - start
                parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if outer:
                    stats[2] += elapsed
                if hot:
                    agg = tracer.hot.get((parent[0], name))
                    if agg is None:
                        agg = tracer.hot[(parent[0], name)] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += elapsed
                else:
                    tracer.spans.append(
                        (frame[0], parent[0], tracer._call, name, start, end))
            if outer and count_result is not None:
                tracer.results[name] = tracer.results.get(name, 0) + count_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, lib, modules) -> None:
        """Wrap the layers of ``lib``; patch every module in ``modules``."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(lib, layer)
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        classes = []
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(getattr(lib, layer), cls_name)
            classes.append(cls)
            for meth in methods:
                fn = vars(cls)[meth]
                wrappers[id(fn)] = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
        for owner in list(modules) + classes:
            for attr, obj in list(vars(owner).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((owner, attr, obj))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0))[1] for n in names)

    def outer_time(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer(self, layer: str) -> list[str]:
        return [n for n in self.stats if n.split(".", 1)[0] == layer]

    def hot_calls_under(self, name: str, parents: set[str]) -> int:
        """Calls of hot ``name`` whose nearest span is one of ``parents``."""
        span_names = {s[0]: s[3] for s in self.spans}
        return sum(count for (parent, hot_name), (count, _) in self.hot.items()
                   if hot_name == name and span_names.get(parent) in parents)

    def dump(self, path) -> None:
        record = {
            "spans": [list(s) for s in self.spans],
            "hot": [[parent, name, count, total]
                    for (parent, name), (count, total) in self.hot.items()],
            "stats": {name: list(v) for name, v in self.stats.items() if v[0]},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))


PER_LAYER = (
    # name, unit
    ("series.self_s", "s"),
    ("series.trunc_mul", "count"),
    ("series.fixed_point_rounds", "count"),
    ("series.mul_per_coeff", "ratio"),
    ("formulas.poly_mul", "count"),
    ("formulas.poly_add", "count"),
    ("formulas.poly_s", "s"),
    ("formulas.self_s", "s"),
    ("trees.vertices_calls", "count"),
    ("trees.self_s", "s"),
    ("nat_core.enumerated", "count"),
    ("nat_core.enum_s", "s"),
    ("natdk.enumerated", "count"),
    ("natdk.enum_s", "s"),
    ("nat_core.validate_calls", "count"),
    ("nat_core.validate_s", "s"),
    ("nat_core.validate_per_item", "ratio"),
    ("nat_core.geometric_s", "s"),
    ("bijections.self_s", "s"),
    ("bijections.psi_inverse_s", "s"),
    ("bijections.zeta_s", "s"),
    ("perms.self_s", "s"),
    ("treedoc.load_s", "s"),
    ("treedoc.dump_s", "s"),
    ("trace.overhead", "ratio"),
)


def layer_metrics(tr: Tracer, items: int, overhead: float,
                  scale: float = 1.0) -> dict[str, float]:
    """Every per-layer metric of one traced pass that produced ``items``;
    times are multiplied by ``scale``."""
    poly_ops = [f"formulas.ParamPoly.{m}" for m in METHODS[("formulas", "ParamPoly")]]
    trunc_mul = tr.calls("series.TruncSeries.__mul__")
    coeffs = sum(tr.results.get(n, 0) for n in SOLVERS)
    validate_calls = tr.calls(*VALIDATE)
    values = {
        "series.self_s": tr.self_time(*tr.layer("series")),
        "series.trunc_mul": trunc_mul,
        "series.fixed_point_rounds": tr.hot_calls_under("series.TruncSeries.__eq__", SOLVERS),
        "series.mul_per_coeff": trunc_mul / coeffs if coeffs else 0.0,
        "formulas.poly_mul": tr.calls("formulas.ParamPoly.__mul__"),
        "formulas.poly_add": tr.calls("formulas.ParamPoly.__add__"),
        "formulas.poly_s": tr.self_time(*poly_ops),
        "formulas.self_s": tr.self_time(
            "formulas.hook_formula", "formulas.q_hook_formula",
            "formulas.count_by_size", "formulas.bsg", "formulas.q_binomial"),
        "trees.vertices_calls": tr.calls("trees.vertices"),
        "trees.self_s": tr.self_time(*tr.layer("trees")),
        "nat_core.enumerated": sum(tr.results.get(n, 0) for n in NAT_ENUM),
        "nat_core.enum_s": tr.self_time(*NAT_ENUM, "nat_core.merge"),
        "natdk.enumerated": sum(tr.results.get(n, 0) for n in DK_ENUM),
        "natdk.enum_s": tr.self_time(*tr.layer("natdk")),
        "nat_core.validate_calls": validate_calls,
        "nat_core.validate_s": tr.outer_time(*VALIDATE),
        "nat_core.validate_per_item": validate_calls / items if items else 0.0,
        "nat_core.geometric_s": tr.self_time("nat_core.nat_to_geometric",
                                             "nat_core.geometric_to_nat"),
        "bijections.self_s": tr.self_time(*tr.layer("bijections")),
        "bijections.psi_inverse_s": tr.self_time("bijections.psi_inverse"),
        "bijections.zeta_s": tr.self_time("bijections.zeta", "bijections.zeta_inverse"),
        "perms.self_s": tr.self_time(*tr.layer("perms")),
        "treedoc.load_s": tr.outer_time("treedoc.load_document"),
        "treedoc.dump_s": tr.outer_time("treedoc.dump_document"),
        "trace.overhead": overhead,
    }
    units = dict(PER_LAYER)
    return {name: v * scale if units[name] == "s" else v for name, v in values.items()}
