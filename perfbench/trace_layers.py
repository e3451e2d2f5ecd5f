"""Per-layer tracing of triadeform from outside the library.

`Tracer.install()` wraps the public entry points of every module in
`src/triadeform/` (module functions, public methods, cocycle and psi
`__call__`, and the two validating `__init__`s) and rebinds every alias
other modules imported by name.  `uninstall()` restores the originals.

Each wrapped call adds its count, inclusive time and self time (inclusive
minus wrapped children) to a record keyed by (job, name, parent name).  Hot
arithmetic entry points only aggregate; every other call also keeps one
span (job, name, parent, start, end) in memory.  `dump()` writes both out
at the end of a run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import weakref

LAYERS = (
    "rings",
    "abgroups",
    "snf",
    "cocycles",
    "trigroup",
    "finitegroup",
    "structure",
    "fologic",
    "report",
    "config",
    "errors",
    "cli",
)

# classes whose every public method is hot arithmetic: aggregate, no spans
HOT_CLASSES = {
    "rings": ("Ring", "IntegerRing", "RationalField", "IntegersMod", "QuadraticOrder", "GaussianIntegers", "UnitGroupStruct"),
    "abgroups": ("FgAbelian",),
}
HOT_NAMES = {
    "cocycles:ext_mul",
    "cocycles:ext_inv",
    "cocycles:ext_identity",
    "trigroup:DeformedGroup.op",
    "trigroup:DeformedGroup.inverse",
    "trigroup:DeformedGroup.element",
    "trigroup:DeformedGroup.transvection",
    "trigroup:DeformedGroup.diagonal_gen",
    "trigroup:DeformedGroup.central",
    "trigroup:DeformedGroup.commutator",
    "trigroup:DeformedGroup.conjugate",
    "trigroup:DeformedGroup.twist",
    "trigroup:DeformedGroup.big_f",
    "trigroup:TriMatrix.__init__",
    "trigroup:TriMatrix.mul",
    "trigroup:TriMatrix.inv",
    "trigroup:TriMatrix.diagonal_part",
    "trigroup:TriMatrix.strict_part",
    "trigroup:TriMatrixGroup.op",
    "trigroup:TriMatrixGroup.inverse",
    "trigroup:upper_normalise",
    "trigroup:upper_product",
    "trigroup:upper_mul",
    "trigroup:upper_inv",
    "trigroup:upper_conjugate",
    "finitegroup:FiniteGroup.elem",
    "finitegroup:FiniteGroup.index",
    "finitegroup:FiniteGroup.op_idx",
    "finitegroup:FiniteGroup.inv_idx",
    "finitegroup:FiniteGroup.conj_idx",
    "finitegroup:FiniteGroup.comm_idx",
    "finitegroup:FiniteGroup.power_idx",
    "snf:mat_mul",
    "snf:mat_vec",
    "snf:mat_copy",
    "snf:identity_matrix",
    "snf:zero_matrix",
}
# group multiplications; under a finitegroup span they are element products
GROUP_OPS = {
    "trigroup:DeformedGroup.op",
    "trigroup:TriMatrixGroup.op",
    "cocycles:ExtensionGroup.op",
    "abgroups:FgAbelian.op",
    "rings:UnitGroupStruct.op",
}
ELEMENT_CONSTRUCTORS = {
    "trigroup:DeformedGroup.element",
    "trigroup:DeformedGroup.diagonal_gen",
    "trigroup:DeformedGroup.central",
    "trigroup:TriMatrix.__init__",
}
MODEL_ORACLES = {
    "fologic:Model.ncl_nilpotency_class",
    "fologic:Model.commutator_set",
    "fologic:Model.width_products",
}
SEMANTIC_ENTRIES = {"fologic:semantic_eval", "fologic:defining_set"}
WRAPPED_DUNDERS = {"__call__"}
WRAPPED_INITS = {("finitegroup", "FiniteGroup"), ("trigroup", "TriMatrix")}
MAX_SPANS = 50_000
# every per-layer metric, with its unit, in report order
METRIC_UNITS = {
    "rings.calls": "count",
    "rings.self_s": "s",
    "trigroup.op_calls": "count",
    "trigroup.inverse_calls": "count",
    "trigroup.element_calls": "count",
    "trigroup.self_s": "s",
    "cocycles.eval_calls": "count",
    "cocycles.ext_mul_calls": "count",
    "cocycles.ext_mul_per_pow": "calls/pow",
    "cocycles.self_s": "s",
    "abgroups.calls": "count",
    "abgroups.self_s": "s",
    "snf.calls": "count",
    "snf.self_s": "s",
    "finitegroup.table_builds": "count",
    "finitegroup.subgroup_views": "count",
    "finitegroup.element_products": "count",
    "finitegroup.memo_lookups": "count",
    "finitegroup.memo_hit_ratio": "ratio",
    "finitegroup.self_s": "s",
    "structure.calls": "count",
    "structure.self_s": "s",
    "fologic.atoms": "count",
    "fologic.atoms_per_s": "atoms/s",
    "fologic.oracle_calls": "count",
    "fologic.self_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_ratio": "ratio",
}
UNTRACKED = ("setup", "oracle")


class Tracer:
    def __init__(self):
        self.job = "setup"
        self.stack: list[list] = []
        self.agg: dict[tuple, list[int]] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.atoms: dict = {}
        self.table_builds: dict = {}
        self.memo_lookups: dict = {}
        self.memo_misses: dict = {}
        self.eval_names: set[str] = set()
        self._tabled = weakref.WeakSet()
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"triadeform.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}:{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # rebind every alias of a wrapped module function, package included
        for name in ("triadeform",) + tuple(f"triadeform.{layer}" for layer in LAYERS):
            mod = importlib.import_module(name)
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        symcocycle = importlib.import_module("triadeform.cocycles").SymCocycle2
        hot_class = cls.__name__ in HOT_CLASSES.get(layer, ())
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                if not (attr == "__init__" and (layer, cls.__name__) in WRAPPED_INITS):
                    continue
            if isinstance(member, (staticmethod, classmethod)):
                raw, rewrap = member.__func__, type(member)
            elif inspect.isfunction(member):
                raw, rewrap = member, None
            else:
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if attr == "__call__" and issubclass(cls, symcocycle):
                self.eval_names.add(name)
            wrapper = self._wrap(raw, name, layer, hot=hot_class or attr == "__call__")
            self._restore.append((cls, attr, member))
            setattr(cls, attr, rewrap(wrapper) if rewrap else wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hot: bool = False):
        hot = hot or name in HOT_NAMES
        tracer = self
        stack = self.stack
        agg = self.agg
        spans = self.spans
        clock = time.perf_counter_ns
        is_group_op = name in GROUP_OPS
        post = {
            "finitegroup:FiniteGroup.__init__": self._after_init,
            "finitegroup:FiniteGroup.op_idx": self._after_op_idx,
            "fologic:eval_with_stats": self._after_eval_with_stats,
        }.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0, 0]  # name, wrapped-children ns, group products made
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent_name = None
                if parent is not None:
                    parent[1] += dt
                    parent_name = parent[0]
                    if is_group_op:
                        parent[2] += 1
                key = (tracer.job, name, parent_name)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if not hot:
                    if len(spans) < MAX_SPANS:
                        spans.append((tracer.job, name, parent_name, t0, t1))
                    else:
                        tracer.dropped_spans += 1
            if post is not None:
                post(frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _bump(self, table: dict, amount: int = 1) -> None:
        table[self.job] = table.get(self.job, 0) + amount

    def _after_init(self, frame, args, result) -> None:
        # a group with a full table answers op_idx from it, not from a memo
        if getattr(args[0], "_table", None) is not None:
            self._tabled.add(args[0])
            self._bump(self.table_builds)

    def _after_op_idx(self, frame, args, result) -> None:
        if args[0] not in self._tabled:
            self._bump(self.memo_lookups)
            if frame[2]:
                self._bump(self.memo_misses)

    def _after_eval_with_stats(self, frame, args, result) -> None:
        self._bump(self.atoms, result[1])

    # -- derived metrics ----------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The exact (deterministic) counts, over jobs only."""

        def total(table):
            return sum(v for job, v in table.items() if job not in UNTRACKED)

        out = {
            "table_builds": total(self.table_builds),
            "memo_lookups": total(self.memo_lookups),
            "memo_misses": total(self.memo_misses),
            "atoms": total(self.atoms),
            "element_products": 0,
            "ext_mul_in_pow": 0,
            "oracle_calls": 0,
        }
        names: dict[str, int] = {}
        for (job, name, parent), rec in self.agg.items():
            if job in UNTRACKED:
                continue
            names[name] = names.get(name, 0) + rec[0]
            if name in GROUP_OPS and parent is not None and parent.startswith("finitegroup:"):
                out["element_products"] += rec[0]
            if name == "cocycles:ext_mul" and parent == "cocycles:ext_pow":
                out["ext_mul_in_pow"] += rec[0]
            if name in MODEL_ORACLES and parent in SEMANTIC_ENTRIES:
                out["oracle_calls"] += rec[0]
        out["names"] = names
        return out

    def layer_totals(self) -> dict[str, list]:
        """Per layer: [calls, self ns], over jobs only."""
        out = {layer: [0, 0] for layer in LAYERS}
        for (job, name, _), rec in self.agg.items():
            if job in UNTRACKED:
                continue
            layer = name.split(":", 1)[0]
            out[layer][0] += rec[0]
            out[layer][1] += rec[2]
        return out

    def atoms_of(self, job) -> int:
        return self.atoms.get(job, 0)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the traced run can derive by itself."""
        c = self.counts()
        names = c["names"]
        layers = self.layer_totals()

        def calls(*wanted):
            return sum(names.get(n, 0) for n in wanted)

        pow_calls = names.get("cocycles:ext_pow", 0)
        return {
            "rings.calls": layers["rings"][0],
            "rings.self_s": layers["rings"][1] / 1e9,
            "trigroup.op_calls": calls("trigroup:DeformedGroup.op", "trigroup:TriMatrixGroup.op"),
            "trigroup.inverse_calls": calls("trigroup:DeformedGroup.inverse", "trigroup:TriMatrixGroup.inverse"),
            "trigroup.element_calls": calls(*ELEMENT_CONSTRUCTORS),
            "trigroup.self_s": layers["trigroup"][1] / 1e9,
            "cocycles.eval_calls": calls(*self.eval_names),
            "cocycles.ext_mul_calls": names.get("cocycles:ext_mul", 0),
            "cocycles.ext_mul_per_pow": c["ext_mul_in_pow"] / pow_calls if pow_calls else 0.0,
            "cocycles.self_s": layers["cocycles"][1] / 1e9,
            "abgroups.calls": layers["abgroups"][0],
            "abgroups.self_s": layers["abgroups"][1] / 1e9,
            "snf.calls": layers["snf"][0],
            "snf.self_s": layers["snf"][1] / 1e9,
            "finitegroup.table_builds": c["table_builds"],
            "finitegroup.subgroup_views": names.get("finitegroup:FiniteGroup.subgroup_view", 0),
            "finitegroup.element_products": c["element_products"],
            "finitegroup.memo_lookups": c["memo_lookups"],
            "finitegroup.memo_hit_ratio": (
                1.0 - c["memo_misses"] / c["memo_lookups"] if c["memo_lookups"] else 0.0
            ),
            "finitegroup.self_s": layers["finitegroup"][1] / 1e9,
            "structure.calls": layers["structure"][0],
            "structure.self_s": layers["structure"][1] / 1e9,
            "fologic.atoms": c["atoms"],
            "fologic.oracle_calls": c["oracle_calls"],
            "fologic.self_s": layers["fologic"][1] / 1e9,
        }

    # -- output -------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["aggregates"] = [
            {"job": job, "name": name, "parent": parent, "count": rec[0], "total_ns": rec[1], "self_ns": rec[2]}
            for (job, name, parent), rec in self.agg.items()
        ]
        doc["spans"] = [
            {"job": job, "name": name, "parent": parent, "start_ns": t0, "end_ns": t1}
            for job, name, parent, t0, t1 in self.spans
        ]
        doc["dropped_spans"] = self.dropped_spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, plain_s: list[float], traced_s: list[float], import_s: float, main_s: float) -> dict:
    """All per-layer metrics with units, from a traced pass and the untraced
    pass of the same jobs (job i of one pass is job i of the other)."""
    m = tracer.metrics()
    naive_s = sum(t for i, t in enumerate(plain_s) if tracer.atoms_of(i))
    m["fologic.atoms_per_s"] = m["fologic.atoms"] / naive_s if naive_s else 0.0
    m["cli.import_s"] = import_s
    m["cli.main_s"] = main_s
    m["trace.overhead_ratio"] = sum(traced_s) / sum(plain_s)
    return {name: {"value": m[name], "unit": unit} for name, unit in METRIC_UNITS.items()}
