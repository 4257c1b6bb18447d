"""Span recorder for the traced benchmark run.

`install()` wraps the public functions of walkergeo named in LAYERS and
binds each wrapper in every walkergeo module that holds the original, so a
call made through a `from .expressions import diff` binding is recorded
too. No source file of the package changes; `uninstall()` restores the
originals.

Every wrapped call records a span (name, start, end, parent). Spans live
in flat arrays while a pass runs; `Recorder.totals()` sums one pass into
additive totals, `metrics()` turns totals into the per-layer metrics, and
`Recorder.spans()` gives the spans for the JSON file written when the run
ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, attribute): a module-level function, or a method
# written "Class.method".
LAYERS = (
    ("manifest.parse_manifest", "walkergeo.manifest", "parse_manifest"),
    ("sampling.sample", "walkergeo.sampling", "Domain.sample"),
    ("sampling.is_identically_zero", "walkergeo.sampling",
     "is_identically_zero"),
    ("expressions.diff", "walkergeo.expressions", "diff"),
    ("expressions.evaluate_with_scale", "walkergeo.expressions",
     "evaluate_with_scale"),
    ("jets.eval_jet", "walkergeo.jets", "eval_jet"),
    ("structure.build_structure", "walkergeo.structure", "build_structure"),
    ("structure.Frame", "walkergeo.structure", "Frame.__init__"),
    ("structure.frame", "walkergeo.structure", "ApctStructure.frame"),
    ("structure.validate_axioms", "walkergeo.structure", "validate_axioms"),
    ("walker.flatness", "walkergeo.walker", "flatness"),
    ("walker.segre_type", "walkergeo.walker", "segre_type"),
    ("ftensor.f_tensor_at", "walkergeo.ftensor", "f_tensor_at"),
    ("ftensor.theta_forms", "walkergeo.ftensor", "theta_forms"),
    ("ftensor.exterior_data_at", "walkergeo.ftensor", "exterior_data_at"),
    ("ftensor.project_components", "walkergeo.ftensor", "project_components"),
    ("ftensor.split_components_batch", "walkergeo.ftensor",
     "split_components_batch"),
    ("classify.named_classes", "walkergeo.classify", "named_classes"),
    ("curvature.curvature_equivalences", "walkergeo.curvature",
     "curvature_equivalences"),
    ("report.build_report", "walkergeo.report", "build_report"),
    ("report.to_json", "walkergeo.report", "ClassificationReport.to_json"),
)

NAMES = tuple(name for name, _, _ in LAYERS)
_ID = {name: i for i, name in enumerate(NAMES)}
_SWEEP = frozenset(_ID[n] for n in (
    "ftensor.f_tensor_at", "ftensor.theta_forms",
    "ftensor.exterior_data_at", "ftensor.project_components"))

# Per-layer metrics, in the order BENCHMARK.json lists them.
METRIC_UNITS = {
    "ftensor.sweep_s": "s",
    "ftensor.theta_forms_s": "s",
    "ftensor.split_components_batch_s": "s",
    "jets.eval_jet_calls": "count",
    "jets.eval_jet_s": "s",
    "structure.frames_built": "count",
    "structure.frame_hit_frac": "fraction",
    "structure.validate_axioms_s": "s",
    "curvature.curvature_equivalences_s": "s",
    "expressions.diff_calls": "count",
    "expressions.diff_unique_frac": "fraction",
    "expressions.diff_s": "s",
    "expressions.evaluate_calls": "count",
    "expressions.evaluate_points": "count",
    "expressions.evaluate_s": "s",
    "sampling.zero_tests": "count",
    "sampling.zero_tests_const_frac": "fraction",
    "sampling.zero_test_s": "s",
    "walker.flatness_calls": "count",
    "walker.flatness_per_report": "count",
    "walker.segre_type_s": "s",
    "classify.named_classes_s": "s",
    "manifest.parse_s": "s",
    "sampling.sample_s": "s",
    "structure.build_s": "s",
    "report.build_report_self_s": "s",
    "report.render_s": "s",
}

COUNTERS = (
    "jets.eval_jet_calls", "structure.frames_built",
    "structure.frame_hit_frac", "expressions.diff_calls",
    "expressions.diff_unique_frac", "expressions.evaluate_calls",
    "expressions.evaluate_points", "sampling.zero_tests",
    "sampling.zero_tests_const_frac", "walker.flatness_calls",
    "walker.flatness_per_report",
)


class Recorder:
    """Spans of one pass, plus the argument-derived counts."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.outer = array("b")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._depth = [0] * len(NAMES)
        self.diff_keys: set = set()     # (expr, var) of this analysis
        self.diff_unique = 0
        self.points = 0
        self.const_zero_tests = 0

    def enter(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.self_time.append(0.0)
        # a span inside another of the same name (recursion) is not outer
        self.outer.append(self._depth[name_id] == 0)
        self._depth[name_id] += 1
        self._stack.append(index)
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def leave(self, index: int) -> None:
        now = time.perf_counter()
        self._stack.pop()
        child = self._child.pop()
        duration = now - self.start[index]
        self.end[index] = now
        self.self_time[index] = duration - child
        self._depth[self.name[index]] -= 1
        if self._child:
            self._child[-1] += duration

    def close_analysis(self) -> None:
        """Distinct diff keys are counted per analysis."""
        self.diff_unique += len(self.diff_keys)
        self.diff_keys.clear()

    def totals(self) -> dict[str, float]:
        """Additive per-layer totals of the spans recorded so far: busy
        times (outermost spans, so recursion counts once) and counts."""
        self.close_analysis()
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        durations = (np.frombuffer(self.end, dtype=np.float64)
                     - np.frombuffer(self.start, dtype=np.float64))
        self_time = np.frombuffer(self.self_time, dtype=np.float64)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        parent_names = np.where(parents >= 0,
                                names[np.maximum(parents, 0)], -1)
        out = {}
        for name, i in _ID.items():
            mask = names == i
            out[name + ".calls"] = int(np.count_nonzero(mask))
            out[name + ".s"] = float(durations[mask & outer].sum())
            out[name + ".self_s"] = float(self_time[mask].sum())
        sweep = np.isin(names, list(_SWEEP)) & (
            parent_names == _ID["report.build_report"])
        out["sweep.s"] = float(durations[sweep].sum())
        out["frame.misses"] = int(np.count_nonzero(
            (names == _ID["structure.Frame"])
            & (parent_names == _ID["structure.frame"])))
        out["diff.unique"] = self.diff_unique
        out["evaluate.points"] = self.points
        out["zero_test.const"] = self.const_zero_tests
        return out

    def spans(self) -> dict:
        """Columnar span table: parent is an index into the same columns."""
        return {
            "names": list(NAMES),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "self": self.self_time.tolist(),
        }


def add_totals(a: dict, b: dict) -> dict:
    return {key: a.get(key, 0) + value for key, value in b.items()}


def metrics(t: dict) -> dict[str, float]:
    """Per-layer metrics from (summed) totals."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lookups = t["structure.frame.calls"]
    return {
        "ftensor.sweep_s": t["sweep.s"],
        "ftensor.theta_forms_s": t["ftensor.theta_forms.s"],
        "ftensor.split_components_batch_s":
            t["ftensor.split_components_batch.s"],
        "jets.eval_jet_calls": t["jets.eval_jet.calls"],
        "jets.eval_jet_s": t["jets.eval_jet.s"],
        "structure.frames_built": t["structure.Frame.calls"],
        "structure.frame_hit_frac": ratio(lookups - t["frame.misses"], lookups),
        "structure.validate_axioms_s": t["structure.validate_axioms.s"],
        "curvature.curvature_equivalences_s":
            t["curvature.curvature_equivalences.s"],
        "expressions.diff_calls": t["expressions.diff.calls"],
        "expressions.diff_unique_frac":
            ratio(t["diff.unique"], t["expressions.diff.calls"]),
        "expressions.diff_s": t["expressions.diff.s"],
        "expressions.evaluate_calls": t["expressions.evaluate_with_scale.calls"],
        "expressions.evaluate_points": t["evaluate.points"],
        "expressions.evaluate_s": t["expressions.evaluate_with_scale.s"],
        "sampling.zero_tests": t["sampling.is_identically_zero.calls"],
        "sampling.zero_tests_const_frac":
            ratio(t["zero_test.const"], t["sampling.is_identically_zero.calls"]),
        "sampling.zero_test_s": t["sampling.is_identically_zero.s"],
        "walker.flatness_calls": t["walker.flatness.calls"],
        "walker.flatness_per_report":
            ratio(t["walker.flatness.calls"], t["report.build_report.calls"]),
        "walker.segre_type_s": t["walker.segre_type.s"],
        "classify.named_classes_s": t["classify.named_classes.s"],
        "manifest.parse_s": t["manifest.parse_manifest.s"],
        "sampling.sample_s": t["sampling.sample.s"],
        "structure.build_s": t["structure.build_structure.s"],
        "report.build_report_self_s": t["report.build_report.self_s"],
        "report.render_s": t["report.to_json.s"],
    }


class Tracer:
    """Wraps LAYERS while installed; `recorder` receives the spans."""

    def __init__(self):
        self.recorder = Recorder()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import walkergeo  # noqa: F401  (load every module that binds names)
        import walkergeo.cli  # noqa: F401

        for name, module_name, attribute in LAYERS:
            module = sys.modules[module_name]
            if "." in attribute:
                owner_name, member = attribute.split(".")
                owner = getattr(module, owner_name)
                original = vars(owner)[member]
                self._patch(owner, member, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("walkergeo") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, original):
        name_id = _ID[name]
        tracer = self
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            rec = tracer.recorder
            if observe is not None:
                observe(rec, args, kwargs)
            index = rec.enter(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                rec.leave(index)

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__qualname__ = getattr(original, "__qualname__", name)
        wrapper.__doc__ = original.__doc__
        wrapper.__wrapped__ = original
        return wrapper


def _observe_diff(rec: Recorder, args, kwargs) -> None:
    # Expr nodes are frozen dataclasses: hashing is structural.
    e = args[0] if args else kwargs["e"]
    var = args[1] if len(args) > 1 else kwargs["var"]
    rec.diff_keys.add((e, var))


def _observe_evaluate(rec: Recorder, args, kwargs) -> None:
    points = np.asarray(args[1] if len(args) > 1 else kwargs["points"])
    rec.points += 1 if points.ndim == 1 else points.shape[0]


def _observe_zero_test(rec: Recorder, args, kwargs) -> None:
    from walkergeo.expressions import variables

    e = args[0] if args else kwargs["e"]
    if not variables(e):
        rec.const_zero_tests += 1


_OBSERVERS = {
    "expressions.diff": _observe_diff,
    "expressions.evaluate_with_scale": _observe_evaluate,
    "sampling.is_identically_zero": _observe_zero_test,
}
