"""Deterministic classification reports.

A report is one tree of dicts, lists, numbers, strings and booleans, built
once per analysis run. `to_json` serializes that tree with sorted keys;
`render_text` walks the very same tree, so the two renderings always carry
identical data. For a fixed manifest and seed both outputs are byte-stable.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

import numpy as np

from .classify import NAMED_CLASSES, Check, decide, named_classes
from .curvature import (
    curvature_equivalences, eta_einstein_check, require_finite_sectional,
    sectional_profile,
)
from .expressions import evaluate_with_scale, to_source
from .ftensor import exterior_data_at, f_tensor_at, project_components, theta_forms
from .sampling import (
    analyzed, bound, is_identically_zero, zero_verdict_from_samples,
)
from .structure import (
    ApctStructure, max_abs, unit_constraint_field, validate_axioms,
)
from .walker import (
    flatness, is_strict_walker, scalar_curvature_constant,
    scalar_curvature_field, segre_type,
)

__all__ = ["ClassificationReport", "build_report"]


def _native(obj: Any) -> Any:
    """The Python value of a numpy array or scalar (json.dumps's default)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"value of type {type(obj).__name__} cannot enter a report")


class ClassificationReport(NamedTuple):
    """Full analysis of one structure, as a JSON-ready tree.

    failures holds every internal-consistency violation found during the
    run, each entry a dict with keys check, witness, magnitude (see
    classify.decide). A nonempty list means the run is not trustworthy and
    maps to exit status 3.
    """

    name: str
    sampling: dict
    structure_validity: dict
    basic_classes: dict
    named_classes: dict
    curvature: dict
    route_agreement: dict
    failures: tuple[dict, ...]

    @property
    def exit_status(self) -> int:
        return 3 if self.failures else 0

    def as_tree(self) -> dict:
        """The report rebuilt out of JSON-native types only."""
        return json.loads(json.dumps(self._asdict(), default=_native))

    def to_json(self) -> str:
        return json.dumps(self._asdict(), default=_native, sort_keys=True,
                          indent=2, allow_nan=False) + "\n"

    def render_text(self) -> str:
        return "\n".join(_render(self.as_tree())) + "\n"


def _leaf(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def _render(tree: dict) -> list[str]:
    """Indented `key: value` lines, depth first; each dict of a list of
    dicts is an item whose first line opens with `- `."""
    lines: list[str] = []
    stack = [(iter(tree.items()), "", "")]  # (entries left, pad, next pad)
    while stack:
        entries, pad, lead = stack.pop()
        for key, value in entries:
            head, lead = f"{lead}{key}:", pad
            if isinstance(value, dict) and value:
                nested = [(iter(value.items()), pad + "  ", pad + "  ")]
            elif isinstance(value, list) and value and all(
                    isinstance(item, dict) for item in value):
                nested = [(iter(item.items()), pad + "    ", pad + "  - ")
                          for item in reversed(value)]
            else:
                lines.append(f"{head} {_leaf(value)}")
                continue
            lines.append(head)
            stack += [(entries, pad, pad), *nested]
            break
    return lines


# the report's candidate directions at pts[0], in the order they are tried
_CANDIDATES = {"d_z": (0.0, 0.0, 1.0), "d_y": (0.0, 1.0, 0.0),
               "d_x": (1.0, 0.0, 0.0), "d_x + d_y + d_z": (1.0, 1.0, 1.0)}


def _pick_direction(S: ApctStructure, pts: np.ndarray):
    """The first candidate direction at pts[0] spanning nondegenerate planes
    with the Reeb field and with its own phi image, else the last: its
    label, its (K_xi, K_phi) and their degenerate flags. Only the
    candidates up to the pick are checked for a non-finite K."""
    K, degenerate = sectional_profile(S, pts, [list(_CANDIDATES.values())])
    spans = ~degenerate[0].any(axis=1)
    pick = int(np.argmax(spans)) if spans.any() else len(spans) - 1
    require_finite_sectional(K[:, :pick + 1], degenerate[:, :pick + 1], pts)
    return list(_CANDIDATES)[pick], K[0, pick], degenerate[0, pick]


@analyzed
def build_report(S: ApctStructure, *,
                 name: str = "structure") -> ClassificationReport:
    pts, tol = S.domain.sample(), S.domain.sampling.tol
    rep_point = tuple(float(c) for c in pts[0])

    # structure validity
    axioms = validate_axioms(S)
    unit = is_identically_zero(
        unit_constraint_field(S.manifold, S.xi), S.domain)
    strict = is_strict_walker(S.manifold)
    # its second route: f_x from the kept order-1 jet of f (the frame's),
    # judged against that jet's largest |coefficient| at each point
    f = S.frame(pts).f
    strict_routes = Check.of(
        "strict_walker_routes", None, strict, zero_verdict_from_samples(
            f.derivative((1, 0, 0)), max_abs(f.coeffs, 1), pts, tol))
    structure_validity = {
        "epsilon": S.manifold.epsilon,
        "unit_constraint_max_residual": unit.residual,
        "strict_walker": strict.holds,
        "axioms_all_hold": all(axioms.values()),
        "axioms": {
            name: {"holds": r.holds, "max_residual": r.residual}
            for name, r in axioms.items()
        },
    }

    # classification
    verdict = named_classes(S)
    basic = verdict.basic
    basic_classes = {
        "display": basic.display(),
        "members": sorted(basic.members),
        "g5bar": basic.g5bar,
        "components": {
            label: {
                "present": label in basic.members,
                "max_residual": basic.component_verdicts[label].residual,
            }
            for label in sorted(basic.component_verdicts)
        },
        "within_model": not basic.model.fails,
        "model_defect": basic.model.routes[0].residual,
    }

    named_section = {
        "classes": {n: verdict.named[n].holds for n in NAMED_CLASSES},
        "paracontact": {
            "holds": verdict.paracontact.is_paracontact,
            "shortcut": verdict.paracontact.shortcut,
            "routes_agree": not verdict.paracontact.check.fails,
        },
        "normality": {
            "holds": verdict.normality.is_normal,
            "routes_agree": not verdict.normality.check.fails,
        },
        "theta_star_constant": verdict.theta_star_constant,
        "alpha": None if verdict.alpha is None else {
            "constant": verdict.theta_star_constant,
            "value": verdict.alpha.value,
            "sample_range": list(verdict.alpha.sample_range),
        },
    }

    # curvature
    scal_field = scalar_curvature_field(S.manifold)
    scal_constant = scalar_curvature_constant(S.manifold).holds
    scal_values, _ = evaluate_with_scale(scal_field, pts)
    scal = {
        "expression": to_source(scal_field),
        "constant": scal_constant,
        "value": float(scal_values[0]) if scal_constant else None,
        "sample_range": [float(scal_values.min()), float(scal_values.max())],
    }

    flat = flatness(S.manifold)
    segre = segre_type(S.manifold, pts)
    equiv = curvature_equivalences(S)
    ee = eta_einstein_check(S)
    direction, K, degenerate = _pick_direction(S, pts)

    curvature = {
        "scal": scal,
        "flat": flat.flat,
        "flatness_conditions": {
            k: v.residual for k, v in flat.conditions.items()
        },
        "flatness_note": flat.note,
        "segre": {
            "kind": segre.kind,
            "eigenvalues": None if segre.eigenvalues is None
            else list(segre.eigenvalues),
            "at": list(rep_point),
        },
        "eta_einstein": {
            "holds": ee.is_eta_einstein,
            "a": ee.a,
            "b": ee.b,
            "detail": ee.check.detail,
            "routes_agree": not ee.check.fails,
        },
        "equivalences": {
            "flags": dict(equiv.flags),
            "all_agree": not equiv.check.fails,
            "mixed": equiv.mixed,
        },
        "sectional": {
            "at": list(rep_point),
            "direction": direction,
            "K_xi": None if degenerate[0] else float(K[0]),
            "K_phi": None if degenerate[1] else float(K[1]),
            "xi_plane_degenerate": bool(degenerate[0]),
            "phi_plane_degenerate": bool(degenerate[1]),
        },
    }

    # route agreement over every sample point, as one batch; the witness
    # is the first point to attain each maximum
    discrepancies = {
        "structure_tensor_routes": f_tensor_at(S, pts).route_discrepancy,
        "trace_form_routes": theta_forms(S, pts).route_discrepancy,
        "exterior_derivative_routes":
            exterior_data_at(S, pts).route_discrepancy,
    }
    pr = project_components(S, pts)
    discrepancies["component_split_residual"] = max_abs(pr.residual, 3)
    sweep = [Check.of(name, None, bound(values, tol, pts))
             for name, values in discrepancies.items()]
    worst = {c.name: c.routes[0].residual for c in sweep}

    # every check of the run, in stage order
    failures = decide((
        *(Check.of(f"axiom:{name}", None, r) for name, r in axioms.items()),
        Check.of("unit_constraint", None, unit), strict_routes,
        *verdict.checks, ee.check, equiv.check, equiv.flatness,
        equiv.scalar_curvature, *sweep,
    ), pts)
    routes_agree = not any(c.fails for c in verdict.checks)

    route_agreement = {
        "structure_tensor_max_discrepancy": worst["structure_tensor_routes"],
        "trace_form_max_discrepancy": worst["trace_form_routes"],
        "exterior_max_discrepancy": worst["exterior_derivative_routes"],
        "component_split_max_residual": worst["component_split_residual"],
        "component_model_max_defect": max(0.0, float(pr.model_defect.max())),
        "classification_routes_agree": routes_agree,
        "disagreements": [  # the failing rows of named classes
            {"check": c.name.removeprefix("classification:"),
             "primary": c.routes[0].holds, "cross": c.routes[1].holds,
             "detail": c.detail} for c in verdict.checks
            if c.fails and c.name.startswith("classification:")],
        "agree": routes_agree and not failures,
    }

    return ClassificationReport(
        name=name,
        sampling=S.domain.sampling._asdict(),
        structure_validity=structure_validity,
        basic_classes=basic_classes,
        named_classes=named_section,
        curvature=curvature,
        route_agreement=route_agreement,
        failures=tuple(failures),
    )
