"""Almost paracontact metric structures on 3-dimensional Walker manifolds.

The metric is g = 2 dx dz + eps dy^2 + f(x,y,z) dz^2 in coordinates where
d_x spans a parallel null line field. Given f and a candidate Reeb field
xi, the package constructs the compatible structure (phi, xi, eta), its
connection and curvature, and decides which structure classes it realizes,
checking every quantity along two independent computation routes.
"""

from types import ModuleType as _ModuleType

from .classify import (
    AlphaReport, BasicClassification, ClassVerdict, NAMED_CLASSES,
    NormalityVerdict, ParacontactVerdict, classify_basic, is_normal,
    is_paracontact_metric, named_classes, paracontact_condition_fields,
    paracontact_family,
)
from .corpus import FIXTURES, Fixture, fixture_names, get_fixture, load_fixture
from .curvature import (
    EquivalenceReport, EtaEinsteinProfile, EtaEinsteinVerdict, SectionalReport,
    curvature_equivalences, eta_einstein_check, eta_einstein_report,
    ricci_residual_fields, sectional_curvatures,
)
from .errors import (
    ConsistencyError, DegenerateInputError, EmptyDomainError, EvaluationError,
    ExponentError, InputError, ManifestError, NonexistentStructureError,
    OutOfDomainError, ParseError, StructuralRejection, UnboundIdentifierError,
    UnitConstraintError, UnsupportedSignatureError, WalkergeoError,
)
from .expressions import Expr, diff, evaluate_with_scale, parse, to_source
from .ftensor import (
    ExteriorData, FTensorValue, ProjectionBundle, TraceForms,
    coefficient_fields, exterior_data_at, f_tensor_at, nijenhuis,
    project_components, theta_forms, theta_star_xi_field, theta_xi_field,
)
from .manifest import Manifest, load_manifest, parse_manifest
from .report import ClassificationReport, build_report
from .sampling import (
    Domain, Interval, Route, SamplingConfig, is_identically_zero, nonvanishing,
)
from .structure import (
    ApctStructure, build_structure, nabla_xi, unit_constraint_field,
    validate_axioms,
)
from .walker import (
    FlatnessVerdict, SegreVerdict, WalkerManifold, flatness, is_strict_walker,
    scalar_curvature_field, segre_type,
)

__version__ = "0.1.0"

# every public name imported above (the submodules are not)
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
