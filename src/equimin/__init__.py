"""Equivariant minimal surfaces from Weierstrass data."""

from .symgroup import (
    FiniteGroupTable,
    InfiniteCyclicGroup,
    RigidMotion,
    SpaceAction,
    PlaneRotationCertificate,
    Infeasible,
    build_cyclic,
    build_von_dyck,
    orthogonal_action,
    regular_representation,
    rotation_about_axis,
    find_invariant_rotation_plane,
    null_line_from_plane,
)
from .nullgeom import (
    NullVector,
    QuadricFlowGenerator,
    quadratic_form,
    is_null,
    retract_to_null,
    apply_motion_differential,
    flow,
    standard_generators,
)
from .domain import (
    PlanarDomain,
    DomainAction,
    Segment,
    CircularArc,
    CompositePath,
    circle,
    FixedPointRecord,
    fixed_point_set,
    InvariantOneForm,
    invariant_one_form,
    PathSystem,
    build_path_system,
    build_rotation_domain,
    build_translation_domain,
)
from .wdata import (
    LaurentMap,
    WeierstrassData,
    LocalModel,
    local_model_at_fixed_point,
    equivariance_residual_f,
    nullity_residual,
    cancellation_check,
)
from .periods import (
    PeriodVector,
    PeriodTarget,
    QuadratureError,
    integrate_form,
    integrate_vector,
    compute_periods,
    orbit_loop_periods,
    translate_identity_residual,
    residue_at_puncture,
    period_residuals,
    flux_vector,
)
from .solver import (
    FeasibilityReport,
    SprayFamily,
    SprayError,
    NewtonConfig,
    NewtonError,
    NewtonResult,
    PeriodJacobian,
    feasibility_check,
    build_period_spray,
    validate_spray,
    period_jacobian,
    newton_correct,
    interpolate_values,
)
from .surface import (
    ImmersionField,
    SurfaceMesh,
    SurfaceError,
    PolarGrid,
    RectGrid,
    equivariance_residual_F,
    conformality_and_harmonicity,
    nondegeneracy_check,
    fixed_point_alignment,
    curvature,
    completeness_probe,
    null_curve,
    build_mesh,
    mesh_export,
)
from .gallery import GALLERY, GalleryEntry, catenoid, enneper, helicoid, flat_plane

__version__ = "0.1.0"
