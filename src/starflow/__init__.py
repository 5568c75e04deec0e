"""Expanding curvature-ratio flows on starshaped hypersurfaces.

Simulates the flow with normal speed sigma_{k-1}/sigma_k of the principal
curvatures on radial graphs (plane curves and axisymmetric surfaces),
computes quermassintegrals and isoperimetric ratios, and verifies the
evolution identities, conservation laws and the quermassintegral
inequality chain at desk scale.
"""

from .symfunc import (
    cnk,
    elem_sym,
    elem_sym_all,
    elem_sym_gradient,
    in_gamma_k,
    maclaurin_power_bound,
    newton_maclaurin_check,
    polarized_sigma_square,
)
from .geometry import (
    PointwiseGeometry,
    RadialGraph,
    ShapeError,
    compute_geometry,
    ellipse,
    ellipsoid_of_revolution,
    iso_ratio,
    iso_ratio_ball,
    kconvex_report,
    make_shape,
    perturbed_sphere,
    quermass_minkowski,
    quermass_sigma,
    quermass_vector,
    refine,
    roundness,
    sphere,
)
from .flow import (
    ConeExitError,
    FlowConfig,
    FlowError,
    FlowState,
    TrajectoryRecord,
    rescale_state,
    run,
    speed_raw,
    step,
)
from .verify import (
    IdentityReport,
    LagrangianCurve,
    check_af_chain,
    check_first_variation,
    check_lemma_integral,
    check_monotone_series,
    check_prop1_axisym,
    check_prop1_pointwise,
    curve_from_radial,
    radial_from_curve,
)

__version__ = "0.1.0"
