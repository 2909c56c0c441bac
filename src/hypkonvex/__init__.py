"""Hyperbolic geometry of plane symmetric convex bodies.

Support functions of symmetric bodies are vectors of a Lorentzian function
space; area-pi bodies form an infinite-dimensional hyperboloid on which
PSL2(R) acts by isometries, the area-pi ellipses are the orbit of the disc,
and segment directions make up the limit set at infinity.  The package
provides the sampled function type with exact shape tags, the area form and
hyperbolic distance, the group action with its elliptic-integral distance
kernels, the boundary visual metric with its dimension estimators, and a
verification harness binding the identities and inequalities into suites.
"""

from .shapes import Ellipse, Polygon, Segment, Sum, minkowski_combination, minkowski_sum, mixed_area
from .supportfn import (
    DEFAULT_GRID,
    EvenFn,
    GridMismatchError,
    NotSupportFunctionError,
    SpectralTailWarning,
    boundary_curve,
    chord_convexity_defect,
    combine,
    constant,
    eval_at,
    eval_deriv,
    fourier,
    from_ellipse,
    from_polygon,
    from_samples,
    from_segment,
    grid_angles,
    is_support_function,
    scaled,
    signed_diff,
    support_split,
    unit_disc,
)
from .lorentz import (
    HPoint,
    HyperbolicInvariantError,
    IsotropicVectorError,
    form_A,
    form_A_spectral,
    geodesic_point,
    h1_seminorms,
    hyper_dist,
    normalize,
    pi0,
    project_disc_to_segment_geodesic,
)
from .mobius import (
    BASEPOINT,
    HalfPlanePoint,
    Mobius,
    dist_h2,
    halfplane_apply,
    iota,
    iota_dist_closed,
    iota_dist_quadrature,
    mobius_from_halfplane,
    rho_act,
)
from .limits import (
    BoundaryDir,
    boundary_approach,
    class_angle,
    covering_number,
    empirical_dim_estimate,
    hausdorff_dim_estimate,
    visual_dist,
    visual_dist_generic,
    visual_dist_isotropic,
)
from .verify import (
    SUITES,
    KernelValues,
    SuiteReport,
    curvature_scale_estimate,
    ellipse_sum_test,
    jacobian_circle,
    kernels_compare,
    minkowski_extended_test,
    run_suite,
)
from .shapedoc import ShapeDocError, load_shapedoc, parse_shapedoc, to_even_fn

__version__ = "0.1.0"
