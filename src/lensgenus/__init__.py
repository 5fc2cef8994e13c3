"""Exact-arithmetic rational-genus certificates for knots in lens spaces.

The package computes and certifies norm data for torsion homology classes
in lens spaces: torus-knot and cable-knot norms, stabilized-braid and
annulus-twist families of non-simple genus minimizers, the order-2
nonorientable-genus dictionary, and exact integer linear-algebra
oracles (Smith normal form, and its row half for kernels) that
cross-check every closed form.  All arithmetic is exact.
"""

from .cables import (
    CableParams,
    CableVerdict,
    IteratedCableParams,
    IteratedVerdict,
    SurfaceCheck,
    cable_side_summands,
    cable_verdict,
    explicit_surface_check,
    iterated_summands,
    iterated_verdict,
)
from .complement import (
    GenusReport,
    WindingData,
    boundary_kernel,
    presentation_matrix,
    torus_knot_theta,
)
from .errors import ConsistencyError
from .exactarith import (
    AbelianGroup,
    IntMatrix,
    SNFResult,
    cokernel_invariants,
    peripheral_kernel,
    smith_normal_form,
)
from .lens import (
    H1Class,
    LensSpace,
    SimpleKnot,
    TorusKnotDesc,
    simple_knot_class,
    simple_knot_in_class,
    torus_knot_class,
)
from .norm import (
    NormSummand,
    PeripheralClass,
    SeifertPiece,
    graph_norm,
    orbifold_euler_char,
    torus_pairing,
)
from .order2 import (
    Order2Class,
    UniquenessReport,
    nonorientable_genus,
    nonorientable_genus_to_theta,
    theta_to_nonorientable_genus,
    uniqueness_check,
)
from .stabilization import (
    BASE_SURFACES,
    BaseSurface,
    StabFamily,
    StabNorms,
    StabVerdict,
    TripleBoundaryClass,
    stab_coefficients,
    stab_norms,
    stab_verdict,
    surface_combination,
)
from .twistfamily import (
    UNFILLED,
    FillingSpec,
    FramedLink,
    LinkComponent,
    TwistParams,
    build_twist_diagram,
    export_filling_specs,
    filling_spec_export,
    h1_of_complement,
    h1_of_filling,
    twist_framings,
    unfilled_class,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BASE_SURFACES",
    "BaseSurface",
    "CableParams",
    "CableVerdict",
    "ConsistencyError",
    "FillingSpec",
    "FramedLink",
    "GenusReport",
    "H1Class",
    "IntMatrix",
    "IteratedCableParams",
    "IteratedVerdict",
    "LensSpace",
    "LinkComponent",
    "NormSummand",
    "Order2Class",
    "PeripheralClass",
    "SNFResult",
    "SeifertPiece",
    "SimpleKnot",
    "StabFamily",
    "StabNorms",
    "StabVerdict",
    "SurfaceCheck",
    "TorusKnotDesc",
    "TripleBoundaryClass",
    "TwistParams",
    "UNFILLED",
    "UniquenessReport",
    "WindingData",
    "boundary_kernel",
    "build_twist_diagram",
    "cable_side_summands",
    "cable_verdict",
    "cokernel_invariants",
    "explicit_surface_check",
    "export_filling_specs",
    "filling_spec_export",
    "graph_norm",
    "h1_of_complement",
    "h1_of_filling",
    "iterated_summands",
    "iterated_verdict",
    "nonorientable_genus",
    "nonorientable_genus_to_theta",
    "orbifold_euler_char",
    "peripheral_kernel",
    "presentation_matrix",
    "simple_knot_class",
    "simple_knot_in_class",
    "smith_normal_form",
    "stab_coefficients",
    "stab_norms",
    "stab_verdict",
    "surface_combination",
    "theta_to_nonorientable_genus",
    "torus_knot_class",
    "torus_knot_theta",
    "torus_pairing",
    "twist_framings",
    "unfilled_class",
    "uniqueness_check",
]
