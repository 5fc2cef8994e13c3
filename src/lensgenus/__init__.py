"""Exact-arithmetic rational-genus certificates for knots in lens spaces.

The package computes and certifies norm data for torsion homology classes
in lens spaces: torus-knot and cable-knot norms, stabilized-braid and
annulus-twist families of non-simple genus minimizers, the order-2
nonorientable-genus dictionary, and one exact integer reduction, a fold
of 2x2 gcd steps, that reads the twist family's homology and cuts the
relation lattice to check the boundary-kernel closed form.
All arithmetic is exact.

``import lensgenus`` loads none of the submodules.  Each public name below
is looked up in its defining module on first access (PEP 562), so
``from lensgenus import iterated_verdict`` loads ``cables`` and what it
imports, and nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Defining module of each public name.
_EXPORTS = {
    "cables": (
        "IteratedCableParams", "IteratedVerdict", "SurfaceCheck", "explicit_surface_check",
        "iterated_summands", "iterated_verdict",
    ),
    "complement": (
        "GenusReport", "WindingData", "boundary_kernel", "presentation_matrix",
        "torus_knot_theta",
    ),
    "errors": ("ConsistencyError",),
    "exactarith": (
        "AbelianGroup", "IntMatrix", "fold_columns", "peripheral_kernel",
    ),
    "lens": ("H1Class", "LensSpace", "simple_knot_class", "simple_knot_in_class"),
    "norm": ("PeripheralClass", "graph_norm", "orbifold_euler_parts"),
    "order2": (
        "UniquenessReport", "nonorientable_genus", "nonorientable_genus_to_theta",
        "theta_to_nonorientable_genus", "uniqueness_check",
    ),
    "stabilization": (
        "BASE_SURFACES", "BaseSurface", "StabFamily", "StabNorms", "StabVerdict",
        "TripleBoundaryClass", "stab_coefficients", "stab_norms", "stab_verdict",
        "surface_combination",
    ),
    "twistfamily": (
        "UNFILLED", "FramedLink", "LinkComponent", "TwistParams",
        "build_twist_diagram", "filling_spec_export", "twist_framings", "twist_homology",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
