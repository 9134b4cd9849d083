"""Exact wall-and-chamber computations on hyperkahler Picard lattices.

The package computes, in exact arithmetic: lattice invariants (pairing,
divisibility, discriminant group), recognition of wall classes by orbit
signature, enumeration of walls meeting a region of the positive cone,
factorization of segments into wall-crossing flops with grouping, the
Mukai-flop local model, symplectic restriction ranks, translation
orbits on elliptic fibers, and a Klein-disk SVG rendering of the wall
arrangement.  `import hkcone` loads no submodule: each public name is
read from its home module on use (PEP 562) and never stored here.
"""

import importlib

# "home name name ...": the public names and the module that defines them
_HOME = {name: home for home, *names in map(str.split, (
    "errors PreconditionError",
    "lattice DiscriminantGroup IntegralLattice is_primitive lattice_from_dict load_lattice",
    "lattice make_lattice mod_four_class",
    "mbm OrbitSignature SignatureTable classify dual_solve is_divisorial load_table",
    "mbm primitive_rescale table_from_dict",
    "cone FlopFactorization WallCrossing component_sign crossing_parameter factor_path",
    "cone enumerate_wall_classes factorization_report group_hu_yau same_chamber same_component",
    "mukai DualMukaiPoint MukaiPoint check_diagram contract contract_dual flop flop_dual",
    "mukai make_point mukai_point proportional",
    "symplectic SymplecticSpace Subspace is_coisotropic is_isotropic mbm_rank_identity",
    "symplectic pullback_rank restriction_rank standard_space subspace symplectic_space",
    "torus MarkedFiber TorusPoint covering_radius exact_point generators is_torsion orbit",
    "torus real_point related sigma_image",
    "render DiskScene WallChord build_scene klein_coords render_svg wall_chord",
)) for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return [*globals(), *__all__]
