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
    "lattice DiscriminantGroup IntegralLattice lattice_from_dict load_lattice make_lattice",
    "lattice mod_four_class",
    "mbm OrbitSignature SignatureTable classify dual_solve load_table primitive_rescale",
    "mbm table_from_dict",
    "cone FlopFactorization WallCrossing enumerate_wall_classes factor_path",
    "cone factorization_report group_hu_yau",
    "mukai DualMukaiPoint MukaiPoint check_diagram flop flop_dual make_point proportional",
    "symplectic SymplecticSpace Subspace is_coisotropic is_isotropic pullback_rank",
    "symplectic restriction_rank standard_space subspace symplectic_space",
    "torus MarkedFiber TorusPoint covering_radius exact_point generators orbit real_point",
    "torus related sigma_image",
    "render DiskScene WallChord build_scene klein_coords render_svg",
)) for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return [*globals(), *__all__]
