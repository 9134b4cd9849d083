"""Exact wall-and-chamber computations on hyperkahler Picard lattices.

The package computes, in exact arithmetic: lattice invariants (pairing,
divisibility, discriminant group), recognition of wall classes by orbit
signature, enumeration of walls meeting a region of the positive cone,
factorization of segments into wall-crossing flops with grouping, the
Mukai-flop local model, symplectic restriction ranks, translation
orbits on elliptic fibers, and a Klein-disk SVG rendering of the wall
arrangement.
"""

from .errors import PreconditionError
from .lattice import (DiscriminantGroup, IntegralLattice, is_primitive,
                      lattice_from_dict, load_lattice, make_lattice,
                      mod_four_class)
from .mbm import (OrbitSignature, SignatureTable, classify, dual_solve,
                  is_divisorial, load_table, primitive_rescale, table_from_dict)
from .cone import (FlopFactorization, WallCrossing,
                   component_sign, crossing_parameter, enumerate_wall_classes,
                   factor_path, factorization_report, group_hu_yau,
                   same_chamber, same_component)
from .mukai import (DualMukaiPoint, MukaiPoint, check_diagram, contract,
                    contract_dual, flop, flop_dual, make_point, mukai_point,
                    proportional)
from .symplectic import (SymplecticSpace, Subspace, is_coisotropic,
                         is_isotropic, mbm_rank_identity, pullback_rank,
                         restriction_rank, standard_space, subspace,
                         symplectic_space)
from .torus import (MarkedFiber, TorusPoint, covering_radius, exact_point,
                    generators, is_torsion, orbit, real_point, related,
                    sigma_image)
from .render import DiskScene, WallChord, build_scene, klein_coords, render_svg, wall_chord

__version__ = "0.1.0"
