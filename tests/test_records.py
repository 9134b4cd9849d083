"""The frozen records built on errors.Record behave as frozen dataclasses did."""

from fractions import Fraction

import pytest

from hkcone.cone import FlopFactorization, WallCrossing
from hkcone.errors import PreconditionError
from hkcone.lattice import DiscriminantGroup, IntegralLattice
from hkcone.mbm import OrbitSignature, SignatureTable
from hkcone.mukai import DualMukaiPoint, MukaiPoint, make_point
from hkcone.render import DiskScene, WallChord
from hkcone.symplectic import Subspace, SymplecticSpace
from hkcone.torus import MarkedFiber, TorusPoint

F = Fraction
ORBIT = OrbitSignature(name="w", square=-2, divisibility=1, codimension=1, disc_residue=(1,))
CROSSING = WallCrossing(wall_class=(0, 1, 0), t=F(1, 2), signature=ORBIT)
CHORD = WallChord(endpoints=((1.0, 0.0), (0.0, 1.0)), residue=1, wall_class=(1, 0, 0))
POINT = TorusPoint(x=F(1, 3), y=F(1, 2))

# (class, its fields as keywords in declared order, the fields __post_init__ derives)
RECORDS = [
    (DiscriminantGroup, {"invariant_factors": (2, 6), "transform": ((1, 0, 0), (0, 1, 1))}, {}),
    (IntegralLattice, {"gram": ((2, 1), (1, -2)), "basis_names": ("a", "b"),
                       "ambient_ideals": (1, 2), "fujiki_constant": F(3, 2)}, {}),
    (OrbitSignature, {"name": "w", "square": -2, "divisibility": 1, "codimension": 1,
                      "disc_residue": (1,)}, {}),
    (SignatureTable, {"orbits": (ORBIT,)}, {}),
    (WallCrossing, {"wall_class": (0, 1, 0), "t": F(1, 2), "signature": ORBIT}, {}),
    (FlopFactorization, {"a": (F(1), F(0)), "b": (F(0), F(1)), "steps": (CROSSING,),
                         "groups": ((0,),), "status": "ok", "perturbed": False}, {}),
    (WallChord, {"endpoints": ((1.0, 0.0), (0.0, 1.0)), "residue": 1,
                 "wall_class": (1, 0, 0)}, {}),
    (DiskScene, {"walls": (CHORD,), "markers": (((0.0, 0.0), "base"),),
                 "cusps": ((1.0, 0.0),), "path": ((0.0, 0.0), (0.5, 0.0))}, {}),
    (MukaiPoint, {"u": (F(1), F(0)), "phi": (F(0), F(1))}, {}),
    (DualMukaiPoint, {"phi": (F(0), F(1)), "u": (F(1), F(0))}, {}),
    (SymplecticSpace, {"omega": ((0, 1), (-1, 0))}, {}),
    (Subspace, {"basis": ((1, 0),)}, {}),
    (TorusPoint, {"x": F(1, 3), "y": F(1, 2)}, {"exact": True}),
    (MarkedFiber, {"e0": POINT, "e1": TorusPoint(F(0), F(1, 2)), "e2": TorusPoint(F(0), F(0))},
     {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, derived", RECORDS, ids=IDS)
def test_keyword_and_positional_builds_agree(cls, fields, derived):
    by_name, by_position = cls(**fields), cls(*fields.values())
    assert by_name == by_position and by_name is not by_position
    compared = {**fields, **derived}
    assert {name: getattr(by_name, name) for name in compared} == compared
    assert hash(by_name) == hash(by_position) == hash(tuple(compared.values()))
    assert by_name != object() and by_name != tuple(compared.values())


@pytest.mark.parametrize("cls, fields, derived", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, derived):
    record = cls(**fields)
    for name in [*fields, *derived]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, derived", RECORDS, ids=IDS)
def test_unknown_missing_or_derived_field_is_a_type_error(cls, fields, derived):
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(**fields, nope=1)
    with pytest.raises(TypeError, match="positional argument"):
        cls(*fields.values(), None)
    for name in derived:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(**fields, **{name: derived[name]})
    first = next(iter(fields))
    if cls is DiskScene:  # every field has a default: the empty scene
        assert cls() == cls(walls=(), markers=(), cusps=(), path=None)
    else:
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
            cls(**{k: v for k, v in fields.items() if k != first})


@pytest.mark.parametrize("cls, fields, derived", RECORDS, ids=IDS)
def test_repr_names_each_compared_field(cls, fields, derived):
    compared = {**fields, **derived}
    shown = ", ".join(f"{name}={value!r}" for name, value in compared.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_torus_modes_never_compare_equal_and_sort_as_x_y_exact():
    exact, real = TorusPoint(F(1, 2), F(0)), TorusPoint(0.5, 0.0)
    assert exact != real and len({exact, real}) == 2
    points = [TorusPoint(F(1, 2), F(1, 3)), exact, TorusPoint(0.25, 0.75), real,
              TorusPoint(F(1, 4), F(0))]
    assert sorted(points) == sorted(points, key=lambda p: (p.x, p.y, p.exact))
    assert sorted(points)[:4] == [TorusPoint(F(1, 4), F(0)), TorusPoint(0.25, 0.75), real, exact]
    assert real < exact and real <= exact and exact > real and exact >= real
    assert exact <= TorusPoint(F(1, 2), F(0)) and not exact < TorusPoint(F(1, 2), F(0))
    with pytest.raises(TypeError):
        exact < (F(1, 2), F(0), True)  # noqa: B015


def test_mukai_forms_are_neither_compared_nor_shown():
    point = make_point((1, 0), (0, 1))
    other = MukaiPoint(point.u, point.phi)
    object.__setattr__(other, "forms", None)
    assert point == other and hash(point) == hash(other) == hash((point.u, point.phi))
    assert "forms" not in repr(point)
    dual = DualMukaiPoint(point.phi, point.u)
    assert dual.forms == point.forms[::-1] and "forms" not in repr(dual)


def test_cached_properties_are_computed_once_and_left_out_of_equality():
    table, twin = SignatureTable((ORBIT,)), SignatureTable((ORBIT,))
    assert table.squares is table.squares == (-2,) and vars(table)["squares"] == (-2,)
    point, fresh = make_point((1, 2), (2, -1)), make_point((1, 2), (2, -1))
    assert point.a is point.a and "a" in vars(point)
    assert table == twin and hash(table) == hash(twin) and repr(table) == repr(twin)
    assert point == fresh and hash(point) == hash(fresh) and repr(point) == repr(fresh)


def test_post_init_checks_run_for_both_builds():
    with pytest.raises(PreconditionError, match="coordinates must be reduced mod 1"):
        TorusPoint(F(1), F(0))
    with pytest.raises(PreconditionError, match="square must be negative"):
        OrbitSignature("w", 2, 1, 1)
    with pytest.raises(PreconditionError, match="marks must share a mode"):
        MarkedFiber(e0=POINT, e1=TorusPoint(0.0, 0.0), e2=POINT)
