import gc
import math
import random
import re
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcone import fixtures, linalg, rational
from hkcone import lattice as lattice_module
from hkcone import mbm as mbm_module
from hkcone.errors import PreconditionError
from hkcone.lattice import IntegralLattice, make_lattice, mod_four_class
from hkcone.mbm import classify, table_from_dict


def jacobi_signature(gram):
    """Sign-change count of leading principal minors; needs them nonzero."""
    n = len(gram)
    minors = [Fraction(1)]
    for k in range(1, n + 1):
        sub = [row[:k] for row in gram[:k]]
        d = linalg.determinant(sub)
        assert d != 0
        minors.append(d)
    changes = sum(1 for a, b in zip(minors, minors[1:]) if (a > 0) != (b > 0))
    return n - changes, changes, 0


def discriminant_image(lat, x):
    """Residue tuple of x/d(x) in the discriminant group, up to global
    sign: the ``residues`` of the primitive class x, read as ``classify``
    reads it for a pinned row."""
    v = lat.primitive_class(x)
    row = lat.pairing_row(v)
    return lat.residues(row, lat.class_divisibility(v))


def discriminant_image_two_pass(lat, x):
    """Residues of x/d(x) under the full U of the Smith form, trivial
    factors dropped, folded by a second pass over the negated dual vector:
    the oracle for the one-pass discriminant_image."""
    u, d, _v = linalg.smith_normal_form(lat.gram)
    factors = [d[i][i] for i in range(lat.rank)]

    def residues(dual):
        w = linalg.mat_vec(u, dual)
        return tuple(int(wi) % f for wi, f in zip(w, factors) if f > 1)

    div = lat.divisibility(x)
    dual = []
    for p in lat.pairing_row(x):
        if p % div:
            raise PreconditionError("divisibility does not divide the pairing row")
        dual.append(p // div)
    return min(residues(dual), residues([-w for w in dual]))


class TestPairing:
    def test_zeta_square(self, quartic, named):
        assert quartic.pairing(named["zeta"], named["zeta"]) == -36

    def test_zero_vector(self, quartic):
        assert quartic.pairing((0, 0, 0), (1, 2, 3)) == 0

    def test_isotropic_cusp(self, quartic):
        x = (1, 1, -1)
        assert quartic.pairing(x, x) == 0

    def test_dimension_mismatch(self, quartic):
        with pytest.raises(PreconditionError):
            quartic.pairing((1, 0), (1, 0, 0))

    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=3),
           st.lists(st.integers(-50, 50), min_size=3, max_size=3),
           st.lists(st.integers(-50, 50), min_size=3, max_size=3),
           st.fractions(min_value=-5, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_bilinear(self, x, y, z, c):
        lattice = make_lattice([[-2, 3, 0], [3, 0, 0], [0, 0, -4]])
        assert lattice.pairing(x, y) == lattice.pairing(y, x)
        xz = [a + c * b for a, b in zip(x, z)]
        assert lattice.pairing(xz, y) == lattice.pairing(x, y) + c * lattice.pairing(z, y)


class TestDivisibility:
    def test_paper_values(self, quartic, named):
        expected = {"delta": 4, "alpha": 1, "eps": 2, "beta": 4,
                    "eta": 4, "zeta": 4, "gamma": 2}
        for name, d in expected.items():
            assert quartic.divisibility(named[name]) == d

    def test_without_ambient_ideals_eta_differs(self, named):
        plain = make_lattice([[-2, 3, 0], [3, 0, 0], [0, 0, -4]])
        assert plain.divisibility(named["eta"]) == 12
        assert plain.divisibility(named["beta"]) == 4

    def test_zero_vector(self, quartic):
        with pytest.raises(PreconditionError):
            quartic.divisibility((0, 0, 0))

    def test_integer_valued_fractions(self, quartic, named):
        plain = make_lattice([[-2, 3, 0], [3, 0, 0], [0, 0, -4]])
        for lat in (quartic, plain):
            for x in named.values():
                assert lat.divisibility(tuple(Fraction(c) for c in x)) == lat.divisibility(x)

    def test_non_integral_class_rejected(self, quartic):
        # the half is not truncated away: (1/2, 0, 0) is not a class
        lat = make_lattice([[2, 1, 0], [1, -2, 0], [0, 0, -2]])
        with pytest.raises(PreconditionError, match="not an integer"):
            lat.divisibility((Fraction(1, 2), 0, 0))
        with pytest.raises(PreconditionError, match="not an integer"):
            quartic.divisibility((Fraction(3, 2), 1, 0))

    def test_divides_every_pairing(self, quartic):
        rng = random.Random(2)
        for _ in range(300):
            x = tuple(rng.randint(-9, 9) for _ in range(3))
            if not any(x):
                continue
            d = quartic.divisibility(x)
            y = tuple(rng.randint(-9, 9) for _ in range(3))
            assert quartic.pairing(x, y) % d == 0


class TestPrimitive:
    """primitive_class keeps a primitive class as ints and rejects the rest."""

    def test_examples(self, quartic):
        assert quartic.primitive_class((4, 4, -5)) == (4, 4, -5)
        with pytest.raises(PreconditionError, match="^class must be primitive$"):
            quartic.primitive_class((4, 4, -8))
        assert quartic.primitive_class((0, 0, 1)) == (0, 0, 1)

    def test_zero_vector(self, quartic):
        with pytest.raises(PreconditionError, match="^zero vector$"):
            quartic.primitive_class((0, 0, 0))

    def test_integral_rationals(self, quartic):
        v = quartic.primitive_class((Fraction(4), 0, -1))
        assert v == (4, 0, -1) and all(type(c) is int for c in v)
        with pytest.raises(PreconditionError, match="^class must be primitive$"):
            quartic.primitive_class((Fraction(4), 0, Fraction(-2)))
        with pytest.raises(PreconditionError, match="not an integer"):
            quartic.primitive_class((Fraction(1, 2), 0, 1))


class TestDiscriminantGroup:
    def test_rank_one(self):
        assert make_lattice([[-4]]).discriminant_group().invariant_factors == (4,)

    def test_rank_two(self):
        assert make_lattice([[-2, 3], [3, 0]]).discriminant_group().invariant_factors == (9,)

    def test_unimodular(self):
        assert make_lattice([[0, 1], [1, 0]]).discriminant_group().invariant_factors == ()

    def test_degenerate(self):
        with pytest.raises(PreconditionError):
            make_lattice([[1, 1], [1, 1]]).discriminant_group()

    @pytest.mark.parametrize("gram", [
        [[0]],
        [[1, 1], [1, 1]],
        [[2, 1, 3], [1, 0, 1], [3, 1, 4]],  # row 3 = row 1 + row 2
        [[0, 0, 0], [0, 2, 1], [0, 1, -2]],
    ])
    def test_singular_gram_is_a_degenerate_lattice(self, gram):
        with pytest.raises(PreconditionError, match="degenerate lattice"):
            make_lattice(gram).discriminant_group()

    def test_chain_and_order(self):
        rng = random.Random(9)
        found = 0
        while found < 60:
            n = rng.randint(1, 4)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-6, 6)
            det = linalg.determinant(gram)
            if det == 0:
                continue
            found += 1
            disc = make_lattice(gram).discriminant_group()
            fs = disc.invariant_factors
            assert math.prod(fs) == abs(det)
            for a, b in zip(fs, fs[1:]):
                assert b % a == 0


class TestDiscriminantImage:
    def test_rank_one_delta(self):
        assert discriminant_image(make_lattice([[-4]]), (1,)) == (1,)

    def test_alpha_integral(self, quartic, named):
        assert discriminant_image(quartic, named["alpha"]) == (0,)

    def test_gamma(self, quartic, named):
        # image of gamma/2 has order 2 in Z/36; its mod-4 reduction is the
        # red color class of the figure
        assert discriminant_image(quartic, named["gamma"]) == (18,)
        assert mod_four_class(quartic, named["gamma"]) == 2

    def test_colors(self, quartic, named):
        colors = {name: mod_four_class(quartic, named[name])
                  for name in ["alpha", "delta", "beta", "eta", "zeta", "eps", "gamma"]}
        assert colors == {"alpha": 0, "delta": 1, "beta": 1, "eta": 1,
                          "zeta": 1, "eps": 2, "gamma": 2}

    def test_mod_four_needs_factor_divisible_by_four(self):
        lat = make_lattice([[2, 0, 0], [0, -3, 0], [0, 0, -5]])
        assert lat.discriminant_group().invariant_factors == (30,)
        with pytest.raises(PreconditionError, match="invariant factor.*30"):
            mod_four_class(lat, (1, 0, 0))

    def test_sign_normalization(self, quartic):
        rng = random.Random(4)
        for _ in range(200):
            x = tuple(rng.randint(-7, 7) for _ in range(3))
            if math.gcd(*x) != 1:
                continue
            neg = tuple(-c for c in x)
            assert discriminant_image(quartic, x) == discriminant_image(quartic, neg)

    def test_rejects_imprimitive(self, quartic):
        with pytest.raises(PreconditionError):
            discriminant_image(quartic, (2, 2, 0))

    def test_integral_rational_class(self, quartic):
        x = (Fraction(4), 0, -1)
        assert discriminant_image(quartic, x) == discriminant_image(quartic, (4, 0, -1)) == (9,)
        assert mod_four_class(quartic, x) == mod_four_class(quartic, (4, 0, -1)) == 1

    def test_only_the_nontrivial_part_is_kept(self):
        disc = make_lattice([[2, 0, 0], [0, -6, 0], [0, 0, -12]]).discriminant_group()
        assert disc.invariant_factors == (2, 6, 12)
        assert len(disc.transform) == 3
        disc = make_lattice([[-2, 3, 0], [3, 0, 0], [0, 0, -4]]).discriminant_group()
        assert disc.invariant_factors == (36,) and len(disc.transform) == 1
        assert make_lattice([[0, 1], [1, 0]]).discriminant_group().transform == ()

    def test_equals_two_pass_oracle(self):
        rng = random.Random(17)
        draws = raised = nontrivial = 0
        while draws < 2000:
            n = rng.randint(1, 5)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-6, 6) if rng.random() < 0.7 else 0
            if linalg.determinant(gram) == 0:
                continue
            ideals = [rng.choice((1, 2, 4)) for _ in range(n)] if rng.random() < 0.2 else None
            lat = make_lattice(gram, ambient_ideals=ideals)
            for _ in range(20):
                x = tuple(rng.randint(-9, 9) for _ in range(n))
                if math.gcd(*x) != 1:
                    continue
                draws += 1
                try:
                    want = discriminant_image_two_pass(lat, x)
                except PreconditionError:
                    raised += 1
                    with pytest.raises(PreconditionError, match="does not divide"):
                        discriminant_image(lat, x)
                    continue
                assert discriminant_image(lat, x) == want, (gram, ideals, x)
                nontrivial += any(want)
        assert raised > 10 and nontrivial > 300


class TestSignature:
    def test_quartic(self, quartic):
        assert quartic.signature() == (1, 2, 0)
        assert jacobi_signature(quartic.gram) == (1, 2, 0)

    def test_rank_one(self):
        assert make_lattice([[-4]]).signature() == (0, 1, 0)

    def test_hyperbolic_plane(self):
        assert make_lattice([[0, 1], [1, 0]]).signature() == (1, 1, 0)

    def test_degenerate_counted(self):
        assert make_lattice([[1, 1], [1, 1]]).signature() == (1, 0, 1)

    def test_sylvester_invariance(self):
        rng = random.Random(13)
        base = make_lattice([[-2, 3, 0], [3, 0, 0], [0, 0, -4]])
        sig = base.signature()
        for _ in range(60):
            u = [[int(i == j) for j in range(3)] for i in range(3)]
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                f = rng.randint(-3, 3)
                for k in range(3):
                    u[i][k] += f * u[j][k]
            g2 = linalg.mat_mul(linalg.mat_mul(u, base.gram), linalg.transpose(u))
            assert make_lattice(g2).signature() == sig

    def test_against_jacobi_on_random(self):
        rng = random.Random(21)
        found = 0
        while found < 40:
            n = rng.randint(1, 4)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-5, 5)
            try:
                expected = jacobi_signature(gram)
            except AssertionError:
                continue
            found += 1
            assert make_lattice(gram).signature() == expected


class TestDiagonalize:
    def test_rank_one(self):
        t, diag = make_lattice([[-4]]).diagonalize()
        assert t == ((Fraction(1),),) and diag == (Fraction(-4),)

    def test_positive_definite(self):
        _t, diag = make_lattice([[2, 1], [1, 2]]).diagonalize()
        assert all(d > 0 for d in diag)

    def test_lorentzian_ordering(self, quartic):
        t, diag = quartic.diagonalize()
        assert diag[0] > 0 and diag[1] < 0 and diag[2] < 0
        lhs = linalg.mat_mul(linalg.mat_mul(linalg.transpose(t), quartic.gram), t)
        assert lhs == tuple(tuple(diag[i] if i == j else 0 for j in range(3)) for i in range(3))

    def test_inertia_matches_signature(self):
        rng = random.Random(31)
        found = 0
        while found < 40:
            n = rng.randint(1, 4)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-5, 5)
            lat = make_lattice(gram)
            if linalg.determinant(gram) == 0:
                continue
            found += 1
            _t, diag = lat.diagonalize()
            plus = sum(1 for d in diag if d > 0)
            minus = sum(1 for d in diag if d < 0)
            assert (plus, minus, 0) == lat.signature()

    def test_degenerate_rejected(self):
        with pytest.raises(PreconditionError):
            make_lattice([[1, 1], [1, 1]]).diagonalize()


class TestConstruction:
    def test_asymmetric_rejected(self):
        with pytest.raises(PreconditionError):
            make_lattice([[0, 1], [2, 0]])

    def test_bool_entries_rejected(self):
        with pytest.raises(PreconditionError):
            make_lattice([[True, 0], [0, -1]])
        with pytest.raises(PreconditionError):
            make_lattice([[2, 0], [0, -1]], ambient_ideals=[True, 1])

    def test_fujiki_constant_is_inert_metadata(self):
        lat = make_lattice([[-4]], fujiki_constant="15/2")
        assert lat.fujiki_constant == Fraction(15, 2)
        assert lat.divisibility((1,)) == 4

    @pytest.mark.parametrize("names", ["abc", [1, 2, 3], ("a", "b", None)])
    def test_basis_names_must_be_strings(self, names):
        # a bare string is not split into letters, and entries are not str()-ed
        with pytest.raises(PreconditionError, match="basis_names"):
            make_lattice([[2, 0, 0], [0, -1, 0], [0, 0, -1]], basis_names=names)
        with pytest.raises(PreconditionError, match="basis_names"):
            IntegralLattice(gram=((2, 0, 0), (0, -1, 0), (0, 0, -1)), basis_names=names)

    def test_basis_names_default_and_given(self):
        gram = [[2, 0, 0], [0, -1, 0], [0, 0, -1]]
        assert make_lattice(gram).basis_names == ("e1", "e2", "e3")
        assert make_lattice(gram, basis_names=["C", "F", "delta"]).basis_names == \
            ("C", "F", "delta")

    def test_basis_names_must_be_unique(self):
        # a repeated name would make a named class ambiguous
        with pytest.raises(PreconditionError, match="^basis_names must be unique; 'C' repeats$"):
            make_lattice([[2, 0, 0], [0, -1, 0], [0, 0, -1]], basis_names=["C", "C", "delta"])

    def test_direct_build_keeps_lists_as_tuples(self):
        # a symmetric Gram matrix given as lists is symmetric, and the lattice hashes
        lat = IntegralLattice(gram=[[2, 1], [1, -2]], basis_names=("a", "b"))
        assert lat.gram == ((2, 1), (1, -2))
        assert lat == IntegralLattice(gram=((2, 1), (1, -2)), basis_names=("a", "b"))
        named = IntegralLattice(gram=((2, 1), (1, -2)), basis_names=["a", "b"], ambient_ideals=[1, 3])
        assert (named.basis_names, named.ambient_ideals) == (("a", "b"), (1, 3))
        assert hash(named) == hash((((2, 1), (1, -2)), ("a", "b"), (1, 3), None))

    @pytest.mark.parametrize("gram", [None, 5, [1, 2]])
    def test_gram_that_is_not_a_matrix_rejected(self, gram):
        with pytest.raises(PreconditionError, match="^gram must be a square integer matrix$"):
            IntegralLattice(gram=gram, basis_names=("a",))

    def test_direct_build_rejects_basis_names_that_are_not_a_sequence(self):
        with pytest.raises(PreconditionError, match="^basis_names must be a sequence of strings, got 5$"):
            IntegralLattice(gram=((2,),), basis_names=5)

    def test_direct_build_rejects_ambient_ideals_that_are_not_a_sequence(self):
        with pytest.raises(PreconditionError,
                           match="^ambient_ideals must be positive integers, one per basis vector$"):
            IntegralLattice(gram=((2,),), basis_names=("a",), ambient_ideals=5)

    def test_direct_build_parses_the_fujiki_constant(self):
        # the one rule for exact inputs, rational.parse_frac, as make_lattice reads it
        lat = IntegralLattice(gram=((2,),), basis_names=("a",), fujiki_constant="15/2")
        assert lat.fujiki_constant == Fraction(15, 2)
        assert lat == make_lattice([[2]], basis_names=("a",), fujiki_constant="15/2")
        for value, shown in (("x", "'x'"), (1.5, "1.5")):
            with pytest.raises(PreconditionError, match=f"^fujiki_constant: not a rational: {shown}$"):
                IntegralLattice(gram=((2,),), basis_names=("a",), fujiki_constant=value)


class TestCaches:
    GRAM = [[-2, 3, 0], [3, 0, 0], [0, 0, -4]]

    def test_dropped_lattice_is_freed(self):
        lat = make_lattice(self.GRAM)
        assert lat.discriminant_group().invariant_factors == (36,)
        assert lat.signature() == (1, 2, 0)
        lat.diagonalize()
        ref = weakref.ref(lat)
        del lat
        gc.collect()
        assert ref() is None

    def test_caches_leave_equality_and_hash_alone(self):
        lat, twin = make_lattice(self.GRAM), make_lattice(self.GRAM)
        before = hash(lat)
        disc = lat.discriminant_group()
        lat.signature()
        assert lat == twin and hash(lat) == hash(twin) == before
        assert repr(lat) == repr(twin) and vars(lat) == vars(twin)
        assert twin.discriminant_group() == disc


class TestClassIntake:
    """classify, discriminant_image and mod_four_class read a class through
    one intake: its entries as document integers, then its length, then
    zero, then primitivity."""

    SITES = {
        "classify": lambda lat, x: classify(lat, fixtures.orbit_table(), x),
        "discriminant_image": discriminant_image,
        "mod_four_class": mod_four_class,
    }
    CASES = [
        ((4, 0), "dimension mismatch: expected 3 coordinates, got 2"),
        ((4, 0, -1, 0), "dimension mismatch: expected 3 coordinates, got 4"),
        ((0, 0, 0), "zero vector"),
        ((4, 4, -8), "class must be primitive"),
        ((0.5, 4, -1), "not a rational: 0.5"),
        ((4, True, -1), "not a rational: True"),
        ((4, 4, "1/2"), "not an integer: '1/2'"),
        ((0.5, 0), "not a rational: 0.5"),
        ((0, 0), "dimension mismatch: expected 3 coordinates, got 2"),
        ((2, 0, 2, 0), "dimension mismatch: expected 3 coordinates, got 4"),
        ((0, 0, "1/2"), "not an integer: '1/2'"),
    ]

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("x, message", CASES)
    def test_error_order(self, quartic, site, x, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            self.SITES[site](quartic, x)

    @pytest.mark.parametrize("site", [*SITES, "classify, pinned row"])
    def test_one_read_per_class(self, quartic, site, monkeypatch):
        """A valid class is read once: at most one parse_ints and one
        parse_exact, with the pairing row and divisibility reused."""
        pinned = table_from_dict({"orbits": [{"name": "p", "square": -36, "divisibility": 4,
                                              "codimension": 2, "disc_residue": [9]}]})
        sites = {**self.SITES, "classify, pinned row": lambda lat, x: classify(lat, pinned, x)}
        quartic.discriminant_group()  # the group's own reading is not the class's
        calls = Counter()
        for name in ("parse_ints", "parse_exact"):
            original = getattr(rational, name)

            def counted(values, name=name, original=original):
                calls[name] += 1
                return original(values)

            for module in (rational, lattice_module, linalg, mbm_module):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        result = sites[site](quartic, (0, 4, -3))
        assert calls["parse_ints"] <= 1 and calls["parse_exact"] <= 1, calls
        if site == "classify, pinned row":
            assert result is pinned.orbits[0]  # the residue was read

    @pytest.mark.parametrize("x", [x for x, _message in CASES] + [(4, 4, -1)])
    def test_mod_four_class_checks_the_factor_first(self, x):
        lat = make_lattice([[2, 1, 0], [1, -2, 0], [0, 0, -6]])
        assert lat.discriminant_group().invariant_factors == (30,)
        with pytest.raises(PreconditionError, match="^residue mod 4 needs the last invariant "
                                                    "factor divisible by 4; got 30$"):
            mod_four_class(lat, x)


class TestClassLength:
    """The length of a class is checked before anything else about it."""

    @pytest.mark.parametrize("x", [(4, 0), (4, 0, -1, 0), (0, 0)])
    def test_discriminant_image_says_dimension_mismatch(self, quartic, x):
        with pytest.raises(PreconditionError, match="dimension mismatch: expected 3"):
            discriminant_image(quartic, x)

    def test_divisibility_says_dimension_mismatch(self, quartic):
        with pytest.raises(PreconditionError, match="expected 3 coordinates, got 2"):
            quartic.divisibility((4, 0))

    def test_check_length(self, quartic):
        assert quartic.check_length((Fraction(1, 2), 0, -1)) == (Fraction(1, 2), 0, -1)
        with pytest.raises(PreconditionError, match="expected 3 coordinates, got 4"):
            quartic.check_length((1, 0, 0, 0))


def residues_before(lat, row, d):
    """``residues`` as it was before its intake: the oracle for valid rows."""
    if any(p % d for p in row):
        raise PreconditionError("divisibility does not divide the pairing row")
    disc = lat.discriminant_group()
    plus = tuple(sum(u * p for u, p in zip(t, row)) // d % f
                 for t, f in zip(disc.transform, disc.invariant_factors))
    return lattice_module.fold_residue(plus, disc.invariant_factors)


class TestResiduesIntake:
    """``residues`` reads its row as ints of the lattice's length and its d
    as a positive int, and rejects anything else as a precondition."""

    @pytest.mark.parametrize("row, d, message", [
        ((4, 8), 4, "dimension mismatch: expected 3 coordinates, got 2"),
        ((4, 8, 0, 4), 4, "dimension mismatch: expected 3 coordinates, got 4"),
        ((4.0, 8, 0), 4, "the pairing row must hold integers, got (4.0, 8, 0)"),
        ((4, True, 0), 4, "the pairing row must hold integers, got (4, True, 0)"),
        ((Fraction(4), 8, 0), 4,
         "the pairing row must hold integers, got (Fraction(4, 1), 8, 0)"),
        ((4, "8", 0), 4, "the pairing row must hold integers, got (4, '8', 0)"),
        ((4, 8, 0), 4.0, "d must be a positive integer, got 4.0"),
        ((4, 8, 0), True, "d must be a positive integer, got True"),
        ((0, 0, 4), 0, "d must be a positive integer, got 0"),
        ((0, 0, 4), -4, "d must be a positive integer, got -4"),
        ((4, 8, 2), 4, "divisibility does not divide the pairing row"),
    ])
    def test_malformed_input_is_a_precondition(self, quartic, row, d, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            quartic.residues(row, d)

    def test_valid_rows_give_the_same_residues(self, quartic):
        assert quartic.residues((4, 8, 0), 4) == quartic.residues([4, 8, 0], 4) == (8,)
        rng = random.Random(31)
        compared = 0
        for lat in (quartic, make_lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]]),
                    make_lattice([[2, 1, 0], [1, -2, 0], [0, 0, -6]])):
            for _ in range(100):
                v = tuple(rng.randint(-9, 9) for _ in range(3))
                if not any(v):
                    continue
                row, d = lat.pairing_row(v), lat.class_divisibility(v)
                want = residues_before(lat, row, d)
                assert lat.residues(row, d) == lat.residues(list(row), d) == want
                compared += 1
        assert compared > 250

    def test_residues_are_folded_on_random_lattices(self):
        """``residues`` has one form, the folded one: on seeded random
        lattices it is a fixed point of ``fold_residue``, also where the
        residue and its negative differ."""
        rng = random.Random(33)
        signed = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = rng.randint(-6, 6)
            if linalg.determinant(gram) == 0:
                continue
            lat = make_lattice(gram)
            factors = lat.discriminant_group().invariant_factors
            for _ in range(10):
                v = tuple(rng.randint(-9, 9) for _ in range(n))
                if not any(v):
                    continue
                r = lat.residues(lat.pairing_row(v), lat.class_divisibility(v))
                assert lattice_module.fold_residue(r, factors) == r, (gram, v)
                signed += r != tuple(-c % f for c, f in zip(r, factors))
        assert signed > 50, signed
