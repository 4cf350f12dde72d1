"""Identity checks: the registry, exact rotation helpers, and edge cases."""

import inspect
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qalg.verifier
from qalg.errors import ModeMismatchError
from qalg.jw import jw_fermion_to_pauli
from qalg.parafermion import SecondQuantizedExpr
from qalg.pauli import (
    I_UNIT,
    ONE,
    RT2_HALF,
    OperatorSum,
    Scalar,
    matrix_exponential,
    realize,
)
from qalg.verifier import (
    CHECKS,
    TruncatedBosonSpace,
    check_bch_series,
    check_iontrap_xy,
    conjugate_eighth,
    exact_exp,
)


class TestRegistry:
    def test_every_registered_check_passes(self):
        results = [check() for check in CHECKS.values()]
        assert [r.name for r in results] == list(CHECKS)
        for r in results:
            assert r.passed, (r.name, r.residual, r.details)
            assert r.residual <= r.tolerance or r.metric == "exact"

    def test_checks_take_no_arguments(self):
        # each check is one fixed identity: what verify runs is what a
        # test runs
        for name, check in CHECKS.items():
            assert not inspect.signature(check).parameters, name

    def test_registry_size(self):
        assert len(CHECKS) == 13

    def test_exact_checks_report_zero(self):
        for name in ("axy-encoded", "axy-split", "boson-commutator", "car"):
            assert CHECKS[name]().residual == 0.0


class TestExactRotations:
    def test_exponential_matches_dense(self):
        z = OperatorSum.z(0, 1)
        for eighths in range(-4, 5):
            got = realize(exact_exp(z, eighths))
            want = scipy.linalg.expm(1j * eighths * np.pi / 4 * realize(z))
            assert np.allclose(got, want, atol=1e-15)

    def test_quarter_turn_takes_x_to_y(self):
        x, y, z = (OperatorSum.x(0, 1), OperatorSum.y(0, 1), OperatorSum.z(0, 1))
        assert conjugate_eighth(x, z, 1) == y

    def test_half_turn_flips(self):
        x, z = OperatorSum.x(0, 1), OperatorSum.z(0, 1)
        assert conjugate_eighth(x, z, 2) == x * -1

    def test_full_turn_is_identity_action(self):
        x, z = OperatorSum.x(0, 1), OperatorSum.z(0, 1)
        assert conjugate_eighth(x, z, 4) == x

    def test_cube_condition_enforced(self):
        from qalg.pauli import HALF
        # eigenvalues +-1/2 break gen**3 = gen, so the closed form is wrong
        with pytest.raises(ValueError):
            exact_exp(OperatorSum.z(0, 1) * HALF, 1)

    def test_two_mode_generator(self):
        # generators with eigenvalues in {-1, 0, 1} pass the cube test
        zz = OperatorSum.z(0, 2) * OperatorSum.z(1, 2)
        got = realize(exact_exp(zz, 2))
        want = scipy.linalg.expm(1j * np.pi / 2 * realize(zz))
        assert np.allclose(got, want, atol=1e-15)


class TestIndividualChecks:
    def test_bch_halving_ratio_scales_with_order(self):
        # order 4: the truncation error scales as alpha**5
        chk = check_bch_series()
        ratio = next(d for d in chk.details if "halving ratio" in d)
        assert abs(float(ratio.split()[2].rstrip(",")) - 32) < 7

    def test_iontrap_truncation_reported(self):
        chk = check_iontrap_xy()
        assert chk.passed
        assert any("truncation" in d for d in chk.details)


# -- the exponential as a chain of Scalar scalings and sums ----------------
# The closed form I + (cos phi - 1) G**2 + i sin phi G written with Scalars
# and OperatorSum arithmetic, as it stood before the integer build; the
# integer build must give the same values in the same term order.

_COS8 = (Scalar(1), Scalar(0, 0, Fraction(1, 2)), Scalar(0),
         Scalar(0, 0, Fraction(-1, 2)), Scalar(-1),
         Scalar(0, 0, Fraction(-1, 2)), Scalar(0),
         Scalar(0, 0, Fraction(1, 2)))
_SIN8 = (Scalar(0), Scalar(0, 0, Fraction(1, 2)), Scalar(1),
         Scalar(0, 0, Fraction(1, 2)), Scalar(0),
         Scalar(0, 0, Fraction(-1, 2)), Scalar(-1),
         Scalar(0, 0, Fraction(-1, 2)))


def scalar_exp(gen, eighths):
    sq = gen * gen
    if sq * gen != gen:
        raise ValueError("exact_exp needs gen**3 = gen")
    k = eighths % 8
    ident = OperatorSum.identity(gen.n_modes)
    return ident + sq * (_COS8[k] - ONE) + gen * (_SIN8[k] * I_UNIT)


def scalar_conjugate(op, gen, eighths):
    return scalar_exp(gen, -eighths) * op * scalar_exp(gen, eighths)


def same_sum(got, want):
    assert got == want
    assert list(got._terms) == list(want._terms)
    assert (repr([got.coefficient(*key) for key in got._terms])
            == repr([want.coefficient(*key) for key in want._terms]))


def generator(kind, n, rng):
    """A sum with gen**3 = gen: a hopping term (XX + YY)/2, one Pauli
    string, (X + Z) sqrt(2)/2 on one mode, the sign operator
    (I + Z_a + Z_b - Z_a Z_b)/2 in a shuffled term order (its identity
    term cancels at a quarter turn), or 0."""
    if kind == "hop" and n > 1:
        i, j = rng.sample(range(n), 2)
        both = 1 << i | 1 << j
        return OperatorSum(n, {(both, 0): Scalar(Fraction(1, 2)),
                               (both, both): Scalar(Fraction(1, 2))})
    if kind == "pauli":
        sign = rng.choice((1, -1))
        return OperatorSum(n, {(rng.randrange(1 << n),
                                rng.randrange(1 << n)): Scalar(sign)})
    if kind == "sqrt2":
        m = 1 << rng.randrange(n)
        return OperatorSum(n, {(m, 0): RT2_HALF, (0, m): RT2_HALF})
    if kind == "signs" and n > 1:
        a, b = (1 << m for m in rng.sample(range(n), 2))
        half = Fraction(1, 2)
        terms = [((0, 0), half), ((0, a), half), ((0, b), half),
                 ((0, a | b), -half)]
        rng.shuffle(terms)
        return OperatorSum(n, {key: Scalar(c) for key, c in terms})
    return OperatorSum.zero(n)


_PART = st.fractions(-3, 3, max_denominator=4)
_ROOT_PART = st.one_of(st.just(Fraction(0)), _PART)
_KINDS = ("hop", "pauli", "sqrt2", "signs", "zero")


@st.composite
def conjugations(draw):
    """(op, gen, eighths): an operator of 0-12 terms on 1-5 modes, some
    coefficients with sqrt(2) parts, and a generator of one of _KINDS."""
    n = draw(st.integers(1, 5))
    mask = st.integers(0, (1 << n) - 1)
    rooted = draw(st.booleans())
    coeff = st.builds(Scalar, re=_PART, im=_PART,
                      re2=_ROOT_PART if rooted else st.just(Fraction(0)),
                      im2=_ROOT_PART if rooted else st.just(Fraction(0)))
    op = OperatorSum(n, draw(st.dictionaries(st.tuples(mask, mask), coeff,
                                             max_size=12)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    gen = generator(draw(st.sampled_from(_KINDS)), n, rng)
    return op, gen, draw(st.integers(-9, 17))


def _one_mode(terms):
    return OperatorSum(1, {key: Scalar(c) for key, c in terms.items()})


class TestIntegerConjugation:
    """exact_exp and conjugate_eighth against the Scalar chain: same values,
    same term order."""

    @settings(max_examples=150, deadline=None)
    @given(conjugations())
    # U(-phi) op with op = Z - Y and U(-phi) = (I - iX)/sqrt(2): the Z term
    # cancels before the second product and must not hold a place there
    @example((_one_mode({(0, 1): 1, (1, 1): -1}), OperatorSum.x(0, 1), 1))
    def test_matches_the_scalar_chain(self, case):
        op, gen, eighths = case
        same_sum(exact_exp(gen, eighths), scalar_exp(gen, eighths))
        same_sum(conjugate_eighth(op, gen, eighths),
                 scalar_conjugate(op, gen, eighths))

    def test_a_cancelled_identity_returns_after_the_generator_keys(self):
        # G = (Z0 + I + Z1 - Z0 Z1)/2 has G**2 = I; at a quarter turn the
        # identity cancels against (cos - 1) G**2 and then comes back from
        # i sin G, after Z0
        half = Fraction(1, 2)
        gen = OperatorSum(2, {(0, 1): Scalar(half), (0, 0): Scalar(half),
                              (0, 2): Scalar(half), (0, 3): Scalar(-half)})
        got = exact_exp(gen, 2)
        same_sum(got, scalar_exp(gen, 2))
        assert list(got._terms) == [(0, 1), (0, 0), (0, 2), (0, 3)]

    def test_a_cancelled_middle_term_holds_no_place(self):
        op = _one_mode({(0, 1): 1, (1, 1): -1})
        got = conjugate_eighth(op, OperatorSum.x(0, 1), 1)
        same_sum(got, scalar_conjugate(op, OperatorSum.x(0, 1), 1))
        assert list(got._terms) == [(1, 1), (0, 1)]

    def test_cube_error_comes_before_the_mode_check(self):
        bad = OperatorSum.z(0, 1) * Scalar(Fraction(1, 2))
        with pytest.raises(ValueError, match=r"gen\*\*3 = gen"):
            conjugate_eighth(OperatorSum.x(0, 2), bad, 1)
        with pytest.raises(ValueError, match=r"gen\*\*3 = gen"):
            exact_exp(bad, 3)

    @pytest.mark.parametrize("eighths", [1.5, "1", None])
    def test_exact_exp_needs_int_eighths(self, eighths):
        # checked on entry, before the generator is squared or cubed
        bad = OperatorSum.z(0, 1) * Scalar(Fraction(1, 2))
        for gen in (OperatorSum.x(0, 1), bad):
            with pytest.raises(TypeError, match="^eighths must be an int, "
                               f"got {type(eighths).__name__}$"):
                exact_exp(gen, eighths)

    @pytest.mark.parametrize("eighths", [1.5, "1", None])
    def test_conjugate_eighth_needs_int_eighths(self, eighths):
        bad = OperatorSum.z(0, 1) * Scalar(Fraction(1, 2))
        for gen in (OperatorSum.x(0, 1), bad):
            with pytest.raises(TypeError, match="^eighths must be an int, "
                               f"got {type(eighths).__name__}$"):
                conjugate_eighth(OperatorSum.z(0, 1), gen, eighths)

    def test_mode_mismatch_alone(self):
        with pytest.raises(ModeMismatchError, match="operands on 1 and 2"):
            conjugate_eighth(OperatorSum.x(0, 2), OperatorSum.z(0, 1), 1)
        with pytest.raises(ModeMismatchError):
            scalar_conjugate(OperatorSum.x(0, 2), OperatorSum.z(0, 1), 1)


class TestExactAgainstDenseExponential:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("hop", "pauli", "sqrt2")), st.integers(1, 4),
           st.integers(0, 2 ** 32), st.integers(-9, 17))
    def test_exact_exp_matches_the_dense_exponential(self, kind, n, seed,
                                                     eighths):
        gen = generator(kind, n, random.Random(seed))
        got = realize(exact_exp(gen, eighths))
        want = matrix_exponential(realize(gen), 1j * eighths * np.pi / 4)
        assert np.allclose(got, want, rtol=0, atol=1e-14)


class TestConjugationWorkCounters:
    """An exponential or a conjugation multiplies, adds and builds no
    Scalars and forms no OperatorSum product.  Each squares and cubes its
    generator once and multiplies G**2 and G by their multipliers' readings
    once, two integer products each; a conjugation adds its two."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"scalar_mul": 0, "scalar_add": 0, "sum_mul": 0,
                  "init": 0, "integer_product": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for owner, attr, name in (
                (Scalar, "__mul__", "scalar_mul"),
                (Scalar, "__add__", "scalar_add"),
                (Scalar, "__init__", "init"),
                (OperatorSum, "__mul__", "sum_mul"),
                (qalg.verifier, "integer_product", "integer_product")):
            monkeypatch.setattr(owner, attr,
                                counted(name, getattr(owner, attr)))
        return counts

    @pytest.mark.parametrize("kind", ["hop", "sqrt2"])
    def test_conjugation(self, counts, kind):
        rng = random.Random(13)
        gen = generator(kind, 6, rng)
        op = OperatorSum(6, {(rng.randrange(64), rng.randrange(64)):
                             Scalar(Fraction(rng.randint(1, 4), 3), 1,
                                    Fraction(1, 2))
                             for _ in range(12)})
        counts.update(dict.fromkeys(counts, 0))
        out = conjugate_eighth(op, gen, 3)
        assert out.n_terms > 8
        assert counts == {"scalar_mul": 0, "scalar_add": 0, "sum_mul": 0,
                          "init": 0, "integer_product": 6}

    def test_exponential(self, counts):
        gen = generator("hop", 6, random.Random(5))
        counts.update(dict.fromkeys(counts, 0))
        exact_exp(gen, 1)
        assert counts == {"scalar_mul": 0, "scalar_add": 0, "sum_mul": 0,
                          "init": 0, "integer_product": 4}


# -- constraint index sets, as the per-label loops gave them ----------------

def loop_fermion_constraint(case, n_pairs):
    n = 2 * n_pairs
    full = (1 << n) - 1

    def occ(label, mode):
        return 1 - (label >> mode & 1)
    indices = [label for label in range(1 << n) if all(
        (occ(label, 2 * p) == occ(label, 2 * p + 1)) if case == 1
        else (occ(label, 2 * p) + occ(label, 2 * p + 1) == 1)
        for p in range(n_pairs))]
    if case == 1:
        return indices, full
    return indices, full ^ sum(1 << m for m in range(n) if m % 2)


def loop_boson_constraint(n_pairs, cutoff):
    space = TruncatedBosonSpace(2 * n_pairs, cutoff)
    indices = [k for k in range(space.dim)
               if all(space.occupations(k)[2 * p]
                      + space.occupations(k)[2 * p + 1] == 1
                      for p in range(n_pairs))]
    return indices, space.index_of([m % 2 for m in range(2 * n_pairs)])


def string_partner(case, lo, hi, n):
    """The sl(2) partner 2n - 1 of a fermion pair through the string
    transform, as it was built before it came from the labels."""
    number = partial(SecondQuantizedExpr.number, n_modes=n, species="fermion")
    if case == 1:
        expr = (number(lo) + number(hi)
                - SecondQuantizedExpr.constant(1, n, "fermion"))
    else:
        expr = number(lo) - number(hi)
    return realize(jw_fermion_to_pauli(expr))


class TestConstraintIndices:
    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_fermion(self, case, n_pairs):
        _, zt, indices, vacuum = qalg.verifier._fermion_dense(case, n_pairs)
        assert (indices, vacuum) == loop_fermion_constraint(case, n_pairs)
        assert all(type(k) is int for k in indices)
        for p, z in enumerate(zt):
            assert np.array_equal(
                z, string_partner(case, 2 * p, 2 * p + 1, 2 * n_pairs))

    @pytest.mark.parametrize("cutoff", [1, 2])
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_boson(self, cutoff, n_pairs):
        _, _, indices, vacuum = qalg.verifier._boson_dense(n_pairs, cutoff)
        assert (indices, vacuum) == loop_boson_constraint(n_pairs, cutoff)
        assert all(type(k) is int for k in indices)


class TestBatteryWorkCounters:
    """Per check: how many dense exponentials it forms, the largest of
    them, and its np.kron calls.  Each exponential is formed once; the
    diagonal Kerr generators take none, and only iontrap calls np.kron, to
    couple its qubits to the boson mode.  The counts do not depend on the
    machine."""

    WANT = {  # name: (exponentials, largest dimension, np.kron calls)
        "recoupling": (3, 2, 0),
        "angular": (4, 4, 0),
        "canonical": (11, 4, 0),
        "kerr": (2, 81, 0),
        "bch": (4, 2, 0),
        "iontrap": (2, 12, 6),
        **dict.fromkeys(("axy-encoded", "axy-split", "boson-commutator",
                         "compound-1", "compound-2", "compound-3", "car"),
                        (0, 0, 0)),
    }

    @pytest.fixture
    def spies(self, monkeypatch):
        counts = {"exp": [], "kron": 0}
        real_exp, real_kron = qalg.verifier.matrix_exponential, np.kron

        def exponential(matrix, scale=1.0):
            counts["exp"].append(len(matrix))
            return real_exp(matrix, scale)

        def kron(a, b):
            counts["kron"] += 1
            return real_kron(a, b)
        monkeypatch.setattr(qalg.verifier, "matrix_exponential", exponential)
        monkeypatch.setattr(np, "kron", kron)
        return counts

    def test_per_check(self, spies):
        got = {}
        for name, check in CHECKS.items():
            spies["exp"].clear()
            spies["kron"] = 0
            assert check().passed, name
            got[name] = (len(spies["exp"]), max(spies["exp"], default=0),
                         spies["kron"])
        assert got == self.WANT

    def test_boson_space_builders_call_no_kron(self, spies):
        sp = TruncatedBosonSpace(3, cutoff=2)
        for mode in range(3):
            sp.annihilate(mode), sp.create(mode), sp.number(mode)
            sp.hop(mode, (mode + 1) % 3)
        sp.identity()
        assert spies["kron"] == 0
