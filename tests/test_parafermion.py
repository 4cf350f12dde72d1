"""Hard-core mode operators, their qubit images, and monomial bookkeeping."""

import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qalg.dsl
import qalg.parafermion
from qalg.errors import SpeciesError
from qalg.jw import jw_fermion_to_pauli, string_operator
from qalg.parafermion import (
    GeneratorIndex,
    SecondQuantizedExpr,
    bilinear_su2,
    classify,
    conserves_number,
    conserves_parity,
    enumerate_generators,
    fold_terms,
    lowering_op,
    number_operator,
    number_site,
    parity_operator,
    raising_op,
    to_pauli,
)
from qalg.pauli import (
    HALF,
    I_UNIT,
    RT2_HALF,
    OperatorSum,
    Scalar,
    commutator,
    realize,
)

E = SecondQuantizedExpr


def pf(kind, mode, n):
    return getattr(E, kind)(mode, n, "parafermion")


class TestModeOperators:
    def test_raising_is_upper_triangular(self):
        # vacuum sits at dense label 1 for a single mode
        assert np.array_equal(realize(raising_op(0, 1)),
                              np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(realize(lowering_op(0, 1)),
                              np.array([[0, 0], [1, 0]], dtype=complex))

    def test_pauli_content(self):
        up = raising_op(0, 2)
        assert up.coefficient(1, 0) == HALF
        assert up.coefficient(1, 1) == HALF * I_UNIT
        assert lowering_op(0, 2) == up.adjoint()

    def test_number_site_projects_occupation(self):
        n0 = realize(number_site(0, 2))
        # dense bit = 1 - occupation, so even labels are occupied on mode 0
        assert np.array_equal(np.diag(n0).real, np.array([1, 0, 1, 0]))

    def test_number_operator_totals(self):
        total = realize(number_operator(3))
        diag = np.diag(total).real
        for label in range(8):
            assert diag[label] == 3 - bin(label).count("1")

    def test_parity_operator(self):
        p = realize(parity_operator(2))
        diag = np.diag(p).real
        for label in range(4):
            occ = 2 - bin(label).count("1")
            assert diag[label] == (-1) ** occ
        assert np.array_equal(p @ p, np.eye(4))

    def test_on_site_relations(self):
        up, down = raising_op(0, 1), lowering_op(0, 1)
        assert (up * up).is_zero
        assert (down * down).is_zero
        assert up * down + down * up == OperatorSum.identity(1)
        assert up * down == number_site(0, 1)

    def test_cross_site_operators_commute(self):
        # distinct sites carry no string, so they commute rather than
        # anticommute; this is what separates them from fermion modes
        for a in (raising_op(0, 2), lowering_op(0, 2)):
            for b in (raising_op(1, 2), lowering_op(1, 2)):
                assert commutator(a, b).is_zero


class TestExpressions:
    def test_to_pauli_matches_operator_route(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randrange(1, 4)
            create_mask = rng.randrange(1 << n)
            annihilate_mask = rng.randrange(1 << n)
            expr = E.constant(1, n, "parafermion")
            direct = OperatorSum.identity(n)
            for i in reversed(range(n)):
                if create_mask >> i & 1:
                    expr = expr * pf("create", i, n)
                    direct = direct * raising_op(i, n)
            for i in reversed(range(n)):
                if annihilate_mask >> i & 1:
                    expr = expr * pf("annihilate", i, n)
                    direct = direct * lowering_op(i, n)
            assert to_pauli(expr) == direct

    def test_number_expression(self):
        assert to_pauli(E.number(1, 2, "parafermion")) == number_site(1, 2)

    def test_adjoint_round_trip(self):
        expr = pf("create", 0, 2) * pf("annihilate", 1, 2) * 3
        assert to_pauli(expr.adjoint()) == to_pauli(expr).adjoint()

    def test_species_guard(self):
        with pytest.raises(SpeciesError):
            pf("create", 0, 2) * E.create(1, 2, "fermion")
        with pytest.raises(SpeciesError):
            to_pauli(E.create(0, 2, "fermion"))

    def test_arithmetic(self):
        a = pf("annihilate", 0, 2)
        combo = 2 * a - a
        assert to_pauli(combo) == lowering_op(0, 2)


class TestEnumeration:
    def test_counts(self):
        for n in (1, 2, 3):
            assert len(enumerate_generators(n)) == 4**n

    def test_filters_partition_consistently(self):
        full = enumerate_generators(3)
        parity = {(i.n_created, i.n_annihilated, str(i.monomial().terms))
                  for i in enumerate_generators(3, filter="parity")}
        number = {(i.n_created, i.n_annihilated, str(i.monomial().terms))
                  for i in enumerate_generators(3, filter="number")}
        assert number <= parity
        for idx in full:
            assert idx.conserves_number == (idx.n_created == idx.n_annihilated)
            assert idx.conserves_parity == ((idx.n_created - idx.n_annihilated) % 2 == 0)

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            enumerate_generators(9)
        assert len(enumerate_generators(3, limit=3)) == 64
        with pytest.raises(ValueError):
            enumerate_generators(2, filter="bogus")

    def test_mask_guard(self):
        with pytest.raises(ValueError):
            GeneratorIndex(2, 4, 0)

    def test_monomial_factor_order(self):
        idx = GeneratorIndex(3, 5, 2)
        ((_, factors),) = idx.monomial().terms
        assert factors == (("+", 2), ("+", 0), ("-", 1))
        assert idx.n_created == 2 and idx.n_annihilated == 1


class TestClassify:
    def test_hopping_conserves_both(self):
        hop = pf("create", 0, 3) * pf("annihilate", 1, 3)
        verdict = classify(to_pauli(hop + hop.adjoint()))
        assert verdict.conserves_number and verdict.conserves_parity
        assert verdict.support == frozenset({0, 1})

    def test_pairing_conserves_parity_only(self):
        pair = pf("annihilate", 0, 2) * pf("annihilate", 1, 2)
        verdict = classify(to_pauli(pair + pair.adjoint()))
        assert not verdict.conserves_number
        assert verdict.conserves_parity

    def test_linear_conserves_neither(self):
        lin = pf("annihilate", 0, 2)
        verdict = classify(to_pauli(lin + lin.adjoint()))
        assert not verdict.conserves_number
        assert not verdict.conserves_parity

    def test_requires_hermitian(self):
        with pytest.raises(ValueError):
            classify(raising_op(0, 1))


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# Gaussian rationals, and values with sqrt(2) parts as eighth turns make
_SCALARS = st.one_of(st.builds(Scalar, _SMALL, _SMALL),
                     st.builds(Scalar, _SMALL, _SMALL, _SMALL, _SMALL))


@st.composite
def pauli_sums(draw):
    """Random Pauli sums on up to 4 modes, Hermitian or not."""
    n = draw(st.integers(1, 4))
    mask = st.integers(0, (1 << n) - 1)
    return OperatorSum(n, draw(st.dictionaries(st.tuples(mask, mask), _SCALARS,
                                               max_size=6)))


@functools.lru_cache(maxsize=None)
def _monomial_image(n, alpha, beta):
    return to_pauli(GeneratorIndex(n, alpha, beta).monomial())


@st.composite
def monomial_sums(draw, shifts):
    """Random combinations of transfer monomials on up to 4 modes whose
    creation count minus annihilation count lies in shifts: (0,) gives
    number conserving sums such as hop pairs, even shifts parity conserving
    ones.  Half the time one term's coefficient is then moved, so that the
    number verdict hangs on one exact cancellation."""
    n = draw(st.integers(1, 4))
    masks = range(1 << n)
    total = OperatorSum.zero(n)
    for _ in range(draw(st.integers(1, 2))):
        alpha = draw(st.sampled_from(masks))
        beta = draw(st.sampled_from(
            [b for b in masks if alpha.bit_count() - b.bit_count() in shifts]))
        total = total + _monomial_image(n, alpha, beta) * draw(_SCALARS)
    if draw(st.booleans()) and not total.is_zero:
        x, z = draw(st.sampled_from([key for key, _ in total.items()]))
        total = total + OperatorSum(n, {(x, z): draw(_SCALARS)})
    return total


_CONSERVING = st.one_of(monomial_sums((0,)), monomial_sums((-2, 0, 2)))


class TestConservationMasks:
    """The mask rules decide exactly what the commutators with the number
    and parity operators decide."""

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(pauli_sums(), _CONSERVING))
    def test_mask_rules_match_commutators(self, op):
        n = op.n_modes
        assert conserves_number(op) == commutator(op, number_operator(n)).is_zero
        assert conserves_parity(op) == commutator(op, parity_operator(n)).is_zero

    def test_hop_pair_cancels_exactly(self):
        # X0 X1 + Y0 Y1 is the hop pair 2(a0' a1 + a1' a0); unequal weights
        # leave a number-changing remainder
        xx = OperatorSum(2, {(3, 0): 1})
        yy = OperatorSum(2, {(3, 3): 1})
        rt2 = Scalar(0, 0, 1)
        assert conserves_number(xx * rt2 + yy * rt2)
        assert not conserves_number(xx + yy * 2)
        assert conserves_parity(xx + yy * 2)
        assert not conserves_parity(OperatorSum.x(0, 2))
        assert conserves_number(OperatorSum.zero(2))


class TestBilinearTrios:
    def test_hopping_trio_closes_as_su2(self):
        tx, ty, tz = bilinear_su2((0, 1), 2)
        four_i = I_UNIT + I_UNIT + I_UNIT + I_UNIT
        assert commutator(tx, ty) == tz * four_i
        assert commutator(tz, tx) == ty * I_UNIT
        assert commutator(ty, tz) == tx * four_i

    def test_pairing_trio_closes_as_su2(self):
        tx, ty, tz = bilinear_su2((0, 1), 2, family="pairing")
        four_i = I_UNIT + I_UNIT + I_UNIT + I_UNIT
        assert commutator(tx, ty) == tz * four_i
        assert commutator(tz, tx) == ty * I_UNIT
        assert commutator(ty, tz) == tx * four_i

    def test_trios_are_hermitian(self):
        for family in ("hopping", "pairing"):
            for op in bilinear_su2((0, 2), 3, family=family):
                assert op.is_hermitian

    def test_bad_family(self):
        with pytest.raises(ValueError):
            bilinear_su2((0, 1), 2, family="squeeze")


def _reference_fold(terms, n, images):
    """The plain fold: identity times the coefficient, one OperatorSum
    product per factor from left to right, then the terms summed in turn."""
    total = OperatorSum.zero(n)
    for coeff, factors in terms:
        acc = OperatorSum.identity(n) * coeff
        for kind, mode in factors:
            acc = acc * images[kind](mode, n)
        total = total + acc
    return total


def _rooted_raising(mode, n):
    """A raising image with sqrt(2) coefficients."""
    return raising_op(mode, n) * RT2_HALF


# table -> (the fold under test, the reference images of its factors)
_FOLDS = {
    "parafermion": (
        lambda terms, n: to_pauli(E(n, "parafermion", terms)),
        {"+": raising_op, "-": lowering_op, "n": number_site}),
    "string": (
        lambda terms, n: jw_fermion_to_pauli(E(n, "fermion", terms)),
        {"+": lambda m, n: raising_op(m, n) * string_operator(m, n),
         "-": lambda m, n: lowering_op(m, n) * string_operator(m, n),
         "n": number_site}),
    "qubit": (
        lambda terms, n: fold_terms(terms, n, qalg.dsl._QUBIT_IMAGES),
        {"X": OperatorSum.x, "Y": OperatorSum.y, "Z": OperatorSum.z,
         "n": number_site}),
    "rooted": (
        lambda terms, n: fold_terms(terms, n, {"+": (_rooted_raising,),
                                               "-": (lowering_op,),
                                               "n": (number_site,)}),
        {"+": _rooted_raising, "-": lowering_op, "n": number_site}),
}


@st.composite
def fold_inputs(draw):
    """A table, a mode count of 1 to 6, and up to four terms of up to six
    factors each.  The factors act on one or two of the modes, so modes
    repeat; coefficients may be zero, carry sqrt(2) parts, or be units,
    so that terms cancel, within one product and across terms."""
    table = draw(st.sampled_from(sorted(_FOLDS)))
    n = draw(st.integers(1, 6))
    modes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                          unique=True))
    factor = st.tuples(st.sampled_from(sorted(_FOLDS[table][1])),
                       st.sampled_from(modes))
    coeff = st.one_of(_SCALARS, st.sampled_from(
        [Scalar(0), Scalar(1), Scalar(-1), I_UNIT]))
    terms = draw(st.lists(st.tuples(coeff, st.lists(factor, max_size=6)
                                    .map(tuple)), min_size=1, max_size=4))
    return table, n, terms


class TestFold:
    """The integer fold gives the plain OperatorSum fold's value and term
    order for every image table."""

    @settings(max_examples=150, deadline=None)
    @given(fold_inputs())
    # a product that cancels to zero part way, then meets those keys again
    @example(("string", 2, [(I_UNIT, (("n", 0), ("+", 1), ("n", 1))),
                            (Scalar(2), (("-", 1), ("-", 0), ("+", 0))),
                            (Scalar(1), (("-", 1),))]))
    # a key that cancels across terms, then comes back after another key
    @example(("qubit", 1, [(Scalar(1), (("X", 0),)),
                           (I_UNIT, (("Y", 0), ("Z", 0))),
                           (I_UNIT, (("n", 0), ("Z", 0))),
                           (Scalar(1), (("Y", 0), ("Z", 0), ("n", 0)))]))
    def test_fold_matches_reference(self, case):
        table, n, terms = case
        fold, images = _FOLDS[table]
        got, want = fold(terms, n), _reference_fold(terms, n, images)
        assert got == want
        assert list(got._terms) == list(want._terms)

    def test_sqrt2_image(self):
        # a sqrt(2) image folds like any other: the X term of the rooted
        # (sqrt(2)/2) a'(0) cancels against -(sqrt(2)/2) a(0), and a(0)
        # brings it back after Y
        terms = [(Scalar(1), (("+", 0),)), (-RT2_HALF, (("-", 0),)),
                 (Scalar(1), (("-", 0),))]
        got = _FOLDS["rooted"][0](terms, 1)
        want = _reference_fold(terms, 1, _FOLDS["rooted"][1])
        assert got == want and not got.is_rational
        assert list(got._terms) == list(want._terms) == [(1, 1), (1, 0)]

    @pytest.mark.parametrize("n_terms", [10, 100])
    def test_one_kernel_sum_reads_each_term_once(self, monkeypatch, n_terms):
        # a fold adds every term into one dict with one integer_sum call,
        # so the entries it reads grow linearly with the term count, not
        # with the running total
        sums = []
        real = qalg.parafermion.integer_sum

        def counted(*pairs):
            sums.append(sum(len(terms) for terms, _ in pairs))
            return real(*pairs)

        monkeypatch.setattr(qalg.parafermion, "integer_sum", counted)
        # each n(i) term reads as the two strings of (1 + Z_i)/2
        terms = [(Scalar(k + 1), (("n", k % 8),)) for k in range(n_terms)]
        got = to_pauli(E(8, "parafermion", terms))
        assert sums == [2 * n_terms]
        assert got == _reference_fold(terms, 8, _FOLDS["parafermion"][1])

    def test_image_table_holds_one_entry_per_image_used(self):
        table = qalg.parafermion._integer_image
        table.cache_clear()
        hop = pf("create", 4, 6) * pf("annihilate", 1, 6)
        expr = hop + hop.adjoint() + pf("number", 4, 6) * pf("number", 4, 6)
        to_pauli(expr)
        jw_fermion_to_pauli(E(6, "fermion", expr.terms))
        # raising and lowering on modes 1 and 4, number_site on mode 4,
        # and string_operator on modes 1 and 4
        assert table.cache_info().currsize == 7
        to_pauli(expr)
        assert table.cache_info().currsize == table.cache_info().misses == 7
