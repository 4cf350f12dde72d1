"""Exact-coefficient operator algebra: scalars, products, dense forms."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qalg.errors import DenseLimitError, ModeMismatchError
from qalg.parafermion import SecondQuantizedExpr
from qalg.pauli import (
    DENSE_LIMIT,
    HALF,
    I_UNIT,
    ONE,
    RT2_HALF,
    ZERO,
    OperatorSum,
    Scalar,
    anticommutator,
    commutator,
    from_integers,
    integer_scaled,
    integer_terms,
    matrix_exponential,
    product_phase_exp,
    realize,
)
from qalg.verifier import TruncatedBosonSpace, compound_mapping_check

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SI = np.eye(2, dtype=complex)


def random_sum(rng, n_modes, n_terms=4):
    op = OperatorSum.zero(n_modes)
    for _ in range(n_terms):
        x = rng.randrange(1 << n_modes)
        z = rng.randrange(1 << n_modes)
        c = Scalar(Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        word = OperatorSum.identity(n_modes)
        for i in range(n_modes):
            if x >> i & 1 and z >> i & 1:
                word = word * OperatorSum.y(i, n_modes)
            elif x >> i & 1:
                word = word * OperatorSum.x(i, n_modes)
            elif z >> i & 1:
                word = word * OperatorSum.z(i, n_modes)
        op = op + word * c
    return op


class TestScalar:
    def test_ring_arithmetic_is_exact(self):
        a = Scalar(Fraction(1, 3), Fraction(0), Fraction(1, 2), Fraction(0))
        b = Scalar(Fraction(2), Fraction(0), Fraction(-1, 4), Fraction(0))
        prod = a * b
        # (1/3 + (1/2)r)(2 - (1/4)r) with r*r = 2
        assert prod == Scalar(Fraction(1, 3) * 2 - Fraction(1, 4) * 2 * Fraction(1, 2),
                              Fraction(0),
                              Fraction(1, 2) * 2 - Fraction(1, 3) * Fraction(1, 4),
                              Fraction(0))

    def test_root_two_constants(self):
        assert RT2_HALF * RT2_HALF == HALF
        assert I_UNIT * I_UNIT == -ONE
        assert ONE + ZERO == ONE
        assert not RT2_HALF.is_rational
        assert HALF.is_rational

    def test_to_complex(self):
        s = Scalar(Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(0))
        assert abs(s.to_complex() - (0.5 + 2**0.5 - 0.5j)) < 1e-15

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Scalar(0.5)
        # in arithmetic too, from either side
        for value in (0.5, 1j):
            for form in (lambda: HALF + value, lambda: value + HALF,
                         lambda: HALF - value, lambda: value - HALF,
                         lambda: HALF * value, lambda: value * HALF):
                with pytest.raises(TypeError, match="exact rational expected"):
                    form()

    def test_exact_operands_from_either_side(self):
        third = Fraction(1, 3)
        assert HALF + 1 == 1 + HALF == Scalar(Fraction(3, 2))
        assert HALF - 1 == Scalar(Fraction(-1, 2))
        assert 1 - Scalar(2) == Scalar(-1)
        assert Fraction(1, 2) - Scalar(1) == Scalar(Fraction(-1, 2))
        assert third - RT2_HALF == Scalar(third, 0, Fraction(-1, 2))
        assert HALF * third == third * HALF == Scalar(Fraction(1, 6))
        assert HALF + third == third + HALF == Scalar(Fraction(5, 6))
        assert RT2_HALF * 2 == 2 * RT2_HALF == Scalar(0, 0, 1)
        assert HALF + HALF == ONE and HALF - HALF == ZERO

    def test_other_operands_get_their_turn(self):
        # a Scalar on the left defers to the operand's reflected operator
        op = OperatorSum.x(0, 2) + OperatorSum.z(1, 2) * I_UNIT
        for s in (HALF, RT2_HALF, I_UNIT, ZERO):
            got = s * op
            assert got == op * s
            assert list(got._terms) == list((op * s)._terms)
        expr = SecondQuantizedExpr.create(0, 2, "fermion")
        assert HALF * expr == expr * HALF
        # and a value that is no number gets Python's own error
        for form in (lambda: HALF + "a", lambda: HALF * None,
                     lambda: HALF + op, lambda: op + HALF,
                     lambda: HALF - op, lambda: op - HALF):
            with pytest.raises(TypeError, match="unsupported operand"):
                form()
        with pytest.raises(TypeError, match="for -: 'OperatorSum' and 'int'"):
            op - 1
        with pytest.raises(TypeError, match="for \\+: 'OperatorSum' and 'int'"):
            op + 1

    def test_hash_agrees_with_equality(self):
        # a Scalar equal to a rational hashes as that rational
        assert {1: "one"}.get(Scalar(1)) == "one"
        assert {Scalar(2)} == {2}
        assert {Fraction(1, 3): "third"}.get(Scalar(Fraction(1, 3))) == "third"
        for value in (ZERO, ONE, HALF, Scalar(-7), Scalar(Fraction(-5, 4))):
            assert hash(value) == hash(value.re)
        # and equal Scalars hash alike with imaginary and sqrt(2) parts too
        for value in (I_UNIT, RT2_HALF, Scalar(1, 2, 3, 4)):
            twin = Scalar(value.re, value.im, value.re2, value.im2)
            assert twin == value and hash(twin) == hash(value)

    def test_conjugate(self):
        s = Scalar(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
        c = s.conjugate()
        assert c == Scalar(Fraction(1), Fraction(-2), Fraction(3), Fraction(-4))
        assert (s * c).is_rational is False  # cross terms keep a root-two part


class TestSingleMode:
    def test_products_match_pauli_table(self):
        X, Y, Z = (OperatorSum.x(0, 1), OperatorSum.y(0, 1), OperatorSum.z(0, 1))
        assert X * Y == Z * I_UNIT
        assert Y * Z == X * I_UNIT
        assert Z * X == Y * I_UNIT
        assert X * Z == Y * (-I_UNIT)
        assert X * X == OperatorSum.identity(1)

    def test_commutators(self):
        X, Y, Z = (OperatorSum.x(0, 1), OperatorSum.y(0, 1), OperatorSum.z(0, 1))
        two_i = I_UNIT + I_UNIT
        assert commutator(X, Y) == Z * two_i
        assert anticommutator(X, Y).is_zero
        assert anticommutator(X, X) == OperatorSum.identity(1) + OperatorSum.identity(1)

    def test_reference_terms_hermitian(self):
        for x in range(8):
            for z in range(8):
                term = OperatorSum(3, {(x, z): ONE})
                assert term.is_hermitian
                assert term.adjoint() == term

    def test_term_product_phase(self):
        # X Z = -i Y on the reference strings
        y = OperatorSum.x(0, 1) * OperatorSum.z(0, 1)
        assert [key for key, _ in y.items()] == [(1, 1)]
        assert y.coefficient(1, 1) == -I_UNIT


class TestDense:
    def test_single_mode_matrices(self):
        assert np.array_equal(realize(OperatorSum.x(0, 1)), SX)
        assert np.array_equal(realize(OperatorSum.y(0, 1)), SY)
        assert np.array_equal(realize(OperatorSum.z(0, 1)), SZ)

    def test_mode_zero_is_least_significant(self):
        got = realize(OperatorSum.x(0, 2))
        assert np.array_equal(got, np.kron(SI, SX))
        got = realize(OperatorSum.z(1, 2))
        assert np.array_equal(got, np.kron(SZ, SI))

    def test_random_sums_match_kron(self):
        rng = random.Random(7)
        mats = {(0, 0): SI, (1, 0): SX, (0, 1): SZ, (1, 1): SY}
        for _ in range(20):
            n = rng.randrange(1, 4)
            op = random_sum(rng, n)
            want = np.zeros((2**n, 2**n), dtype=complex)
            for (x, z), coeff in op.items():
                m = np.eye(1, dtype=complex)
                for i in reversed(range(n)):
                    m = np.kron(m, mats[(x >> i & 1, z >> i & 1)])
                want += coeff.to_complex() * m
            assert np.allclose(realize(op), want, atol=1e-14)

    def test_product_matches_matmul(self):
        rng = random.Random(3)
        for _ in range(10):
            a = random_sum(rng, 2)
            b = random_sum(rng, 2)
            assert np.allclose(realize(a * b), realize(a) @ realize(b), atol=1e-12)

    def test_trace_part(self):
        rng = random.Random(5)
        for _ in range(10):
            op = random_sum(rng, 2)
            tr = np.trace(realize(op))
            assert abs(op.coefficient(0, 0).to_complex() * 4 - tr) < 1e-12

    def test_apply_basis_state_matches_columns(self):
        rng = random.Random(11)
        op = random_sum(rng, 3)
        mat = realize(op)
        for col in range(8):
            vec = np.zeros(8, dtype=complex)
            for row, coeff in op.apply_basis_state(col).items():
                vec[row] = coeff.to_complex()
            assert np.allclose(mat[:, col], vec, atol=1e-14)

    def test_matrix_exponential_matches_scipy(self):
        rng = random.Random(13)
        op = random_sum(rng, 2)
        herm = op + op.adjoint()
        m = realize(herm)
        got = matrix_exponential(m, scale=-0.3j)
        assert np.allclose(got, scipy.linalg.expm(-0.3j * m), atol=1e-12)
        # non-normal matrices, with 1-norms on both sides of theta_13
        gen = np.random.default_rng(13)
        for dim in (1, 3, 8, 27):
            for norm in (0.1, 3.0, 30.0):
                m = (gen.standard_normal((dim, dim))
                     + 1j * gen.standard_normal((dim, dim)))
                m *= norm / np.abs(m).sum(axis=0).max()
                got, want = matrix_exponential(m), scipy.linalg.expm(m)
                assert (np.linalg.norm(got - want)
                        <= 1e-12 * np.linalg.norm(want)), (dim, norm)

    def test_matrix_exponential_of_a_jordan_block(self):
        # exp(tN) for the nilpotent shift N is the finite series
        # sum_k (tN)**k / k!: entry (i, j) is t**(j-i) / (j-i)!
        shift = np.eye(5, k=1)
        for t in (2.5, 20.0):  # the second forces two squarings
            want = sum(np.linalg.matrix_power(t * shift, k) / math.factorial(k)
                       for k in range(5))
            got = matrix_exponential(shift, t)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_matrix_exponential_after_squarings(self):
        # 1-norm 50 takes four squarings; exp(tJ) rotates by t
        rot = np.array([[0, -1], [1, 0]])
        want = np.array([[np.cos(50), -np.sin(50)], [np.sin(50), np.cos(50)]])
        assert np.allclose(matrix_exponential(rot, 50), want, rtol=0,
                           atol=1e-13)

    def test_matrix_exponential_input_checks(self):
        with pytest.raises(ValueError, match="square matrix required"):
            matrix_exponential(np.ones((2, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for matrix, scale in ((np.array([[0, np.nan], [0, 0]]), 1.0),
                                  (np.eye(2), float("nan")),
                                  (np.eye(2), float("inf")),
                                  (np.eye(2), complex(0, float("inf"))),
                                  (np.full((2, 2), 1e200), 1e200)):
                with pytest.raises(ValueError,
                                   match="matrix entries must be finite"):
                    matrix_exponential(matrix, scale)
            assert matrix_exponential(np.zeros((0, 0))).shape == (0, 0)

    def test_dense_limit_guard(self):
        # refused before any matrix is allocated: a sum on more than
        # DENSE_LIMIT modes, and a boson space of more than 2**DENSE_LIMIT
        # states, such as the 4**6 of three boson pairs at cutoff 3
        with pytest.raises(DenseLimitError, match=f"limit of {DENSE_LIMIT}"):
            realize(OperatorSum.x(0, DENSE_LIMIT + 1))
        cap = 1 << DENSE_LIMIT
        with pytest.raises(DenseLimitError, match=f"4096 states .* {cap}$"):
            TruncatedBosonSpace(6, cutoff=3)
        with pytest.raises(DenseLimitError):
            compound_mapping_check(3, 3, cutoff=3)
        assert TruncatedBosonSpace(DENSE_LIMIT, cutoff=1).dim == cap


_PART = st.fractions(-3, 3, max_denominator=4)
_ROOT_PART = st.one_of(st.just(Fraction(0)), _PART)


@st.composite
def _sum_pairs(draw):
    """Two sums of up to 5 terms on 1-3 modes whose coefficients are
    Gaussian rationals, some with sqrt(2) parts."""
    n = draw(st.integers(1, 3))
    mask = st.integers(0, (1 << n) - 1)
    coeff = st.builds(Scalar, re=_PART, im=_PART, re2=_ROOT_PART,
                      im2=_ROOT_PART)
    terms = st.dictionaries(st.tuples(mask, mask), coeff, max_size=5)
    return OperatorSum(n, draw(terms)), OperatorSum(n, draw(terms))


class TestDenseAlgebraMap:
    @settings(max_examples=30, deadline=None)
    @given(_sum_pairs())
    def test_realize_respects_the_operations(self, pair):
        a, b = pair
        da, db = realize(a), realize(b)

        def same(op, want):
            return np.allclose(realize(op), want, rtol=0, atol=1e-10)

        assert same(a + b, da + db)
        assert same(a * b, da @ db)
        assert same(a.adjoint(), da.conj().T)
        assert same(commutator(a, b), da @ db - db @ da)


@st.composite
def _sums_and_labels(draw):
    """A sum of up to 6 terms on 1-4 modes, coefficients with sqrt(2)
    parts, and a basis-state label."""
    n = draw(st.integers(1, 4))
    mask = st.integers(0, (1 << n) - 1)
    coeff = st.builds(Scalar, re=_PART, im=_PART, re2=_ROOT_PART,
                      im2=_ROOT_PART)
    terms = st.dictionaries(st.tuples(mask, mask), coeff, max_size=6)
    return OperatorSum(n, draw(terms)), draw(mask)


class TestBasisStateAction:
    @settings(max_examples=30, deadline=None)
    @given(_sums_and_labels())
    def test_apply_basis_state_is_a_column_of_realize(self, case):
        op, label = case
        action = op.apply_basis_state(label)
        assert all(action.values())
        col = np.zeros(1 << op.n_modes, dtype=complex)
        for row, amp in action.items():
            col[row] = amp.to_complex()
        assert np.allclose(col, realize(op)[:, label], rtol=0, atol=1e-12)

    def test_label_out_of_range_rejected(self):
        for op in (OperatorSum.x(0, 1), OperatorSum.z(0, 1),
                   OperatorSum.zero(2) + OperatorSum.y(1, 2)):
            top = 1 << op.n_modes
            for label in (-1, top, top + 1, 5):
                with pytest.raises(ValueError, match="out of range"):
                    op.apply_basis_state(label)
            assert op.apply_basis_state(0) and op.apply_basis_state(top - 1)


class TestStructure:
    def test_adjoint_reverses_products(self):
        rng = random.Random(17)
        for _ in range(10):
            a = random_sum(rng, 2)
            b = random_sum(rng, 2)
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()

    def test_out_of_range_masks_rejected(self):
        # a mask bit at or above n_modes names a mode the sum does not have
        for key in ((2, 0), (0, 2), (1, 4), (-1, 0), (0, -2)):
            with pytest.raises(ValueError, match="mask exceeds"):
                OperatorSum(1, {key: ONE})
        # zero coefficients are dropped, but their masks are checked too
        with pytest.raises(ValueError):
            OperatorSum(1, {(1, 0): ONE, (2, 0): ZERO})
        with pytest.raises(ValueError, match="nonnegative"):
            OperatorSum(-1)
        assert OperatorSum(1, {(1, 1): ONE}) == OperatorSum.y(0, 1)
        assert OperatorSum(0, {(0, 0): ONE}) == OperatorSum.identity(0)

    def test_hermitian_combinations(self):
        rng = random.Random(19)
        op = random_sum(rng, 3)
        assert (op + op.adjoint()).is_hermitian
        assert ((op - op.adjoint()) * I_UNIT).is_hermitian

    def test_hermitian_iff_real_coefficients(self):
        base = OperatorSum.x(0, 2) * OperatorSum.z(1, 2)
        assert base.is_hermitian
        assert not (base * I_UNIT).is_hermitian

    def test_mode_mismatch_rejected(self):
        # empty and sqrt(2) operands too: the modes are checked first
        for a, b in ((OperatorSum.x(0, 1), OperatorSum.x(0, 2)),
                     (OperatorSum.zero(1), OperatorSum.zero(2)),
                     (OperatorSum.x(0, 2) * RT2_HALF, OperatorSum.x(0, 1))):
            with pytest.raises(ModeMismatchError):
                a * b

    def test_support(self):
        op = OperatorSum.x(0, 3) * OperatorSum.z(2, 3)
        assert op.support_modes() == {0, 2}

    def test_coefficient_lookup(self):
        op = OperatorSum.x(0, 2) * HALF + OperatorSum.y(1, 2)
        assert op.coefficient(1, 0) == HALF
        assert op.coefficient(2, 2) == ONE
        assert op.coefficient(3, 3) == ZERO

    def test_associativity(self):
        rng = random.Random(23)
        for _ in range(5):
            a, b, c = (random_sum(rng, 2, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)


# -- the integer product against the Scalar-by-Scalar pair loop -------------

def _coefficients(op):
    """(key, Scalar) pairs in the order op stores its terms."""
    return [(key, op.coefficient(*key)) for key in op._terms]


_I_POWERS = (ONE, I_UNIT, -ONE, -I_UNIT)


def _pair_loop(a, b):
    """a * b as Scalar products and sums, term pair by term pair: the
    plain loop whose value and term order the integer product keeps."""
    out = {}
    for (x1, z1), c1 in _coefficients(a):
        for (x2, z2), c2 in _coefficients(b):
            e = product_phase_exp(x1, z1, x2, z2)
            key = (x1 ^ x2, z1 ^ z2)
            contrib = c1 * c2 * _I_POWERS[e]
            acc = out.get(key)
            out[key] = contrib if acc is None else acc + contrib
    return OperatorSum(a.n_modes, out)


_UNITS = [ONE, -ONE, I_UNIT, -I_UNIT, HALF]


@st.composite
def _product_operands(draw):
    """Two sums of up to 8 terms on 0-4 modes.  Each operand either has
    Gaussian-rational coefficients or carries sqrt(2) parts; units and
    halves are frequent, and the keys come from a small pool, so that
    products meet the same key often and cancel."""
    n = draw(st.integers(0, 4))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=5))

    def operand():
        root = draw(st.booleans())
        zero = st.just(Fraction(0))
        coeff = st.one_of(
            st.sampled_from(_UNITS + [RT2_HALF] * root),
            st.builds(Scalar, re=_PART, im=_PART,
                      re2=_ROOT_PART if root else zero,
                      im2=_ROOT_PART if root else zero))
        keys = st.one_of(st.sampled_from(pool), st.tuples(mask, mask))
        return OperatorSum(n, draw(st.dictionaries(keys, coeff, max_size=8)))

    return operand(), operand()


class TestIntegerProduct:
    """OperatorSum * OperatorSum, formed in integers, gives the pair loop's
    value and term order, and the dense product."""

    @settings(max_examples=300, deadline=None)
    @given(_product_operands())
    # X + Y times X + Y: the Z terms cancel between the I terms
    @example((OperatorSum(1, {(1, 0): ONE, (1, 1): ONE}),
              OperatorSum(1, {(1, 0): ONE, (1, 1): ONE})))
    # (1 + X)(1 - X) = 0: every key cancels
    @example((OperatorSum(1, {(0, 0): ONE, (1, 0): ONE}),
              OperatorSum(1, {(0, 0): ONE, (1, 0): -ONE})))
    # keys that cancel and come back after a later key: the I of the first
    # pair, the Y of the second (which has sqrt(2) parts)
    @example((OperatorSum(1, {(1, 0): -I_UNIT, (1, 1): -I_UNIT, (0, 0): ONE}),
              OperatorSum(1, {(1, 1): ONE, (1, 0): -ONE, (0, 0): -ONE})))
    @example((OperatorSum(1, {(0, 1): RT2_HALF, (0, 0): -RT2_HALF * I_UNIT,
                              (1, 1): ONE}),
              OperatorSum(1, {(1, 1): -I_UNIT, (0, 0): -RT2_HALF * I_UNIT,
                              (0, 1): RT2_HALF})))
    def test_matches_pair_loop(self, pair):
        a, b = pair
        got, want = a * b, _pair_loop(a, b)
        assert got == want
        assert list(got._terms) == list(want._terms)
        assert all(c for _, c in _coefficients(got))

    @settings(max_examples=60, deadline=None)
    @given(_product_operands())
    def test_matches_matmul(self, pair):
        a, b = pair
        assert np.allclose(realize(a * b), realize(a) @ realize(b),
                           rtol=0, atol=1e-12)

    def test_empty_and_identity(self):
        rng = random.Random(29)
        for n in range(4):
            op = random_sum(rng, n, 5) * RT2_HALF + random_sum(rng, n, 3)
            zero, ident = OperatorSum.zero(n), OperatorSum.identity(n)
            assert (op * zero).is_zero and (zero * op).is_zero
            assert (zero * zero).is_zero
            for got in (op * ident, ident * op):
                assert got == op
                assert list(got._terms) == list(op._terms)


class TestProductWorkCounters:
    """A product of sums multiplies and builds no Scalars: a return to
    per-pair Scalar arithmetic, or to Scalar storage, fails here."""

    @pytest.mark.parametrize("root", [False, True])
    def test_one_scalar_per_output_key(self, monkeypatch, root):
        rng = random.Random(31)
        a, b = random_sum(rng, 4, 8), random_sum(rng, 4, 8)
        if root:
            a = a * RT2_HALF + random_sum(rng, 4, 3)
        counts = {"mul": 0, "init": 0}
        real_mul, real_init = Scalar.__mul__, Scalar.__init__

        def mul(self, other):
            counts["mul"] += 1
            return real_mul(self, other)

        def init(self, *args, **kwargs):
            counts["init"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Scalar, "__mul__", mul)
        monkeypatch.setattr(Scalar, "__init__", init)
        prod = a * b
        assert counts == {"mul": 0, "init": 0}
        assert prod.n_terms > 8


# -- the canonical reading --------------------------------------------------

def _loop_apply(op, label):
    """op's action on |label> as Scalar products and sums, term by term."""
    out = {}
    for (x, z), coeff in _coefficients(op):
        amp = coeff * _I_POWERS[((x & z).bit_count()
                                 + 2 * (z & label).bit_count()) % 4]
        target = label ^ x
        total = out.get(target, ZERO) + amp
        if total:
            out[target] = total
        else:
            out.pop(target, None)
    return out


class TestCanonicalReading:
    """Sums equal in value are equal and hash alike however they were
    built, and negation, the adjoint and the basis-state action, formed on
    the stored integers, give the Scalar loops' values and order."""

    @settings(max_examples=150, deadline=None)
    @given(_product_operands(), st.integers(2, 6), st.data())
    def test_equal_values_are_equal_readings(self, pair, k, data):
        a, b = pair
        n = a.n_modes
        den, terms = integer_terms(a)
        scaled = {key: tuple(k * p for p in parts)
                  for key, parts in terms.items()}
        halved = a * RT2_HALF * RT2_HALF
        assert halved.is_rational == a.is_rational
        for got, want in (((a + b) - b, a),
                          ((a * RT2_HALF + b) - a * RT2_HALF, b),
                          (from_integers(n, k * den, scaled), a),
                          (halved, a * HALF),
                          (OperatorSum(n, dict(a.items())), a)):
            assert got == want and hash(got) == hash(want)
        assert _coefficients(-a) == [(key, -c) for key, c in _coefficients(a)]
        assert _coefficients(a.adjoint()) == [
            (key, c.conjugate()) for key, c in _coefficients(a)]
        label = data.draw(st.integers(0, (1 << n) - 1))
        got, want = a.apply_basis_state(label), _loop_apply(a, label)
        assert repr(list(got.items())) == repr(list(want.items()))

    def test_sqrt2_parts_that_cancel_leave_a_gaussian_reading(self):
        x = OperatorSum.x(0, 1)
        got = x * RT2_HALF * RT2_HALF
        assert got == x * HALF and got.is_rational
        assert (integer_terms(got) == integer_terms(x * HALF)
                == (2, {(1, 0): (1, 0)}))


# -- linear combinations against the Scalar-by-Scalar loops -----------------

def _loop_add(a, b):
    """a + b as Scalar sums, key by key: a's keys, then b's new keys."""
    a._check_modes(b)
    out = dict(_coefficients(a))
    for key, coeff in _coefficients(b):
        out[key] = out.get(key, ZERO) + coeff
    return OperatorSum(a.n_modes, out)


def _loop_sub(a, b):
    return _loop_add(a, OperatorSum(b.n_modes,
                                    {k: -c for k, c in _coefficients(b)}))


def _loop_scale(a, value):
    scale = Scalar.of(value)
    return OperatorSum(a.n_modes, {k: c * scale for k, c in _coefficients(a)})


def _loop_commutator(a, b):
    return _loop_sub(_pair_loop(a, b), _pair_loop(b, a))


def _loop_anticommutator(a, b):
    return _loop_add(_pair_loop(a, b), _pair_loop(b, a))


_OPERATIONS = {
    "add": (lambda a, b: a + b, _loop_add),
    "sub": (lambda a, b: a - b, _loop_sub),
    "commutator": (commutator, _loop_commutator),
    "anticommutator": (anticommutator, _loop_anticommutator),
}


def _same_terms(got, want):
    """Equal values, the same key order and the same coefficient reprs."""
    assert got.n_modes == want.n_modes
    assert got == want
    assert repr(_coefficients(got)) == repr(_coefficients(want))


_SCALARS = st.one_of(
    st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6),
    st.sampled_from(_UNITS + [ZERO, RT2_HALF, RT2_HALF * I_UNIT]),
    st.builds(Scalar, re=_PART, im=_PART, re2=_ROOT_PART, im2=_ROOT_PART))

# I + iX and Z + Y on one mode: Z is met first in a*b and cancels there;
# b*a brings it back (and cancels Y), so the brackets end with Z
_CANCEL_AND_RETURN = (OperatorSum(1, {(0, 0): ONE, (1, 0): I_UNIT}),
                      OperatorSum(1, {(0, 1): ONE, (1, 1): ONE}))


class TestIntegerLinear:
    """Sums, differences, scalar multiples and brackets formed in integers
    give the Scalar loops' values, term order and coefficients."""

    @settings(max_examples=200, deadline=None)
    @given(_product_operands(), st.sampled_from(sorted(_OPERATIONS)))
    @example(_CANCEL_AND_RETURN, "commutator")
    @example(_CANCEL_AND_RETURN, "anticommutator")
    # X + Z and Y - X: X cancels in the sum
    @example((OperatorSum(1, {(1, 0): ONE, (0, 1): ONE}),
              OperatorSum(1, {(1, 1): ONE, (1, 0): -ONE})), "add")
    @example((OperatorSum.zero(2), OperatorSum.zero(2)), "sub")
    @example((OperatorSum.zero(1), OperatorSum.x(0, 1) * RT2_HALF), "add")
    @example((OperatorSum.y(0, 1) * RT2_HALF, OperatorSum.zero(1)), "sub")
    def test_matches_scalar_loops(self, pair, name):
        a, b = pair
        new, old = _OPERATIONS[name]
        _same_terms(new(a, b), old(a, b))
        _same_terms(new(b, a), old(b, a))

    @settings(max_examples=150, deadline=None)
    @given(_product_operands(), _SCALARS)
    @example((OperatorSum.x(0, 1) + OperatorSum.z(0, 1), OperatorSum.zero(1)),
             ZERO)
    @example((OperatorSum.zero(2), OperatorSum.zero(2)), HALF)
    @example((OperatorSum.y(0, 1) * RT2_HALF, OperatorSum.zero(1)), 0)
    def test_scalar_multiple_matches_loop(self, pair, value):
        op = pair[0]
        want = _loop_scale(op, value)
        _same_terms(op * value, want)
        _same_terms(value * op, want)

    @settings(max_examples=150, deadline=None)
    @given(_product_operands(), _SCALARS)
    @example((OperatorSum.zero(1), OperatorSum.zero(1)), RT2_HALF)
    @example((OperatorSum.x(0, 1) * RT2_HALF, OperatorSum.zero(1)), 0)
    def test_integer_scaled_matches_loop(self, pair, value):
        # a reading over den scaled by value is over den * d, in op's order;
        # scaled by 0 it has no terms
        op = pair[0]
        den, terms = integer_terms(op)
        d, scaled = integer_scaled(terms, value)
        assert list(scaled) == (list(terms) if value else [])
        _same_terms(from_integers(op.n_modes, den * d, scaled),
                    _loop_scale(op, value))

    def test_cancel_and_return_goes_last(self):
        a, b = _CANCEL_AND_RETURN
        assert list((a * b)._terms) == [(1, 1)]
        assert list((b * a)._terms) == [(0, 1)]
        # Z is met before Y in a*b, but it cancels there
        for got in (commutator(a, b), anticommutator(a, b)):
            assert list(got._terms) == [(1, 1), (0, 1)]
        # a*b = 2Y and b*a = 2Z
        assert commutator(a, b) == OperatorSum(1, {(1, 1): Scalar(2),
                                                   (0, 1): Scalar(-2)})

    def test_mode_mismatch_message_kept(self):
        for a, b in ((OperatorSum.x(0, 1), OperatorSum.x(0, 2)),
                     (OperatorSum.zero(1), OperatorSum.zero(2) * RT2_HALF)):
            for new, _ in _OPERATIONS.values():
                with pytest.raises(ModeMismatchError,
                                   match="^operands on 1 and 2 modes$"):
                    new(a, b)

    def test_float_scalar_rejected(self):
        op = OperatorSum.x(0, 1)
        for value in (0.5, 1j, float("nan")):
            with pytest.raises(TypeError, match="unsupported operand"):
                op * value
            with pytest.raises(TypeError, match="unsupported operand"):
                value * op


class TestLinearWorkCounters:
    """Sums, differences, scalar multiples and brackets add, multiply,
    negate and build no Scalars."""

    @pytest.mark.parametrize("root", [False, True])
    def test_one_scalar_per_output_key(self, monkeypatch, root):
        rng = random.Random(37)
        a, b = random_sum(rng, 4, 8), random_sum(rng, 4, 8)
        if root:
            a = a * RT2_HALF + random_sum(rng, 4, 3)
        forms = {
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "scale": lambda: a * (RT2_HALF if root else HALF),
            "int": lambda: 3 * a,
            "fraction": lambda: Fraction(-2, 3) * b,
            "commutator": lambda: commutator(a, b),
            "anticommutator": lambda: anticommutator(a, b),
        }
        counts = {}
        real = {name: getattr(Scalar, name)
                for name in ("__add__", "__mul__", "__neg__", "__init__")}

        def spy(name):
            def method(self, *args, **kwargs):
                counts[name] += 1
                return real[name](self, *args, **kwargs)
            return method

        for name in real:
            monkeypatch.setattr(Scalar, name, spy(name))
        for label, form in forms.items():
            counts.update(dict.fromkeys(real, 0))
            got = form()
            assert got.n_terms > 4, label
            assert counts == {"__add__": 0, "__mul__": 0, "__neg__": 0,
                              "__init__": 0}, label
