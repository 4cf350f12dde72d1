"""End-to-end checklist for the package's headline behavior.

Each test owns one numbered criterion and prints a single
``criterion NN PASS/FAIL`` line past the capture machinery, so any
run reads as a checklist.  Expected dimensions, matrices, and sign
tables are the closed-form values for each construction; nothing
here is tuned to the implementation.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from qalg.codes import build_code, encoded_cphase, encoded_generator, rate, synthesize_su_d
from qalg.jw import boson_approx_commutator, jw_fermion_to_pauli, verify_car
from qalg.lie import GeneratorSet, classify_algebra, close
from qalg.parafermion import (
    SecondQuantizedExpr,
    enumerate_generators,
    lowering_op,
    number_site,
    parity_operator,
    raising_op,
    to_pauli,
)
from qalg.pauli import I_UNIT, OperatorSum, Scalar, commutator
from qalg.thermal import ThermalParams, occupation, sweep
from qalg.verifier import (
    check_axy_encoded,
    check_axy_split,
    check_bch_series,
    check_kerr_selfkerr,
    check_recoupling,
    compound_mapping_check,
)


def dense(gate):
    """The gate's dim x dim matrix, densified from its exact entries."""
    m = np.zeros((gate.dim, gate.dim), dtype=complex)
    for (r, c), s in gate.entries.items():
        m[r, c] = s.to_complex()
    return m


@pytest.fixture
def report(capfd):
    @contextmanager
    def _report(num, desc):
        def emit(verdict):
            with capfd.disabled():
                print(f"criterion {num:02d} {verdict}: {desc}")
        try:
            yield
        except BaseException:
            emit("FAIL")
            raise
        emit("PASS")
    return _report


def op_key(op):
    """Canonical hashable form of an operator for set comparison."""
    return tuple(sorted(op.items()))


def pauli_rank(ops):
    """Rank of the coefficient matrix over the Pauli words that appear."""
    keys = sorted({k for op in ops for k, _ in op.items()})
    col = {k: j for j, k in enumerate(keys)}
    m = np.zeros((len(ops), len(keys)), dtype=complex)
    for r, op in enumerate(ops):
        for k, c in op.items():
            m[r, col[k]] = c.to_complex()
    return int(np.linalg.matrix_rank(m))


def herm_pair(expr):
    """Hermitian combinations op + adj and i*(op - adj)."""
    return [expr + expr.adjoint(), (expr - expr.adjoint()) * I_UNIT]


def strung_lowering(i, n, species):
    """Lowering operator dressed with the sign string over earlier modes."""
    s = SecondQuantizedExpr.constant(1, n, species)
    for k in range(i):
        s = s * (SecondQuantizedExpr.constant(1, n, species)
                 - 2 * SecondQuantizedExpr.number(k, n, species))
    return SecondQuantizedExpr.annihilate(i, n, species) * s


def family_generators(n, species):
    """The four bilinear-family generator sets, as Pauli operators.

    Keys map to the algebras their closures should fill:
    hopping -> su(n), hopping+pairing -> so(2n), strung linears ->
    so(2n+1), and bare linears with hopping -> su(2**n).  Which species
    carries the string on its linear terms is swapped between the two
    columns; that swap is the whole point of the mapping.
    """
    conv = to_pauli if species == "parafermion" else jw_fermion_to_pauli
    a = lambda i: SecondQuantizedExpr.annihilate(i, n, species)
    ad = lambda i: SecondQuantizedExpr.create(i, n, species)
    hops, pairs, strung, bare = [], [], [], []
    for i in range(n - 1):
        hops += herm_pair(ad(i) * a(i + 1))
        pairs += herm_pair(a(i) * a(i + 1))
    for i in range(n):
        strung += herm_pair(strung_lowering(i, n, species))
        bare += herm_pair(a(i))
    if species == "parafermion":
        linear_small, linear_big = strung, bare
    else:
        linear_small, linear_big = bare, strung
    sets = {
        "hopping": (hops, n * n - 1),
        "hopping+pairing": (hops + pairs, n * (2 * n - 1)),
        "linear": (linear_small, n * (2 * n + 1)),
        "linear+hopping": (linear_big + hops, 4**n - 1),
    }
    return {name: ([conv(e) for e in exprs], dim) for name, (exprs, dim) in sets.items()}


def xy_generators(n):
    """Number operators plus nearest-neighbor hopping Hermitians."""
    gens = [number_site(i, n) for i in range(n)]
    for i in range(n - 1):
        hop = (SecondQuantizedExpr.create(i, n, "parafermion")
               * SecondQuantizedExpr.annihilate(i + 1, n, "parafermion"))
        gens += [to_pauli(e) for e in herm_pair(hop)]
    return gens


def test_01_two_mode_monomial_enumeration(report):
    with report(1, "two-mode monomials: 16 total, 8 parity-even, 6 number-even"):
        t0 = time.monotonic()
        n = 2

        def monomial_image(create_mask, annihilate_mask):
            op = OperatorSum.identity(n)
            for i in reversed(range(n)):
                if create_mask >> i & 1:
                    op = op * raising_op(i, n)
            for i in reversed(range(n)):
                if annihilate_mask >> i & 1:
                    op = op * lowering_op(i, n)
            return op

        full = enumerate_generators(n)
        assert len(full) == 16
        want_full = {op_key(monomial_image(a, b)) for a in range(4) for b in range(4)}
        assert {op_key(to_pauli(idx.monomial())) for idx in full} == want_full
        assert pauli_rank([to_pauli(idx.monomial()) for idx in full]) == 16

        # The closed-form parity-even list: identity, double raise and
        # lower, all four hoppings, and the double occupation monomial.
        parity_list = [
            monomial_image(0, 0),
            monomial_image(3, 0),
            monomial_image(0, 3),
            monomial_image(1, 1),
            monomial_image(1, 2),
            monomial_image(2, 1),
            monomial_image(2, 2),
            monomial_image(3, 3),
        ]
        parity = enumerate_generators(n, filter="parity")
        assert len(parity) == 8
        assert ({op_key(to_pauli(idx.monomial())) for idx in parity}
                == {op_key(op) for op in parity_list})

        number_list = parity_list[:1] + parity_list[3:]
        number = enumerate_generators(n, filter="number")
        assert len(number) == 6
        assert ({op_key(to_pauli(idx.monomial())) for idx in number}
                == {op_key(op) for op in number_list})
        assert time.monotonic() - t0 < 1.0


def test_02_conserving_subalgebra_dimensions(report):
    with report(2, "parity/number subalgebra dimensions match 2^(2N-1) and C(2N,N)"):
        t0 = time.monotonic()
        for n in (2, 3, 4):
            parity = enumerate_generators(n, filter="parity")
            number = enumerate_generators(n, filter="number")
            assert len(parity) == 2 ** (2 * n - 1)
            assert len(number) == math.comb(2 * n, n)
            assert pauli_rank([to_pauli(i.monomial()) for i in parity]) == len(parity)
            assert pauli_rank([to_pauli(i.monomial()) for i in number]) == len(number)
        assert time.monotonic() - t0 < 5.0


def test_03_bilinear_family_closures(report):
    with report(3, "hard-core bilinear families close to su(N)/so(2N)/so(2N+1)/su(2^N)"):
        t0 = time.monotonic()
        for n in (2, 3):
            for name, (gens, dim) in family_generators(n, "parafermion").items():
                basis = close(GeneratorSet(n, gens))
                assert basis.closed, (name, n)
                assert basis.dimension_traceless == dim, (name, n, basis.dimension_traceless)
        assert time.monotonic() - t0 < 60.0


def test_04_fermionic_mirror_closures(report):
    with report(4, "string-mapped fermionic families reach the same dimensions"):
        t0 = time.monotonic()
        for n in (2, 3):
            for name, (gens, dim) in family_generators(n, "fermion").items():
                basis = close(GeneratorSet(n, gens))
                assert basis.closed, (name, n)
                assert basis.dimension_traceless == dim, (name, n, basis.dimension_traceless)
        assert time.monotonic() - t0 < 60.0


def test_05_xy_chain_stays_quadratic(report):
    with report(5, "XY chain with fields closes at dimension N^2, not the full space"):
        t0 = time.monotonic()
        for n in (3, 4):
            basis = close(GeneratorSet(n, xy_generators(n)))
            assert basis.closed
            assert basis.dimension == n * n, basis.dimension
            verdict = classify_algebra(basis)
            assert not verdict.universal_full_space
            assert any(m.name == "u(N)" and m.hit for m in verdict.matches)
        assert time.monotonic() - t0 < 30.0


def test_06_field_free_closure_conserves_parity(report):
    with report(6, "field-free interacting chain closure commutes with parity"):
        for n in (2, 3):
            e = lambda kind, *ix: getattr(SecondQuantizedExpr, kind)(*ix, n, "parafermion")
            gens = [number_site(i, n) for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    gens += [to_pauli(x) for x in herm_pair(e("annihilate", i) * e("annihilate", j))]
                    gens += [to_pauli(x) for x in herm_pair(e("create", i) * e("annihilate", j))]
                    gens.append(to_pauli(e("number", i) * e("number", j)))
            basis = close(GeneratorSet(n, gens))
            assert basis.closed
            assert basis.dimension <= 2 ** (2 * n - 1), basis.dimension
            parity = parity_operator(n)
            for op in basis.basis:
                assert commutator(op, parity).is_zero
            assert classify_algebra(basis).conserves_parity


def test_07_anticommutation_relations_exact(report):
    with report(7, "string-mapped mode operators satisfy the anticommutation relations"):
        for n in range(1, 6):
            rep = verify_car(n)
            assert rep.checks, n
            for chk in rep.checks:
                assert chk.passed, (n, chk.name)


def test_08_collective_mode_commutator(report):
    with report(8, "collective-mode commutator equals 1 - (2/N) sum of numbers"):
        for n in range(1, 7):
            got = boson_approx_commutator(n)
            total = OperatorSum.zero(n)
            for i in range(n):
                total = total + number_site(i, n)
            want = OperatorSum.identity(n) - total * Scalar(Fraction(2, n))
            assert (got - want).is_zero, n


def test_09_paired_mode_mappings(report):
    with report(9, "paired-mode composite mappings hold for one to three pairs"):
        for case in (1, 2, 3):
            for pairs in (1, 2, 3):
                rep = compound_mapping_check(case, pairs)
                for chk in rep.checks:
                    assert chk.passed, (case, pairs, chk.name)


def test_10_cross_phase_from_beamsplitters(report):
    with report(10, "self-phase conjugation composes into the two-rail cross phase"):
        chk = check_kerr_selfkerr()
        assert chk.passed, chk.details
        assert chk.residual <= 1e-10


def test_11_conjugation_flow_and_series(report):
    with report(11, "conjugation special cases exact; series halving ratio near 32"):
        rec = check_recoupling()
        assert rec.passed, rec.details
        bch = check_bch_series()
        assert bch.passed, bch.details
        ratio_line = next(d for d in bch.details if "halving ratio" in d)
        ratio = float(ratio_line.split()[2].rstrip(","))
        assert abs(ratio - 32.0) <= 0.2 * 32.0, ratio


def test_12_code_generators_and_synthesis(report):
    with report(12, "encoded generators exact; synthesis fills su(d); rates behave"):
        c31 = build_code(3, 1)
        tx = dense(encoded_generator(c31, "x", (0, 1)))
        assert np.array_equal(tx, np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
        tz = dense(encoded_generator(c31, "z", (1, 2)))
        assert np.array_equal(tz, np.diag([1, -1, 0]))

        r31 = synthesize_su_d(c31)
        assert r31.success and r31.basis.dimension_traceless == 8
        r42 = synthesize_su_d(build_code(4, 2))
        assert r42.success and r42.basis.dimension_traceless == 35

        cp = encoded_cphase(c31, c31)
        assert cp.left_signs == (-1, 1, 1)
        assert cp.right_signs == (1, 1, -1)
        assert np.array_equal(
            np.diag(cp.zz_diagonal),
            np.kron(np.diag(cp.left_signs), np.diag(cp.right_signs)))

        rates = [rate(n, n // 2) for n in (4, 8, 12, 16)]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(r < 1.0 for r in rates)
        assert abs(rate(3, 1) - math.log2(3) / 3) <= 1e-12


def test_13_two_block_chain_identities(report):
    with report(13, "two-block chain conjugations exact; interface sign table matches"):
        enc = check_axy_encoded()
        assert enc.passed and enc.residual == 0.0, enc.details
        split = check_axy_split()
        assert split.passed and split.residual == 0.0, split.details

        cp = encoded_cphase(build_code(2, 1), build_code(2, 1))
        assert np.array_equal(cp.zz_diagonal, np.array([-1, 1, 1, -1]))
        assert np.array_equal(np.diag(dense(cp)), np.array([1, -1, -1, 1]))


def test_14_occupation_statistics(report):
    with report(14, "occupations: half filling at zero gap, sharp steps, sum rule"):
        for mu, kt in ((1.0, 0.7), (0.4, 2.5), (6.0, 0.05)):
            occ = occupation(ThermalParams(B=(mu / 2,), mu=mu, kT=kt))
            assert abs(occ[0] - 0.5) <= 1e-15, (mu, kt, occ)

        steps = occupation(ThermalParams(B=(0.2, 0.5, 0.9), mu=1.0, kT=0.0, zero_limit=True))
        assert steps == [1.0, 0.5, 0.0]

        for x in np.linspace(-0.49, 0.49, 100):
            occ = occupation(ThermalParams(B=(0.5 + x, 0.5 - x), mu=1.0, kT=0.8))
            assert abs(occ[0] + occ[1] - 1.0) <= 1e-12, x

        rows = sweep((0.2, 0.5, 0.9), 1.0, (0.0, 1.0))
        assert rows[0] == (0.0, [1.0, 0.5, 0.0])


def test_15_closure_order_independence(report):
    with report(15, "closure dimensions survive random generator reordering"):
        rng = random.Random(0)
        named_sets = []
        for n in (2, 3):
            for species in ("parafermion", "fermion"):
                for name, (gens, dim) in family_generators(n, species).items():
                    named_sets.append((f"{species}/{name}/N={n}", n, gens, dim))
        for n in (3, 4):
            named_sets.append((f"xy/N={n}", n, xy_generators(n), None))

        for label, n, gens, _ in named_sets:
            reference = close(GeneratorSet(n, gens))
            for _ in range(10):
                order = list(range(len(gens)))
                rng.shuffle(order)
                shuffled = close(GeneratorSet(n, [gens[k] for k in order]))
                assert shuffled.dimension == reference.dimension, label
                assert shuffled.dimension_traceless == reference.dimension_traceless, label
                assert shuffled.closed == reference.closed, label
