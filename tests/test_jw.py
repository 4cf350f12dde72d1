"""String attachment, anticommutation checks, and composite-mode maps."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qalg.errors import SpeciesError
from qalg.jw import (
    boson_approx_commutator,
    jw_fermion_to_pauli,
    string_operator,
    verify_car,
)
from qalg.parafermion import (
    SecondQuantizedExpr,
    lowering_op,
    number_site,
    raising_op,
    to_pauli,
)
from qalg.pauli import (
    OperatorSum,
    Scalar,
    anticommutator,
    commutator,
    realize,
)
from qalg.verifier import TruncatedBosonSpace, compound_mapping_check

E = SecondQuantizedExpr


def fermion(kind, mode, n):
    return getattr(E, kind)(mode, n, "fermion")


class TestStrings:
    def test_alternating_sign_pattern(self):
        assert string_operator(0, 2) == OperatorSum.identity(2)
        assert string_operator(1, 2) == OperatorSum.z(0, 2) * -1
        assert string_operator(2, 3) == OperatorSum.z(0, 3) * OperatorSum.z(1, 3)

    def test_strings_square_to_identity(self):
        for i in range(4):
            s = string_operator(i, 4)
            assert s * s == OperatorSum.identity(4)

    def test_string_op_wrapper(self):
        # the expanded product of (1 - 2n_k), k < 2, realizes the string
        expr = E.constant(1, 4, "parafermion")
        for k in range(2):
            one = E.constant(1, 4, "parafermion")
            expr = expr * (one - E.number(k, 4, "parafermion") * 2)
        assert to_pauli(expr) == string_operator(2, 4)


class TestFermionImage:
    def test_species_guard(self):
        with pytest.raises(SpeciesError):
            jw_fermion_to_pauli(E.annihilate(0, 2, "parafermion"))

    def test_site_zero_matches_bare_mode(self):
        got = jw_fermion_to_pauli(fermion("annihilate", 0, 3))
        want = to_pauli(E.annihilate(0, 3, "parafermion"))
        assert got == want

    def test_adjacent_hopping_strings_cancel(self):
        for n in (2, 3, 4):
            for i in range(n - 1):
                hop_f = fermion("create", i + 1, n) * fermion("annihilate", i, n)
                hop_p = (E.create(i + 1, n, "parafermion")
                         * E.annihilate(i, n, "parafermion"))
                assert jw_fermion_to_pauli(hop_f) == to_pauli(hop_p)

    def test_distant_hopping_keeps_interior_string(self):
        hop_f = fermion("create", 2, 3) * fermion("annihilate", 0, 3)
        hop_p = E.create(2, 3, "parafermion") * E.annihilate(0, 3, "parafermion")
        diff = jw_fermion_to_pauli(hop_f) - to_pauli(hop_p)
        assert not diff.is_zero

    def test_cross_site_anticommutation_dense(self):
        n = 3
        ops = [jw_fermion_to_pauli(fermion("annihilate", i, n)) for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert anticommutator(ops[i], ops[j]).is_zero
                ac = anticommutator(ops[i], ops[j].adjoint())
                if i == j:
                    assert ac == OperatorSum.identity(n)
                else:
                    assert ac.is_zero

    def test_number_operator_is_string_free(self):
        for i in range(3):
            got = jw_fermion_to_pauli(fermion("number", i, 3))
            assert got == number_site(i, 3)

    def test_car_reports(self):
        for n in (1, 3, 5):
            rep = verify_car(n)
            assert rep.n_modes == n
            assert all(c.passed for c in rep.checks)
            # one {a_i, a_j+} check per ordered pair plus squares
            assert len(rep.checks) >= n * n


class TestCollectiveMode:
    def test_single_mode_reduces_to_z(self):
        # 1 - 2n on a single mode is just -Z
        assert boson_approx_commutator(1) == OperatorSum.z(0, 1) * -1

    def test_commutator_diagonal_values(self):
        n = 3
        diag = np.diag(realize(boson_approx_commutator(n))).real
        for label in range(8):
            occupied = n - bin(label).count("1")
            assert abs(diag[label] - (1 - 2 * occupied / n)) < 1e-15

    def test_vacuum_expectation_is_unity(self):
        # on the empty state the collective mode looks exactly bosonic;
        # evaluate through the exact column action, not float matrices
        for n in (2, 4, 6):
            op = boson_approx_commutator(n)
            vac = (1 << n) - 1
            column = op.apply_basis_state(vac)
            assert sum(c.to_complex() for row, c in column.items() if row == vac) == 1


def loop_boson_commutator(n):
    """boson_approx_commutator as it stood: each sum built by N additions."""
    low = OperatorSum.zero(n)
    high = OperatorSum.zero(n)
    for i in range(n):
        low = low + lowering_op(i, n)
        high = high + raising_op(i, n)
    return commutator(low, high) * Scalar(Fraction(1, n))


@pytest.mark.parametrize("n", range(1, 11))
def test_collective_commutator_matches_the_loop_of_additions(n):
    got, want = boson_approx_commutator(n), loop_boson_commutator(n)
    assert got == want
    assert list(got._terms) == list(want._terms)
    assert (repr([got.coefficient(*key) for key in got._terms])
            == repr([want.coefficient(*key) for key in want._terms]))


# -- the kron construction of the boson operators, as it stood ------------

def kron_embed(space, op, mode):
    d = space.cutoff + 1
    return np.kron(np.eye(d ** (space.n_modes - 1 - mode)),
                   np.kron(op, np.eye(d ** mode)))


def kron_annihilate(space, mode):
    d = space.cutoff + 1
    op = np.diag(np.sqrt(np.arange(1, d)), k=1).astype(complex)
    return kron_embed(space, op, mode)


def kron_number(space, mode):
    d = space.cutoff + 1
    return kron_embed(space, np.diag(np.arange(d)).astype(complex), mode)


class TestBosonSpaceByIndex:
    """The operators built from the digits of the basis index equal the
    kron construction entry for entry, and hop(i, j) equals the product
    create(i) @ annihilate(j)."""

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_matches_kron(self, n_modes, cutoff):
        sp = TruncatedBosonSpace(n_modes, cutoff)
        ladder = [kron_annihilate(sp, mode) for mode in range(n_modes)]
        for mode, a in enumerate(ladder):
            assert np.array_equal(sp.annihilate(mode), a)
            assert np.array_equal(sp.create(mode), a.conj().T)
            assert np.array_equal(sp.number(mode), kron_number(sp, mode))
            assert sp.annihilate(mode).dtype == sp.number(mode).dtype == complex
            for other, b in enumerate(ladder):
                if other != mode:
                    assert np.array_equal(sp.hop(mode, other), a.conj().T @ b)

    def test_bad_modes_rejected(self):
        sp = TruncatedBosonSpace(2, cutoff=2)
        for mode in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                sp.annihilate(mode)
            with pytest.raises(ValueError, match="out of range"):
                sp.number(mode)
        with pytest.raises(ValueError, match="two different modes"):
            sp.hop(1, 1)


class TestBosonSpace:
    def test_ladder_commutator_below_cutoff(self):
        sp = TruncatedBosonSpace(1, cutoff=4)
        b = sp.annihilate(0)
        comm = b @ b.conj().T - b.conj().T @ b
        # exact identity except on the truncated top rung
        assert np.allclose(np.diag(comm)[:-1], 1.0)
        assert np.diag(comm)[-1] == -4

    def test_indexing_round_trip(self):
        sp = TruncatedBosonSpace(3, cutoff=2)
        rng = random.Random(4)
        for _ in range(10):
            occ = tuple(rng.randrange(3) for _ in range(3))
            assert sp.occupations(sp.index_of(occ)) == occ
        assert sp.dim == 27

    def test_number_matches_occupations(self):
        sp = TruncatedBosonSpace(2, cutoff=2)
        n1 = np.diag(sp.number(1)).real
        for idx in range(sp.dim):
            assert n1[idx] == sp.occupations(idx)[1]

    def test_bad_occupations_rejected(self):
        sp = TruncatedBosonSpace(2, cutoff=1)
        with pytest.raises(ValueError):
            sp.index_of((0, 2))
        with pytest.raises(ValueError):
            sp.index_of((0, 0, 0))
        assert sp.occupations(3) == (1, 1)
        for index in (-1, 4, 100):
            with pytest.raises(ValueError, match="out of range for 4 states"):
                sp.occupations(index)
        with pytest.raises(ValueError):
            TruncatedBosonSpace(0, cutoff=1)


class TestCompoundMappings:
    @pytest.mark.parametrize("case", [1, 2, 3])
    @pytest.mark.parametrize("pairs", [1, 2])
    def test_all_relations_hold(self, case, pairs):
        rep = compound_mapping_check(case, pairs)
        assert rep.case == case and rep.n_pairs == pairs
        assert rep.checks
        for chk in rep.checks:
            assert chk.passed, (case, pairs, chk.name)

    def test_case_three_is_truncated_bosonic(self):
        assert compound_mapping_check(3, 1).cutoff == 1
        assert compound_mapping_check(1, 1).cutoff is None

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            compound_mapping_check(4, 1)
