"""Closure engine: dimensions, classification, invariance, subspace runs."""

import math
import random

import numpy as np
import pytest

from qalg.codes import build_code, physical_generator
from qalg.errors import SubspaceLeakError
from qalg.lie import (
    GeneratorSet,
    classify_algebra,
    close,
    close_on_subspace,
    dense_span_rank,
    expected_dimension,
)
from qalg.parafermion import SecondQuantizedExpr, number_site, to_pauli
from qalg.pauli import I_UNIT, OperatorSum, realize

E = SecondQuantizedExpr


def herm_pair(expr):
    return [expr + expr.adjoint(), (expr - expr.adjoint()) * I_UNIT]


def hop(i, j, n, species="parafermion"):
    return E.create(i, n, species) * E.annihilate(j, n, species)


def all_pair_hops(n, species="parafermion"):
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            gens += herm_pair(hop(i, j, n, species))
    conv = to_pauli if species == "parafermion" else None
    if conv is None:
        from qalg.jw import jw_fermion_to_pauli as conv
    return [conv(e) for e in gens]


class TestBasicClosures:
    def test_two_anticommuting_paulis_close_to_three(self):
        basis = close(GeneratorSet(1, [OperatorSum.x(0, 1), OperatorSum.z(0, 1)]))
        assert basis.dimension == 3 and basis.closed

    def test_single_generator_is_already_closed(self):
        basis = close(GeneratorSet(2, [OperatorSum.z(0, 2)]))
        assert basis.dimension == 1 and basis.closed and basis.rounds == 1

    def test_commuting_set_stays_abelian(self):
        gens = [number_site(i, 3) for i in range(3)]
        basis = close(GeneratorSet(3, gens))
        assert basis.dimension == 3 and basis.closed

    def test_duplicate_generators_collapse(self):
        x = OperatorSum.x(0, 1)
        basis = close(GeneratorSet(1, [x, x * 2, x]))
        assert basis.dimension == 1

    def test_max_dim_stops_early(self):
        gens, _ = _family("linear+hopping", 3, "parafermion")
        basis = close(GeneratorSet(3, gens), max_dim=10)
        assert not basis.closed
        assert basis.dimension >= 10

    def test_provenance_depth_recorded(self):
        basis = close(GeneratorSet(1, [OperatorSum.x(0, 1), OperatorSum.z(0, 1)]))
        assert len(basis.provenance) == basis.dimension
        assert basis.provenance_depth >= 1


def _family(name, n, species):
    """Rebuild one of the bilinear families used by the end-to-end tests."""
    conv = to_pauli
    if species == "fermion":
        from qalg.jw import jw_fermion_to_pauli as conv
    a = lambda i: E.annihilate(i, n, species)
    ad = lambda i: E.create(i, n, species)
    hops, pairs, bare = [], [], []
    for i in range(n - 1):
        hops += herm_pair(ad(i) * a(i + 1))
        pairs += herm_pair(a(i) * a(i + 1))
    for i in range(n):
        bare += herm_pair(a(i))
    sets = {
        "hopping": (hops, n * n - 1),
        "hopping+pairing": (hops + pairs, n * (2 * n - 1)),
        "linear+hopping": (bare + hops, 4**n - 1),
    }
    exprs, dim = sets[name]
    return [conv(e) for e in exprs], dim


class TestKnownDimensions:
    def test_nearest_neighbor_hops_give_traceless_bilinears(self):
        gens, dim = _family("hopping", 3, "parafermion")
        basis = close(GeneratorSet(3, gens))
        assert basis.dimension == dim == 8

    def test_pairing_extension(self):
        gens, dim = _family("hopping+pairing", 2, "parafermion")
        basis = close(GeneratorSet(2, gens))
        assert basis.dimension == dim == 6

    def test_linears_saturate_everything(self):
        gens, dim = _family("linear+hopping", 2, "parafermion")
        basis = close(GeneratorSet(2, gens))
        assert basis.dimension_traceless == dim == 15
        verdict = classify_algebra(basis)
        assert verdict.universal_full_space

    def test_expected_dimension_formulas(self):
        assert expected_dimension("su(2^N)", 3) == 63
        assert expected_dimension("u(2^N)", 2) == 16
        assert expected_dimension("so(2N+1)", 2) == 10
        assert expected_dimension("so(2N)", 3) == 15
        assert expected_dimension("u(N)", 4) == 16
        assert expected_dimension("su(N)", 4) == 15
        assert expected_dimension("number-conserving", 3) == math.comb(6, 3)
        assert expected_dimension("parity-conserving", 3) == 2**5
        with pytest.raises(ValueError):
            expected_dimension("e8", 2)

    def test_classification_requires_closure(self):
        gens, _ = _family("linear+hopping", 2, "parafermion")
        basis = close(GeneratorSet(2, gens), max_dim=5)
        with pytest.raises(ValueError):
            classify_algebra(basis)


class TestClassificationFlags:
    """Conservation flags and name matches of the named algebras."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_u_n_conserves_number_and_parity(self, n):
        gens, _ = _family("hopping", n, "parafermion")
        gens += [to_pauli(E.number(i, n)) for i in range(n)]
        verdict = classify_algebra(close(GeneratorSet(n, gens)))
        assert verdict.dimension == n * n
        assert (verdict.conserves_number, verdict.conserves_parity) == (True, True)
        assert [m.name for m in verdict.matches if m.hit] == ["u(N)"]
        assert not verdict.universal_full_space

    @pytest.mark.parametrize("n", [2, 3])
    def test_so_2n_conserves_parity_only(self, n):
        gens, _ = _family("hopping+pairing", n, "fermion")
        verdict = classify_algebra(close(GeneratorSet(n, gens)))
        assert verdict.dimension_traceless == n * (2 * n - 1)
        assert (verdict.conserves_number, verdict.conserves_parity) == (False, True)
        assert [m.name for m in verdict.matches if m.hit] == ["so(2N)"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_su_2n_conserves_neither(self, n):
        gens, _ = _family("linear+hopping", n, "parafermion")
        verdict = classify_algebra(close(GeneratorSet(n, gens)))
        assert verdict.dimension_traceless == 4 ** n - 1
        assert (verdict.conserves_number, verdict.conserves_parity) == (False, False)
        assert [m.name for m in verdict.matches if m.hit] == ["su(2^N)"]
        assert verdict.universal_full_space


class TestQuadraticScaling:
    def test_fermionic_all_pair_hops_close_at_traceless_quadratic(self):
        # hops alone never produce the total-number direction, so the
        # closure is the traceless quadratic algebra of size N^2 - 1
        for n in (2, 3, 4):
            basis = close(GeneratorSet(n, all_pair_hops(n, "fermion")))
            assert basis.dimension == n * n - 1, (n, basis.dimension)

    def test_hard_core_all_pair_hops_outgrow_n_squared(self):
        # without strings the non-adjacent hops leave the quadratic
        # algebra; frozen closure sizes for three and four modes
        sizes = {}
        for n in (2, 3, 4):
            basis = close(GeneratorSet(n, all_pair_hops(n, "parafermion")))
            sizes[n] = basis.dimension
        assert sizes[2] == 3  # two modes have only the adjacent pair
        assert sizes[3] == 16
        assert sizes[4] == 65
        for n in (3, 4):
            assert sizes[n] > n * n

    def test_hard_core_hops_stay_below_number_conserving_count(self):
        for n in (2, 3):
            basis = close(GeneratorSet(n, all_pair_hops(n, "parafermion")))
            assert basis.dimension < math.comb(2 * n, n)

    def test_open_question_mode_count_comparison(self):
        # closure of all-pair hops compared against the number-conserving
        # span on the same and the next mode count; both are computed and
        # reported, neither bound is asserted beyond the strict gap above
        dims = {}
        for n in (2, 3):
            basis = close(GeneratorSet(n, all_pair_hops(n, "parafermion")))
            dims[n] = (basis.dimension, math.comb(2 * n, n), math.comb(2 * (n + 1), n + 1))
        for n, (got, same, bigger) in dims.items():
            assert got < same < bigger


class TestInvariance:
    def test_order_independence_small(self):
        gens, _ = _family("hopping+pairing", 3, "parafermion")
        reference = close(GeneratorSet(3, gens)).dimension
        rng = random.Random(1)
        for _ in range(5):
            order = list(range(len(gens)))
            rng.shuffle(order)
            assert close(GeneratorSet(3, [gens[k] for k in order])).dimension == reference

    def test_monotone_under_added_generators(self):
        gens, _ = _family("linear+hopping", 2, "parafermion")
        dims = []
        for k in range(1, len(gens) + 1):
            dims.append(close(GeneratorSet(2, gens[:k])).dimension)
        assert all(a <= b for a, b in zip(dims, dims[1:]))

    def test_scaling_a_generator_changes_nothing(self):
        gens, _ = _family("hopping", 2, "parafermion")
        scaled = [g * 7 for g in gens]
        assert (close(GeneratorSet(2, gens)).dimension
                == close(GeneratorSet(2, scaled)).dimension)

    def test_dense_rank_agrees_with_exact_dimension(self):
        for name in ("hopping", "hopping+pairing", "linear+hopping"):
            for n in (2, 3):
                gens, _ = _family(name, n, "parafermion")
                basis = close(GeneratorSet(n, gens))
                assert dense_span_rank(basis.basis) == basis.dimension


def _dense(elem, d):
    """d x d matrix of a subspace basis element {(row, col): Scalar}."""
    m = np.zeros((d, d), dtype=complex)
    for (r, c), s in elem.items():
        m[r, c] = s.to_complex()
    assert np.array_equal(m, m.conj().T)
    return m


def _check_dense(basis):
    """numpy oracle for a subspace closure: the realized basis has full
    rank, element k is i[b_i, b_j] reduced against the elements before it,
    and no bracket of two basis elements leaves the span."""
    def rank(mats):
        return np.linalg.matrix_rank(np.array([m.reshape(-1) for m in mats]))

    mats = [_dense(b, basis.subspace_dim) for b in basis.basis]
    assert rank(mats) == basis.dimension
    for pos, src in enumerate(basis.provenance):
        if src is not None:
            a, b = (mats[t] for t in src)
            br = 1j * (a @ b - b @ a)
            assert rank(mats[:pos] + [br]) == pos + 1 == rank(mats[:pos + 1] + [br])
    brackets = [1j * (a @ b - b @ a) for a in mats for b in mats]
    assert rank(mats + brackets) == basis.dimension


class TestSubspaceClosures:
    def test_adjacent_transpositions_close_as_spin_triple(self):
        # two overlapping swaps bracket to the third rotation axis and
        # stop there; su(3) needs either the z-types or the closing pair
        code = build_code(3, 1)
        phys = [physical_generator("x", (0, 1), 3), physical_generator("x", (1, 2), 3)]
        basis = close_on_subspace(GeneratorSet(3, phys), code)
        assert basis.subspace_dim == 3
        assert basis.dimension == 3

    def test_all_pair_transpositions_fill_su3(self):
        code = build_code(3, 1)
        phys = [physical_generator("x", p, 3) for p in ((0, 1), (1, 2), (0, 2))]
        basis = close_on_subspace(GeneratorSet(3, phys), code)
        assert basis.dimension == 8

    def test_x_and_z_on_one_pair_close_to_su2(self):
        basis = close_on_subspace(
            GeneratorSet(3, [physical_generator("x", (0, 1), 3),
                             physical_generator("z", (0, 1), 3)]),
            build_code(3, 1))
        assert basis.dimension == 3

    def test_single_diagonal_is_one(self):
        basis = close_on_subspace(
            GeneratorSet(3, [physical_generator("z", (1, 2), 3)]),
            build_code(3, 1))
        assert basis.dimension == 1

    def test_identity_component_keeps_closing_past_d2_minus_1(self):
        # X and n(m) on C(2,1) give three elements, one with a trace, so
        # the span is not yet all of su(2); the bracket [X, Y] adds Z
        for site in (0, 1):
            basis = close_on_subspace(
                GeneratorSet(2, [physical_generator("x", (0, 1), 2),
                                 number_site(site, 2)]),
                build_code(2, 1))
            assert (basis.dimension, basis.dimension_traceless) == (4, 3)
        full = close(GeneratorSet(1, [OperatorSum.x(0, 1),
                                      OperatorSum.identity(1) + OperatorSum.z(0, 1)]))
        assert (full.dimension, full.dimension_traceless) == (4, 3)

    def test_seeds_are_the_projected_generators(self):
        # mixed hopping, current and diagonal terms: complex entries, so a
        # conjugated or transposed seed is not a real multiple of the
        # projection, and brackets with both diagonal and off-diagonal parts
        code = build_code(4, 2)
        idx = list(code.dense_indices)
        hx, hy = (to_pauli(h) for h in herm_pair(hop(0, 2, 4)))
        gens = [hx + hy + physical_generator("z", (1, 3), 4),
                physical_generator("x", (1, 2), 4) - hy * 2
                + physical_generator("z", (0, 1), 4) * 3]
        basis = close_on_subspace(GeneratorSet(4, gens), code)
        assert basis.provenance[:2] == (None, None)
        want = [realize(g)[np.ix_(idx, idx)] for g in gens]
        got = [_dense(b, code.dim) for b in basis.basis[:2]]
        c = np.vdot(want[0], got[0]) / np.vdot(want[0], want[0])
        assert abs(c.imag) < 1e-12 and abs(c.real) > 0.5
        assert np.allclose(got[0], c * want[0])
        # the second seed is reduced against the first but keeps the span
        stack = np.array([m.reshape(-1) for m in got + want])
        assert np.linalg.matrix_rank(stack) == 2
        _check_dense(basis)

    def test_dense_rank_agrees_with_exact_dimension(self):
        for n, k, links, kinds in ((3, 1, "all", "xz"), (4, 2, "all", "xz"),
                                   (4, 2, "nearest", "xz"), (4, 2, "all", "x")):
            if links == "all":
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            else:
                pairs = [(i, i + 1) for i in range(n - 1)]
            phys = [physical_generator(kind, p, n) for p in pairs for kind in kinds]
            _check_dense(close_on_subspace(GeneratorSet(n, phys), build_code(n, k)))

    def test_leaky_generator_detected(self):
        # a bare flip changes the excitation count and leaves the sector
        with pytest.raises(SubspaceLeakError):
            close_on_subspace(GeneratorSet(3, [OperatorSum.x(0, 3)]),
                              build_code(3, 1))
