"""Closure engine: dimensions, classification, invariance, subspace runs."""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qalg.lie as lie
from qalg.cli import main
from qalg.codes import build_code, physical_generator, synthesize_su_d
from qalg.errors import SubspaceLeakError
from qalg.dsl import parse_script, print_expr
from qalg.lie import (
    GeneratorSet,
    classify_algebra,
    close,
    close_matrices,
    close_on_subspace,
)
from qalg.parafermion import (
    GeneratorIndex,
    SecondQuantizedExpr,
    conserves_number,
    conserves_parity,
    number_site,
    to_pauli,
)
from qalg.pauli import (
    I_UNIT,
    RT2_HALF,
    OperatorSum,
    Scalar,
    integer_terms,
    realize,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

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

    @pytest.mark.parametrize("max_dim", [0, -3])
    def test_max_dim_below_one_rejected(self, max_dim):
        with pytest.raises(ValueError, match="max_dim"):
            close(GeneratorSet(1, [OperatorSum.x(0, 1)]), max_dim=max_dim)
        with pytest.raises(ValueError, match="max_dim"):
            close_on_subspace(
                GeneratorSet(3, [physical_generator("z", (1, 2), 3)]),
                build_code(3, 1), max_dim=max_dim)

    def test_cap_at_a_closed_generator(self):
        basis = close(GeneratorSet(1, [OperatorSum.x(0, 1)]), max_dim=1)
        assert (basis.dimension, basis.closed, basis.rounds) == (1, True, 1)

    @pytest.mark.parametrize("name", ["su(4) pair", "u(3) hopping", "xy chain"])
    def test_cap_at_the_final_dimension_changes_nothing(self, name):
        gs = _capped_case(name)
        free = close(gs)
        assert _answers(close(gs, max_dim=free.dimension)) == _answers(free)

    @pytest.mark.parametrize("name", ["su(4) pair", "u(3) hopping", "xy chain"])
    def test_cap_below_the_final_dimension(self, name):
        gs = _capped_case(name)
        free = close(gs)
        for cap in range(len(gs.generators), free.dimension):
            capped = close(gs, max_dim=cap)
            assert not capped.closed and capped.dimension == cap
            assert capped.provenance == free.provenance[:cap]

    def test_provenance_depth_recorded(self):
        basis = close(GeneratorSet(1, [OperatorSum.x(0, 1), OperatorSum.z(0, 1)]))
        assert len(basis.provenance) == basis.dimension
        assert basis.provenance_depth >= 1


def _capped_case(name):
    """Generator sets closing to su(4) (dim 15), u(3) and u(3) again."""
    if name == "su(4) pair":
        return GeneratorSet(2, [OperatorSum(2, {(1, 1): 1, (2, 2): 1}),
                                OperatorSum(2, {(1, 0): 1, (2, 0): 2, (3, 0): 1})])
    if name == "u(3) hopping":
        gens, _ = _family("hopping", 3, "parafermion")
        return GeneratorSet(3, gens + [number_site(i, 3) for i in range(3)])
    script = parse_script((SAMPLES / "xy_chain.ops").read_text())
    return GeneratorSet(script.n_modes, [to_pauli(script.operators[label])
                                         for label in script.labels])


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

    @staticmethod
    def _candidate_dims(n):
        """Each candidate's dimension on n modes, in verdict order."""
        return {"su(2^N)": 4**n - 1, "u(2^N)": 4**n,
                "so(2N+1)": n * (2 * n + 1), "so(2N)": n * (2 * n - 1),
                "u(N)": n * n, "su(N)": n * n - 1,
                "number-conserving": math.comb(2 * n, n),
                "parity-conserving": 2 ** (2 * n - 1)}

    def test_expected_dimension_formulas(self):
        for n in (2, 3, 4):
            verdict = classify_algebra(close(GeneratorSet(
                n, [OperatorSum.x(0, n), OperatorSum.z(0, n)])))
            assert [(m.name, m.expected_dim) for m in verdict.matches] == list(
                self._candidate_dims(n).items())

    def test_each_candidate_dimension_is_computed_once(self, monkeypatch):
        # only number-conserving reads C(2N, N); on many modes that one
        # binomial is the cost of a classification
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb",
                            lambda *args: calls.append(args) or comb(*args))
        n = 400
        verdict = classify_algebra(close(GeneratorSet(
            n, [OperatorSum.x(0, n), OperatorSum.z(0, n)])))
        assert calls == [(2 * n, n)]
        assert [m.expected_dim for m in verdict.matches] == list(
            self._candidate_dims(n).values())

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


def dense_span_rank(ops, tol: float = 1e-9) -> int:
    """Rank of realized operators' vectorizations; closure cross-check.

    Each operator is scaled to unit norm first, since the rank of a set of
    vectors does not depend on their lengths, while the relative tolerance
    would drop a short one beside a long one."""
    mats = [realize(op).reshape(-1) for op in ops]
    if not mats:
        return 0
    stack = np.array(mats)
    norms = np.linalg.norm(stack, axis=1, keepdims=True)
    stack /= np.where(norms > 0, norms, 1.0)
    svals = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(svals > tol * max(1.0, svals[0])))


def dense_closure_dimension(gens, tol: float = 1e-9) -> int:
    """Dimension of the Lie algebra the realized generators generate, by a
    float closure that shares nothing with the exact one; closure
    cross-check.

    Elements are kept at unit norm beside an orthonormal basis of their
    span.  A generator (scaled to unit norm) or a bracket i[a, b] of two
    elements (at most 2 long) joins when its part outside that span is
    longer than tol.  Unlike dense_span_rank of an exported basis, this
    never meets an ill-conditioned set: echelon rows can carry 60-bit
    entries beside entries of 1, which leaves a smallest singular value
    far below any float tolerance although the rows are independent."""
    elements, ortho = [], []

    def join(m) -> None:
        rest = m.reshape(-1)
        for _ in range(2):  # twice, so that rounding leaves no overlap
            if ortho:
                q = np.array(ortho)
                rest = rest - q.T @ (q.conj() @ rest)
        length = np.linalg.norm(rest)
        if length > tol:
            elements.append(m / np.linalg.norm(m))
            ortho.append(rest / length)

    for g in gens:
        m = realize(g)
        if np.linalg.norm(m):
            join(m / np.linalg.norm(m))
    start = 0
    while start < len(elements):
        end = len(elements)
        for j in range(start, end):
            for i in range(j):
                a, b = elements[i], elements[j]
                join(1j * (a @ b - b @ a))
        start = end
    return len(elements)


def _coefficient_rows(basis) -> list:
    """The exported elements as rows of exact coefficients: a full-space
    element's real parts over the keys of every element, a subspace
    element's real and imaginary parts of every entry."""
    if basis.subspace_dim is None:
        terms = [integer_terms(op)[1] for op in basis.basis]
        keys = sorted({k for t in terms for k in t})
        return [[t.get(k, (0, 0))[0] for k in keys] for t in terms]
    d = basis.subspace_dim
    cells = [(r, c) for r in range(d) for c in range(d)]
    return [[part for rc in cells for part in (
        (e[rc].re, e[rc].im) if rc in e else (0, 0))] for e in basis.basis]


def _check_dense(basis):
    """Oracle for a closure: the exported elements are independent, by an
    exact rank, and in numpy element k is i[b_i, b_j] up to a factor and
    the elements before it, and no bracket of two basis elements leaves the
    span.  The float ranks scale elements to unit norm, so that they do not
    depend on their lengths; full rank is decided exactly, because an
    independent basis can be too ill-conditioned for a float rank to see."""
    def rank(mats):
        return np.linalg.matrix_rank(np.array([m.reshape(-1) for m in mats]))

    if basis.subspace_dim is None:
        mats = [realize(b) for b in basis.basis]
    else:
        mats = [_dense(b, basis.subspace_dim) for b in basis.basis]
    mats = [m / np.linalg.norm(m) for m in mats]
    assert _rational_rank(_coefficient_rows(basis)) == basis.dimension
    for pos, src in enumerate(basis.provenance):
        if src is not None:
            a, b = (mats[t] for t in src)
            br = 1j * (a @ b - b @ a)
            assert rank(mats[:pos] + [br]) == pos + 1 == rank(mats[:pos + 1] + [br])
    brackets = [1j * (a @ b - b @ a) for a in mats for b in mats]
    assert rank(mats + brackets) == basis.dimension


class TestIrrationalGenerators:
    """Exact closure needs rational coefficients: a generator with a
    sqrt(2) part is refused when the GeneratorSet is built, before close
    or close_on_subspace sees it."""

    MESSAGE = ("exact closure requires rational coefficients; "
               "irrational coefficient encountered")

    def test_full_space_generator_refused(self):
        with pytest.raises(ValueError) as err:
            GeneratorSet(1, [OperatorSum.z(0, 1),
                             OperatorSum.x(0, 1) * RT2_HALF])
        assert str(err.value) == self.MESSAGE

    def test_code_generator_refused(self):
        hop01 = physical_generator("x", (0, 1), 3)
        # it preserves C(3, 1), so only its coefficients refuse it
        assert build_code(3, 1).project(hop01 * RT2_HALF)
        with pytest.raises(ValueError) as err:
            GeneratorSet(3, [physical_generator("z", (1, 2), 3),
                             hop01 * RT2_HALF])
        assert str(err.value) == self.MESSAGE


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


class TestCloseMatrices:
    """close_matrices takes exact Hermitian entries and refuses the rest
    with ValueError, as GeneratorSet does for operators."""

    def test_entries_of_any_exact_type_close_alike(self):
        # sigma_x and sigma_y on two states: int, Fraction or Scalar entries
        want = close_matrices(1, 2, [{(0, 1): 1, (1, 0): 1},
                                     {(0, 1): Scalar(0, -1),
                                      (1, 0): Scalar(0, 1)}])
        got = close_matrices(1, 2, [{(0, 1): Fraction(1, 2),
                                     (1, 0): Fraction(1, 2)},
                                    {(0, 1): -I_UNIT, (1, 0): I_UNIT}])
        assert want == got
        assert (got.dimension, got.dimension_traceless) == (3, 3)
        assert got.subspace_dim == 2 and got.n_modes == 1

    def test_empty_matrix_adds_nothing(self):
        # a generator that vanishes on the code is skipped, as
        # close_on_subspace skips its projection
        basis = close_matrices(2, 2, [{}, {(0, 0): 1, (1, 1): -1}])
        assert basis.dimension == 1

    @pytest.mark.parametrize("entries", [
        {(0, 1): 1},                               # missing mirror
        {(0, 1): 1, (1, 0): 2},                    # unequal mirrors
        {(0, 0): Scalar(0, 1)},                    # imaginary diagonal
        {(0, 1): Scalar(1, 1), (1, 0): Scalar(1, 1)},  # mirror not conjugate
    ])
    def test_non_hermitian_entry_refused(self, entries):
        with pytest.raises(ValueError, match="must be Hermitian"):
            close_matrices(1, 2, [{(0, 0): 1}, entries])

    @pytest.mark.parametrize("value", [0.5, 1.0, 1j])
    def test_float_entry_refused(self, value):
        with pytest.raises(ValueError, match="exact entries"):
            close_matrices(1, 2, [{(0, 0): value}])

    def test_irrational_entry_refused(self):
        with pytest.raises(ValueError, match="rational coefficients"):
            close_matrices(1, 2, [{(0, 1): RT2_HALF, (1, 0): RT2_HALF}])

    @pytest.mark.parametrize("d, matrices", [
        (2, []),
        (0, [{}]),
        (2, [{(0, 2): 1, (2, 0): 1}]),
        (2, [{(-1, 0): 1, (0, -1): 1}]),
    ])
    def test_shape_refused(self, d, matrices):
        with pytest.raises(ValueError):
            close_matrices(1, d, matrices)

def _flag_case(name):
    """Generators of u(N), so(2N) or su(2^N) at N = 2, 3, or of a pinned
    dense pair, by a name such as "u(N):3" or "dense:8,0"."""
    family, arg = name.split(":")
    if family == "dense":
        n_terms, seed = map(int, arg.split(","))
        return 3, _dense_pair(seed, n_terms)
    n = int(arg)
    if family == "u(N)":
        gens, _ = _family("hopping", n, "parafermion")
        return n, gens + [to_pauli(E.number(i, n)) for i in range(n)]
    if family == "so(2N)":
        return n, _family("hopping+pairing", n, "fermion")[0]
    return n, _family("linear+hopping", n, "parafermion")[0]


class TestSeedFlags:
    """classify_algebra reads its conservation flags off the seeds only."""

    @pytest.mark.parametrize("name", [
        "u(N):2", "u(N):3", "so(2N):2", "so(2N):3", "su(2^N):2",
        "su(2^N):3", "dense:4,2", "dense:8,0"])
    def test_seed_flags_equal_the_flags_of_every_element(self, name):
        n, gens = _flag_case(name)
        basis = close(GeneratorSet(n, gens))
        verdict = classify_algebra(basis)
        want = (all(conserves_number(e) for e in basis.basis),
                all(conserves_parity(e) for e in basis.basis))
        assert (verdict.conserves_number, verdict.conserves_parity) == want


def _dense_pair(seed, n_terms):
    """Two seeded random Pauli sums on 3 modes with weights in +-1..9."""
    rng = random.Random(seed)
    gens = []
    for _ in range(2):
        words = set()
        while len(words) < n_terms:
            word = (rng.randrange(8), rng.randrange(8))
            if word != (0, 0):
                words.add(word)
        gens.append(OperatorSum(3, {w: rng.choice((-1, 1)) * rng.randint(1, 9)
                                    for w in sorted(words)}))
    return gens


def _answers(basis):
    return (basis.dimension, basis.dimension_traceless, basis.closed,
            basis.rounds, basis.provenance)


# Provenance shared by both pinned pairs after their two seeds: the (i, j)
# whose bracket made each next element, in breadth-first order.
_EARLY = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (1, 4), (2, 4),
          (3, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (1, 6), (2, 6),
          (3, 6), (4, 6), (5, 6), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7),
          (1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (6, 8), (7, 8), (2, 9),
          (3, 9), (4, 9), (5, 9), (6, 9), (7, 9), (8, 9), (3, 10), (4, 10),
          (5, 10), (6, 10), (7, 10), (8, 10), (9, 10), (0, 11), (1, 11),
          (2, 11), (3, 11), (4, 11), (5, 11), (6, 11), (7, 11), (8, 11),
          (9, 11))

# (n_terms, seed) -> (rounds, provenance), as computed by the integer
# echelon alone, whose coefficients reach hundreds of bits on these pairs.
_PINNED_DENSE = {
    (4, 2): (5, (None, None) + _EARLY
             + ((1, 12), (3, 12), (4, 12), (7, 12), (9, 12), (11, 12))),
    (8, 0): (5, (None, None) + _EARLY
             + ((10, 11), (1, 12), (2, 12), (3, 12), (4, 12), (5, 12))),
}


class TestDenseClosures:
    """Generic pairs on 3 modes generate su(8) with large coefficients."""

    @pytest.mark.parametrize("key", sorted(_PINNED_DENSE))
    def test_answers_are_pinned(self, key):
        rounds, provenance = _PINNED_DENSE[key]
        basis = close(GeneratorSet(3, _dense_pair(key[1], key[0])))
        assert _answers(basis) == (63, 63, True, rounds, provenance)

    def test_cap_on_the_modular_echelon(self):
        # the capped span is tested modulo p; the run stops on the first
        # bracket outside it, after the uncapped run's first 30 elements
        gs = GeneratorSet(3, _dense_pair(0, 8))
        capped = close(gs, max_dim=30)
        assert (capped.dimension, capped.closed) == (30, False)
        assert capped.provenance == close(gs).provenance[:30]

    def test_dense_oracle_and_small_coefficients(self):
        basis = close(GeneratorSet(3, _dense_pair(0, 8)))
        _check_dense(basis)
        # this closure ends on the modular echelon, so its elements are
        # the raw brackets, not echelon rows of hundreds of bits
        bits = max(abs(c.re.numerator).bit_length()
                   for op in basis.basis for _, c in op.items())
        assert bits < 64

    def test_failed_certificate_keeps_the_span_modular(self, monkeypatch):
        # a 4-term pair whose certificates fail lifts the combinations
        # p-adically and stays on the modular echelon, so its elements are
        # the raw brackets; they pass the oracle
        counts, spans = _spy_modular(monkeypatch)
        basis = close(GeneratorSet(3, _dense_pair(2, 4)))
        assert counts == {"modular reductions": 78, "certificates passed": 14,
                          "certificates failed": 28, "lifts": 80,
                          "switched at": 4}
        assert spans[0].rows is not None
        _check_dense(basis)


def _congruent_seeds(p):
    """Three seeds whose echelon reaches an entry of 2p, while the third is
    the first mod p: the switch finds the raw seeds dependent, and the span
    moves to the next prime."""
    z0, z1, x0, x1 = (OperatorSum.z(0, 2), OperatorSum.z(1, 2),
                      OperatorSum.x(0, 2), OperatorSum.x(1, 2))
    return [z0, z1, z0 + x0 * p + x1 * (2 * p * p)]


def _false_dependence(p):
    """The second seed switches the span; the third equals the first mod p
    only, so its certificate fails, the lift meets a rest and proves it
    independent, and the span moves to the next prime to insert it."""
    z0, z1, x0, x1 = (OperatorSum.z(0, 2), OperatorSum.z(1, 2),
                      OperatorSum.x(0, 2), OperatorSum.x(1, 2))
    return [z0, x0 + x1 * (2 * p), z0 + z1 * p]


def _lifted_dependence(p):
    """The first seed switches the span; the fourth is (b - c) / d for the
    second b and third c, with d = p // 2 too large for reconstruction mod
    p, so its certificate fails and lifts prove it dependent."""
    z0, z1, x0, x1 = (OperatorSum.z(0, 2), OperatorSum.z(1, 2),
                      OperatorSum.x(0, 2), OperatorSum.x(1, 2))
    return [x0 + x1 * (2 * p), z0 * (p // 2) + z1, z1, z0]


def _identity_beside_a_switch(p):
    """The first seed switches the span; the identity is then exactly the
    second seed minus the third, which the certificate confirms."""
    x0, x1, z1 = OperatorSum.x(0, 2), OperatorSum.x(1, 2), OperatorSum.z(1, 2)
    return [x0 + x1 * (2 * p), OperatorSum.identity(2) + z1, z1]


def _is_prime(n):
    """Miller-Rabin to the twelve prime bases up to 37, exact below
    3.3 * 10**24 (Sorenson and Webster, 2015)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_from(p):
    """p and the primes after it, below 2 * p: moduli for a small-prime
    run, enough for every move the cases below make."""
    return tuple(n for n in range(p, 2 * p)
                 if all(n % d for d in range(2, math.isqrt(n) + 1)))


def _modulus_cases(p):
    cases = {f"dense {t} terms, seed {s}": (3, _dense_pair(s, t))
             for t, s in ((4, 0), (4, 2), (8, 0), (5, 18))}
    for name, n, species in (("hopping", 3, "parafermion"),
                             ("hopping+pairing", 3, "fermion"),
                             ("linear+hopping", 2, "parafermion")):
        cases[f"{name} {species}"] = (n, _family(name, n, species)[0])
    cases["congruent seeds"] = (2, _congruent_seeds(p))
    cases["false dependence"] = (2, _false_dependence(p))
    cases["lifted dependence"] = (2, _lifted_dependence(p))
    cases["identity beside a switch"] = (2, _identity_beside_a_switch(p))
    return cases


def _spy_paths(monkeypatch):
    """Record which decision paths of the span the closures take."""
    seen = set()
    span = lie._Span
    switch, rebuild, dependent, certified, reduced = (
        span._switch, span._rebuild, span._dependent, span._certified,
        span._reduced)
    contains = span.__contains__
    first, bases = [], []  # the certificate before any lift; _reduced's

    def spy_switch(self):
        seen.add("switched")
        switch(self)

    def spy_rebuild(self, modulus):
        rebuild(self, modulus)
        if self.modulus:
            seen.add("modulus moved")

    def spy_dependent(self, vec, factors):
        first.clear()
        bases.clear()
        found = dependent(self, vec, factors)
        if first == [True]:
            seen.add("certificate passed")
            return found
        seen.add("certificate failed")
        if bases and bases[0] is not None:
            seen.add("reduced basis decided")
        else:
            seen.add("lift proved "
                     + ("dependence" if found else "independence"))
        return found

    def spy_certified(self, vec, x, q):
        ok = certified(self, vec, x, q)
        if q == self.p:
            first.append(ok)
        return ok

    def spy_reduced(self):
        basis = reduced(self)
        bases.append(basis)
        return basis

    def spy_contains(self, vec):
        found = contains(self, vec)
        if found and self.rows is not None:
            seen.add("identity certified")
        return found

    monkeypatch.setattr(span, "_switch", spy_switch)
    monkeypatch.setattr(span, "_rebuild", spy_rebuild)
    monkeypatch.setattr(span, "_dependent", spy_dependent)
    monkeypatch.setattr(span, "_certified", spy_certified)
    monkeypatch.setattr(span, "_reduced", spy_reduced)
    monkeypatch.setattr(span, "__contains__", spy_contains)
    return seen


class TestModulusIndependence:
    """The modulus only decides how fast an answer comes, never which."""

    @pytest.mark.parametrize("p", [8191, 101])
    def test_answers_match_the_default_modulus(self, p, monkeypatch):
        cases = _modulus_cases(p)
        want = {name: _answers(close(GeneratorSet(n, gens)))
                for name, (n, gens) in cases.items()}
        seen = _spy_paths(monkeypatch)
        monkeypatch.setattr(lie, "_MODULI", _primes_from(p))
        got = {name: _answers(close(GeneratorSet(n, gens)))
               for name, (n, gens) in cases.items()}
        assert got == want
        assert seen == {"switched", "certificate passed",
                        "certificate failed", "reduced basis decided",
                        "lift proved dependence", "lift proved independence",
                        "modulus moved", "identity certified"}

    def test_moduli_are_increasing_primes(self):
        assert lie._MODULI[0] == (1 << 61) - 1
        assert all(_is_prime(p) for p in lie._MODULI)
        assert list(lie._MODULI) == sorted(set(lie._MODULI))
        assert all(_is_prime(p) for p in _primes_from(101))
        assert not any(map(_is_prime, (1, 561, 8911, (1 << 61) + 1,
                                       (1 << 64) - 57)))

    def test_no_modulus_left(self):
        # seeds congruent modulo the product of every prime are dependent
        # modulo each, so the span has no modulus left to move to
        seeds = _congruent_seeds(math.prod(lie._MODULI))
        with pytest.raises(ValueError, match="every prime"):
            close(GeneratorSet(2, seeds))


def _reference_sign(ka, kb, n):
    """s with i[P_a, P_b] = s P_(ka ^ kb), for the Hermitian strings
    i^|x & z| X^x Z^z of keys (x << n) | z: P_a P_b = i^m P_(ka ^ kb) with
    m = |x_a & z_a| + |x_b & z_b| - |x_3 & z_3| + 2 |z_a & x_b|, and the
    bracket is i (i^m - i^-m), so 0 for even m, -2 for m = 1, +2 for m = 3."""
    low = (1 << n) - 1
    xa, za, xb, zb = ka >> n, ka & low, kb >> n, kb & low
    m = ((xa & za).bit_count() + (xb & zb).bit_count()
         - ((xa ^ xb) & (za ^ zb)).bit_count() + 2 * (za & xb).bit_count()) % 4
    return {0: 0, 1: -2, 2: 0, 3: 2}[m]


def _reference_bracket(va, vb, n):
    out = {}
    for ka, ca in va.items():
        for kb, cb in vb.items():
            s = _reference_sign(ka, kb, n)
            out[ka ^ kb] = out.get(ka ^ kb, 0) + s * ca * cb
    return {k: c for k, c in out.items() if c}


@st.composite
def _vector_pairs(draw):
    """Two integer vectors of 1-8 terms on 1-6 modes, on both sides of the
    walk-row cap."""
    n = draw(st.integers(1, 6))
    vec = st.dictionaries(st.integers(0, 4 ** n - 1),
                          st.integers(-9, 9).filter(bool), min_size=1, max_size=8)
    return n, draw(vec), draw(vec)


def _su_2n(n):
    return GeneratorSet(*_flag_case(f"su(2^N):{n}"))


def _walk_rows(monkeypatch, n):
    """Every walk-row pair of n modes, built afresh by one dense bracket of
    all 4**n keys against themselves."""
    monkeypatch.setattr(lie, "_WALKS", {})
    every = dict.fromkeys(range(4 ** n), 1)
    lie._dense_bracket(every, every, n)
    return lie._WALKS[n]


class TestSignRows:
    """The sign rule of the Pauli bracket, the walk rows read off it, and
    their memory."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_entry_is_the_popcount_rule(self, n, monkeypatch):
        for ka, (plus, minus) in enumerate(_walk_rows(monkeypatch, n)):
            signs = dict.fromkeys(plus, 2) | dict.fromkeys(minus, -2)
            assert [signs.get(kb, 0) for kb in range(4 ** n)] == [
                _reference_sign(ka, kb, n) for kb in range(4 ** n)]

    @settings(max_examples=200, deadline=None)
    @given(_vector_pairs())
    def test_bracket_is_the_reference_bracket(self, case):
        n, va, vb = case
        assert lie._pauli_bracket(n)(va, vb) == _reference_bracket(va, vb, n)

    def test_large_closures_build_no_rows(self, monkeypatch):
        monkeypatch.setattr(lie, "_WALKS", {})
        assert close(_su_2n(5)).dimension_traceless == 4 ** 5 - 1
        assert close(GeneratorSet(*_flag_case("u(N):7"))).dimension == 49
        assert lie._WALKS == {}

    def test_rows_never_exceed_256_keys(self, monkeypatch):
        # at most 256 pairs of 128 bytes per mode count, whatever mode
        # counts are bracketed; 32 terms make the pairs dense for n = 3, 4
        monkeypatch.setattr(lie, "_WALKS", {})
        rng = random.Random(3)
        for n in range(1, 7):
            bracket = lie._pauli_bracket(n)
            for _ in range(20):
                va, vb = ({k: rng.randint(1, 9) for k in rng.sample(
                    range(4 ** n), min(32, 4 ** n))} for _ in "ab")
                bracket(va, vb)
        table = lie._WALKS
        assert set(table) == {1, 2, 3, 4}
        for n, walks in table.items():
            assert len(walks) == 4 ** n <= 256
            built = [pair for pair in walks if pair is not None]
            assert built
            for plus, minus in built:
                assert len(plus) + len(minus) <= 4 ** n // 2 <= 128


@st.composite
def _bracket_cases(draw):
    """Two integer vectors on 1-4 modes whose term counts fall on either side
    of the dense rule, in either operand order.  Coefficients are +-1, +-2,
    so that keys cancel, or 64 to 80 bits long; a pair of multiples brackets
    to zero."""
    n = draw(st.integers(1, 4))
    size = 4 ** n
    threshold = lie._DENSE_PAIRS * size
    la = draw(st.integers(1, size))
    if la > 1 and draw(st.booleans()):  # dense: la * lb >= threshold
        lb = draw(st.integers(-(-threshold // la), size))
    else:
        lb = draw(st.integers(1, min(size, (threshold - 1) // la)))
    coeff = draw(st.sampled_from([
        st.sampled_from([-2, -1, 1, 2]),
        st.integers(1 << 64, 1 << 80).map(lambda c: c if c & 1 else -c)]))

    def vector(count):
        keys = draw(st.permutations(range(size)))[:count]
        return dict(zip(keys, draw(st.lists(coeff, min_size=count,
                                            max_size=count))))

    va = vector(la)
    if la == lb and draw(st.booleans()):
        factor = draw(st.sampled_from([-3, -1, 1, 2]))
        vb = {k: factor * c for k, c in va.items()}
    else:
        vb = vector(lb)
    return (n, va, vb) if draw(st.booleans()) else (n, vb, va)


class TestDenseBracket:
    """The dense path, the popcount loop and the kernel _pauli_bracket picks
    give one bracket, and the dense oracle agrees with it."""

    @settings(max_examples=80, deadline=None)
    @given(_bracket_cases())
    # X + Z against Z + X: the Y key cancels mid-loop and the bracket is 0
    @example((1, {2: 1, 1: 1}, {1: 1, 2: 1}))
    # the same cancellation on the dense path, beside surviving keys
    @example((1, {2: 1, 1: 1}, {0: 5, 1: 1, 2: 1, 3: 7}))
    # entries of 65 to 71 bits on the dense path
    @example((2, {k: (1 << 70) + k for k in range(1, 16)},
              {k: -(1 << 65) - k for k in range(16)}))
    def test_paths_agree_with_the_dense_oracle(self, case):
        n, va, vb = case
        want = lie._popcount_bracket(va, vb, n)
        dense = lie._dense_bracket(va, vb, n)
        assert dense == want and list(dense) == sorted(dense)
        assert lie._pauli_bracket(n)(va, vb) == want
        a, b = (realize(lie._from_vec(v, n)) for v in (va, vb))
        got = realize(lie._from_vec(want, n)) if want else 0
        scale = sum(map(abs, va.values())) * sum(map(abs, vb.values()))
        assert np.abs(1j * (a @ b - b @ a) - got).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_walk_rows_list_the_anticommuting_keys(self, n, monkeypatch):
        for ka, (plus, minus) in enumerate(_walk_rows(monkeypatch, n)):
            assert list(plus) == sorted(plus) and list(minus) == sorted(minus)
            assert set(plus) | set(minus) == {
                kb for kb in range(4 ** n)
                if lie._popcount_bracket({ka: 1}, {kb: 1}, n)}
            assert len(plus) + len(minus) == (4 ** n // 2 if ka else 0)


def _dict_mod_reduce(rows, vec, p):
    """The modular reduction on dict rows {lead: {key: residue}} that the
    packed lanes replaced, kept as the reference."""
    rest = dict(vec)
    factors = []
    for lead in sorted(rows):
        f = rest.get(lead, 0) % p
        if f:
            for k, x in rows[lead].items():
                rest[k] = rest.get(k, 0) - f * x
            factors.append((lead, f))
    return {k: c % p for k, c in rest.items() if c % p}, factors


def _dict_mod_add(rows, rest, p):
    lead = min(rest)
    inv = pow(rest[lead], -1, p)
    rows[lead] = {k: c * inv % p for k, c in rest.items()}


@st.composite
def _residue_cases(draw):
    """A prime, and 1-12 integer vectors over a pool of up to 24 keys below
    4, 64 or 4**6: dense ones hold every pool key, sparse ones a few; later
    vectors may be combinations of earlier ones, so some are dependent."""
    p = draw(st.sampled_from([(1 << 61) - 1, 8191, 101]))
    size = draw(st.sampled_from([4, 64, 4 ** 6]))
    pool = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=24,
                         unique=True))
    entry = st.one_of(st.integers(-9, 9), st.integers(-p, 2 * p),
                      st.integers(-(1 << 80), 1 << 80)).filter(bool)
    vectors = []
    for _ in range(draw(st.integers(1, 12))):
        if vectors and draw(st.booleans()):
            vec = {}
            for old in draw(st.lists(st.sampled_from(vectors), min_size=1,
                                     max_size=3)):
                c = draw(st.integers(-5, 5))
                for k, x in old.items():
                    vec[k] = vec.get(k, 0) + c * x
            vec = {k: x for k, x in vec.items() if x}
        elif draw(st.booleans()):
            vec = {k: draw(entry) for k in pool}
        else:
            vec = draw(st.dictionaries(st.sampled_from(pool), entry,
                                       min_size=1, max_size=4))
        if vec:
            vectors.append(vec)
    assume(vectors)
    return p, vectors


class TestPackedEchelon:
    """The packed modular echelon against the dict rows it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(_residue_cases())
    def test_walk_matches_the_dict_rows(self, case):
        p, vectors = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lie, "_MODULI", (p,))
            self._compare(p, vectors)

    def _compare(self, p, vectors):
        span = lie._Span(None, 4 ** 6)
        span._switch()  # no elements yet: an empty echelon mod p
        rows = {}
        for vec in vectors:
            rest, factors = span._mod_reduce(vec)
            assert (rest, factors) == _dict_mod_reduce(rows, vec, p)
            if rest:
                span._mod_add(rest, factors)
                span.elements.append(vec)
                _dict_mod_add(rows, rest, p)
                continue
            rebuilt = {}
            for l, c in span._combination(factors).items():
                for k, x in span.elements[l].items():
                    rebuilt[k] = rebuilt.get(k, 0) + c * x
            assert all((rebuilt.get(k, 0) - vec.get(k, 0)) % p == 0
                       for k in rebuilt.keys() | vec.keys())


def _spy_work(monkeypatch):
    """Count the reductions a closure runs and the memo hits that spare one."""
    counts = {"reductions": 0, "memo hits": 0}
    reduce, init = lie._reduce, lie._Span.__init__

    class Memo(set):
        def __contains__(self, key):
            found = super().__contains__(key)
            counts["memo hits"] += found
            return found

    def spy_reduce(vec, pivots):
        counts["reductions"] += 1
        return reduce(vec, pivots)

    def spy_init(self, bracket, full_dim):
        init(self, bracket, full_dim)
        self.decided = Memo()

    monkeypatch.setattr(lie, "_reduce", spy_reduce)
    monkeypatch.setattr(lie._Span, "__init__", spy_init)
    return counts


def _spy_modular(monkeypatch):
    """Count the modular reductions, certificates and lifts of a closure,
    and the elements it holds when it switches; the spans that switch are
    listed.  A lift is a modular reduction of a lifted residual."""
    switched = []
    counts = {"modular reductions": 0, "certificates passed": 0,
              "certificates failed": 0, "lifts": 0, "switched at": None}
    lifting = []
    span = lie._Span
    mod_reduce, certified, switch, dependent = (
        span._mod_reduce, span._certified, span._switch, span._dependent)

    def spy_mod_reduce(self, vec):
        counts["lifts" if lifting else "modular reductions"] += 1
        return mod_reduce(self, vec)

    def spy_certified(self, vec, x, q):
        ok = certified(self, vec, x, q)
        counts["certificates passed" if ok else "certificates failed"] += 1
        return ok

    def spy_dependent(self, vec, factors):
        lifting.append(True)
        try:
            return dependent(self, vec, factors)
        finally:
            lifting.pop()

    def spy_switch(self):
        counts["switched at"] = len(self.elements)
        switched.append(self)
        switch(self)

    monkeypatch.setattr(span, "_mod_reduce", spy_mod_reduce)
    monkeypatch.setattr(span, "_certified", spy_certified)
    monkeypatch.setattr(span, "_switch", spy_switch)
    monkeypatch.setattr(span, "_dependent", spy_dependent)
    return counts, switched


def _switched_su_2n(n):
    """The su(2^N) set after a first seed X0 + 2**62 Z1, whose entry of at
    least p switches the span at once."""
    seed = OperatorSum.x(0, n) + OperatorSum.z(1, n) * (1 << 62)
    return GeneratorSet(n, [seed] + _su_2n(n).generators)


class TestWorkCounters:
    """Deterministic work counts of the closure kernel, pinned as perf
    regression signals."""

    def test_dense_pair_modular_work(self, monkeypatch):
        counts, spans = _spy_modular(monkeypatch)
        assert close(GeneratorSet(3, _dense_pair(0, 8))).dimension == 63
        assert counts == {"modular reductions": 72, "certificates passed": 8,
                          "certificates failed": 0, "lifts": 0,
                          "switched at": 4}
        assert spans[0].rows is not None

    def test_sparse_switch_at_once(self, monkeypatch):
        # the packed walk jumps over empty lanes among 4**5 keys; once X0
        # or Z1 is in the span, the other depends on it and the seed with a
        # coefficient 2**62 or 2**-62, which no reconstruction mod p finds,
        # so those certificates fail; the span's reduced basis, of Pauli
        # strings and the seed, decides them without a lift, and the span
        # stays modular to the end
        counts, spans = _spy_modular(monkeypatch)
        basis = close(_switched_su_2n(5))
        assert basis.dimension_traceless == 4 ** 5 - 1
        assert counts == {"modular reductions": 1512,
                          "certificates passed": 305,
                          "certificates failed": 183, "lifts": 0,
                          "switched at": 1}
        assert spans[0].rows is not None

    def test_chains_never_switch(self, monkeypatch):
        # a packed row spans every key from its lead to its last, so on more
        # than 256 keys the span switches only at an entry of p, which
        # chains with small weights never reach; the weighted fermion chain
        # reaches entries of 256 and would otherwise run out of memory
        counts, spans = _spy_modular(monkeypatch)
        xy = close(GeneratorSet(24, _family("hopping", 24, "parafermion")[0]))
        assert xy.dimension == 24 * 24 - 1
        n = 12
        a = lambda i: E.annihilate(i, n, "fermion")
        gens = []
        for i in range(n - 1):
            gens += herm_pair(E.create(i, n, "fermion") * a(i + 1) * (i % 9 + 1)
                              + a(i) * a(i + 1) * ((3 * i) % 7 + 1))
        from qalg.jw import jw_fermion_to_pauli
        chain = close(GeneratorSet(n, [jw_fermion_to_pauli(g) for g in gens]))
        assert chain.dimension == 253
        assert spans == []

    @pytest.mark.parametrize("n, reductions, hits", [(4, 488, 2021),
                                                     (5, 2480, 14713)])
    def test_su_2n_reductions_and_memo_hits(self, n, reductions, hits,
                                            monkeypatch):
        counts = _spy_work(monkeypatch)
        basis = close(_su_2n(n))
        assert basis.dimension_traceless == 4 ** n - 1
        assert counts == {"reductions": reductions, "memo hits": hits}

    def test_closure_verb_exports_only_the_seeds(self, tmp_path, monkeypatch):
        exported = []
        from_vec = lie._from_vec

        def spy(vec, n_modes):
            exported.append(vec)
            return from_vec(vec, n_modes)

        monkeypatch.setattr(lie, "_from_vec", spy)
        gens = _dense_pair(0, 8)
        argv = ["closure", "--modes", "3", "--format", "json",
                "--out", str(tmp_path / "out.json")]
        for g in gens:
            argv += ["--expr", print_expr(g)]
        assert main(argv) == 0
        assert [from_vec(v, 3) for v in exported] == gens

    @pytest.mark.parametrize("case", ["su(2^3)", "dense", "subspace"])
    def test_basis_is_the_eager_export(self, case):
        if case == "subspace":
            phys = [physical_generator(kind, p, 4) for kind in "xz"
                    for p in ((0, 1), (1, 2), (2, 3))]
            basis = close_on_subspace(GeneratorSet(4, phys), build_code(4, 2))
        else:
            basis = close(_su_2n(3) if case == "su(2^3)"
                          else GeneratorSet(3, _dense_pair(2, 4)))
        elements = basis.basis
        assert basis.basis is elements and len(elements) == basis.dimension
        for element, vec in zip(elements, basis._vectors):
            if case == "subspace":
                want = {rc: Scalar(re, im) for rc, (re, im) in sorted(
                    lie._matrix_entries(vec, basis.subspace_dim).items())}
            else:
                want = lie._from_vec(vec, basis.n_modes)
            assert list(element.items()) == list(want.items())


def _spy_dense(monkeypatch):
    """List the term counts of every bracket the dense path takes."""
    calls = []
    dense = lie._dense_bracket

    def spy(va, vb, n):
        calls.append((len(va), len(vb)))
        return dense(va, vb, n)

    monkeypatch.setattr(lie, "_dense_bracket", spy)
    return calls


class TestBracketPaths:
    """Which bracket path a closure takes, pinned beside its work counts."""

    def test_dense_pair_walks_dense_lists(self, monkeypatch):
        calls = _spy_dense(monkeypatch)
        assert close(GeneratorSet(3, _dense_pair(0, 8))).dimension == 63
        assert len(calls) == 72
        assert all(a * b >= lie._DENSE_PAIRS * 64 for a, b in calls)

    def test_su_2n_keeps_the_popcount_loop(self, monkeypatch):
        calls = _spy_dense(monkeypatch)
        assert close(_su_2n(4)).dimension_traceless == 4 ** 4 - 1
        assert calls == []


class TestExportOrder:
    """Every element of a close basis lists its terms in ascending (x, z)
    order, whichever bracket path and span phase built it, and every
    element of a close_on_subspace basis its entries in ascending
    (row, col) order."""

    @pytest.mark.parametrize("case", ["sparse", "dense switched",
                                      "sparse switched"])
    def test_terms_ascend(self, case):
        gs = {"sparse": _su_2n(3),
              "dense switched": GeneratorSet(3, _dense_pair(0, 8)),
              "sparse switched": _switched_su_2n(5)}[case]
        basis = close(gs)
        assert len(basis.basis) == basis.dimension
        for element in basis.basis:
            keys = list(integer_terms(element)[1])
            assert keys == sorted(keys)

    @pytest.mark.parametrize("pairs", ["all", "nearest"])
    def test_entries_ascend(self, pairs):
        basis = synthesize_su_d(build_code(4, 2), pairs=pairs).basis
        assert basis.dimension == (35 if pairs == "all" else 15)
        for element in basis.basis:
            keys = list(element)
            assert keys == sorted(keys)


@st.composite
def _integer_pauli_sets(draw):
    """1-3 integer Pauli sums of 1-4 terms on 1-3 modes, with a generator
    order and a nonzero rational scale per generator."""
    n = draw(st.integers(1, 3))
    mask = st.integers(0, (1 << n) - 1)
    terms = st.dictionaries(st.tuples(mask, mask),
                            st.integers(-3, 3).filter(bool),
                            min_size=1, max_size=4)
    gens = [OperatorSum(n, t) for t in draw(st.lists(terms, min_size=1,
                                                     max_size=3))]
    order = draw(st.permutations(range(len(gens))))
    scales = draw(st.lists(
        st.fractions(-5, 5, max_denominator=4).filter(bool),
        min_size=len(gens), max_size=len(gens)))
    return n, gens, order, scales


@st.composite
def _conserving_sets(draw):
    """A code C(n, k), 2 <= n <= 4 and 0 < k < n, and 1-3 nonzero Hermitian
    sums e + e^dagger, each e 1-3 transfer monomials with as many creations
    as annihilations and small Gaussian-rational weights."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    part = st.fractions(-3, 3, max_denominator=3)
    weight = st.builds(Scalar, part, part).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        e = None
        for _ in range(draw(st.integers(1, 3))):
            alpha = draw(st.integers(0, (1 << n) - 1))
            beta = draw(st.sampled_from([m for m in range(1 << n)
                                         if m.bit_count() == alpha.bit_count()]))
            term = GeneratorIndex(n, alpha, beta).monomial() * draw(weight)
            e = term if e is None else e + term
        g = to_pauli(e + e.adjoint())
        if not g.is_zero:
            gens.append(g)
    assume(gens)
    return n, k, gens


def _rational_rank(vectors) -> int:
    """Rank over Q of rational vectors, by Gaussian elimination in
    Fractions: each vector is reduced on the pivot rows kept so far, and
    its nonzero rest, scaled to 1 at its first nonzero entry, is kept."""
    pivots = []  # (lead, row), row[lead] == 1 and 0 at every earlier lead
    for vec in vectors:
        row = [Fraction(a) for a in vec]
        for lead, pivot in pivots:
            if row[lead]:
                f = row[lead]
                row = [a - f * b for a, b in zip(row, pivot)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            pivots.append((lead, [a / row[lead] for a in row]))
    return len(pivots)


class TestClosureProperties:
    @settings(max_examples=15, deadline=None)
    @given(_conserving_sets())
    def test_subspace_closure_is_the_restricted_full_closure(self, case):
        # restriction to the code is a Lie homomorphism, so the subspace
        # closure (_matrix_bracket) spans the projections of the full
        # closure (the Pauli bracket): its dimension is their exact rank
        n, k, gens = case
        code = build_code(n, k)
        gs = GeneratorSet(n, gens)
        cells = [(r, c) for r in range(code.dim) for c in range(code.dim)]
        vectors = []
        for element in close(gs).basis:
            entries = code.project(element)
            vectors.append([part for rc in cells for part in (
                (entries[rc].re, entries[rc].im) if rc in entries else (0, 0))])
        assert close_on_subspace(gs, code).dimension == _rational_rank(vectors)

    @settings(max_examples=25, deadline=None)
    @given(_conserving_sets())
    def test_subspace_closure_is_the_dense_rank_of_the_projections(
            self, case):
        n, k, gens = case
        code = build_code(n, k)
        basis = close_on_subspace(GeneratorSet(n, gens), code)
        _check_dense(basis)
        idx = list(code.dense_indices)
        mats = [_dense(b, code.dim) for b in basis.basis]
        proj = [realize(g)[np.ix_(idx, idx)] for g in gens]
        # an exact zero projection (n0 n1 n2 on C(3,2)) realizes to ~1e-17
        mats += [m for m in proj if np.linalg.norm(m) > 1e-9]
        stack = np.array([(m / np.linalg.norm(m)).reshape(-1) for m in mats])
        assert np.linalg.matrix_rank(stack) == basis.dimension

    @settings(max_examples=40, deadline=None)
    @given(_integer_pauli_sets())
    # u(8), whose exported rows reach 2**59 beside entries of 1: their
    # realized stack has a smallest singular value of 2.6e-10
    @example((3, [OperatorSum(3, {(0, 0): 1, (0, 5): 1, (0, 7): 1,
                                  (1, 1): 1}),
                  OperatorSum(3, {(0, 0): 1, (0, 1): 1, (1, 4): 3,
                                  (4, 0): 1}),
                  OperatorSum(3, {(0, 1): 2, (0, 4): 1, (2, 3): 1})],
              [1, 0, 2], [Fraction(1)] * 3))
    def test_dimension_is_the_dense_rank_whatever_the_order_and_scale(
            self, case):
        n, gens, order, scales = case
        basis = close(GeneratorSet(n, gens))
        # the exported elements are independent, exactly, and a float
        # closure of the same generators finds as many
        assert _rational_rank(_coefficient_rows(basis)) == basis.dimension
        assert dense_closure_dimension(gens) == basis.dimension
        dims = (basis.dimension, basis.dimension_traceless)
        moved = [gens[k] * c for k, c in zip(order, scales)]
        other = close(GeneratorSet(n, moved))
        assert (other.dimension, other.dimension_traceless) == dims
