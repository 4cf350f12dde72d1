"""Constant-excitation subspaces, encoded generators, rates, synthesis."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import qalg.codes
from qalg.codes import (
    CodeSubspace,
    EncodedGate,
    build_code,
    encoded_cphase,
    encoded_generator,
    physical_generator,
    rate,
    shannon_entropy,
    synthesize_su_d,
)
from qalg.errors import ModeMismatchError
from qalg.pauli import OperatorSum, Scalar, realize


def dense(gate):
    """The gate's dim x dim matrix, densified from its exact entries."""
    m = np.zeros((gate.dim, gate.dim), dtype=complex)
    for (r, c), s in gate.entries.items():
        m[r, c] = s.to_complex()
    return m


class TestCodewords:
    def test_three_choose_one_table(self):
        code = build_code(3, 1)
        assert code.codewords == (4, 2, 1)
        assert code.codeword_strings() == ("001", "010", "100")
        assert code.dense_indices == (3, 5, 6)

    def test_two_choose_one_table(self):
        code = build_code(2, 1)
        assert code.codeword_strings() == ("01", "10")
        assert code.dense_indices == (1, 2)

    def test_counts(self):
        assert len(build_code(4, 2).codewords) == 6
        assert len(build_code(5, 2).codewords) == 10

    def test_mode_zero_is_leftmost_character(self):
        # mask 4 on three modes means mode 2 is excited, printed last
        code = build_code(3, 1)
        assert code.codeword_strings()[0] == "001"

    def test_excitations_beyond_modes_rejected(self):
        with pytest.raises(ValueError):
            build_code(3, 4)

    def test_combinations_keep_the_mask_scan_order(self):
        # the order codewords had when every 2**N mask was scanned and
        # sorted by its printed (mode-0-first) value; every code on up to
        # 10 modes is admitted
        def scan(n, k):
            masks = [m for m in range(1 << n) if m.bit_count() == k]
            return tuple(sorted(masks, key=lambda m: [m >> i & 1
                                                      for i in range(n)]))

        for n in range(1, 11):
            for k in range(n + 1):
                assert build_code(n, k).codewords == scan(n, k), (n, k)


class TestEncodedGenerators:
    def test_transposition_matrix(self):
        code = build_code(3, 1)
        g = encoded_generator(code, "x", (0, 1))
        assert g.support == (0, 1)
        assert np.array_equal(dense(g),
                              np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
        assert g.is_hermitian

    def test_difference_matrix(self):
        g = encoded_generator(build_code(3, 1), "z", (1, 2))
        assert np.array_equal(dense(g), np.diag([1, -1, 0]))
        assert g.is_hermitian

    def test_hermiticity_is_exact(self):
        # a float tolerance would pass the 10**-30 asymmetry
        tiny = Scalar(Fraction(1, 10**30))
        one = Scalar(1)
        assert EncodedGate("t", (0, 1), {(0, 1): one, (1, 0): one}, 2).is_hermitian
        assert not EncodedGate("t", (0, 1), {(0, 1): one,
                                             (1, 0): one + tiny}, 2).is_hermitian
        assert not EncodedGate("t", (0, 1), {(0, 1): tiny}, 2).is_hermitian
        assert not EncodedGate("t", (0, 1), {(0, 0): Scalar(0, 1)}, 2).is_hermitian

    def test_action_is_projected_physical_operator(self):
        code = build_code(4, 2)
        for kind in ("x", "z"):
            g = encoded_generator(code, kind, (1, 3))
            phys = realize(physical_generator(kind, (1, 3), 4))
            idx = list(code.dense_indices)
            assert np.allclose(dense(g), phys[np.ix_(idx, idx)])

    def test_projection_checks_the_mode_count(self):
        with pytest.raises(ModeMismatchError):
            build_code(3, 1).project(OperatorSum.z(1, 5))

    def test_kind_spellings(self):
        code = build_code(3, 1)
        for kind in ("x", "X", "tx", "Tx", "TX", "z", "Z", "tz", "Tz", "TZ"):
            gate = encoded_generator(code, kind, (0, 1))
            assert gate.name == f"T{kind[-1].lower()}(0,1)"

    def test_bad_kind_and_pair(self):
        code = build_code(3, 1)
        for kind in ("y", "t", "ttx", "TTTz", "xt"):
            with pytest.raises(ValueError, match="unknown generator kind"):
                encoded_generator(code, kind, (0, 1))
        with pytest.raises(ValueError):
            encoded_generator(code, "x", (0, 0))
        with pytest.raises(ValueError):
            encoded_generator(code, "x", (0, 3))
        # the pair is checked before the kind
        with pytest.raises(ValueError, match="invalid pair"):
            encoded_generator(code, "y", (0, 0))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_entries_are_the_projection_in_its_order(self, n):
        for k in range(n + 1):
            code = build_code(n, k)
            for pair in combinations(range(n), 2):
                for kind in ("x", "z"):
                    ref = code.project(physical_generator(kind, pair, n))
                    got = encoded_generator(code, kind, pair).entries
                    assert list(got.items()) == list(ref.items())

    def test_forms_no_pauli_sum(self, monkeypatch):
        code = build_code(5, 2)
        want = {kind: encoded_generator(code, kind, (1, 3)).entries
                for kind in ("x", "z")}

        def refuse(*args, **kwargs):
            raise AssertionError("encoded_generator formed a Pauli sum")

        monkeypatch.setattr(qalg.codes, "physical_generator", refuse)
        monkeypatch.setattr(CodeSubspace, "project", refuse)
        monkeypatch.setattr(OperatorSum, "__init__", refuse)
        for kind in ("x", "z"):
            assert encoded_generator(code, kind, (1, 3)).entries == want[kind]


class TestCphase:
    def test_interface_sign_tables(self):
        cp = encoded_cphase(build_code(3, 1), build_code(3, 1))
        assert cp.left_signs == (-1, 1, 1)
        assert cp.right_signs == (1, 1, -1)
        assert np.array_equal(
            np.diag(cp.zz_diagonal),
            np.kron(np.diag(cp.left_signs), np.diag(cp.right_signs)))

    def test_two_block_gate_diagonal(self):
        cp = encoded_cphase(build_code(2, 1), build_code(2, 1))
        assert cp.zz_diagonal == (-1, 1, 1, -1)
        assert np.array_equal(dense(cp), np.diag([1, -1, -1, 1]))

    def test_mixed_block_sizes(self):
        cp = encoded_cphase(build_code(3, 1), build_code(2, 1))
        assert np.diag(cp.zz_diagonal).shape == dense(cp).shape == (6, 6)


class TestSynthesis:
    def test_small_code_succeeds_either_way(self):
        for pairs in ("all", "nearest"):
            r = synthesize_su_d(build_code(3, 1), pairs=pairs)
            assert r.success
            assert r.basis.dimension_traceless == 8

    def test_default_reaches_full_su6(self):
        r = synthesize_su_d(build_code(4, 2))
        assert r.success
        assert r.basis.dimension_traceless == 35

    def test_default_reaches_full_su_d_up_to_the_d_limit(self):
        # C(6,3) has d = 20, the default d_limit
        for n, k, want in ((5, 2, 99), (6, 3, 399)):
            r = synthesize_su_d(build_code(n, k))
            assert r.success
            assert r.basis.closed
            assert r.basis.dimension_traceless == want == r.counting["dim"] ** 2 - 1
            # the traceless saturation stop ends the closure mid-round
            assert r.basis.rounds == 3

    def test_nearest_chain_sticks_at_quadratic_image(self):
        # adjacent hard-core hops equal their string-mapped quadratic
        # images, so the chain closure cannot exceed N*N directions no
        # matter how the subspace projects it
        for n, k, want in ((4, 2, 15), (5, 2, 24), (6, 3, 35)):
            r = synthesize_su_d(build_code(n, k), pairs="nearest")
            assert not r.success
            assert r.basis.dimension_traceless == want

    def test_counting_record(self):
        r = synthesize_su_d(build_code(4, 2), pairs="nearest")
        assert r.counting["pairs_per_link"] == math.comb(2, 1)
        assert r.counting["links"] == math.comb(4, 2)
        assert r.counting["dim"] == 6
        assert r.counting["interior_condition"]

    def test_pairs_argument_validated(self):
        with pytest.raises(ValueError):
            synthesize_su_d(build_code(3, 1), pairs="some")

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            synthesize_su_d(build_code(8, 4), d_limit=20)


class TestRates:
    def test_half_filling_rates_climb_toward_one(self):
        values = [rate(n, n // 2) for n in (4, 8, 12, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1 for v in values)

    def test_three_mode_value(self):
        assert abs(rate(3, 1) - math.log2(3) / 3) < 1e-12

    def test_entropy_bound(self):
        # the rate at filling fraction p approaches the binary entropy
        assert shannon_entropy(0.5) == 1.0
        assert shannon_entropy(0.0) == 0.0
        assert abs(shannon_entropy(0.25) - shannon_entropy(0.75)) < 1e-15
        assert rate(16, 8) < shannon_entropy(0.5)

    def test_rate_of_trivial_codes(self):
        assert rate(4, 0) == 0.0
        assert rate(4, 4) == 0.0

    def test_rate_validates_counts_as_codes_do(self):
        with pytest.raises(ValueError, match="excitation count 5 invalid"):
            rate(3, 5)
        with pytest.raises(ValueError, match="n_modes must be positive"):
            rate(0, 0)
        # the code bound does not apply to the rate
        assert rate(64, 32) < shannon_entropy(0.5)
