"""Equilibrium occupation curves and their limits."""

import math

import pytest

from qalg.thermal import ThermalParams, occupation, sweep


class TestOccupation:
    def test_midpoint_is_exactly_half(self):
        occ = occupation(ThermalParams(B=(0.5,), mu=1.0, kT=0.7))
        assert occ[0] == 0.5

    def test_monotone_decreasing_in_field(self):
        fields = (0.1, 0.3, 0.5, 0.8, 1.2, 2.0)
        occ = occupation(ThermalParams(B=fields, mu=1.0, kT=0.5))
        assert all(a > b for a, b in zip(occ, occ[1:]))

    def test_values_bounded(self):
        occ = occupation(ThermalParams(B=(1e-6, 1e6), mu=1.0, kT=0.02))
        assert all(0.0 <= v <= 1.0 for v in occ)
        assert occ[0] > 1 - 1e-9
        assert occ[1] < 1e-9

    def test_extreme_gaps_do_not_overflow(self):
        occ = occupation(ThermalParams(B=(1e8,), mu=1.0, kT=1e-3))
        assert occ[0] == 0.0

    def test_extreme_gaps_round_to_the_ends(self):
        # the Fermi function reaches both ends of [0, 1] in floating point
        assert occupation(ThermalParams((400.0,), 0.0)) == [0.0]
        assert occupation(ThermalParams((0.001,), 100.0)) == [1.0]

    def test_sum_rule(self):
        for d in (0.05, 0.17, 0.4):
            occ = occupation(ThermalParams(B=(0.5 + d, 0.5 - d), mu=1.0, kT=0.6))
            assert abs(occ[0] + occ[1] - 1.0) < 1e-15

    def test_low_temperature_approaches_step(self):
        warm = occupation(ThermalParams(B=(0.2, 0.9), mu=1.0, kT=0.05))
        cold = occupation(ThermalParams(B=(0.2, 0.9), mu=1.0, kT=0.0, zero_limit=True))
        assert abs(warm[0] - cold[0]) < 1e-5
        assert abs(warm[1] - cold[1]) < 1e-5

    def test_zero_limit_steps(self):
        occ = occupation(ThermalParams(B=(0.2, 0.5, 0.9), mu=1.0, kT=0.0, zero_limit=True))
        assert occ == [1.0, 0.5, 0.0]


class TestValidation:
    def test_fields_must_be_positive(self):
        with pytest.raises(ValueError):
            ThermalParams(B=(-0.1,), mu=1.0)
        with pytest.raises(ValueError):
            ThermalParams(B=(), mu=1.0)
        with pytest.raises(ValueError):
            ThermalParams(B=(math.inf,), mu=1.0)

    def test_zero_limit_requires_zero_temperature(self):
        with pytest.raises(ValueError):
            ThermalParams(B=(0.5,), mu=1.0, kT=1.0, zero_limit=True)
        with pytest.raises(ValueError):
            ThermalParams(B=(0.5,), mu=1.0, kT=0.0)  # needs the flag

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            ThermalParams(B=(0.5,), mu=1.0, kT=-0.1)


class TestSweep:
    def test_rows_keyed_by_temperature(self):
        rows = sweep((0.3, 0.7), 1.0, (0.5, 1.0, 2.0))
        assert [kt for kt, _ in rows] == [0.5, 1.0, 2.0]
        for _, occ in rows:
            assert len(occ) == 2

    def test_zero_row_uses_the_step_form(self):
        rows = sweep((0.2, 0.5, 0.9), 1.0, (0.0,))
        assert rows == [(0.0, [1.0, 0.5, 0.0])]

    def test_broadening_with_temperature(self):
        # occupations contract toward one half as kT grows
        rows = sweep((0.2,), 1.0, (0.1, 1.0, 10.0))
        values = [occ[0] for _, occ in rows]
        assert values[0] > values[1] > values[2] > 0.5
