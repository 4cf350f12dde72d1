"""Operator expression parsing, species inference, and printing."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qalg.dsl import parse_expr, parse_script, print_expr
from qalg.errors import ParseError, SpeciesError
from qalg.parafermion import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    SPECIES,
    SecondQuantizedExpr,
    number_site,
    to_pauli,
)
from qalg.pauli import HALF, I_UNIT, ONE, OperatorSum, Scalar

_PART = st.fractions(-3, 3, max_denominator=4)
_COEFF = st.builds(Scalar, re=_PART, im=_PART)


class TestQubitExpressions:
    def test_single_letters(self):
        assert parse_expr("X(0)", 2) == OperatorSum.x(0, 2)
        assert parse_expr("Y(1)", 2) == OperatorSum.y(1, 2)
        assert parse_expr("Z(0)", 1) == OperatorSum.z(0, 1)

    def test_products_and_sums(self):
        got = parse_expr("X(0)*X(1) + Y(0)*Y(1)", 2)
        want = (OperatorSum.x(0, 2) * OperatorSum.x(1, 2)
                + OperatorSum.y(0, 2) * OperatorSum.y(1, 2))
        assert got == want

    def test_juxtaposition_is_multiplication(self):
        assert parse_expr("X(0) X(1)", 2) == parse_expr("X(0)*X(1)", 2)

    def test_coefficients(self):
        assert parse_expr("1/2 X(0)", 1) == OperatorSum.x(0, 1) * HALF
        assert parse_expr("0.5*X(0)", 1) == OperatorSum.x(0, 1) * HALF
        assert parse_expr("i Z(0)", 1) == OperatorSum.z(0, 1) * I_UNIT
        assert parse_expr("(0,1) Z(0)", 1) == OperatorSum.z(0, 1) * I_UNIT
        assert parse_expr("(1/2,-1/2) I(0)", 1) == (
            OperatorSum.identity(1) * (HALF - HALF * I_UNIT))

    def test_decimals_are_exact(self):
        got = parse_expr("0.125 Z(0)", 1)
        from fractions import Fraction
        from qalg.pauli import Scalar
        assert got == OperatorSum.z(0, 1) * Scalar(Fraction(1, 8))

    def test_signs(self):
        got = parse_expr("-X(0) + 2 Z(0) - Z(0)", 1)
        assert got == OperatorSum.z(0, 1) - OperatorSum.x(0, 1)

    def test_identity_and_numbers(self):
        assert parse_expr("I(0)", 2) == OperatorSum.identity(2)
        # bare occupation factors come back as a hard-core expression
        e = parse_expr("n(0)", 2)
        assert to_pauli(e) == to_pauli(SecondQuantizedExpr.number(0, 2, "parafermion"))


class TestSecondQuantized:
    def test_mode_operators(self):
        e = parse_expr("ad(0) * a(1)", 2)
        want = (SecondQuantizedExpr.create(0, 2, "parafermion")
                * SecondQuantizedExpr.annihilate(1, 2, "parafermion"))
        assert to_pauli(e) == to_pauli(want)

    def test_fermion_species(self):
        assert parse_expr("fd(1)*f(0)", 2).species == "fermion"

    def test_boson_species(self):
        assert parse_expr("bd(0)*b(0)", 1).species == "boson"

    def test_pure_number_factors_default_to_hard_core(self):
        assert parse_expr("n(0)*n(1)", 2).species == "parafermion"

    def test_mixing_species_rejected(self):
        with pytest.raises(SpeciesError):
            parse_expr("a(0) + f(1)", 2)
        with pytest.raises(SpeciesError):
            parse_expr("X(0) * a(0)", 1)


# (text, n_modes, message, position) of every ParseError an expression can
# raise; each text has no surrounding whitespace, so a script line reads it
# as parse_expr does
_PARSE_ERRORS = [
    ("X(0) $ Z(0)", 1, "unexpected character '$'", 5),
    ("1.5.2", 1, "unexpected character '.'", 3),
    ("X(0) +", 1, "term expected", 6),
    ("1/ X(0)", 1, "number expected", 3),
    # the position is that of the token after the denominator
    ("1/0 X(0)", 1, "zero denominator", 4),
    ("(1 2) X(0)", 1, "',' expected in (re, im) coefficient", 3),
    ("(1,2 X(0)", 1, "')' expected after (re, im) coefficient", 5),
    ("(1,2", 1, "')' expected after (re, im) coefficient", 4),
    ("Q (1)", 2, "unknown operator kind 'Q'", 0),
    ("X(0) i", 1, "unknown operator kind 'i'", 5),
    ("X 0", 1, "'(' expected after X", 2),
    ("X()", 1, "integer mode index expected", 2),
    ("X(0.5)", 1, "integer mode index expected", 2),
    ("X(0", 1, "')' expected after mode index", 3),
    ("X(0 1)", 2, "')' expected after mode index", 4),
    ("X(0) Z(0) )", 1, "trailing input", 10),
    ("i(0)", 1, "trailing input", 1),
    ("X(0) Y(5)", 2, "mode index 5 out of range for 2 modes", 5),
    ("ad (0) a( 1 )* a (7)", 2, "mode index 7 out of range for 2 modes", 15),
]


class TestErrors:
    """Each ParseError's message and position, through parse_expr and
    through a script line, which adds its line number to the message."""

    def test_junk_character_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("X(0) $ Z(0)", 1)
        assert err.value.position == 5

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expr("X(0) Z(0) )", 1)

    def test_mode_out_of_range(self):
        with pytest.raises(ParseError):
            parse_expr("X(5)", 2)

    def test_missing_parenthesis(self):
        with pytest.raises(ParseError):
            parse_expr("X0", 1)

    def test_fractional_index(self):
        with pytest.raises(ParseError):
            parse_expr("X(0.5)", 1)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expr("Q(0)", 2)

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse_expr("", 2)
        with pytest.raises(ParseError):
            parse_expr("# only a comment", 2)

    @pytest.mark.parametrize("text, n, message, position", _PARSE_ERRORS + [
        ("", 2, "empty expression", 0),
        ("  # only a comment", 2, "empty expression", 0),
    ])
    def test_message_and_position(self, text, n, message, position):
        with pytest.raises(ParseError) as err:
            parse_expr(text, n)
        assert (err.value.message, err.value.position) == (message, position)
        assert str(err.value) == f"{message} (at position {position})"

    @pytest.mark.parametrize("text, n, message, position", _PARSE_ERRORS)
    def test_script_line_message_and_position(self, text, n, message,
                                              position):
        with pytest.raises(ParseError) as err:
            parse_script(f"modes: {n}\n# a comment\n\ng = {text}  # note\n")
        assert (err.value.message, err.value.position) == (
            f"line 4: {message}", position)

    def test_declared_species_mismatch_position(self):
        with pytest.raises(ParseError) as err:
            parse_script("modes: 2\nspecies: fermion\ng = 2 X(1)\n")
        assert (err.value.message, err.value.position) == (
            "line 3: fermion script got a qubit expression", 0)


class TestPrinting:
    @pytest.mark.parametrize("text", [
        "X(0) X(1) + Y(0) Y(1)",
        "Z(0) - Z(1)",
        "1/2 X(0) + 1/2 Y(1)",
        "X(0) Z(1) Y(2)",
        "-i Z(2) + 2/3 X(0)",
    ])
    def test_round_trip(self, text):
        op = parse_expr(text, 3)
        assert parse_expr(print_expr(op), 3) == op

    def test_second_quantized_round_trip(self):
        e = parse_expr("ad(0) a(1) + ad(1) a(0)", 2)
        again = parse_expr(print_expr(e), 2)
        assert to_pauli(again) == to_pauli(e)

    def test_zero_prints_as_zero(self):
        assert print_expr(OperatorSum.zero(2)) == "0"

    def test_identity_prints_as_one(self):
        assert print_expr(OperatorSum.identity(2)) == "1"

    def test_root_two_coefficients_refused(self):
        from qalg.pauli import RT2_HALF
        with pytest.raises(ValueError):
            print_expr(OperatorSum.x(0, 1) * RT2_HALF)

    def test_number_only_mode_expressions_lose_their_species(self):
        # no letter of the printed text names fermions or bosons
        e = SecondQuantizedExpr.number(0, 2, "fermion")
        assert parse_expr(print_expr(e), 2).species == "parafermion"
        c = SecondQuantizedExpr.constant(2, 2, "boson")
        assert parse_expr(print_expr(c), 2) == OperatorSum.identity(2) * 2

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_operator_sums_round_trip(self, data):
        n = data.draw(st.integers(1, 4))
        mask = st.integers(0, (1 << n) - 1)
        op = OperatorSum(n, data.draw(
            st.dictionaries(st.tuples(mask, mask), _COEFF, max_size=6)))
        assert parse_expr(print_expr(op), n) == op

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_mode_expressions_round_trip(self, data):
        n = data.draw(st.integers(1, 4))
        factor = st.tuples(st.sampled_from((CREATE, ANNIHILATE, NUMBER)),
                           st.integers(0, n - 1))
        terms = st.lists(st.tuples(_COEFF, st.lists(factor, max_size=4)),
                         min_size=1, max_size=5)
        e = SecondQuantizedExpr(n, data.draw(st.sampled_from(SPECIES)),
                                data.draw(terms))
        assume(any(kind != NUMBER for _, factors in e.terms
                   for kind, _ in factors))
        assert parse_expr(print_expr(e), n) == e


class TestScripts:
    SCRIPT = """\
modes: 3
# nearest-neighbor hopping row
hop01 = ad(0)*a(1) + ad(1)*a(0)
occ = n(0) + n(1) + n(2)
"""

    def test_parse_script(self):
        script = parse_script(self.SCRIPT)
        assert script.n_modes == 3
        assert script.labels == ("hop01", "occ")
        assert script.species is None  # inferred per line, none declared
        assert to_pauli(script.operators["occ"]) == (
            number_site(0, 3) + number_site(1, 3) + number_site(2, 3))

    def test_qubit_script(self):
        script = parse_script("modes: 2\nspecies: qubit\ng = X(0)*X(1)\n")
        assert script.species == "qubit"
        assert script.operators["g"] == OperatorSum.x(0, 2) * OperatorSum.x(1, 2)

    def test_declared_species_coerces_constants(self):
        script = parse_script("modes: 2\nspecies: fermion\nc = 2 I(0)\n")
        assert script.operators["c"].species == "fermion"

    def test_declared_species_rejects_qubit_lines(self):
        with pytest.raises(ParseError):
            parse_script("modes: 2\nspecies: fermion\ng = X(0)\n")

    def test_declared_species_covers_number_lines(self):
        script = parse_script("modes: 2\nspecies: fermion\ng = n(0) - n(1)\n")
        assert script.operators["g"] == SecondQuantizedExpr(
            2, "fermion", [(ONE, ((NUMBER, 0),)), (-ONE, ((NUMBER, 1),))])
        script = parse_script("modes: 2\nspecies: qubit\ng = n(0)\n")
        assert script.operators["g"] == number_site(0, 2)
        script = parse_script("modes: 1\nspecies: boson\ng = I(0) n(0)\n")
        assert script.operators["g"] == SecondQuantizedExpr.number(0, 1, "boson")

    def test_foreign_letters_rejected_even_when_they_cancel(self):
        with pytest.raises(ParseError, match="line 3: fermion script got a "
                                             "qubit expression"):
            parse_script("modes: 2\nspecies: fermion\ng = X(0) X(0)\n")
        with pytest.raises(ParseError, match="line 3: qubit script got a "
                                             "fermion expression"):
            parse_script("modes: 2\nspecies: qubit\ng = 0 fd(0) f(1)\n")

    def test_mixed_species_line_is_numbered(self):
        with pytest.raises(SpeciesError, match="line 2: mixed species"):
            parse_script("modes: 2\ng0 = a(0) + f(1)\n")
        with pytest.raises(SpeciesError, match="line 3: qubit and mode"):
            parse_script("modes: 1\n\ng0 = X(0) * a(0)\n")

    def test_index_checked_before_declared_species(self):
        with pytest.raises(ParseError, match="mode index 5 out of range"):
            parse_script("modes: 2\nspecies: fermion\ng = X(5)\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError):
            parse_script("modes: 2\na = X(0)\na = Z(0)\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_script("a = X(0)\n")

    def test_species_header_must_come_first(self):
        with pytest.raises(ParseError):
            parse_script("modes: 2\na = X(0)\nspecies: qubit\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_script("modes: 2\nok = X(0)\nbad = X(9)\n")
        assert "line 3" in str(err.value)
