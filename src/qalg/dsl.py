"""Tiny operator expression language shared by the CLI and the test data.

Grammar (whitespace-insensitive, '#' starts a comment):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := coeff ['*'] factor*  |  factor+
    factor  := KIND '(' index ')'
    coeff   := number ['/' number] ['i']  |  'i'
             | '(' signed ',' signed ')'          # (re, im)
    signed  := ['+'|'-'] number ['/' number]

KIND is one of a, ad (parafermionic lowering/raising), f, fd (fermionic),
b, bd (bosonic), n (number), X, Y, Z (qubit) and I (identity placeholder).
Numbers are exact: integer literals are read as ints and decimal ones as
Fractions.  Indices are zero-based mode numbers.

Text is lexed in one pass of one regular expression.  A well-formed
factor, KIND '(' index ')' with whitespace allowed around the parentheses
and the index, is one token; a number, a name (i, an unknown word, or a
KIND whose factor is malformed), a symbol and a character outside the
grammar are one token each.  A malformed factor thus reaches the parser
as a name, a symbol and a number, and fails where its own grammar rule
does.  The parser reads the tokens once: it checks each factor's letter,
species and index as it reads it, and raises a mixed species or an index
out of range once the whole expression has parsed, so any syntax error
comes first.

Each letter names a species (a/ad parafermion, f/fd fermion, b/bd boson,
X/Y/Z qubit), and letters of two species cannot be mixed.  `n` and `I`
name none: they adopt the species of the other letters.  A neutral
expression, one of only `n`, `I` and constants, takes the species a
script's `species:` header declares; without a header it is parafermionic
when it has an `n` factor and otherwise a qubit identity multiple.  Under a
header, an expression whose letters name another species is rejected.

Qubit expressions are multiplied out into an OperatorSum with
``parafermion.fold_terms``, whose integer tables hold the X, Y, Z and n
images once per process, and which reads each term's coefficient as
integers; mode expressions become one SecondQuantizedExpr with the
factors as written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SpeciesError
from .pauli import I_UNIT, ONE, OperatorSum, Scalar
from .parafermion import (
    ANNIHILATE,
    CREATE,
    NUMBER,
    SPECIES,
    SecondQuantizedExpr,
    fold_terms,
    number_site,
)

# letter -> (the species it names, its factor kind); n and I name no
# species, and I has no factor
_LETTERS = {
    "X": ("qubit", "X"), "Y": ("qubit", "Y"), "Z": ("qubit", "Z"),
    "a": ("parafermion", ANNIHILATE), "ad": ("parafermion", CREATE),
    "f": ("fermion", ANNIHILATE), "fd": ("fermion", CREATE),
    "b": ("boson", ANNIHILATE), "bd": ("boson", CREATE),
    "n": (None, NUMBER), "I": (None, None),
}
_QUBIT_IMAGES = {"X": (OperatorSum.x,), "Y": (OperatorSum.y,),
                 "Z": (OperatorSum.z,), NUMBER: (number_site,)}

# one token per match, with the whitespace after it (see the module
# docstring)
_TOKEN = re.compile(
    r"(?:(?P<factor>(%s)\s*\(\s*(\d+)\s*\))"
    r"|(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z]+)"
    r"|(?P<sym>[-+*/(),])"
    r"|(?P<bad>\S))\s*" % "|".join(_LETTERS))


def _tokenize(text: str) -> list:
    """(kind, value, position) tokens of text from one pass, then an end
    token.  A factor's value is (letter, index), a number's and a name's
    their text; a symbol is its own kind and value."""
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "factor":
            append((kind, (m[2], int(m[3])), m.start()))
        elif kind == "sym":
            sym = m[kind]
            append((sym, sym, m.start()))
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start())
        else:
            append((kind, m[kind], m.start()))
    append(("end", "", len(text)))
    return tokens


_MINUS_ONE = -ONE
_MINUS_I = -I_UNIT


class _Parser:
    """Reads one expression's tokens once, left to right.

    Each factor token is checked where it is read: its letter adds the
    species it names to ``named``, and the first factor whose index is out
    of range is kept in ``out_of_range``.  ``_parse`` raises those errors
    once the whole expression has parsed, so a syntax error anywhere still
    comes first.
    """

    def __init__(self, text: str, n_modes: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n_modes = n_modes
        self.named = set()
        self.out_of_range = None

    def accept(self, sym: str) -> bool:
        if self.tokens[self.i][0] == sym:
            self.i += 1
            return True
        return False

    def fail(self, message: str):
        raise ParseError(message, self.tokens[self.i][2])

    # coeff pieces ---------------------------------------------------------

    def _number(self):
        """An integer literal as an int, a decimal one as a Fraction."""
        kind, val, pos = self.tokens[self.i]
        self.i += 1
        if kind != "num":
            raise ParseError("number expected", pos)
        return Fraction(val) if "." in val else int(val)

    def _rational(self):
        value = self._number()
        if self.accept("/"):
            denom = self._number()
            if denom == 0:
                self.fail("zero denominator")
            value = Fraction(value, denom)
        return value

    def _signed_rational(self):
        if self.accept("-"):
            return -self._rational()
        self.accept("+")
        return self._rational()

    def coefficient(self, negative: bool):
        """The Scalar of a coefficient that starts here, negated when the
        term is subtracted, else None."""
        kind, val, _ = self.tokens[self.i]
        if kind == "num":
            value = self._rational()
            if negative:
                value = -value
            kind, val, _ = self.tokens[self.i]
            if kind == "name" and val == "i":
                self.i += 1
                return Scalar(0, value)
            return Scalar(value)
        if kind == "name" and val == "i":
            self.i += 1
            return _MINUS_I if negative else I_UNIT
        if kind == "(":
            self.i += 1
            real = self._signed_rational()
            if not self.accept(","):
                self.fail("',' expected in (re, im) coefficient")
            imag = self._signed_rational()
            if not self.accept(")"):
                self.fail("')' expected after (re, im) coefficient")
            return Scalar(-real, -imag) if negative else Scalar(real, imag)
        return None

    def _malformed_factor(self):
        """Raise the error for a name where a factor may stand.

        A well-formed factor is one token, so a name here is an unknown
        letter, or a letter whose '(', integer index or ')' is missing."""
        _, val, pos = self.tokens[self.i]
        if val not in _LETTERS:
            raise ParseError(f"unknown operator kind {val!r}", pos)
        self.i += 1
        if not self.accept("("):
            self.fail(f"'(' expected after {val}")
        kind, val, pos = self.tokens[self.i]
        self.i += 1
        if kind != "num" or "." in val:
            raise ParseError("integer mode index expected", pos)
        self.fail("')' expected after mode index")

    def term(self, negative: bool):
        """(coeff, factors) of one term, factors as (kind, index) pairs
        with the I placeholders left out."""
        tokens = self.tokens
        coeff = self.coefficient(negative)
        if coeff is not None:
            self.accept("*")
        factors = []
        found = False
        while True:
            kind, value, pos = tokens[self.i]
            if kind != "factor":
                if kind == "name":
                    self._malformed_factor()
                break
            letter, index = value
            species, factor_kind = _LETTERS[letter]
            self.named.add(species)
            if self.out_of_range is None and not 0 <= index < self.n_modes:
                self.out_of_range = index, pos
            if factor_kind is not None:
                factors.append((factor_kind, index))
            found = True
            self.i += 1
            if tokens[self.i][0] == "*":
                self.i += 1
        if coeff is None:
            if not found:
                self.fail("term expected")
            coeff = _MINUS_ONE if negative else ONE
        return coeff, tuple(factors)

    def expression(self):
        tokens = self.tokens
        kind = tokens[0][0]
        negative = kind == "-"
        if negative or kind == "+":
            self.i = 1
        terms = []
        while True:
            terms.append(self.term(negative))
            kind = tokens[self.i][0]
            if kind == "+":
                negative = False
            elif kind == "-":
                negative = True
            else:
                break
            self.i += 1
        if kind != "end":
            raise ParseError("trailing input", tokens[self.i][2])
        return terms


def _named_species(named):
    """The species that a set of letter species (None for n and I) names,
    or None when it names none."""
    named = named - {None}
    modes = named - {"qubit"}
    if "qubit" in named and modes:
        raise SpeciesError("qubit and mode-operator kinds cannot be mixed")
    if len(modes) > 1:
        raise SpeciesError(f"mixed species {sorted(modes)}")
    return named.pop() if named else None


def _parse(text: str, n_modes: int, declared: str | None = None):
    """parse_expr, with the species a script header declares (if any)."""
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    bare = text.split("#", 1)[0]
    if not bare.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(bare, n_modes)
    terms = parser.expression()
    species = _named_species(parser.named)
    if parser.out_of_range is not None:
        index, pos = parser.out_of_range
        raise ParseError(
            f"mode index {index} out of range for {n_modes} modes", pos)
    if species is None:  # only n factors are left
        species = declared or ("parafermion" if any(f for _, f in terms)
                               else "qubit")
    elif declared not in (None, species):
        raise ParseError(f"{declared} script got a {species} expression", 0)
    if species == "qubit":
        return fold_terms(terms, n_modes, _QUBIT_IMAGES)
    return SecondQuantizedExpr(n_modes, species, terms)


def parse_expr(text: str, n_modes: int):
    """Parse one expression; returns an OperatorSum or SecondQuantizedExpr."""
    return _parse(text, n_modes)


# -- printing ---------------------------------------------------------------

def _format_coeff(coeff: Scalar, leading: bool):
    """(connector, body) where body omits a bare 1; None body means just 1."""
    if not coeff.is_rational:
        raise ValueError("coefficient outside the printable rational ring")
    negative = False
    if coeff.im == 0:
        if coeff.re < 0:
            negative, coeff = True, -coeff
        body = None if coeff.re == 1 else str(coeff.re)
    elif coeff.re == 0:
        if coeff.im < 0:
            negative, coeff = True, -coeff
        body = "i" if coeff.im == 1 else str(coeff.im) + "i"
    else:
        body = f"({str(coeff.re)},{str(coeff.im)})"
    connector = ("-" if negative else "") if leading else (" - " if negative else " + ")
    return connector, body

# species -> factor kind -> the letter that prints it, read off _LETTERS
_SQ_NAMES = {
    species: {kind: letter for letter, (named, kind) in _LETTERS.items()
              if named in (species, None) and kind is not None}
    for species in SPECIES}


def _emit(pieces, connector, body, factors):
    if body is None and not factors:
        body = "1"
    parts = ([] if body is None else [body]) + factors
    pieces.append(connector + " ".join(parts))


def print_expr(expr) -> str:
    """Canonical text form.

    parse_expr reads it back as an equal object for every OperatorSum with
    rational coefficients, and for every SecondQuantizedExpr with at least
    one creation or annihilation factor.  A mode expression without one
    names no species in its text, so it comes back as a parafermion
    expression (when it has an `n` factor) or as a qubit operator.
    """
    pieces = []
    if isinstance(expr, OperatorSum):
        for (x, z), coeff in expr.items():
            connector, body = _format_coeff(coeff, leading=not pieces)
            factors = []
            for mode in range(expr.n_modes):
                xbit, zbit = (x >> mode) & 1, (z >> mode) & 1
                if xbit or zbit:
                    letter = "XZY"[xbit + 2 * zbit - 1]
                    factors.append(f"{letter}({mode})")
            _emit(pieces, connector, body, factors)
    elif isinstance(expr, SecondQuantizedExpr):
        names = _SQ_NAMES[expr.species]
        for coeff, factors in expr.terms:
            connector, body = _format_coeff(coeff, leading=not pieces)
            _emit(pieces, connector, body,
                  [f"{names[kind]}({mode})" for kind, mode in factors])
    else:
        raise TypeError(f"cannot print {type(expr).__name__}")
    return "".join(pieces) if pieces else "0"


# -- script files -----------------------------------------------------------

_MODES_HEADER = re.compile(r"modes\s*:\s*(\d+)")
_SPECIES_HEADER = re.compile(r"species\s*:\s*([a-z]+)")
_DEFINITION = re.compile(r"([A-Za-z_]\w*)\s*=\s*(.+)")


@dataclass(frozen=True)
class OperatorScript:
    n_modes: int
    species: str | None
    operators: dict
    labels: tuple


def parse_script(text: str) -> OperatorScript:
    """Parse a named-operator script.

    Lines: optional comments (#), a mandatory `modes: N` header, an optional
    `species: <qubit|parafermion|fermion|boson>` header, then `name = expr`
    definitions.  Operator names must be unique identifiers.
    """
    n_modes = None
    species = None
    operators = {}
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_modes is None:
            m = _MODES_HEADER.fullmatch(line)
            if not m:
                raise ParseError(f"line {lineno}: 'modes: N' header expected", 0)
            n_modes = int(m.group(1))
            if n_modes < 1:
                raise ParseError(f"line {lineno}: modes must be positive", 0)
            continue
        m = _SPECIES_HEADER.fullmatch(line)
        if m:
            if operators or species is not None:
                raise ParseError(
                    f"line {lineno}: species header must precede definitions", 0)
            species = m.group(1)
            if species not in ("qubit", *SPECIES):
                raise ParseError(f"line {lineno}: unknown species {species!r}", 0)
            continue
        m = _DEFINITION.fullmatch(line)
        if not m:
            raise ParseError(f"line {lineno}: 'name = expr' expected", 0)
        name, body = m.group(1), m.group(2)
        if name in operators:
            raise ParseError(f"line {lineno}: duplicate operator {name!r}", 0)
        try:
            operators[name] = _parse(body, n_modes, species)
        except ParseError as err:
            raise ParseError(f"line {lineno}: {err.message}", err.position)
        except SpeciesError as err:
            raise SpeciesError(f"line {lineno}: {err}")
        labels.append(name)
    if n_modes is None:
        raise ParseError("script has no 'modes: N' header", 0)
    return OperatorScript(n_modes, species, operators, tuple(labels))
