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
Numbers are exact: decimal literals become Fractions.  Indices are
zero-based mode numbers.

Each letter names a species (a/ad parafermion, f/fd fermion, b/bd boson,
X/Y/Z qubit), and letters of two species cannot be mixed.  `n` and `I`
name none: they adopt the species of the other letters.  A neutral
expression, one of only `n`, `I` and constants, takes the species a
script's `species:` header declares; without a header it is parafermionic
when it has an `n` factor and otherwise a qubit identity multiple.  Under a
header, an expression whose letters name another species is rejected.

Qubit expressions are multiplied out into an OperatorSum with
``parafermion.fold_terms``, whose integer tables hold the X, Y, Z and n
images once per process; mode expressions become one SecondQuantizedExpr
with the factors as written.
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

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?)"
                    r"|(?P<name>[A-Za-z]+)"
                    r"|(?P<sym>[-+*/(),]))")

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


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_sym(self, sym: str) -> bool:
        kind, val, _ = self.peek()
        if kind == "sym" and val == sym:
            self.i += 1
            return True
        return False

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

    # coeff pieces ---------------------------------------------------------

    def _number(self) -> Fraction:
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("number expected", pos)
        return Fraction(val)

    def _rational(self) -> Fraction:
        value = self._number()
        if self.accept_sym("/"):
            denom = self._number()
            if denom == 0:
                self.fail("zero denominator")
            value /= denom
        return value

    def _signed_rational(self) -> Fraction:
        sign = 1
        if self.accept_sym("-"):
            sign = -1
        elif self.accept_sym("+"):
            pass
        return sign * self._rational()

    def try_coefficient(self):
        """Scalar if a coefficient starts here, else None."""
        kind, val, _ = self.peek()
        if kind == "num":
            value = self._rational()
            k2, v2, _ = self.peek()
            if k2 == "name" and v2 == "i":
                self.i += 1
                return Scalar(0, value)
            return Scalar(value)
        if kind == "name" and val == "i":
            self.i += 1
            return I_UNIT
        if kind == "sym" and val == "(":
            self.i += 1
            real = self._signed_rational()
            if not self.accept_sym(","):
                self.fail("',' expected in (re, im) coefficient")
            imag = self._signed_rational()
            if not self.accept_sym(")"):
                self.fail("')' expected after (re, im) coefficient")
            return Scalar(real, imag)
        return None

    def try_factor(self):
        kind, val, pos = self.peek()
        if kind != "name":
            return None
        if val not in _LETTERS:
            raise ParseError(f"unknown operator kind {val!r}", pos)
        self.i += 1
        if not self.accept_sym("("):
            raise ParseError(f"'(' expected after {val}", self.peek()[2])
        k2, v2, p2 = self.next()
        if k2 != "num" or "." in v2:
            raise ParseError("integer mode index expected", p2)
        index = int(v2)
        if not self.accept_sym(")"):
            self.fail("')' expected after mode index")
        return (val, index, pos)

    def term(self):
        coeff = self.try_coefficient()
        if coeff is not None:
            self.accept_sym("*")
        factors = []
        while True:
            factor = self.try_factor()
            if factor is None:
                break
            factors.append(factor)
            self.accept_sym("*")
        if coeff is None and not factors:
            self.fail("term expected")
        return (ONE if coeff is None else coeff), factors

    def expression(self):
        terms = []
        sign = -1 if self.accept_sym("-") else 1
        if sign == 1:
            self.accept_sym("+")
        while True:
            coeff, factors = self.term()
            if sign < 0:
                coeff = -coeff
            terms.append((coeff, factors))
            if self.accept_sym("+"):
                sign = 1
            elif self.accept_sym("-"):
                sign = -1
            else:
                break
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return terms


def _named_species(terms):
    """The species the letters of terms name, or None when they name none."""
    named = {_LETTERS[letter][0] for _, factors in terms
             for letter, _, _ in factors} - {None}
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
    terms = _Parser(bare).expression()
    species = _named_species(terms)
    for _, factors in terms:
        for _, index, pos in factors:
            if not 0 <= index < n_modes:
                raise ParseError(
                    f"mode index {index} out of range for {n_modes} modes", pos)
    terms = [(coeff, tuple((_LETTERS[letter][1], index)
                           for letter, index, _ in factors if letter != "I"))
             for coeff, factors in terms]
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
            m = re.fullmatch(r"modes\s*:\s*(\d+)", line)
            if not m:
                raise ParseError(f"line {lineno}: 'modes: N' header expected", 0)
            n_modes = int(m.group(1))
            if n_modes < 1:
                raise ParseError(f"line {lineno}: modes must be positive", 0)
            continue
        m = re.fullmatch(r"species\s*:\s*([a-z]+)", line)
        if m:
            if operators or species is not None:
                raise ParseError(
                    f"line {lineno}: species header must precede definitions", 0)
            species = m.group(1)
            if species not in ("qubit", *SPECIES):
                raise ParseError(f"line {lineno}: unknown species {species!r}", 0)
            continue
        m = re.fullmatch(r"([A-Za-z_]\w*)\s*=\s*(.+)", line)
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
