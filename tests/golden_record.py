"""Golden-output corpus: one sha256 per CLI invocation or library closure.

    PYTHONPATH=src python tests/golden_record.py          # compare only
    PYTHONPATH=src python tests/golden_record.py --new    # record missing keys
    PYTHONPATH=src python tests/golden_record.py KEY ...  # re-record these

By default the recorder compares: it lists every key whose digest differs
from ``digests.json``, and every key not recorded yet, and exits 1 if there
is one.  It writes only with ``--new``, which records the keys not yet in the
file and leaves every recorded digest alone, or with keys named.

A CLI entry runs ``qalg.cli.main(argv)`` in process and hashes its exit code,
its stdout with ``generated_at`` and ``version`` blanked, and its stderr.  An
exception that escapes ``main`` is hashed as exit code 1 plus its type and
message, as the interpreter would report it without the traceback.  A
library entry hashes the closure's dimensions, ``closed``, ``rounds``,
provenance and exported elements, each element in its own dict key order.
A conjugation entry hashes the terms of one exact eighth-turn conjugation
(``verifier.conjugate_eighth``) of a seeded random operator, in term order;
an exponential entry hashes the terms of one ``verifier.exact_exp``, in
term order.  A linear entry hashes, in term order, the terms of a sum,
difference, scalar multiple, commutator or anticommutator of seeded
operators whose keys come from a small pool, so that terms cancel; of a
``bilinear_su2`` triple; or of ``jw.boson_approx_commutator``.  A compound
entry hashes the relation names and verdicts of one
``verifier.compound_mapping_check``.

Bytes that depend on the numpy version or its BLAS are left out: ``code
generator`` runs in JSON only, and ``verify --all`` is hashed with its
dense numbers blanked.  The rule: in a check whose metric is
``max_abs_diff``, the check's residual becomes ``#``, and so does each
number written after "residual", "residual is", "residual at ...:" or
"halving ratio" in a detail line that does not begin with "exact".  Lines
that begin with "exact" report exact conjugations ("exact quarter-turn
conjugate equals iBA: residual 0") and are kept whole, as is every line of
an ``exact`` check.  Text output is blanked line by line, each detail line
under the PASS/FAIL line of its check; JSON output is blanked in the parsed
body and written back as the CLI writes it.  ``test_golden.py`` replays the
corpus.

A change that alters an entry on purpose re-records only that entry, by
key, and names it and the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import qalg.cli
from qalg.codes import build_code, synthesize_su_d
from qalg.dsl import parse_script
from qalg.jw import boson_approx_commutator, jw_fermion_to_pauli
from qalg.lie import GeneratorSet, close
from qalg.parafermion import SecondQuantizedExpr, bilinear_su2, to_pauli
from qalg.pauli import (
    I_UNIT,
    ONE,
    RT2_HALF,
    OperatorSum,
    Scalar,
    anticommutator,
    commutator,
)
from qalg.verifier import compound_mapping_check, conjugate_eighth, exact_exp

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"

SCRIPTS = ("su2n_3", "su2n_4", "u5_chain", "so8_fermion", "dense_pair_3")
EXACT_CHECKS = ("axy-encoded", "axy-split", "boson-commutator", "car")
# (N, k) at and around the code bound, and far past it
BOUND_EDGES = ((10, 5), (11, 5), (12, 3), (14, 1), (50, 1), (51, 1),
               (20000, 0), (100000000, 50000000))


def _both(*argv):
    return [(*argv, "--format", "json"), (*argv, "--format", "text")]


def cli_invocations() -> list:
    """argv tuples; a --file path is relative to the repository root."""
    out = []
    for sample in ("samples/single_qubit.ops", "samples/xy_chain.ops"):
        out += _both("closure", "--file", sample)
        out += _both("classify", "--file", sample)
    for name in SCRIPTS:
        out += _both("closure", "--file", f"tests/golden/{name}.ops")
    for name in (*SCRIPTS, "monomials_8"):
        out += _both("classify", "--file", f"tests/golden/{name}.ops")
    out += _both("closure", "--file", "tests/golden/su2n_3.ops",
                 "--max-dim", "10")
    out += _both("jw", "--modes", "3", "--expr", "fd(0) f(2) + fd(2) f(0)")
    out += _both("jw", "--modes", "3", "--expr", "ad(0) a(2) + ad(2) a(0)")
    out += _both("jw", "--modes", "4", "--string-op", "3")
    for n in range(3, 7):
        for k in range(n + 1):
            nk = ("-n", str(n), "-k", str(k))
            for action in ("list", "rate", "cphase"):
                out += _both("code", action, *nk)
            for kind in "xz":
                for pair in ("0,1", f"1,{n - 1}"):
                    out.append(("code", "generator", *nk, "--kind", kind,
                                "--pair", pair, "--format", "json"))
            for pairs in ("all", "nearest"):
                out.append(("code", "synthesize", *nk, "--pairs", pairs,
                            "--format", "json"))
    out += _both("code", "synthesize", "-n", "4", "-k", "2")
    out += _both("code", "cphase", "-n", "3", "-k", "1", "--modes2", "4",
                 "--excitations2", "2")
    out.append(("code", "generator", "-n", "10", "-k", "5", "--kind", "z",
                "--pair", "3,7", "--format", "json"))
    for n, k in BOUND_EDGES:
        out += _both("code", "list", "-n", str(n), "-k", str(k))
        out.append(("code", "rate", "-n", str(n), "-k", str(k),
                    "--format", "json"))
    for action in ("list", "rate", "generator", "cphase", "synthesize"):
        out += _both("code", action, "-n", "0", "-k", "0")
    out += _both("code", "cphase", "-n", "2", "-k", "1", "--modes2", "0",
                 "--excitations2", "0")
    out += _both("code", "cphase", "-n", "2", "-k", "1", "--modes2", "0")
    for name in EXACT_CHECKS:
        out += _both("verify", name)
    out += _both("verify", "--all")
    out += _both("verify", "--all", "--verbose")
    out += _both("enumerate", "-n", "2")
    out += _both("enumerate", "-n", "3", "--filter", "number")
    out += _both("enumerate", "-n", "2", "--filter", "parity")
    for n in ("9", "0", "-2"):
        out += _both("enumerate", "-n", n)
    return out


_DENSE_NUMBER = re.compile(
    r"((?:residual(?: is| at [^:]*:)?|halving ratio) )"
    r"(?:-?\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _blank_detail(line: str) -> str:
    if line.lstrip().startswith("exact"):
        return line
    return _DENSE_NUMBER.sub(r"\1#", line)


def _blank_dense(stdout: str, json_format: bool) -> str:
    """``verify`` output with the numbers of dense checks blanked."""
    if json_format:
        envelope = json.loads(stdout)
        for check in envelope["body"]["checks"]:
            if check["metric"] == "max_abs_diff":
                check["residual"] = "#"
                check["details"] = [_blank_detail(d)
                                    for d in check["details"]]
        return json.dumps(envelope, sort_keys=True,
                          separators=(",", ":")) + "\n"
    lines, dense = [], False
    for line in stdout.split("\n"):
        if line.startswith(("PASS  ", "FAIL  ")):
            dense = "(metric max_abs_diff," in line
            if dense:
                line = _DENSE_NUMBER.sub(r"\1#", line)
        elif dense:
            line = _blank_detail(line)
        lines.append(line)
    return "\n".join(lines)


def _run_cli(argv) -> str:
    argv = [str(ROOT / a) if k and argv[k - 1] == "--file" else a
            for k, a in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qalg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping error is part of the answer
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    stdout = re.sub(r'"(generated_at|version)":"[^"]*"', r'"\1":""',
                    out.getvalue())
    if argv[:2] == ["verify", "--all"] and code == 0:
        stdout = _blank_dense(stdout, "json" in argv)
    return json.dumps([code, stdout, err.getvalue()])


# -- library closures ------------------------------------------------------

def _script_generators(name: str):
    script = parse_script((GOLDEN / f"{name}.ops").read_text())
    gens = []
    for label in script.labels:
        op = script.operators[label]
        if isinstance(op, SecondQuantizedExpr):
            op = (jw_fermion_to_pauli(op) if op.species == "fermion"
                  else to_pauli(op))
        gens.append(op)
    return GeneratorSet(script.n_modes, gens)


def _closure(name: str, max_dim=None):
    return lambda: close(_script_generators(name), max_dim=max_dim)


def _synthesis(n: int, k: int, pairs: str):
    return lambda: synthesize_su_d(build_code(n, k), pairs=pairs).basis


def library_cases() -> dict:
    return {
        "lib close su2n_3": _closure("su2n_3"),
        "lib close su2n_3 max_dim=10": _closure("su2n_3", 10),
        "lib close u5_chain": _closure("u5_chain"),
        "lib close so8_fermion": _closure("so8_fermion"),
        "lib close dense_pair_3": _closure("dense_pair_3"),
        "lib close_on_subspace C(4,2) all": _synthesis(4, 2, "all"),
        "lib close_on_subspace C(4,2) nearest": _synthesis(4, 2, "nearest"),
        "lib close_on_subspace C(5,1) nearest": _synthesis(5, 1, "nearest"),
    }


def _scalar(s) -> list:
    return [str(s.re), str(s.im), str(s.re2), str(s.im2)]


def _element(e) -> list:
    if isinstance(e, OperatorSum):
        return [[x, z, *_scalar(e.coefficient(x, z))] for x, z in e._terms]
    return [[r, c, *_scalar(s)] for (r, c), s in e.items()]


def _run_library(case) -> str:
    b = case()
    return json.dumps([b.n_modes, b.dimension, b.dimension_traceless,
                       b.closed, b.rounds, b.subspace_dim,
                       [list(p) if p else None for p in b.provenance],
                       [_element(e) for e in b.basis]])


# -- exact exponentials and conjugations ---------------------------------

def _random_operator(rng, n: int) -> OperatorSum:
    """12 terms on n modes; a third of the coefficients carry a sqrt(2)
    part."""
    coeffs = {}
    while len(coeffs) < 12:
        word = (rng.randrange(1 << n), rng.randrange(1 << n))
        parts = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(2)]
        if len(coeffs) % 3 == 0:
            parts.append(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        if any(parts):
            coeffs[word] = Scalar(*parts)
    return OperatorSum(n, coeffs)


def _generator(kind: str, rng, n: int) -> OperatorSum:
    """A generator with gen**3 = gen: a hopping term (XX + YY)/2 on two
    drawn modes, one drawn Pauli string, (X(0) + Z(0)) sqrt(2)/2, or 0."""
    if kind == "hop":
        i, j = rng.sample(range(n), 2)
        both = 1 << i | 1 << j
        half = Scalar(Fraction(1, 2))
        return OperatorSum(n, {(both, 0): half, (both, both): half})
    if kind == "pauli":
        return OperatorSum(n, {(rng.randrange(1, 1 << n),
                                rng.randrange(1 << n)): Scalar(1)})
    if kind == "sqrt2":
        return OperatorSum(n, {(1, 0): RT2_HALF, (0, 1): RT2_HALF})
    return OperatorSum.zero(n)


def _conjugation(n: int, eighths: int, kind: str = "hop"):
    """conjugate_eighth of a seeded 12-term operator on n modes by a
    generator of the given kind, both drawn from a seed fixed by
    (n, eighths)."""
    def run():
        rng = random.Random(8 * n + eighths)
        op = _random_operator(rng, n)
        out = conjugate_eighth(op, _generator(kind, rng, n), eighths)
        return json.dumps([out.n_modes, _element(out)])
    return run


def _exponential(kind: str, eighths: int):
    """exact_exp of a generator of the given kind on 6 modes, drawn from a
    seed fixed by the kind."""
    def run():
        rng = random.Random(kind)
        out = exact_exp(_generator(kind, rng, 6), eighths)
        return json.dumps([out.n_modes, _element(out)])
    return run


GENERATOR_KINDS = ("hop", "pauli", "sqrt2", "zero")


def conjugation_cases() -> dict:
    out = {f"lib conjugate_eighth n={n} eighths={eighths}":
           _conjugation(n, eighths)
           for n in (6, 7, 8) for eighths in range(1, 8)}
    out.update((f"lib conjugate_eighth {kind} n={n} eighths={eighths}",
                _conjugation(n, eighths, kind))
               for kind in ("pauli", "sqrt2") for n in (6, 8)
               for eighths in (0, -3))
    out.update((f"lib exact_exp {kind} eighths={eighths}",
                _exponential(kind, eighths))
               for kind in GENERATOR_KINDS for eighths in range(-1, 8))
    return out


# -- linear combinations and brackets -------------------------------------

def _pool_operand(rng, n: int, pool: list, root: bool) -> OperatorSum:
    """Up to 9 terms on n modes, most keys from pool; with root, a third
    of the coefficients carry a sqrt(2) part."""
    coeffs = {}
    for k in range(rng.randint(3, 9)):
        word = (rng.choice(pool) if rng.random() < 0.75 else
                (rng.randrange(1 << n), rng.randrange(1 << n)))
        parts = [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                 for _ in range(2)]
        if root and k % 3 == 0:
            parts += [Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                      Fraction(rng.randint(-1, 1), 2)]
        coeffs[word] = Scalar(*parts)
    return OperatorSum(n, coeffs)


def _pool_pair(seed: str, n: int, root: bool):
    rng = random.Random(seed)
    pool = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(4)]
    return (_pool_operand(rng, n, pool, root),
            _pool_operand(rng, n, pool, root), rng)


def _scalar_of(rng, root: bool) -> Scalar:
    parts = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)]
    if root:
        parts += [Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                  Fraction(rng.randint(-1, 1), 2)]
    return Scalar(*parts)


_LINEAR = {
    "add": lambda a, b, rng, root: [a + b, b + a],
    "sub": lambda a, b, rng, root: [a - b, b - a],
    "scale": lambda a, b, rng, root: [a * _scalar_of(rng, root),
                                      b * _scalar_of(rng, root),
                                      a * 0, -3 * a, Fraction(5, 6) * b],
    "commutator": lambda a, b, rng, root: [commutator(a, b),
                                           commutator(b, a)],
    "anticommutator": lambda a, b, rng, root: [anticommutator(a, b),
                                               anticommutator(b, a)],
}

# I + iX and Z + Y: Z is met first in a*b and cancels there, Y cancels in
# b*a, so both brackets come out as Y then Z
_CANCEL_AND_RETURN = (OperatorSum(1, {(0, 0): ONE, (1, 0): I_UNIT}),
                      OperatorSum(1, {(0, 1): ONE, (1, 1): ONE}))


def _terms_json(*ops) -> str:
    return json.dumps([[op.n_modes, _element(op)] for op in ops])


def _linear(name: str, n: int, root: bool):
    """The operation on a pair drawn from a seed fixed by its arguments."""
    def run():
        a, b, rng = _pool_pair(f"{name} {n} {root}", n, root)
        return _terms_json(*_LINEAR[name](a, b, rng, root))
    return run


def linear_cases() -> dict:
    out = {f"lib {name} n={n}{' sqrt2' if root else ''}": _linear(name, n, root)
           for name in _LINEAR for n in (0, 1, 3, 5) for root in (False, True)}
    a, b = _CANCEL_AND_RETURN
    out["lib commutator cancel-and-return"] = (
        lambda: _terms_json(commutator(a, b), commutator(b, a)))
    out["lib anticommutator cancel-and-return"] = (
        lambda: _terms_json(anticommutator(a, b), anticommutator(b, a)))
    out.update((f"lib bilinear_su2 {family} n={n} pair={i},{j}",
                lambda pair=(i, j), n=n, family=family: _terms_json(
                    *bilinear_su2(pair, n, family=family)))
               for family in ("hopping", "pairing") for n in (3, 4)
               for i, j in ((0, 1), (2, 0), (1, n - 1)))
    out.update((f"lib boson_approx_commutator n={n}",
                lambda n=n: _terms_json(boson_approx_commutator(n)))
               for n in range(1, 9))
    return out


# -- dense compound-particle maps -----------------------------------------

def _compound(case: int, n_pairs: int, cutoff=None):
    def run():
        report = compound_mapping_check(case, n_pairs, cutoff)
        return json.dumps([report.case, report.n_pairs, report.cutoff,
                           [[c.name, c.passed] for c in report.checks]])
    return run


def compound_cases() -> dict:
    out = {f"lib compound_mapping_check case={case} n_pairs={p}":
           _compound(case, p) for case in (1, 2, 3) for p in (1, 2, 3)}
    out.update((f"lib compound_mapping_check case=3 n_pairs={p} cutoff=2",
                _compound(3, p, 2)) for p in (1, 2, 3))
    return out


# -- corpus ----------------------------------------------------------------

def entries() -> dict:
    """key -> zero-argument callable returning the text that is hashed."""
    out = {"cli " + " ".join(argv): (lambda argv=argv: _run_cli(argv))
           for argv in cli_invocations()}
    out.update((key, lambda case=case: _run_library(case))
               for key, case in library_cases().items())
    out.update(conjugation_cases())
    out.update(linear_cases())
    out.update(compound_cases())
    return out


def digest(run) -> str:
    return hashlib.sha256(run().encode()).hexdigest()


def main(argv, digests: Path = DIGESTS) -> int:
    table = entries()
    keys = [a for a in argv if a != "--new"]
    unknown = [k for k in keys if k not in table]
    if unknown:
        print(f"unknown keys: {unknown}", file=sys.stderr)
        return 2
    if keys and "--new" in argv:
        print("--new records the missing keys; name none", file=sys.stderr)
        return 2
    recorded = json.loads(digests.read_text()) if digests.exists() else {}
    if not argv:
        missing = [k for k in table if k not in recorded]
        changed = [k for k in table
                   if k in recorded and digest(table[k]) != recorded[k]]
        for key in changed:
            print(f"differs: {key}")
        for key in missing:
            print(f"not recorded: {key}")
        print(f"{len(table) - len(changed) - len(missing)} of {len(table)} "
              f"entries match")
        return 1 if changed or missing else 0
    keys = keys or [k for k in table if k not in recorded]
    for key in keys:
        recorded[key] = digest(table[key])
    digests.write_text(json.dumps(
        {k: recorded[k] for k in table if k in recorded}, indent=1) + "\n")
    print(f"{len(keys)} of {len(table)} entries recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
