"""Seeded task lists for the three benchmark workloads.

A workload is a fixed list of tasks, each one call a user makes: a CLI verb
run in process through ``qalg.cli.main(argv)`` with ``--format json``, or a
public library call where no verb takes the input.  ``build`` turns a
workload name, a seed and a size into that list.  The seed changes every
generated input (coefficients, generator order, random operators, pairs),
never the number of tasks or the mix of families, so the work per list
stays about the same from seed to seed.

Every task carries a check against an answer worked out independently of
the program (closed-form dimensions and flags, or ``oracle``).  Checks run
outside the timed region; a failed check is counted, never raised.

The benchmark imports this module only after putting the checkout's
``src`` on ``sys.path``.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import qalg.cli
import qalg.pauli
import qalg.verifier

import oracle


@dataclass
class CliOutcome:
    code: object
    stdout: str
    stderr: str

    def body(self):
        return json.loads(self.stdout)["body"]


@dataclass
class Task:
    """One timed call plus the check of its output.

    ``check`` returns None when the output is right, else a reason.  The
    first output that passes is kept; a later output that equals it passes
    without running the full check again, since the program is
    deterministic and the full checks can cost more than the call.
    """

    family: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    inputs: str      # what the program receives, as text
    fingerprint: Callable[[object], object] = lambda out: out
    verified: object = field(default=None, repr=False)

    def verify(self, outcome) -> str | None:
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        try:
            fp = self.fingerprint(outcome)
            if self.verified is not None and fp == self.verified:
                return None
            problem = self.check(outcome)
        except Exception as exc:  # a malformed output is a failed check
            return f"check raised {type(exc).__name__}: {exc}"
        if problem is None and self.verified is None:
            self.verified = fp
        return problem


def run_cli(argv):
    """qalg.cli.main(argv) in process, capturing what it writes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qalg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _cli_fingerprint(out: CliOutcome):
    return out.code, out.body()


def _cli_task(family, label, argv, check_body, expect_code=0) -> Task:
    argv = list(argv) + ["--format", "json"]

    def check(out: CliOutcome):
        if out.code != expect_code:
            return f"exit {out.code}, expected {expect_code}: {out.stderr.strip()}"
        return check_body(out.body())

    inputs = [Path(argv[k]).read_text() if k and argv[k - 1] == "--file"
              else argv[k] for k in range(len(argv))]
    return Task(family, label, lambda: run_cli(argv), check,
                "\n".join(inputs), _cli_fingerprint)


# -- expression text -------------------------------------------------------

_COEFFS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
           Fraction(3, 2), Fraction(2, 3), Fraction(5, 4))


def _hermitian_pair(rng, mono, adj):
    """Texts of c(M + M') and c(iM - iM') for monomial texts M and M'."""
    c = rng.choice(_COEFFS)
    return [f"{c} {mono} + {c} {adj}", f"{c}i {mono} - {c}i {adj}"]


def _write_script(path: Path, n_modes: int, lines, species=None) -> str:
    head = [f"modes: {n_modes}"]
    if species:
        head.append(f"species: {species}")
    text = "\n".join(head + [f"g{k} = {expr}" for k, expr in enumerate(lines)])
    path.write_text(text + "\n")
    return str(path)


def _match_hit(body, name):
    return any(m["name"] == name and m["hit"] for m in body["matches"])


def _closure_check(dim_key, want, family_name, **flags):
    def check(body):
        if not body["closed"]:
            return "closure reported not closed"
        if body[dim_key] != want:
            return f"{dim_key} {body[dim_key]}, expected {want}"
        if family_name and not _match_hit(body, family_name):
            return f"{family_name} not matched"
        for key, value in flags.items():
            if body[key] != value:
                return f"{key} {body[key]}, expected {value}"
        return None
    return check


# -- exact-closure ---------------------------------------------------------

def _su2n_task(rng, n, work: Path) -> Task:
    """Bare linears on every mode plus nearest hops: su(2^N)."""
    lines = []
    for i in range(n):
        lines += _hermitian_pair(rng, f"a({i})", f"ad({i})")
    for i in range(n - 1):
        lines += _hermitian_pair(rng, f"ad({i}) a({i + 1})", f"ad({i + 1}) a({i})")
    rng.shuffle(lines)
    path = _write_script(work / f"su2n_{n}.ops", n, lines)
    return _cli_task(
        "su2n", f"closure su(2^{n})",
        ["closure", "--file", path, "--label", f"su2n-{n}"],
        _closure_check("dimension_traceless", 4 ** n - 1, "su(2^N)",
                       universal_full_space=True))


def _hopping_chain_task(rng, n, work: Path) -> Task:
    """Fields plus nearest hard-core hops: the free-fermion algebra u(N)."""
    lines = [f"{rng.choice(_COEFFS)} n({i})" for i in range(n)]
    for i in range(n - 1):
        lines += _hermitian_pair(rng, f"ad({i}) a({i + 1})", f"ad({i + 1}) a({i})")
    rng.shuffle(lines)
    path = _write_script(work / f"chain_{n}.ops", n, lines)
    return _cli_task(
        "hopping-chain", f"closure u({n})",
        ["closure", "--file", path, "--label", f"chain-{n}"],
        _closure_check("dimension", n * n, "u(N)", conserves_number=True,
                       universal_full_space=False))


def _fermion_quadratic_tasks(rng, n, work: Path) -> list:
    """Hops and pairings along a seeded mode order: so(2N) after the string
    transform, whatever the order, since relabelling fermions keeps
    quadratic operators quadratic.  Three generators also go through the
    ``jw`` verb and are checked against dense string-dressed fermions."""
    order = list(range(n))
    rng.shuffle(order)
    lines, structured = [], []
    for a, b in zip(order, order[1:]):
        for mono, adj, m_f, a_f in (
                (f"fd({a}) f({b})", f"fd({b}) f({a})",
                 [("+", a), ("-", b)], [("+", b), ("-", a)]),
                (f"f({a}) f({b})", f"fd({b}) fd({a})",
                 [("-", a), ("-", b)], [("+", b), ("+", a)])):
            c = rng.choice(_COEFFS)
            lines.append(f"{c} {mono} + {c} {adj}")
            structured.append([(float(c), m_f), (float(c), a_f)])
            lines.append(f"{c}i {mono} - {c}i {adj}")
            structured.append([(1j * float(c), m_f), (-1j * float(c), a_f)])
    path = _write_script(work / f"fermion_{n}.ops", n, lines, species="fermion")
    tasks = [_cli_task(
        "fermion-quadratic", f"closure so({2 * n})",
        ["closure", "--file", path, "--label", f"fermion-{n}"],
        _closure_check("dimension_traceless", n * (2 * n - 1), "so(2N)",
                       conserves_parity=True))]
    for k in rng.sample(range(len(lines)), 3):
        want = oracle.fermion_expr(structured[k], n)

        def check(body, want=want, n=n):
            got = oracle.pauli_sum(
                [(t["x_mask"], t["z_mask"],
                  complex(float(Fraction(t["coeff"]["re"])),
                          float(Fraction(t["coeff"]["im"]))))
                 for t in body["terms"]], n)
            err = float(np.max(np.abs(got - want)))
            return None if err < 1e-12 else f"string image off by {err:g}"

        tasks.append(_cli_task(
            "fermion-quadratic", f"jw on {n} modes",
            ["jw", "--modes", str(n), "--expr", lines[k]], check))
    return tasks


def _pauli_text(x, z, n):
    return " ".join(f"{'XZY'[(x >> m & 1) + 2 * (z >> m & 1) - 1]}({m})"
                    for m in range(n) if (x | z) >> m & 1)


def _random_words(rng, n, count):
    words = set()
    while len(words) < count:
        w = (rng.randrange(1 << n), rng.randrange(1 << n))
        if w != (0, 0):
            words.add(w)
    return sorted(words)


def _dense_pair_task(rng, n_terms, k, work: Path) -> Task:
    """Two random integer-weighted Pauli sums on 3 modes that generate su(8).

    Fraction-free elimination grows their coefficients past 1000 bits.
    Pairs are drawn until an independent floating-point closure of the
    dense 8 x 8 generators reaches dimension 63.  Pairs that generate a
    smaller algebra are left out: with no saturation to stop at, their
    closure tries every bracket of a last, empty round, and its time swings
    tenfold from draw to draw, which would make every figure depend on the
    seed."""
    n = 3
    while True:
        terms = [[(x, z, rng.choice((-1, 1)) * rng.randint(1, 9))
                  for x, z in _random_words(rng, n, n_terms)] for _ in range(2)]
        if oracle.float_closure_dim([oracle.pauli_sum(g, n) for g in terms]) == 63:
            break
    lines = [" ".join(f"{'-' if c < 0 else '+'} {abs(c)} {_pauli_text(x, z, n)}"
                      for x, z, c in gen).lstrip("+ ") for gen in terms]
    path = _write_script(work / f"dense_{k}.ops", n, lines, species="qubit")
    return _cli_task("dense-pair", f"closure dense pair {n_terms} terms",
                     ["closure", "--file", path, "--label", f"dense-{k}"],
                     _closure_check("dimension", 63, "su(2^N)"))


def _monomial_text(create, annihilate, n):
    return " ".join([f"ad({m})" for m in range(n - 1, -1, -1) if create >> m & 1]
                    + [f"a({m})" for m in range(n - 1, -1, -1) if annihilate >> m & 1])


def _classify_task(rng, k, work: Path) -> Task:
    """Hermitian transfer monomials M + M' of degrees 2, 3 and 4 on 8 modes.

    The degree-2 monomial keeps the number, the degree-3 one breaks number
    and parity, and the degree-4 one breaks number but keeps parity.  Each
    acts on distinct modes.  So every script costs the same whatever the
    seed, which picks the modes and the split into creations and
    annihilations."""
    n = 8
    lines, want = [], []
    for degree, splits in ((2, (1,)), (3, (0, 1, 2, 3)), (4, (0, 1, 3, 4))):
        n_create = rng.choice(splits)
        modes = rng.sample(range(n), degree)
        alpha = sum(1 << m for m in modes[:n_create])
        beta = sum(1 << m for m in modes[n_create:])
        c = rng.choice(_COEFFS)
        lines.append(f"{c} {_monomial_text(alpha, beta, n)}"
                     f" + {c} {_monomial_text(beta, alpha, n)}")
        shift = n_create - (degree - n_create)
        want.append({"conserves_number": shift == 0,
                     "conserves_parity": shift % 2 == 0,
                     "support_modes": [m for m in range(n)
                                       if (alpha | beta) >> m & 1]})
    path = _write_script(work / f"monomials_{k}.ops", n, lines)

    def check(body):
        got = [{k: op[k] for k in ("conserves_number", "conserves_parity",
                                   "support_modes")} for op in body["operators"]]
        if got != want:
            bad = next(k for k, (g, w) in enumerate(zip(got, want)) if g != w)
            return f"operator g{bad}: {got[bad]}, expected {want[bad]}"
        return None

    return _cli_task("classify-monomials", f"classify monomials {k}",
                     ["classify", "--file", path], check)


def _exact_closure(rng, size, work):
    full = size == "full"
    tasks = [_su2n_task(rng, n, work) for n in ((3, 4, 5) if full else (3,))]
    tasks += [_hopping_chain_task(rng, n, work) for n in ((5, 6, 7) if full else (5,))]
    for n in ((4, 5) if full else (4,)):
        tasks += _fermion_quadratic_tasks(rng, n, work)
    # Pairs of 6 to 8 terms vary in cost by about 15% from draw to draw,
    # smaller ones by up to 80%; eight of the former make the tail.
    for k, n_terms in enumerate((4, 5, 6, 6, 7, 7, 8, 8, 8, 8) if full else (5,)):
        tasks.append(_dense_pair_task(rng, n_terms, k, work))
    tasks += [_classify_task(rng, k, work) for k in range(16 if full else 1)]
    return tasks


# -- code-synthesis --------------------------------------------------------

# Traceless dimensions of the projected pair-generator closures.  All pair
# links reach su(d), d = C(N, k).  Nearest links reach su(N) for k = 1 and
# stay in a smaller algebra otherwise; those runs exit 1.
_SYNTH_CODES = ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (7, 1), (8, 1))
_NEAREST_PINNED = {(4, 2): 15, (5, 2): 24}


def _synthesis_task(n, k, pairs) -> Task:
    d = math.comb(n, k)
    want = d * d - 1 if pairs == "all" or k == 1 else _NEAREST_PINNED[(n, k)]
    expect_code = 0 if want == d * d - 1 else 1

    def check(body):
        got = body["synthesis"]["dimension_traceless"]
        if got != want:
            return f"traceless dimension {got}, expected {want}"
        if body["synthesis"]["success"] != (expect_code == 0):
            return "success flag disagrees with the dimension"
        return None

    return _cli_task("synthesize-" + pairs, f"synthesize C({n},{k}) {pairs}",
                     ["code", "synthesize", "-n", str(n), "-k", str(k),
                      "--pairs", pairs], check, expect_code)


def _generator_task(rng) -> Task:
    n = rng.randint(3, 8)
    k = rng.randint(1, n - 1)
    kind = rng.choice("xz")
    i, j = sorted(rng.sample(range(n), 2))
    want = oracle.encoded_pair_generator(n, k, kind, (i, j))

    def check(body):
        action = body["generator"]["action"]
        got = np.array(action["real"]) + 1j * np.array(action["imag"])
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-12:
            return "encoded generator differs from the codeword construction"
        return None

    return _cli_task("generator", f"generator C({n},{k}) {kind} {i},{j}",
                     ["code", "generator", "-n", str(n), "-k", str(k),
                      "--kind", kind, "--pair", f"{i},{j}"], check)


def _code_synthesis(rng, size, work):
    codes = _SYNTH_CODES if size == "full" else ((3, 1), (4, 2))
    tasks = [_synthesis_task(n, k, pairs) for n, k in codes
             for pairs in ("all", "nearest")]
    tasks += [_generator_task(rng) for _ in range(48 if size == "full" else 4)]
    rng.shuffle(tasks)
    return tasks


# -- identity-oracle -------------------------------------------------------

def _verify_task() -> Task:
    def check(body):
        if not body["all_passed"]:
            return "verify reported a failed check"
        if len(body["checks"]) != 13:
            return f"{len(body['checks'])} checks, expected 13"
        return None

    return _cli_task("verify", "verify --all", ["verify", "--all"], check)


def _random_gaussian(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _conjugation_task(rng, n, odd: bool) -> Task:
    """exp(-i G phi) A exp(i G phi) at an eighth turn, exact, for a random
    12-term operator A and a hopping generator G on n modes; checked
    against the dense oracle.  Odd turns bring sqrt(2) into the coefficients; quarter turns
    keep them Gaussian rationals.  Half turns, which reduce to a sign
    change, are left out so that every draw costs about the same."""
    from qalg.pauli import OperatorSum, Scalar

    coeffs = {}
    for word in _random_words(rng, n, 12):
        c = Scalar(0)
        while c.is_zero:
            c = Scalar(_random_gaussian(rng), _random_gaussian(rng))
        coeffs[word] = c
    op = OperatorSum(n, coeffs)
    i, j = rng.sample(range(n), 2)
    both = 1 << i | 1 << j
    half = Scalar(Fraction(1, 2))
    gen = OperatorSum(n, {(both, 0): half, (both, both): half})
    eighths = rng.choice((1, 3, 5, 7) if odd else (2, 6))

    def check(result):
        phi = eighths * math.pi / 4
        realize = qalg.pauli.realize
        u = qalg.pauli.matrix_exponential(realize(gen), 1j * phi)
        want = u.conj().T @ realize(op) @ u
        err = float(np.max(np.abs(realize(result) - want)))
        return None if err <= 1e-9 else f"conjugation off by {err:g}"

    return Task("conjugation", f"conjugate {n} modes by {eighths}/8 turn",
                lambda: qalg.verifier.conjugate_eighth(op, gen, eighths), check,
                repr((op.items(), gen.items(), eighths)))


def _identity_oracle(rng, size, work):
    tasks = [_verify_task()]
    count = 12 if size == "full" else 2
    tasks += [_conjugation_task(rng, 6 + k % 3, k % 2 == 0) for k in range(count)]
    return tasks


_BUILDERS = {
    "exact-closure": _exact_closure,
    "code-synthesis": _code_synthesis,
    "identity-oracle": _identity_oracle,
}


def build(workload: str, seed: int, size: str, work: Path) -> list:
    """The workload's task list for one seed; scripts go under work."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, size, work)
