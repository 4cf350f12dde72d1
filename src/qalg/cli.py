"""Command line front end.

Verbs: closure, classify, jw, code, verify, thermal, enumerate.  Every verb
accepts --format text|json and --out FILE.  JSON output is a stable
envelope {schema, version, generated_at, input_hash, body}, written
compactly on one line: the body and the input hash are deterministic
functions of the resolved inputs, and the timestamp stays outside the
hashed content.

Exit codes: 0 on success (and all checks passing), 1 when a requested
verification fails, 2 on usage or input errors or an unwritable report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import qalg

from .codes import build_code, encoded_cphase, encoded_generator, rate, synthesize_su_d
from .dsl import parse_expr, parse_script, print_expr
from .jw import jw_fermion_to_pauli, string_operator
from .lie import GeneratorSet, classify_algebra, close
from .pauli import OperatorSum
from .parafermion import (
    SecondQuantizedExpr,
    classify,
    conserves_number,
    conserves_parity,
    enumerate_generators,
    to_pauli,
)
from .thermal import ThermalParams, occupation, sweep


# most kT values one --sweep computes and prints
MAX_SWEEP_STEPS = 10_000

# thread counts read by the BLAS and OpenMP builds numpy may load
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class CliError(Exception):
    """Input or usage problem; reported on stderr with exit code 2."""


def _bits(mask: int, width: int) -> str:
    """Occupation mask as a string with mode 0 leftmost."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(width))


def _scalar_json(c) -> dict:
    out = {"re": str(c.re), "im": str(c.im)}
    if c.re2 or c.im2:
        out["re_sqrt2"] = str(c.re2)
        out["im_sqrt2"] = str(c.im2)
    return out


def _matrix_json(entries: dict, dim: int) -> dict:
    """Real and imaginary parts, as nested float lists, of the dim x dim
    matrix with the exact entries {(row, col): Scalar}."""
    real = [[0.0] * dim for _ in range(dim)]
    imag = [[0.0] * dim for _ in range(dim)]
    for (r, c), s in entries.items():
        z = s.to_complex()
        real[r][c], imag[r][c] = z.real, z.imag
    return {"real": real, "imag": imag}


def _matrix_text(action: dict) -> list:
    """Lines of numpy's printed form of the matrix that _matrix_json wrote,
    real when it is."""
    import numpy as np

    m = np.array(action["real"], dtype=complex)
    m.imag = action["imag"]
    return np.array_str(np.real_if_close(m)).splitlines()


def _to_qubit_operator(parsed, what: str) -> OperatorSum:
    if isinstance(parsed, OperatorSum):
        return parsed
    assert isinstance(parsed, SecondQuantizedExpr)
    if parsed.species == "parafermion":
        return to_pauli(parsed)
    if parsed.species == "fermion":
        return jw_fermion_to_pauli(parsed)
    raise CliError(f"{what}: bosonic expressions have no exact qubit image")


def _resolve_operators(args):
    """(n_modes, [(name, OperatorSum)]) from --file or --expr.

    The script text read for --file is kept as args.script_text, so the
    input hash describes the bytes that were parsed.  A script declares its
    own mode count and operators, so --file with --expr or --modes is
    refused.
    """
    if getattr(args, "file", None):
        extra = [flag for flag, value in (("--expr", args.expr),
                                          ("--modes", args.modes))
                 if value is not None]
        if extra:
            raise CliError(f"--file cannot be combined with "
                           f"{' or '.join(extra)}")
        args.script_text = Path(args.file).read_text()
        script = parse_script(args.script_text)
        named = [(name, _to_qubit_operator(script.operators[name], name))
                 for name in script.labels]
        return script.n_modes, named
    if getattr(args, "expr", None):
        if args.modes is None:
            raise CliError("--modes is required with --expr")
        named = []
        for k, text in enumerate(args.expr):
            parsed = parse_expr(text, args.modes)
            named.append((f"g{k}", _to_qubit_operator(parsed, text)))
        return args.modes, named
    raise CliError("provide generators via --file SCRIPT or --expr EXPR")


# -- verb handlers ----------------------------------------------------------

def _cmd_closure(args):
    n_modes, named = _resolve_operators(args)
    label = args.label or "closure"
    gs = GeneratorSet(n_modes, [op for _, op in named])
    basis = close(gs, max_dim=args.max_dim)
    # brackets of conserving operators conserve (Jacobi identity), so the
    # closure's flags are its generators'; a closed basis has them from
    # its seeds, which span the generators
    matches, universal = [], False
    if basis.closed:
        verdict = classify_algebra(basis)
        number_ok = verdict.conserves_number
        parity_ok = verdict.conserves_parity
        matches = [{"name": m.name, "expected_dim": m.expected_dim,
                    "hit": m.hit} for m in verdict.matches]
        universal = verdict.universal_full_space
    else:
        number_ok = all(map(conserves_number, gs.generators))
        parity_ok = all(map(conserves_parity, gs.generators))
    body = {
        "label": label,
        "n_modes": n_modes,
        "generators": [name for name, _ in named],
        "dimension": basis.dimension,
        "dimension_traceless": basis.dimension_traceless,
        "closed": basis.closed,
        "rounds": basis.rounds,
        "provenance_depth": basis.provenance_depth,
        "conserves_number": number_ok,
        "conserves_parity": parity_ok,
        "universal_full_space": universal,
        "matches": matches,
    }
    lines = [f"closure {label!r} on {n_modes} modes",
             f"  generators: {', '.join(body['generators'])}",
             f"  dimension: {basis.dimension} "
             f"(traceless {basis.dimension_traceless})",
             f"  closed: {basis.closed} after {basis.rounds} rounds "
             f"(bracket depth {basis.provenance_depth})",
             f"  conserves number: {number_ok}, parity: {parity_ok}",
             f"  universal on full space: {universal}"]
    hits = [m for m in matches if m["hit"]]
    if hits:
        lines.append("  matches: " + ", ".join(
            f"{m['name']} (dim {m['expected_dim']})" for m in hits))
    elif basis.closed:
        lines.append("  matches: none of the candidate families")
    return body, lines, True


def _cmd_classify(args):
    n_modes, named = _resolve_operators(args)
    body_ops = []
    lines = []
    for name, op in named:
        verdict = classify(op)
        body_ops.append({
            "name": name,
            "n_terms": op.n_terms,
            "support_modes": sorted(verdict.support),
            "conserves_number": verdict.conserves_number,
            "conserves_parity": verdict.conserves_parity,
        })
        lines.append(
            f"{name}: {op.n_terms} terms on modes "
            f"{sorted(verdict.support)}; number "
            f"{'conserved' if verdict.conserves_number else 'broken'}, "
            f"parity {'conserved' if verdict.conserves_parity else 'broken'}")
    return {"n_modes": n_modes, "operators": body_ops}, lines, True


def _cmd_jw(args):
    if args.string_op is not None:
        if args.expr is not None:
            raise CliError("--string-op cannot be combined with --expr")
        if args.modes is None:
            raise CliError("--modes is required")
        op = string_operator(args.string_op, args.modes)
        body = {"n_modes": args.modes, "string_mode": args.string_op,
                "result": print_expr(op)}
        return body, [f"string({args.string_op}) = {body['result']}"], True
    if not args.expr or args.modes is None:
        raise CliError("--modes and --expr are required")
    parsed = parse_expr(args.expr, args.modes)
    if isinstance(parsed, OperatorSum):
        raise CliError("jw expects a mode-operator expression, got qubit kinds")
    species = parsed.species
    mapped = _to_qubit_operator(parsed, args.expr)
    printed = print_expr(mapped)
    body = {
        "n_modes": args.modes,
        "species": species,
        "input": args.expr,
        "result": printed,
        "terms": [{"x_mask": x, "z_mask": z, "coeff": _scalar_json(c)}
                  for (x, z), c in mapped.items()],
    }
    return body, [f"{species} input on {args.modes} modes", f"  {printed}"], True


def _parse_pair(text: str):
    try:
        i, j = (int(p) for p in text.split(","))
    except Exception:
        raise CliError(f"--pair expects 'i,j', got {text!r}")
    return i, j


def _cmd_code(args):
    code = build_code(args.modes, args.excitations)
    body = {"n_modes": code.n_modes, "excitations": code.excitations,
            "dim": code.dim, "rate": rate(code.n_modes, code.excitations)}
    lines = [f"code on {code.n_modes} modes, {code.excitations} excitation(s): "
             f"dim {code.dim}, rate {body['rate']:.6f}"]
    ok = True
    if args.code_action == "list":
        body["mode0"] = "leftmost character"
        body["codewords"] = [
            {"occupations": bits, "mask": mask, "dense_index": idx}
            for bits, mask, idx in zip(code.codeword_strings(),
                                       code.codewords, code.dense_indices)]
        lines += [f"  |{w['occupations']}>  mask {w['mask']}  "
                  f"dense index {w['dense_index']}" for w in body["codewords"]]
        lines.append("  legend: mode 0 is the leftmost character")
    elif args.code_action == "rate":
        pass
    elif args.code_action == "generator":
        pair = _parse_pair(args.pair)
        gate = encoded_generator(code, args.kind, pair)
        body["generator"] = {
            "name": gate.name,
            "support": list(gate.support),
            "hermitian": bool(gate.is_hermitian),
            "action": _matrix_json(gate.entries, gate.dim),
        }
        lines.append(f"  {gate.name} on physical modes {gate.support}:")
        if args.format == "text":
            lines += ["    " + row for row in
                      _matrix_text(body["generator"]["action"])]
    elif args.code_action == "cphase":
        try:
            other = build_code(
                args.modes if args.modes2 is None else args.modes2,
                args.excitations if args.excitations2 is None
                else args.excitations2)
        except ValueError as err:
            raise ValueError(
                f"right code (--modes2/--excitations2): {err}") from err
        gate = encoded_cphase(code, other)
        body["cphase"] = {
            "name": gate.name,
            "support": list(gate.support),
            "left_signs": list(gate.left_signs),
            "right_signs": list(gate.right_signs),
            "zz_diagonal": [float(s) for s in gate.zz_diagonal],
            "gate_diagonal": [float(gate.entries[k, k].re)
                              for k in range(gate.dim)],
        }
        lines.append(f"  {gate.name}: boundary signs {body['cphase']['left_signs']}"
                     f" x {body['cphase']['right_signs']}")
        lines.append(f"  ZZ diagonal: {body['cphase']['zz_diagonal']}")
        lines.append(f"  gate diagonal: {body['cphase']['gate_diagonal']}")
    elif args.code_action == "synthesize":
        result = synthesize_su_d(code, d_limit=args.d_limit, pairs=args.pairs)
        target = code.dim ** 2 - 1
        body["synthesis"] = {
            "success": result.success,
            "target_dim": target,
            "dimension": result.basis.dimension,
            "dimension_traceless": result.basis.dimension_traceless,
            "closed": result.basis.closed,
            "counting": result.counting,
        }
        ok = result.success
        lines.append(f"  encoded closure: traceless dim "
                     f"{result.basis.dimension_traceless} of target {target} "
                     f"-> {'full special unitary set' if ok else 'INCOMPLETE'}")
        lines.append(f"  counting: {result.counting}")
    return body, lines, ok


def _cmd_verify(args):
    from .verifier import CHECKS

    names = list(args.names)
    if args.all:
        names = list(CHECKS)
    if not names:
        raise CliError("name at least one check or pass --all; available: "
                       + ", ".join(CHECKS))
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise CliError(f"unknown check(s) {unknown}; available: "
                       + ", ".join(CHECKS))
    results = [CHECKS[name]() for name in names]
    body = {"checks": [
        {"name": r.name, "metric": r.metric, "tolerance": r.tolerance,
         "passed": r.passed, "residual": r.residual,
         "details": list(r.details)} for r in results]}
    body["all_passed"] = all(r.passed for r in results)
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  "
                     f"(metric {r.metric}, residual {r.residual:g})")
        if args.verbose or not r.passed:
            lines += ["      " + d for d in r.details]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return body, lines, body["all_passed"]


def _cmd_thermal(args):
    try:
        fields = [float(v) for v in args.B.split(",")]
    except ValueError:
        raise CliError(f"--B expects comma-separated numbers, got {args.B!r}")
    if args.sweep:
        if args.zero_limit:
            raise CliError("--sweep cannot be combined with --zero-limit")
        try:
            lo, hi, steps = args.sweep.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            raise CliError("--sweep expects 'min:max:steps'")
        if steps < 2:
            raise CliError("--sweep needs at least 2 steps")
        if steps > MAX_SWEEP_STEPS:
            raise CliError(f"--sweep allows at most {MAX_SWEEP_STEPS} steps")
        kts = [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]
        rows = sweep(fields, args.mu, kts)
        body = {"B": fields, "mu": args.mu,
                "rows": [{"kT": kt, "occupations": occs} for kt, occs in rows]}
        lines = [f"B = {fields}, mu = {args.mu}"]
        lines += [f"  kT={kt:<8g} " + " ".join(f"{o:.6f}" for o in occs)
                  for kt, occs in rows]
        return body, lines, True
    kt = 0.0 if args.zero_limit else args.kT
    params = ThermalParams(tuple(fields), args.mu, kT=kt,
                           zero_limit=args.zero_limit)
    occs = occupation(params)
    body = {"B": fields, "mu": args.mu, "kT": kt,
            "zero_limit": args.zero_limit,
            "occupations": occs,
            "ambiguous_sites": list(params.ambiguous_sites())}
    lines = [f"B = {fields}, mu = {args.mu}, kT = {kt}"
             + (" (zero-temperature limit)" if args.zero_limit else "")]
    lines += [f"  site {i}: <n> = {o:.6f}" for i, o in enumerate(occs)]
    if body["ambiguous_sites"]:
        lines.append(f"  sites in the ambiguous band mu/2 < B < mu: "
                     f"{body['ambiguous_sites']}")
    return body, lines, True


def _cmd_enumerate(args):
    entries = enumerate_generators(args.modes, filter=args.filter,
                                   limit=args.limit)
    body = {"n_modes": args.modes, "filter": args.filter,
            "count": len(entries), "entries": []}
    lines = [f"{len(entries)} transfer monomials on {args.modes} modes"
             + (f" (filter: {args.filter})" if args.filter else "")]
    for idx in entries:
        printed = print_expr(idx.monomial())
        body["entries"].append({
            "alpha": idx.alpha, "beta": idx.beta,
            "alpha_bits": _bits(idx.alpha, args.modes),
            "beta_bits": _bits(idx.beta, args.modes),
            "monomial": printed,
            "conserves_number": idx.conserves_number,
            "conserves_parity": idx.conserves_parity,
        })
        lines.append(f"  [{body['entries'][-1]['alpha_bits']}|"
                     f"{body['entries'][-1]['beta_bits']}]  {printed}")
    return body, lines, True


# -- plumbing ---------------------------------------------------------------

def _input_hash(args, command: str) -> str:
    """Digest of the resolved inputs; file sources hash by the content
    that was parsed."""
    skip = {"handler", "format", "out", "script_text"}
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    if resolved.get("file"):
        resolved["file"] = args.script_text
    canon = json.dumps({"command": command, "input": resolved},
                       sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_output(args, command: str, body, lines, ok: bool):
    if args.format == "json":
        envelope = {
            "schema": 1,
            "version": qalg.__version__,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "input_hash": _input_hash(args, command),
            "body": body,
        }
        try:
            text = json.dumps(envelope, sort_keys=True,
                              separators=(",", ":")) + "\n"
        except ValueError as err:
            raise CliError(
                f"{command}: the report holds an integer past Python's "
                f"digit limit for text ({sys.get_int_max_str_digits()} "
                f"digits), so it cannot be written as JSON") from err
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, each call fills a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", help="write the report to a file")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--file", help="operator script file")
    source.add_argument("--expr", action="append",
                        help="inline expression (repeatable)")
    source.add_argument("--modes", type=int, help="mode count for --expr")

    parser = argparse.ArgumentParser(
        prog="qalg",
        description="Exact operator algebra tools: Lie closures, "
                    "transfer-monomial maps, encoded gates, identity checks.")
    parser.add_argument("--version", action="version",
                        version=qalg.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", parents=[common, source],
                       help="close a generator set and classify the algebra")
    p.add_argument("--label", help="report label")
    p.add_argument("--max-dim", type=int, default=None,
                   help="abort the closure beyond this many basis elements")
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("classify", parents=[common, source],
                       help="conservation properties of Hermitian operators")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("jw", parents=[common],
                       help="map mode operators to qubit strings")
    p.add_argument("--modes", type=int)
    p.add_argument("--expr", help="fermionic or parafermionic expression")
    p.add_argument("--string-op", type=int, default=None, metavar="MODE",
                   help="print the parity string below MODE instead")
    p.set_defaults(handler=_cmd_jw)

    p = sub.add_parser("code", parents=[common],
                       help="fixed-excitation code subspaces and encoded gates")
    p.add_argument("code_action",
                   choices=("list", "rate", "generator", "cphase", "synthesize"))
    p.add_argument("-n", "--modes", type=int, required=True)
    p.add_argument("-k", "--excitations", type=int, required=True)
    p.add_argument("--kind", choices=("x", "z"), default="x",
                   help="generator kind for 'generator'")
    p.add_argument("--pair", default="0,1", help="mode pair i,j for 'generator'")
    p.add_argument("--modes2", type=int, default=None,
                   help="right-code modes for 'cphase' (default: same)")
    p.add_argument("--excitations2", type=int, default=None,
                   help="right-code excitations for 'cphase' (default: same)")
    p.add_argument("--d-limit", type=int, default=20,
                   help="largest code dimension 'synthesize' accepts")
    p.add_argument("--pairs", choices=("all", "nearest"), default="all",
                   help="mode-pair range for 'synthesize'")
    p.set_defaults(handler=_cmd_code)

    p = sub.add_parser("verify", parents=[common],
                       help="run named identity checks")
    p.add_argument("names", nargs="*", help="check names")
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("--verbose", action="store_true",
                   help="print detail lines for passing checks too")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("thermal", parents=[common],
                       help="equilibrium occupations of noninteracting sites")
    p.add_argument("--B", required=True, help="comma-separated field strengths")
    p.add_argument("--mu", type=float, required=True, help="chemical potential")
    p.add_argument("--kT", type=float, default=1.0)
    p.add_argument("--zero-limit", action="store_true",
                   help="zero-temperature step function")
    p.add_argument("--sweep", default=None, metavar="MIN:MAX:STEPS",
                   help="sweep kT instead of a single value")
    p.set_defaults(handler=_cmd_thermal)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list transfer monomial indices")
    p.add_argument("-n", "--modes", type=int, required=True)
    p.add_argument("--filter", choices=("number", "parity"), default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="raise the mode-count cap")
    p.set_defaults(handler=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # the dense checks are small, and extra BLAS threads only slow
        # them; a user's own setting wins
        for var in _THREAD_VARIABLES:
            os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        body, lines, ok = args.handler(args)
        _write_output(args, args.command, body, lines, ok)
    except (CliError, ValueError, OSError) as err:
        print(f"qalg: {err}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
