"""In-memory tracing of qalg's layers, from outside the program.

``Tracer.install`` replaces public functions and hot methods with timing
wrappers.  A function is replaced in every ``qalg.*`` namespace that binds
it, because modules import each other's functions by name (``cli`` binds
``close`` and ``to_pauli``); the entries of ``verifier.CHECKS`` are
wrapped as well.  Every wrapper keeps, per layer name, the call count, the
busy time and the self time (busy time minus time in traced children).
Wrappers at the coarse boundaries also record a span: name, task id,
parent span, start and end.  Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import qalg.cli
import qalg.codes
import qalg.dsl
import qalg.jw
import qalg.lie
import qalg.parafermion
import qalg.pauli
import qalg.verifier
from qalg.pauli import OperatorSum, Scalar

# layer name -> (owner, attribute); owner is a module or a class
HOT = {
    "pauli.scalar_mul": (Scalar, "__mul__"),
    "pauli.scalar_add": (Scalar, "__add__"),
    "pauli.opsum_mul": (OperatorSum, "__mul__"),
    "pauli.opsum_add": (OperatorSum, "__add__"),
    "pauli.apply_basis_state": (OperatorSum, "apply_basis_state"),
}
COARSE = {
    "cli.main": (qalg.cli, "main"),
    "dsl.parse": (qalg.dsl, "parse_script"),
    "dsl.parse_expr": (qalg.dsl, "parse_expr"),
    "dsl.print": (qalg.dsl, "print_expr"),
    "parafermion.to_pauli": (qalg.parafermion, "to_pauli"),
    "parafermion.classify": (qalg.parafermion, "classify"),
    "jw.to_pauli": (qalg.jw, "jw_fermion_to_pauli"),
    "lie.close": (qalg.lie, "close"),
    "lie.classify_algebra": (qalg.lie, "classify_algebra"),
    "lie.close_on_subspace": (qalg.lie, "close_on_subspace"),
    "codes.synthesize": (qalg.codes, "synthesize_su_d"),
    "codes.encoded_generator": (qalg.codes, "encoded_generator"),
    "pauli.realize": (qalg.pauli, "realize"),
    "pauli.expm": (qalg.pauli, "matrix_exponential"),
    "verifier.conjugate_eighth": (qalg.verifier, "conjugate_eighth"),
}


def _coeff_bits(basis) -> int:
    return max((abs(c.re.numerator).bit_length()
                for op in basis.basis for _, c in op.items()), default=0)


class Tracer:
    def __init__(self):
        self.stack = []          # one [child_seconds] cell per open call
        self.span_stack = []     # indices into spans of open coarse calls
        self.spans = []          # (name, task, parent, start, end)
        self.last_spans = []     # spans of the last round read out
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counts = defaultdict(int)
        self.results = []        # (layer, LieBasis), measured after the round
        self.task = None
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, span, observe=None):
        stack, span_stack, spans = self.stack, self.span_stack, self.spans
        stats = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            if span:
                index = len(spans)
                spans.append(None)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if span:
                    span_stack.pop()
                    spans[index] = (name, self.task, parent, start, start + elapsed)
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self):
        counts, results = self.counts, self.results

        def scalar_mul(args, _):
            a, b = args
            if a.re2 or a.im2 or (isinstance(b, Scalar) and (b.re2 or b.im2)):
                counts["pauli.scalar_mul.irrational"] += 1

        def opsum_mul(args, _):
            a, b = args
            if isinstance(b, OperatorSum):
                counts["pauli.opsum_mul.term_pairs"] += a.n_terms * b.n_terms

        def realize(_, result):
            counts["pauli.realize.bytes"] += result.nbytes

        def expm(args, _):
            counts["pauli.expm.dim3_sum"] += len(args[0]) ** 3

        return {
            "pauli.scalar_mul": scalar_mul,
            "pauli.opsum_mul": opsum_mul,
            "pauli.realize": realize,
            "pauli.expm": expm,
            "lie.close": lambda _, r: results.append(("lie.close", r)),
            "lie.close_on_subspace":
                lambda _, r: results.append(("lie.close_on_subspace", r)),
        }

    def _replace(self, original, wrapper):
        """Rebind original to wrapper wherever a qalg namespace holds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qalg" and not mod_name.startswith("qalg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        observers = self._observers()
        for name, (owner, attr) in HOT.items():
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, False, observers.get(name))
            for alias, value in list(owner.__dict__.items()):
                if value is original:   # __rmul__ and __radd__ share the body
                    self._undo.append((owner, alias, value))
                    setattr(owner, alias, wrapper)
        for name, (owner, attr) in COARSE.items():
            original = getattr(owner, attr)
            self._replace(original, self._wrap(name, original, True,
                                               observers.get(name)))
        checks = qalg.verifier.CHECKS
        for key, original in list(checks.items()):
            self._undo.append((checks, key, original))
            checks[key] = self._wrap("verifier.check", original, True)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- per-round readout -------------------------------------------------

    def take_round(self, scale: float) -> dict:
        """Layer metrics of the round just run, times multiplied by scale;
        resets the counters."""
        stats, counts = self.stats, self.counts

        def calls(name):
            return stats[name][0] if name in stats else 0

        def self_s(*names):
            return scale * sum(stats[n][2] for n in names if n in stats)

        out = {}
        for layer in ("pauli.scalar_mul", "pauli.scalar_add", "pauli.opsum_mul",
                      "pauli.opsum_add", "pauli.apply_basis_state",
                      "pauli.realize", "pauli.expm", "parafermion.to_pauli",
                      "jw.to_pauli", "lie.close", "lie.close_on_subspace"):
            out[f"{layer}.calls"] = calls(layer)
            out[f"{layer}.self_s"] = self_s(layer)
        for layer in ("parafermion.classify", "lie.classify_algebra",
                      "codes.synthesize", "codes.encoded_generator",
                      "verifier.check", "cli.main", "dsl.print"):
            out[f"{layer}.self_s"] = self_s(layer)
        out["dsl.parse.self_s"] = self_s("dsl.parse", "dsl.parse_expr")
        out["verifier.conjugate_eighth.incl_s"] = scale * (
            stats["verifier.conjugate_eighth"][1]
            if "verifier.conjugate_eighth" in stats else 0.0)
        mul_calls = out["pauli.scalar_mul.calls"]
        out["pauli.scalar_mul.irrational_share"] = (
            counts["pauli.scalar_mul.irrational"] / mul_calls if mul_calls else 0.0)
        for key in ("pauli.opsum_mul.term_pairs", "pauli.realize.bytes",
                    "pauli.expm.dim3_sum"):
            out[key] = counts[key]
        closes = [r for layer, r in self.results if layer == "lie.close"]
        out["lie.close.basis_dim"] = sum(r.dimension for r in closes)
        out["lie.close.max_coeff_bits"] = max(map(_coeff_bits, closes), default=0)
        out["lie.close_on_subspace.basis_dim"] = sum(
            r.dimension for layer, r in self.results
            if layer == "lie.close_on_subspace")
        for cell in stats.values():
            cell[:] = [0, 0.0, 0.0]
        counts.clear()
        self.results.clear()
        self.last_spans = list(self.spans)
        self.spans.clear()
        return out
