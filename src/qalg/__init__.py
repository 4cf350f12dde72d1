"""qalg: exact operator algebra for qubit lattices.

Pauli strings with exact coefficients, second-quantized expressions for
parafermions (hard-core bosons), fermions and bosons, the string transform
between them, Lie-algebra closures with exact rank decisions, constant
excitation-number code subspaces, a battery of operator-identity checks,
and thermal occupation curves.

Every exported name loads its submodule on first access (PEP 562), so
``import qalg`` stays cheap.  Only ``qalg.verifier``, the dense oracle,
imports numpy when it loads; ``realize`` and ``matrix_exponential`` import
numpy, and nothing else, when they are called.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "pauli": ("OperatorSum", "Scalar", "anticommutator", "commutator",
              "matrix_exponential", "realize"),
    "parafermion": ("GeneratorIndex", "SecondQuantizedExpr",
                    "SubalgebraVerdict", "bilinear_su2", "classify",
                    "enumerate_generators", "number_operator",
                    "parity_operator", "to_pauli"),
    "jw": ("boson_approx_commutator", "jw_fermion_to_pauli",
           "string_operator", "verify_car"),
    "lie": ("AlgebraVerdict", "GeneratorSet", "LieBasis", "classify_algebra",
            "close", "close_matrices", "close_on_subspace"),
    "codes": ("CodeSubspace", "EncodedGate", "build_code", "encoded_cphase",
              "encoded_generator", "rate", "synthesize_su_d"),
    "thermal": ("ThermalParams", "occupation"),
    "dsl": ("parse_expr", "parse_script", "print_expr"),
    "verifier": ("CHECKS", "IdentityCheck", "TruncatedBosonSpace",
                 "compound_mapping_check"),
}
# exported name -> submodule that defines it; a submodule names itself
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SOURCE.update((module, module) for module in (*_EXPORTS, "errors"))

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module 'qalg' has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SOURCE.keys())
