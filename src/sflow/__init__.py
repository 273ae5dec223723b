"""Equivariant spectral flow of paths of symmetric operators with scalar
essential-spectrum tails: certified crossing counts valued in the integer
lattice of a finite group's real irreducibles, plus the congruence normal
forms and the Lagrangian-graph crossing index built on top.

`import sflow` loads no submodule: each public name is resolved from its
home module on first use (PEP 562), so a CLI job imports only the modules
its command runs. An `sfl` or `oracle` job loads `_eig`, `errors`,
`operators`, `groups`, `flow` and `cli`; `verify` adds `sampling`, `maslov`
adds `maslov` and `sampling`, `cogredient` adds `cogredient`. Without a
bytecode cache on a 2-CPU host, importing `sflow.cli` after numpy took
42.0 ms against 55.7 ms when every module loaded (BENCH_32.json).
"""

import importlib

_HOMES = {
    "_eig": ("jacobi_eigh",),
    "cogredient": ("Parametrix", "PointwiseSection", "parametrix",
                   "parametrix_fs_plus", "pointwise_section",
                   "split_positive"),
    "errors": ("CertificationError", "CertificationFailed",
               "ConsistencyFailure", "EquivarianceError", "InvalidInput",
               "InvertibilityError", "SflowError"),
    "flow": ("AxiomSuiteReport", "CertifiedPartition", "Crossing",
             "FlowOptions", "SflReport", "find_partition",
             "morse_oracle_sfl_G", "sfl_G", "sfl_G_each", "verify_axioms"),
    "groups": ("FiniteGroup", "Irrep", "OrthogonalAction",
               "RealCharacterTable", "VirtualRep", "build_group",
               "character_of_subspace", "direct_sum_action", "forgetful_F",
               "isotypical_projection", "multiplicity_vector", "phi_Z2"),
    "maslov": ("LagrangianFrame", "WindowEigenvalue", "Z2ExampleReport",
               "fredholm_pair_dims", "graph_lagrangian",
               "horizontal_lagrangian", "maslov_flow", "maslov_index_G",
               "maslov_operator_spectrum", "z2_example"),
    "operators": ("CPS", "FSComponent", "OperatorPath", "Spectrum",
                  "block_spectrum", "check_equivariance", "compress",
                  "concatenate", "direct_sum", "direct_sum_paths",
                  "morse_class", "negate", "reverse"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# the public submodules are exported too
_MODULES = ("cogredient", "errors", "flow", "groups", "maslov", "operators",
            "sampling")

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
