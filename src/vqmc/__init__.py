"""Virtual quantum Markov chain analysis for four-qubit states.

Decides, certifies, and quantifies recoverability of a four-qubit state
from its three-qubit marginal: structural kernel-inclusion tests, exact and
approximate channel certification through an embedded SDP engine, and
quasiprobability sampling-overhead computation.

``import vqmc`` loads no submodule and no numpy: each public name, and each
of the submodules below, is imported on its first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# the public names by home module
_HOMES = {
    "conic": (
        "ConicProblem",
        "ConicSolution",
        "Constraint",
        "OverheadResult",
        "SolverConfig",
        "SweepReport",
        "build_cptp_feasibility",
        "build_overhead_problem",
        "cptp_certify",
        "recoverability_sweep",
        "sampling_overhead",
        "solve",
    ),
    "linops": (
        "SubspaceBasis",
        "eigh",
        "kernel_basis",
        "rank_of",
        "subspace_contained",
        "support_basis",
    ),
    "markov": (
        "ConditionalBlock",
        "ConsistencyReport",
        "InclusionReport",
        "apply_choi",
        "conditional_block",
        "kernel_inclusion_check",
        "marginal_block_consistency",
        "theta_blocks",
        "verify_recovery",
    ),
    "registers": (
        "ChoiOperator",
        "DensityOperator",
        "QubitRegister",
        "ket",
        "load_state",
        "make_channel_choi",
        "make_state",
        "mix",
        "partial_trace",
        "partial_transpose",
        "save_state",
        "tensor",
    ),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_HOMES})
