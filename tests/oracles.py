"""Independent verification paths for the test suite.

Everything here deliberately avoids the package's linear-algebra helpers:
partial traces and conditional blocks are explicit index loops, kernels come
from scipy's SVD-based null_space, and subspace leaks are computed against
least-squares projections. Used to freeze expected values and to generate
the committed inclusion fixtures.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import null_space

LEAK_TOL = 1e-8
KERNEL_RCOND = 1e-10


def ket(bits: str) -> np.ndarray:
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def dm(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def bits_of(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def index_of(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def partial_trace_loop(rho: np.ndarray, n: int, drop) -> np.ndarray:
    """Partial trace by explicit summation over computational-basis indices."""
    drop = sorted(set(drop))
    keep = [k for k in range(n) if k not in drop]
    dim_out = 2 ** len(keep)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for r in range(dim_out):
        rbits = bits_of(r, len(keep))
        for c in range(dim_out):
            cbits = bits_of(c, len(keep))
            total = 0.0 + 0.0j
            for e in range(2 ** len(drop)):
                ebits = bits_of(e, len(drop))
                full_r = [0] * n
                full_c = [0] * n
                for pos, b in zip(keep, rbits):
                    full_r[pos] = b
                for pos, b in zip(keep, cbits):
                    full_c[pos] = b
                for pos, b in zip(drop, ebits):
                    full_r[pos] = b
                    full_c[pos] = b
                total += rho[index_of(full_r), index_of(full_c)]
            out[r, c] = total
    return out


def conditional_block_loop(rho: np.ndarray, n: int, measure: int, outcome: int, trace) -> np.ndarray:
    """<outcome| rho |outcome> on the measured qubit, traced, re-embedded in place."""
    trace = sorted(set(trace))
    kept = [k for k in range(n) if k not in trace]  # includes the measured qubit
    dim_out = 2 ** len(kept)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    mpos = kept.index(measure)
    for r in range(dim_out):
        rbits = bits_of(r, len(kept))
        if rbits[mpos] != outcome:
            continue
        for c in range(dim_out):
            cbits = bits_of(c, len(kept))
            if cbits[mpos] != outcome:
                continue
            total = 0.0 + 0.0j
            for e in range(2 ** len(trace)):
                ebits = bits_of(e, len(trace))
                full_r = [0] * n
                full_c = [0] * n
                for pos, b in zip(kept, rbits):
                    full_r[pos] = b
                for pos, b in zip(kept, cbits):
                    full_c[pos] = b
                for pos, b in zip(trace, ebits):
                    full_r[pos] = b
                    full_c[pos] = b
                total += rho[index_of(full_r), index_of(full_c)]
            out[r, c] = total
    return out


def petz_marginals(target: np.ndarray, labels, act_on: str, ext) -> tuple[np.ndarray, np.ndarray]:
    """(rho_{C,ext}, rho_C) of the Petz map on ``act_on``, by explicit loops.

    ``labels`` name the target's qubits, with the extension ``ext`` right
    after ``act_on``: rho_{C,ext} traces out every other qubit, and rho_C
    then traces out the extension.
    """
    rest = [k for k, label in enumerate(labels) if label != act_on and label not in ext]
    rho_out = partial_trace_loop(target, len(labels), rest)
    return rho_out, partial_trace_loop(rho_out, 1 + len(ext), range(1, 1 + len(ext)))


def kernel_columns(matrix: np.ndarray, rcond: float = KERNEL_RCOND) -> np.ndarray:
    """Nullspace basis through scipy's SVD path."""
    return null_space(matrix, rcond=rcond)


def leak_against(columns: np.ndarray, target_basis: np.ndarray) -> float:
    """Largest residual norm of least-squares projecting columns onto target span."""
    if columns.size == 0 or columns.shape[1] == 0:
        return 0.0
    worst = 0.0
    for k in range(columns.shape[1]):
        vec = columns[:, k]
        if target_basis.shape[1] == 0:
            resid = vec
        else:
            coef, *_ = np.linalg.lstsq(target_basis, vec, rcond=None)
            resid = vec - target_basis @ coef
        worst = max(worst, float(np.linalg.norm(resid)))
    return worst


def inclusion_oracle(state16: np.ndarray, leak_tol: float = LEAK_TOL) -> dict:
    """Kernel-inclusion verdict of the D-marginal of a four-qubit state.

    Measures the third qubit; AC kernels are tested against BC kernels. The
    whole pipeline (marginal, blocks, kernels, leaks) runs on the
    independent loop/SVD implementations.
    """
    return three_qubit_inclusion_oracle(partial_trace_loop(state16, 4, [3]), 2, leak_tol)


def three_qubit_inclusion_oracle(
    rho8: np.ndarray, measure: int, leak_tol: float = LEAK_TOL
) -> dict:
    """Kernel inclusion of a three-qubit operator conditioned on qubit ``measure``.

    With ``first`` < ``second`` the two other qubits, the kernel of the block
    that keeps ``first`` is tested against the kernel of the block that
    keeps ``second``, for each outcome.
    """
    first, second = [q for q in range(3) if q != measure]
    outcomes = []
    for j in (0, 1):
        ac = conditional_block_loop(rho8, 3, measure, j, [second])
        bc = conditional_block_loop(rho8, 3, measure, j, [first])
        ker_ac = kernel_columns(ac)
        ker_bc = kernel_columns(bc)
        leak = leak_against(ker_ac, ker_bc)
        outcomes.append(
            {
                "j": j,
                "ker_dim_ac": int(ker_ac.shape[1]),
                "ker_dim_bc": int(ker_bc.shape[1]),
                "max_leak": leak,
                "contained": bool(leak <= leak_tol),
            }
        )
    return {
        "verdict": bool(all(o["contained"] for o in outcomes)),
        "outcomes": outcomes,
    }


def w4_state() -> np.ndarray:
    return dm(0.5 * (ket("0001") + ket("0010") + ket("0100") + ket("1000")))


def ghz4_state() -> np.ndarray:
    return dm((ket("0000") + ket("1111")) / np.sqrt(2.0))


def rho2_state() -> np.ndarray:
    return 0.5 * (dm(ket("0000")) + dm(ket("1111")))


def fixture_cases() -> dict:
    """The three oracle-fixed inclusion cases, keyed as in the fixtures file."""
    w4 = w4_state()
    ghz4 = ghz4_state()
    rho2 = rho2_state()
    return {
        "GHZ4": ghz4,
        "CONVEX_MIX_0.5": 0.5 * w4 + 0.5 * rho2,
        "MIX_0.05": 0.05 * w4 + 0.95 * ghz4,
    }
