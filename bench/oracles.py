"""Reference computations made apart from vqmc, in plain numpy.

None of these call the package. Partial traces and conditional blocks are
explicit index loops, kernels come from an SVD, the conditional mutual
information from ``eigvalsh``, and the reconstruction system from the
blockwise Choi formula in ``generators.apply_on_c``.
"""

from __future__ import annotations

import numpy as np

from generators import apply_on_c

LEAK_TOL = 1e-8  # vqmc's default inclusion leak tolerance
KERNEL_RCOND = 1e-10  # vqmc's default relative eigenvalue threshold
CMI_ZERO = 1e-9


def _bits(index: int, n: int) -> list[int]:
    return [(index >> (n - 1 - k)) & 1 for k in range(n)]


def _index(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def reduce_loop(rho: np.ndarray, n: int, drop, fix=None) -> np.ndarray:
    """Trace out qubits ``drop`` by explicit summation.

    With ``fix = (qubit, value)`` the kept qubit is projected on |value>
    first; it stays in place, collapsed to |value><value|.
    """
    drop = sorted(drop)
    keep = [k for k in range(n) if k not in drop]
    dim = 2 ** len(keep)
    out = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        rb = _bits(r, len(keep))
        for c in range(dim):
            cb = _bits(c, len(keep))
            if fix is not None:
                pos = keep.index(fix[0])
                if rb[pos] != fix[1] or cb[pos] != fix[1]:
                    continue
            total = 0j
            for e in range(2 ** len(drop)):
                eb = _bits(e, len(drop))
                full_r, full_c = [0] * n, [0] * n
                for pos, b in zip(keep, rb):
                    full_r[pos] = b
                for pos, b in zip(keep, cb):
                    full_c[pos] = b
                for pos, b in zip(drop, eb):
                    full_r[pos] = full_c[pos] = b
                total += rho[_index(full_r), _index(full_c)]
            out[r, c] = total
    return out


def _kernel(matrix: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(matrix)
    threshold = KERNEL_RCOND * max(float(s[0]), 1e-300)
    return vh[s <= threshold].conj().T


def _leak(columns: np.ndarray, target: np.ndarray) -> float:
    worst = 0.0
    for k in range(columns.shape[1]):
        vec = columns[:, k]
        if target.shape[1]:
            coef, *_ = np.linalg.lstsq(target, vec, rcond=None)
            vec = vec - target @ coef
        worst = max(worst, float(np.linalg.norm(vec)))
    return worst


def inclusion(state16: np.ndarray) -> dict:
    """Kernel-inclusion verdict and kernel dimensions of the D-marginal.

    Conditions on C; for each outcome, Ker(AC block) must lie in Ker(BC block).
    """
    marginal = reduce_loop(state16, 4, [3])
    outcomes = []
    for j in (0, 1):
        ker_ac = _kernel(reduce_loop(marginal, 3, [1], fix=(2, j)))
        ker_bc = _kernel(reduce_loop(marginal, 3, [0], fix=(2, j)))
        outcomes.append((ker_ac.shape[1], ker_bc.shape[1], _leak(ker_ac, ker_bc) <= LEAK_TOL))
    return {
        "verdict": all(o[2] for o in outcomes),
        "ker_dims": [(o[0], o[1]) for o in outcomes],
    }


def _entropy(matrix: np.ndarray) -> float:
    w = np.linalg.eigvalsh(matrix)
    w = w[w > 1e-14]
    return float(-(w * np.log2(w)).sum())


def _trace_qubits(state16: np.ndarray, keep) -> np.ndarray:
    t = state16.reshape((2,) * 8)
    letters = "abcdefgh"
    rows = list(letters[:4])
    cols = [letters[4 + k] if k in keep else letters[k] for k in range(4)]
    out = "".join(letters[k] for k in keep) + "".join(letters[4 + k] for k in keep)
    dim = 2 ** len(keep)
    return np.einsum("".join(rows) + "".join(cols) + "->" + out, t).reshape(dim, dim)


def cmi(state16: np.ndarray) -> float:
    """I(AB:D|C) = S(ABC) + S(CD) - S(C) - S(ABCD), in bits."""
    return (
        _entropy(_trace_qubits(state16, [0, 1, 2]))
        + _entropy(_trace_qubits(state16, [2, 3]))
        - _entropy(_trace_qubits(state16, [2]))
        - _entropy(state16)
    )


def marginal_abc(state16: np.ndarray) -> np.ndarray:
    return _trace_qubits(state16, [0, 1, 2])


def least_squares_extension(state16: np.ndarray) -> tuple[float, np.ndarray]:
    """Solve J -> (id (x) N_J)(rho_ABC) = rho and Tr_{C'D} J = I by least squares.

    Returns the max-abs residual of the best J and that J (8x8). A residual
    above the solver's ``eps_infeasible`` means no Hermitian-preserving
    extension exists, so the overhead must be +inf.
    """
    sigma = marginal_abc(state16)
    columns = []
    for k in range(64):
        unit = np.zeros(64, dtype=complex)
        unit[k] = 1.0
        choi = unit.reshape(8, 8)
        tp = np.trace(choi.reshape(2, 4, 2, 4), axis1=1, axis2=3)
        columns.append(np.concatenate([apply_on_c(sigma, choi).reshape(-1), tp.reshape(-1)]))
    system = np.stack(columns, axis=1)
    rhs = np.concatenate([state16.reshape(-1), np.eye(2, dtype=complex).reshape(-1)])
    x, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = float(np.abs(system @ x - rhs).max())
    choi = x.reshape(8, 8)
    return residual, (choi + choi.conj().T) / 2


def certificate_residual(state16: np.ndarray, choi: np.ndarray) -> float:
    """Max-abs gap between the Choi map applied to the D-marginal and the state."""
    return float(np.abs(apply_on_c(marginal_abc(state16), choi) - state16).max())


def overhead_bracket(choi: np.ndarray) -> tuple[float, float]:
    """Bounds on c1 + c2 for a Hermitian-preserving TP Choi matrix J.

    With J = J+ - J-, any split J = J1 - J2 has c1 + c2 >= ||J||_1 / 2 =
    1 + Tr J-, and J2 = J- + (c I - Tr_out J-) (x) I/4 with
    c = lambda_max(Tr_out J-) is a feasible split of cost 1 + 2c.
    """
    w, v = np.linalg.eigh((choi + choi.conj().T) / 2)
    neg = (v * np.maximum(-w, 0.0)) @ v.conj().T
    reduced = np.trace(neg.reshape(2, 4, 2, 4), axis1=1, axis2=3)
    return 1.0 + float(np.trace(neg).real), 1.0 + 2.0 * float(np.linalg.eigvalsh(reduced)[-1])
