"""Labeled qubit registers, tensor/trace/transpose operations, and factories.

Basis ordering is big-endian over the label list: for labels (A, B, C, D)
the computational basis index of |abcd> is 8a + 4b + 2c + d. Labels are
significant and kept in the order given; all factory states live on
(A, B, C, D), the three-qubit GHZ on (A, B, C).

The JSON state format (shared with the CLI) is::

    {"labels": ["A","B","C","D"], "dims": [2,2,2,2],
     "re": [[...], ...], "im": [[...], ...], "normalized": true}

Round-trips are lossless: floats are serialized with 17 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass

import numpy as np

from . import _json
from .linops import (
    NotPositiveSemidefiniteError,
    _readonly,
    hermitian_part,
)

PSD_FLOOR = -1e-10
TRACE_ATOL = 1e-10
CHOI_TRACE_ATOL = 1e-9

STATE_NAMES = ("GHZ4", "W4", "MIX", "RHO2", "GHZ3")
CHANNEL_NAMES = ("APPEND_ZERO", "GHZ_ISOMETRY", "W_RECOVERY", "MEASURE_AND_APPEND")


class LabelError(ValueError):
    """Raised on unknown, duplicate, or colliding subsystem labels."""


def ket(bits: str) -> np.ndarray:
    """Computational-basis ket for a bit string, big-endian."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty bit string, got {bits!r}")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def projector(vec: np.ndarray) -> np.ndarray:
    """Outer product |v><v|."""
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


@dataclass(frozen=True)
class QubitRegister:
    """Ordered collection of distinct single-qubit subsystem labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise LabelError("register needs at least one label")
        if len(set(labels)) != len(labels):
            raise LabelError(f"labels must be distinct, got {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) * self.n_qubits

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    def axis(self, label: str) -> int:
        """Position of a label in the register order."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"unknown label {label!r}; register has {self.labels}") from None


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian PSD matrix over a labeled qubit register.

    ``normalized`` distinguishes proper states (trace 1) from unnormalized
    conditional blocks. ``check_psd`` can be disabled by operations whose
    output is Hermitian but deliberately not PSD (partial transpose,
    quasiprobability differences applied to states).
    """

    register: QubitRegister
    matrix: np.ndarray
    normalized: bool = True
    check_psd: InitVar[bool] = True

    def __post_init__(self, check_psd: bool):
        matrix = hermitian_part(self.matrix)
        if matrix.shape[0] != self.register.dim:
            raise ValueError(
                f"matrix dimension {matrix.shape[0]} does not match register dimension "
                f"{self.register.dim} for labels {self.register.labels}"
            )
        if check_psd:
            eigmin = float(np.linalg.eigvalsh(matrix)[0])
            if eigmin < PSD_FLOOR:
                raise NotPositiveSemidefiniteError(eigmin)
        if self.normalized:
            tr = float(np.trace(matrix).real)
            if abs(tr - 1.0) > TRACE_ATOL:
                raise ValueError(f"normalized state must have unit trace, got {tr!r}")
        object.__setattr__(self, "matrix", _readonly(matrix))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.register.labels

    @property
    def dim(self) -> int:
        return self.register.dim

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def as_tensor(self) -> np.ndarray:
        """Matrix reshaped to one ket and one bra axis per qubit."""
        n = self.register.n_qubits
        return self.matrix.reshape((2,) * (2 * n))


@dataclass(frozen=True)
class ChoiOperator:
    """Choi matrix of a map from one qubit to that qubit and the extensions.

    The matrix is on input (x) output, the output being the acted qubit
    followed by the freshly created ``extension_labels``; those are the only
    labels it carries. Where the map acts is said by the caller: the
    ``act_on`` of :func:`markov.apply_choi`, or a (marginal, target) pair.
    Trace-preservation means the partial trace over the output equals
    ``trace_scale * I`` on the input, with ``trace_scale == 1`` for proper
    channels. ``cp_flag`` asserts positivity (complete positivity of the map).
    """

    matrix: np.ndarray
    extension_labels: tuple[str, ...] = ("D",)
    cp_flag: bool = True

    def __post_init__(self):
        matrix = hermitian_part(self.matrix)
        ext = tuple(self.extension_labels)
        if len(set(ext)) != len(ext):
            raise LabelError(f"Choi extension labels must be distinct, got {ext}")
        expected = 2 ** (2 + len(ext))
        if matrix.shape[0] != expected:
            raise ValueError(f"Choi matrix must be {expected}x{expected}, got {matrix.shape}")
        if self.cp_flag:
            eigmin = float(np.linalg.eigvalsh(matrix)[0])
            if eigmin < PSD_FLOOR:
                raise NotPositiveSemidefiniteError(eigmin)
        reduced = _output_trace(matrix)
        scale = float(np.trace(reduced).real) / 2.0
        if np.abs(reduced - scale * np.eye(2)).max() > CHOI_TRACE_ATOL:
            raise ValueError(
                "partial trace of the Choi matrix over the output is not "
                f"proportional to the identity (deviation "
                f"{float(np.abs(reduced - scale * np.eye(2)).max()):.3e})"
            )
        object.__setattr__(self, "extension_labels", ext)
        object.__setattr__(self, "matrix", _readonly(matrix))

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def trace_scale(self) -> float:
        """Proportionality constant c in Tr_out(J) = c * I."""
        return float(np.trace(self.matrix).real) / 2.0

    @property
    def is_trace_preserving(self) -> bool:
        return abs(self.trace_scale - 1.0) <= CHOI_TRACE_ATOL


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product with concatenated labels; traces multiply."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise LabelError(f"label collision in tensor product: {sorted(overlap)}")
    return DensityOperator(
        register=QubitRegister(a.labels + b.labels),
        matrix=np.kron(a.matrix, b.matrix),
        normalized=a.normalized and b.normalized,
    )


def partial_trace(rho: DensityOperator, drop) -> DensityOperator:
    """Trace out the subsystems named in ``drop``; remaining labels keep their order."""
    drop = {drop} if isinstance(drop, str) else set(drop)
    axes = sorted(rho.register.axis(label) for label in drop)
    keep = [lab for lab in rho.labels if lab not in drop]
    if not keep:
        raise LabelError("cannot trace out every subsystem")
    return DensityOperator(
        register=QubitRegister(tuple(keep)),
        matrix=_trace_out_axes(rho.matrix, rho.register.n_qubits, axes),
        normalized=rho.normalized,
    )


def _trace_out_axes(matrix: np.ndarray, n_qubits: int, axes) -> np.ndarray:
    """Partial trace of a raw (not necessarily Hermitian) 2^n matrix over qubit axes."""
    tensor_form = matrix.reshape((2,) * (2 * n_qubits))
    for offset, axis in enumerate(sorted(axes)):
        half = tensor_form.ndim // 2
        tensor_form = np.trace(tensor_form, axis1=axis - offset, axis2=axis - offset + half)
    dim = 2 ** (n_qubits - len(axes))
    return tensor_form.reshape(dim, dim)


def _permuted(matrix: np.ndarray, labels, order) -> np.ndarray:
    """The 2^n matrix on ``labels`` with its subsystems put in ``order``."""
    n = len(labels)
    perm = [labels.index(lab) for lab in order]
    tensor_form = np.transpose(matrix.reshape((2,) * (2 * n)), perm + [n + q for q in perm])
    return tensor_form.reshape(2 ** n, 2 ** n)


def _extended_labels(labels, act_on: str, ext) -> tuple[str, ...]:
    """``labels`` with ``ext`` inserted right after ``act_on``: the register a
    map on ``act_on`` with extension outputs ``ext`` produces."""
    return tuple(name for lab in labels for name in ((lab, *ext) if lab == act_on else (lab,)))


def _acted_on(labels, target_labels) -> tuple[str, tuple[str, ...]]:
    """The inverse of :func:`_extended_labels`: ``(act_on, ext)``, with ``ext``
    the target's labels missing from ``labels`` and ``act_on`` the label just before them."""
    ext = tuple(lab for lab in target_labels if lab not in labels)
    if not ext:
        raise ValueError("target must extend the marginal by at least one subsystem")
    start = target_labels.index(ext[0])
    act_on = target_labels[start - 1]
    if start == 0 or _extended_labels(labels, act_on, ext) != target_labels:
        raise ValueError(f"target labels {target_labels} must equal the marginal labels "
                         f"{labels} with the extension {ext} inserted right after one of them")
    return act_on, ext


def _output_trace(choi: np.ndarray) -> np.ndarray:
    """Tr_out J of a matrix on a qubit input (x) out."""
    n = len(choi) // 2
    return np.trace(choi.reshape(2, n, 2, n), axis1=1, axis2=3)


def partial_transpose(rho: DensityOperator, on: str) -> DensityOperator:
    """Transpose one subsystem in the computational basis.

    Applying the same transpose twice returns the input exactly. The output
    is Hermitian but not asserted PSD; the normalized flag is preserved.
    """
    axis = rho.register.axis(on)
    n = rho.register.n_qubits
    tensor_form = rho.as_tensor()
    tensor_form = np.swapaxes(tensor_form, axis, axis + n)
    return DensityOperator(
        register=rho.register,
        matrix=tensor_form.reshape(rho.dim, rho.dim),
        normalized=rho.normalized,
        check_psd=False,
    )


def mix(a: DensityOperator, b: DensityOperator, weight: float) -> DensityOperator:
    """Convex combination weight*a + (1-weight)*b on a common register."""
    if a.labels != b.labels:
        raise LabelError(f"cannot mix states on different registers: {a.labels} vs {b.labels}")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {weight}")
    return DensityOperator(
        register=a.register,
        matrix=weight * a.matrix + (1.0 - weight) * b.matrix,
        normalized=a.normalized and b.normalized,
    )


def make_state(name: str, p: float | None = None) -> DensityOperator:
    """Factory for the named four-qubit states (GHZ3 is three-qubit).

    - ``W4``: equal superposition of single-excitation basis states.
    - ``GHZ4`` / ``GHZ3``: (|0...0> + |1...1>)/sqrt(2).
    - ``MIX``: p * W4 + (1-p) * GHZ4, requires 0 <= p <= 1.
    - ``RHO2``: the classical-conditional state
      (|0000><0000| + |1111><1111|)/2.

    Pure states are built ket-first, then as outer products.
    """
    name = name.upper()
    if name == "W4":
        vec = 0.5 * (ket("0001") + ket("0010") + ket("0100") + ket("1000"))
        matrix = projector(vec)
    elif name == "GHZ4":
        matrix = projector((ket("0000") + ket("1111")) / np.sqrt(2.0))
    elif name == "GHZ3":
        matrix = projector((ket("000") + ket("111")) / np.sqrt(2.0))
    elif name == "RHO2":
        matrix = 0.5 * (projector(ket("0000")) + projector(ket("1111")))
    elif name == "MIX":
        if p is None:
            raise ValueError("MIX requires the mixing parameter p")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
        return mix(make_state("W4"), make_state("GHZ4"), p)
    else:
        raise ValueError(f"unknown state {name!r}; expected one of {STATE_NAMES}")
    labels = ("A", "B", "C") if name == "GHZ3" else ("A", "B", "C", "D")
    return DensityOperator(register=QubitRegister(labels), matrix=matrix)


def make_channel_choi(name: str) -> ChoiOperator:
    """Factory for the named qubit -> two-qubit channel Choi matrices.

    - ``APPEND_ZERO``: identity on the input, fresh |0> appended.
    - ``GHZ_ISOMETRY``: the isometry |0> -> |00>, |1> -> |11|.
    - ``W_RECOVERY``: block-diagonal Choi with conditional outputs
      (|00>+|01>)/sqrt(2) and |10>.
    - ``MEASURE_AND_APPEND``: measure the input, re-prepare it, and append a
      matching basis state.

    Every output is PSD with partial trace over the output equal to the
    identity on the input.
    """
    name = name.upper()
    if name == "APPEND_ZERO":
        vec = sum(np.kron(ket(b), ket(b + "0")) for b in "01")
        matrix = projector(vec)
    elif name == "GHZ_ISOMETRY":
        vec = sum(np.kron(ket(b), ket(b + b)) for b in "01")
        matrix = projector(vec)
    elif name == "W_RECOVERY":
        psi0 = (ket("00") + ket("01")) / np.sqrt(2.0)
        psi1 = ket("10")
        matrix = np.kron(projector(ket("0")), projector(psi0)) + np.kron(
            projector(ket("1")), projector(psi1)
        )
    elif name == "MEASURE_AND_APPEND":
        matrix = sum(np.kron(projector(ket(b)), projector(ket(b + b))) for b in "01")
    else:
        raise ValueError(f"unknown channel {name!r}; expected one of {CHANNEL_NAMES}")
    return ChoiOperator(matrix=matrix)


def identity_channel_choi() -> ChoiOperator:
    """Choi matrix of the identity channel on one qubit (no extension)."""
    vec = sum(np.kron(ket(b), ket(b)) for b in "01")
    return ChoiOperator(matrix=projector(vec), extension_labels=())


def state_to_dict(rho: DensityOperator) -> dict:
    """JSON-ready dictionary in the shared state format."""
    return {
        "labels": list(rho.labels),
        "dims": list(rho.register.dims),
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
        "normalized": rho.normalized,
    }


def _numbers_only(value) -> bool:
    """True when every leaf of the nested lists, walked without recursion, is an int
    or a float, not a bool; ``np.asarray(..., dtype=float)`` takes "0.5" and false."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif not isinstance(item, (int, float)) or isinstance(item, bool):
            return False
    return True


def state_from_dict(payload: dict) -> DensityOperator:
    """Inverse of :func:`state_to_dict`."""
    if not isinstance(payload, dict):
        raise ValueError(f"a state payload must be a JSON object, got {type(payload).__name__}")
    missing = [key for key in ("labels", "re", "im") if key not in payload]
    if missing:
        raise ValueError(f"state payload lacks {', '.join(map(repr, missing))}")
    for key in ("labels", "dims"):
        if not isinstance(payload.get(key, []), (list, tuple)):
            raise ValueError(f"state payload {key!r} must be a list, "
                             f"got {type(payload[key]).__name__}")
    labels = tuple(payload["labels"])
    if not all(isinstance(label, str) for label in labels):
        raise ValueError(f"state payload 'labels' must be strings, got {list(labels)}")
    dims = tuple(payload.get("dims", (2,) * len(labels)))
    if len(dims) != len(labels):
        raise ValueError(f"state payload 'dims' must have one entry per label, "
                         f"got {len(dims)} for {len(labels)} labels")
    if any(d != 2 for d in dims):
        raise ValueError(f"only qubit registers are supported, got dims {dims}")
    normalized = payload.get("normalized", True)
    if not isinstance(normalized, bool):
        raise ValueError(f"state payload 'normalized' must be true or false, got {normalized!r}")
    parts = []
    for key in ("re", "im"):
        try:
            part = np.asarray(payload[key], dtype=float) if _numbers_only(payload[key]) else None
        except (ValueError, OverflowError):  # ragged rows, or an int beyond any float
            part = None
        if part is None:
            raise ValueError(f"state payload {key!r} must be a matrix of numbers")
        if not np.isfinite(part).all():
            raise ValueError(f"state payload {key!r} has non-finite entries (NaN or inf)")
        parts.append(part)
    real, imag = parts
    if real.shape != imag.shape:
        raise ValueError(f"state payload 're' has shape {real.shape} but 'im' has shape "
                         f"{imag.shape}")
    return DensityOperator(register=QubitRegister(labels), matrix=real + 1j * imag,
                           normalized=normalized)


def load_state(path) -> DensityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    return state_from_dict(payload)


def save_state(rho: DensityOperator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _json.dump(state_to_dict(rho), fh, indent=1)
