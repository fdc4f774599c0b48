"""Structural virtual-recovery analysis of multipartite states.

Conditioning is always a projective measurement of one subsystem in the
computational basis. Conditional blocks keep the collapsed subsystem in
place: projecting C of a state on (A, B, C) onto |j> and tracing out B
yields a 4x4 operator on (A, C) whose C slot holds |j><j|. This matches the
convention in which conditional kernels are two-qubit subspaces.

The kernel-inclusion check is the paper's structural criterion, which here
compares the AC and BC kernels in one space; its verdict decides neither
recovery question, which is the conic module's job. It builds its four
conditional blocks (both sides, both outcomes) as one stack, in one pass over
the state's tensor, and takes all four kernels from one eigendecomposition of
that stack; the blocks are the matrices :func:`conditional_block` returns,
and the kernels follow :func:`linops.kernel_basis`'s rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linops
from .linops import INCLUSION_LEAK_TOL, _check_tolerance
from .registers import (ChoiOperator, DensityOperator, LabelError, QubitRegister,
                        _acted_on, _extended_labels, _permuted, _trace_out_axes)

# Largest max-abs entry gap at which two traced blocks count as equal.
BLOCK_MATCH_TOL = 1e-10


@dataclass(frozen=True)
class ConditionalBlock:
    """Unnormalized post-measurement operator for one outcome.

    ``weight`` is the trace (the outcome probability when the parent state
    is normalized); summing the weights over all outcomes recovers the trace
    of the parent state.
    """

    outcome: int
    kept_labels: tuple[str, ...]
    matrix: np.ndarray

    @property
    def weight(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class OutcomeInclusion:
    """Kernel inclusion for one outcome.

    When the outcome is not contained, ``leaking_vector`` is the first AC
    kernel vector whose leak out of the BC kernel exceeds the tolerance, and
    ``leaking_vector_leak`` is that leak; both are None otherwise and stay
    out of :meth:`to_dict`.
    """

    outcome: int
    ker_dim_ac: int
    ker_dim_bc: int
    contained: bool
    max_leak: float
    leaking_vector: np.ndarray | None = field(default=None, compare=False, repr=False)
    leaking_vector_leak: float | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "j": self.outcome,
            "ker_dim_ac": self.ker_dim_ac,
            "ker_dim_bc": self.ker_dim_bc,
            "contained": self.contained,
            "max_leak": self.max_leak,
        }


@dataclass(frozen=True)
class InclusionReport:
    """Per-outcome kernel-inclusion verdicts; the verdict is the AND over outcomes.

    The paper's structural criterion, with the AC and BC kernels compared in
    one space: a True verdict does not certify a recovery, and a False one
    does not rule out a channel.
    """

    per_outcome: tuple[OutcomeInclusion, ...]
    tol: float

    @property
    def verdict(self) -> bool:
        return all(entry.contained for entry in self.per_outcome)

    @property
    def max_leak(self) -> float:
        return max((entry.max_leak for entry in self.per_outcome), default=0.0)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "outcomes": [entry.to_dict() for entry in self.per_outcome],
        }


@dataclass(frozen=True)
class BlockOperator:
    """Operator-valued block <i| rho |j> of a state expanded on one subsystem."""

    row: int
    col: int
    on_labels: tuple[str, ...]
    matrix: np.ndarray


@dataclass(frozen=True)
class ConsistencyWitness:
    first: tuple[int, ...]
    second: tuple[int, ...]
    traced_gap: float
    block_gap: float

    def to_dict(self) -> dict:
        return {
            "first": list(self.first),
            "second": list(self.second),
            "traced_gap": self.traced_gap,
            "block_gap": self.block_gap,
        }


@dataclass(frozen=True)
class ConsistencyReport:
    """Pairwise linearity obstruction report for marginal-based recovery.

    Inconsistent means two blocks share the same traced part (within tol)
    but differ as full operators, which no linear map can reproduce. The
    pairwise test is one-sided: a consistent report does not certify that a
    channel exists. ``blocks`` are the compared blocks in row-major order and
    ``traced`` stacks their traces down to the kept label; both stay out of
    :meth:`to_dict` and ``==``.
    """

    consistent: bool
    witnesses: tuple[ConsistencyWitness, ...]
    tol: float
    blocks: tuple[BlockOperator, ...] = field(default=(), compare=False, repr=False)
    traced: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "tol": self.tol,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def _conditional_stack(rho: DensityOperator, measure: str, trace_sets) -> np.ndarray:
    """The blocks of :func:`conditional_block` for both outcomes and several
    traced-out label sets of equal size, from one pass over the state's tensor.

    Returns shape (2, len(trace_sets), d, d): entry [j, s] projects
    ``measure`` onto |j>, traces out ``trace_sets[s]`` and keeps
    |j><j| at the measured slot.
    """
    n = rho.register.n_qubits
    axis = rho.register.axis(measure)
    remaining = [lab for lab in rho.labels if lab != measure]
    outcomes = np.arange(2)
    # <j| rho |j> for j = 0, 1 on the remaining labels: (2, kets..., bras...)
    index = [slice(None)] * (2 * n)
    index[axis] = index[axis + n] = outcomes
    diagonal = rho.as_tensor()[tuple(index)]
    k = n - len(trace_sets[0])
    blocks = np.zeros((2, len(trace_sets)) + (2,) * (2 * k), dtype=complex)
    for s, trace_out in enumerate(trace_sets):
        reduced = diagonal
        for pos in sorted((remaining.index(lab) for lab in trace_out), reverse=True):
            half = (reduced.ndim - 1) // 2
            reduced = reduced.trace(axis1=1 + pos, axis2=1 + pos + half)
        # the measured slot's place among the kept labels, in label order
        slot = sum(1 for lab in rho.labels[:axis] if lab not in trace_out)
        embed = [outcomes, s] + [slice(None)] * (2 * k)
        embed[2 + slot] = embed[2 + k + slot] = outcomes
        blocks[tuple(embed)] = reduced
    return blocks.reshape(2, len(trace_sets), 2 ** k, 2 ** k)


def conditional_block(
    rho: DensityOperator, measure: str, outcome: int, trace_out
) -> ConditionalBlock:
    """Project ``measure`` onto |outcome>, trace out ``trace_out``, keep the slot.

    The measured subsystem stays in the output register, collapsed to
    |outcome><outcome|, so kernels of conditional blocks live in the same
    space regardless of which side was traced out.
    """
    trace_out = {trace_out} if isinstance(trace_out, str) else set(trace_out)
    if measure in trace_out:
        raise LabelError(f"measured label {measure!r} cannot also be traced out")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1 for a qubit measurement, got {outcome}")
    rho.register.axis(measure)
    for lab in trace_out:
        rho.register.axis(lab)
    return ConditionalBlock(
        outcome=outcome,
        kept_labels=tuple(lab for lab in rho.labels if lab not in trace_out),
        matrix=_conditional_stack(rho, measure, [trace_out])[outcome, 0],
    )


def kernel_inclusion_check(
    rho: DensityOperator,
    tol: float = INCLUSION_LEAK_TOL,
    condition_on: str | None = None,
    rel_tol: float = linops.DEFAULT_REL_TOL,
) -> InclusionReport:
    """Kernel-inclusion criterion on a three-subsystem state.

    For each outcome j of measuring the conditioning subsystem (the last
    label unless given), tests Ker(first-side block) <= Ker(second-side
    block): leaks up to ``tol`` count as contained; ``tol`` must be finite
    and nonnegative, and so must ``rel_tol``, the kernels' relative
    eigenvalue cut-off.

    The four conditional blocks (first side and second side, outcomes 0
    and 1) are built as one stack, and one eigendecomposition of the stack
    gives all four kernels by :func:`linops.kernel_basis`'s rule
    (:func:`linops.kernel_frames`). A block below the PSD floor raises, the
    first in the order first-side 0, second-side 0, first-side 1,
    second-side 1.
    """
    _check_tolerance("tol", tol)
    _check_tolerance("rel_tol", rel_tol)
    if rho.register.n_qubits != 3:
        raise LabelError(
            f"kernel inclusion needs a state on exactly three labels, got {rho.labels}"
        )
    cond = condition_on if condition_on is not None else rho.labels[-1]
    rho.register.axis(cond)
    first, second = [lab for lab in rho.labels if lab != cond]

    stack = _conditional_stack(rho, cond, [{second}, {first}])
    kernels = linops.kernel_frames(stack.reshape(4, 4, 4), rel_tol=rel_tol)
    entries = []
    for outcome in (0, 1):
        ker_ac, ker_bc = kernels[2 * outcome], kernels[2 * outcome + 1]
        leak, vector, vector_leak = 0.0, None, None
        if ker_ac.shape[1]:
            leaks = linops.frame_leaks(ker_ac, ker_bc)
            leak = float(leaks.max())
            if leak > tol:
                k = int(np.argmax(leaks > tol))
                vector, vector_leak = ker_ac[:, k], float(leaks[k])
        entries.append(
            OutcomeInclusion(
                outcome=outcome,
                ker_dim_ac=ker_ac.shape[1],
                ker_dim_bc=ker_bc.shape[1],
                contained=leak <= tol,
                max_leak=leak,
                leaking_vector=vector,
                leaking_vector_leak=vector_leak,
            )
        )
    return InclusionReport(per_outcome=tuple(entries), tol=tol)


def apply_choi(rho: DensityOperator, choi: ChoiOperator, act_on: str) -> DensityOperator:
    """Apply the channel encoded by ``choi`` to one subsystem of ``rho``.

    The acted subsystem is replaced in place by the channel output: the
    acted qubit keeps the name ``act_on`` and the Choi matrix's extension
    labels are inserted right after it. Trace is preserved when the Choi
    matrix is trace-preserving; the output is a valid state when
    ``cp_flag`` is set and the input is normalized.
    """
    collisions = set(choi.extension_labels) & (set(rho.labels) - {act_on})
    if collisions:
        raise LabelError(f"extension labels collide with state labels: {sorted(collisions)}")
    rho.register.axis(act_on)
    rest_dim = rho.dim // 2
    out_dim = choi.output_dim

    # move the acted qubit last, group the rest
    rest_labels = [lab for lab in rho.labels if lab != act_on]
    grouped = _permuted(rho.matrix, rho.labels, rest_labels + [act_on]).reshape(
        rest_dim, 2, rest_dim, 2)
    choi_grouped = choi.matrix.reshape(2, out_dim, 2, out_dim)
    # out[a, o, b, p] = sum_{c,d} rho[a, c, b, d] * J[c, o, d, p]
    out = np.einsum("acbd,codp->aobp", grouped, choi_grouped)

    out_labels = rest_labels + [act_on, *choi.extension_labels]
    final_labels = _extended_labels(rho.labels, act_on, choi.extension_labels)
    dim = rest_dim * out_dim
    matrix = _permuted(out.reshape(dim, dim), out_labels, final_labels)
    return DensityOperator(
        register=QubitRegister(final_labels),
        matrix=matrix,
        normalized=rho.normalized and choi.is_trace_preserving and choi.cp_flag,
        check_psd=choi.cp_flag,
    )


def verify_recovery(target: DensityOperator, marginal: DensityOperator,
                    choi: ChoiOperator) -> float:
    """Max-abs entrywise gap between the channel-extended marginal and the
    target, with the channel on the subsystem the pair fixes (``_acted_on``)."""
    recovered = apply_choi(marginal, choi, _acted_on(marginal.labels, target.labels)[0])
    if recovered.labels != target.labels:
        raise LabelError(
            f"recovered labels {recovered.labels} do not match target {target.labels}"
        )
    return float(np.abs(recovered.matrix - target.matrix).max())


def operator_blocks(rho: DensityOperator, over) -> list[BlockOperator]:
    """Expand a state in the computational basis of the ``over`` subsystems.

    Returns all blocks <i| rho |j> as operators on the remaining labels, with
    i, j enumerating the basis of the ``over`` group in register order.
    """
    over = [over] if isinstance(over, str) else list(over)
    if len(set(over)) != len(over):
        raise LabelError(f"block labels must be distinct, got {over}")
    for lab in over:
        rho.register.axis(lab)
    rest = [lab for lab in rho.labels if lab not in over]
    if not rest:
        raise LabelError("blocks need at least one remaining subsystem")
    tensor_form = _permuted(rho.matrix, rho.labels, over + rest)
    block_dim = 2 ** len(over)
    rest_dim = 2 ** len(rest)
    grouped = tensor_form.reshape(block_dim, rest_dim, block_dim, rest_dim)
    return [
        BlockOperator(row=i, col=j, on_labels=tuple(rest), matrix=grouped[i, :, j, :].copy())
        for i in range(block_dim)
        for j in range(block_dim)
    ]


def theta_blocks(rho: DensityOperator, condition_on: str) -> list[BlockOperator]:
    """2x2 array of blocks of a state over one subsystem's basis.

    Diagonal blocks are Hermitian, off-diagonal blocks are mutual adjoints,
    and the diagonal traces sum to the state's trace.
    """
    return operator_blocks(rho, condition_on)


def marginal_block_consistency(
    rho: DensityOperator,
    keep: str,
    extend_to,
    tol: float = BLOCK_MATCH_TOL,
) -> ConsistencyReport:
    """Pairwise linearity obstruction for recovering ``rho`` from its ``keep`` marginal.

    Expands the state in blocks over the complement of keep+extend_to,
    traces each block down to ``keep``, and flags any two blocks whose
    traced parts agree while the full blocks differ. Such a pair rules out
    every linear extension map from keep to keep+extend_to. ``tol`` must be
    finite and nonnegative.
    """
    _check_tolerance("tol", tol)
    extend_to = {extend_to} if isinstance(extend_to, str) else set(extend_to)
    if keep in extend_to:
        raise LabelError(f"keep label {keep!r} cannot be part of extend_to")
    for lab in (keep, *sorted(extend_to)):
        rho.register.axis(lab)
    complement = [lab for lab in rho.labels if lab != keep and lab not in extend_to]
    if not complement:
        raise LabelError("no subsystem left to index the blocks")

    blocks = operator_blocks(rho, complement)
    on_labels = blocks[0].on_labels
    stack = np.array([block.matrix for block in blocks])
    traced = _trace_out_axes(stack, len(on_labels), [on_labels.index(lab) for lab in extend_to])
    # pairs a < b in row-major order whose traced parts agree within tol
    traced_gaps = np.abs(traced[:, None] - traced[None]).max(axis=(2, 3))
    first, second = np.nonzero(np.triu(traced_gaps <= tol, 1))
    block_gaps = np.abs(stack[first] - stack[second]).max(axis=(1, 2))
    witnesses = tuple(
        ConsistencyWitness((blocks[a].row, blocks[a].col), (blocks[b].row, blocks[b].col),
                           float(traced_gaps[a, b]), float(gap))
        for a, b, gap in zip(first, second, block_gaps) if gap > tol
    )
    return ConsistencyReport(consistent=not witnesses, witnesses=witnesses, tol=tol,
                             blocks=tuple(blocks), traced=traced)
