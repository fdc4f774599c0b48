"""The reference SDP route: generic conic problems, their solver, and the
recovery SDPs of the paper written as such problems.

:func:`solve` takes any :class:`ConicProblem` (Hermitian PSD blocks, free
scalars, affine equalities, a linear objective) to the interior point of
:mod:`vqmc.conic`; :func:`build_cptp_feasibility` and
:func:`build_overhead_problem` state the channel-recovery feasibility and
the minimal c1 + c2 over the rows of a :class:`conic._RecoverySystem`.
Nothing in the recovery answers calls them: they serve generic problems and
the tests that compare the closed-form answers against them. The module is
loaded on first use, through :mod:`vqmc.conic`, which exposes every name
below under the same name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# solve looks conic._interior_point up at call time: one engine, patched
# or not, serves the reference route and the reduced overhead alike
from . import conic
from .conic import (
    FEASIBLE,
    INFEASIBLE,
    MAX_ITER,
    OPTIMAL,
    ConicSolution,
    ProblemFormatError,
    SolverConfig,
    _maxabs,
    _RecoverySystem,
    _solution,
    svec,
    unsvec,
)
from .registers import DensityOperator


@dataclass(frozen=True)
class Constraint:
    """One affine equality: sum_k <A_k, X_k> + sum_m g_m s_m = rhs."""

    blocks: dict
    scalars: dict
    rhs: float


@dataclass(frozen=True)
class ConicProblem:
    """Vectorized SDP: Hermitian PSD blocks, free scalars, affine equalities,
    and a linear objective (empty objective means pure feasibility)."""

    psd_blocks: tuple
    free_scalars: tuple = ()
    equalities: tuple = ()
    objective_blocks: dict = field(default_factory=dict)
    objective_scalars: dict = field(default_factory=dict)

    def validate(self) -> None:
        dims = dict(self.psd_blocks)
        if len(dims) != len(self.psd_blocks):
            raise ProblemFormatError("duplicate PSD block names")
        if set(dims) & set(self.free_scalars):
            raise ProblemFormatError("a name cannot be both a block and a scalar")
        for where, blocks, scalars in (
            ("objective", self.objective_blocks, self.objective_scalars),
            *(
                (f"equality {k}", con.blocks, con.scalars)
                for k, con in enumerate(self.equalities)
            ),
        ):
            for name, data in blocks.items():
                if name not in dims:
                    raise ProblemFormatError(f"{where} references undeclared block {name!r}")
                data = np.asarray(data)
                if data.shape != (dims[name], dims[name]):
                    raise ProblemFormatError(
                        f"{where}: data for block {name!r} has shape {data.shape}, "
                        f"expected {(dims[name], dims[name])}"
                    )
                if not np.isfinite(data).all():
                    raise ProblemFormatError(f"{where}: data for block {name!r} is non-finite")
                if np.abs(data - data.conj().T).max() > 1e-12:
                    raise ProblemFormatError(f"{where}: data for block {name!r} is not Hermitian")
            for name, coeff in scalars.items():
                if name not in self.free_scalars:
                    raise ProblemFormatError(f"{where} references undeclared scalar {name!r}")
                if not math.isfinite(coeff):
                    raise ProblemFormatError(f"{where}: coefficient of scalar {name!r} is non-finite")
        for k, con in enumerate(self.equalities):
            if not math.isfinite(con.rhs):
                raise ProblemFormatError(f"equality {k}: right-hand side {con.rhs} is non-finite")


def _affine_solutions(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_ls, N) with {x : A x = P_range(A) b} = {x_ls + N y}, from one SVD of A.

    x_ls is the min-norm least-squares solution and the columns of N are an
    orthonormal basis of the null space of A. A failed SVD raises ``ValueError``.
    """
    try:
        u, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    except np.linalg.LinAlgError as err:
        raise ValueError(f"the SVD of the {A.shape[0]}x{A.shape[1]} equality matrix "
                         f"failed: {err}") from err
    rank = int((s > s[0] * 1e-12).sum()) if s.size and s[0] > 0 else 0
    return vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank]), vt[rank:].T


def solve(problem: ConicProblem, config: SolverConfig | None = None) -> ConicSolution:
    """Solve a conic problem with :func:`_interior_point`, in two phases.

    One SVD of the equality matrix writes its solutions as x = x_ls + N y
    (a failed SVD raises ``ValueError``).
    A least-squares residual above ``eps_infeasible`` is INFEASIBLE, one
    above ``eps_feasible`` MAX_ITER (the dead zone), both at 0 iterations.
    Phase 1 minimizes t subject to X_k(y) + t I >= 0 for every PSD block
    and t >= -1, and stops at its first iterate with t < 0, which is
    strictly feasible. A phase-1 point with t <= ``eps_psd`` is FEASIBLE.
    Otherwise that point is projected onto the cone and returned: INFEASIBLE
    when phase 1 converged and the projection violates the equalities by
    more than ``eps_infeasible``, MAX_ITER otherwise. Phase 2 minimizes the
    objective from the phase-1 point over X_k(y) >= 0, or over
    X_k(y) + eps_psd I >= 0 when phase 1 found no strictly feasible point
    (t >= 0). It is OPTIMAL when the Newton loop converges to a dual point
    that solves the dual equalities within ``eps_feasible`` (relative), and
    MAX_ITER otherwise, e.g. on an unbounded objective. ``iterations``
    counts the Newton steps of both phases and
    ``debug["residual_history"]`` holds the complementarity gap before each.
    """
    cfg = config or conic._DEFAULT_CONFIG
    problem.validate()
    # x holds the svec of each PSD block, then the free scalars
    lengths = [(name, dim * dim) for name, dim in problem.psd_blocks]
    lengths += [(name, 1) for name in problem.free_scalars]
    slices, size = {}, 0
    for name, length in lengths:
        slices[name] = slice(size, size + length)
        size += length

    def fill(row, blocks, scalars):
        for name, data in blocks.items():
            row[slices[name]] = svec(np.asarray(data, dtype=complex))
        for name, coeff in scalars.items():
            row[slices[name]] = coeff
        return row

    A = np.zeros((len(problem.equalities), size))
    for row, con in zip(A, problem.equalities):
        fill(row, con.blocks, con.scalars)
    b = np.array([con.rhs for con in problem.equalities], dtype=float)
    c = fill(np.zeros(size), problem.objective_blocks, problem.objective_scalars)
    x_ls, null = _affine_solutions(A, b)
    history: list[float] = []

    def block_values(x):
        return {name: unsvec(x[slices[name]], dim) for name, dim in problem.psd_blocks}

    def finished(status, x, iterations):
        scalars = {name: x[slices[name]].item() for name in problem.free_scalars}
        return _solution(status, float(c @ x), block_values(x), scalars, _maxabs(A @ x - b), {
            "psd_blocks": [[name, dim] for name, dim in problem.psd_blocks],
            "free_scalars": list(problem.free_scalars),
            "constraint_count": len(b),
            "vectorized_dim": size,
            "residual_history": history,
        }, iterations)

    def cone_projection(x):
        x = x.copy()
        for name, block in block_values(x).items():
            w, v = np.linalg.eigh(block)
            x[slices[name]] = svec((v * np.maximum(w, 0.0)) @ v.conj().T)
        return x

    ls_residual = _maxabs(A @ x_ls - b)
    if ls_residual > cfg.eps_feasible:
        return finished(cfg.verdict(ls_residual), cone_projection(x_ls), 0)

    offsets = list(block_values(x_ls).values())
    columns = [null[slices[name]] for name, _ in problem.psd_blocks]
    # phase 1 over v = (y, t), with the cones X_k(y) + t I and 1 + t
    n_y = null.shape[1]
    t_row = np.eye(1, n_y + 1, n_y)
    lowest = min((float(np.linalg.eigvalsh(offset)[0]) for offset in offsets), default=0.0)
    status, v, _, _, iterations, gaps = conic._interior_point(
        offsets + [np.ones((1, 1))],
        [np.hstack([col, svec(np.eye(len(offset)))[:, None]])
         for col, offset in zip(columns, offsets)] + [t_row],
        cost=t_row[0], v=np.append(np.zeros(n_y), max(0.0, -lowest) + 1.0), constant=0.0,
        config=cfg, limit=0.0,
    )
    history += gaps
    y, t = v[:-1], v[-1]
    x = x_ls + null @ y
    if t > cfg.eps_psd:
        x = cone_projection(x)
        violation = _maxabs(A @ x - b)
        infeasible = status == OPTIMAL and violation > cfg.eps_infeasible
        return finished(INFEASIBLE if infeasible else MAX_ITER, x, iterations)
    if not np.any(c):
        return finished(FEASIBLE, x, iterations)

    shift = cfg.eps_psd if t >= 0 else 0.0
    cost = null.T @ c
    status, y, _, duals, steps, gaps = conic._interior_point(
        [offset + shift * np.eye(len(offset)) for offset in offsets],
        columns, cost, y, float(c @ x_ls), cfg,
    )
    history += gaps
    # a closed gap proves optimality only with a feasible dual, which does
    # not exist when the objective falls along a direction no cone bounds
    dual_residual = cost - sum(col.T @ svec(z) for col, z in zip(columns, duals))
    if _maxabs(dual_residual) > cfg.eps_feasible * max(1.0, _maxabs(cost)):
        status = MAX_ITER
    return finished(status, x_ls + null @ y, iterations + steps)


def build_cptp_feasibility(marginal: DensityOperator, target: DensityOperator) -> ConicProblem:
    """Feasibility SDP for an exact channel recovery of ``target`` from ``marginal``.

    One PSD Choi block, trace-preservation rows, and the full entrywise
    reconstruction constraint; zero objective. FEASIBLE means a channel
    exists, on the subsystem the pair fixes, that reproduces the target.
    """
    choi_dim, tp_rows, fit_rows = _RecoverySystem(marginal, target).rows()
    rows = [Constraint(blocks={"J": m}, scalars={}, rhs=r) for m, r in tp_rows + fit_rows]
    return ConicProblem(psd_blocks=(("J", choi_dim),), equalities=tuple(rows))


def build_overhead_problem(marginal: DensityOperator, target: DensityOperator) -> ConicProblem:
    """Quasiprobability-recovery SDP: minimize c1 + c2 over a two-channel split.

    Two PSD Choi blocks normalized to c1 and c2 times the identity, with the
    difference reconstructing the target on the subsystem the pair fixes.
    """
    choi_dim, tp_rows, fit_rows = _RecoverySystem(marginal, target).rows()
    rows = [
        Constraint(blocks={name: m}, scalars={scalar: -r}, rhs=0.0)
        for name, scalar in (("J1", "c1"), ("J2", "c2"))
        for m, r in tp_rows
    ]
    rows += [Constraint(blocks={"J1": m, "J2": -m}, scalars={}, rhs=r) for m, r in fit_rows]
    return ConicProblem(
        psd_blocks=(("J1", choi_dim), ("J2", choi_dim)),
        free_scalars=("c1", "c2"),
        equalities=tuple(rows),
        objective_scalars={"c1": 1.0, "c2": 1.0},
    )
