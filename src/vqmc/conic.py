"""Recovery certification for the three questions.

Both recovery questions are answered from one :class:`_RecoverySystem` per
(marginal, target) pair: it validates the pair once, groups both states by
its layout (rest, C, ext), and on first use builds the Petz map and solves
the real linear system M svec(J) = b (trace preservation plus the
entrywise reconstruction of the target from the marginal), whose one
statement is the block map :meth:`_RecoverySystem.gap`. :func:`cptp_certify`
and :func:`sampling_overhead` take it from a one-slot cache, so asking both
questions of the same two state objects, as :func:`recoverability_sweep`
does, builds one system. Complex Hermitian d x d variables are vectorized
to real vectors of length d^2 (diagonal entries, then sqrt(2)-scaled real
and imaginary upper triangles), which preserves inner products and keeps
all constraint data real.

Channel recovery is decided without an SDP by one rule, :func:`_channel`:
the least-squares residual of the linear system rules out every
trace-preserving map when it can, and otherwise, by Petz's theorem, the
Petz map's residual, verified by the independent Choi application, decides.
:func:`cptp_certify` reports that verdict, and :func:`sampling_overhead`
answers nu = 0 (``debug == {"method": "petz"}``) exactly when it is FEASIBLE.

:func:`sampling_overhead` then reads the least-squares solution of the
linear system, which :class:`_RecoverySystem` computes without forming it:
the system is one complex rest^2 x 4 matrix R, a reshape of the marginal,
repeated on the vec coordinates of every 2 x 2 block of J, so one SVD of R
gives the min-norm solution, the residual and the null space. When the
max-abs residual exceeds ``eps_infeasible`` no Hermitian-preserving
recovery exists, and it returns INFEASIBLE (nu = +inf) with 0 iterations,
the least-squares J as block ``J``, that residual as ``primal_residual``
and ``debug == {"method": "least_squares"}``.
A residual above ``eps_feasible`` is then undetermined (MAX_ITER,
0 iterations, ``{"method": "least_squares"}``).
The overhead SDP, reduced to the solutions J = J_ls + N y of the same
system (N its null space from the same SVD), decides the remaining states.
When N is trivial (a unique extension: W4, every virtual-only and
HPTP-extension state) :func:`_dual_overhead` solves its dual, a concave
function of a Bloch vector, by Newton steps inside the ball and on the
sphere, and certifies c1 + c2 from both sides
(``debug == {"method": "dual", "lower_bound": ..., "gap": ...}``). States
with a null space that the Petz map does not recover, and unique
extensions whose bounds do not meet, go to :func:`_reduced_overhead`,
whose final dual point certifies a lower bound on c1 + c2
(``debug == {"method": "interior_point", "lower_bound": ..., "gap": ...}``).
No state of the benchmark corpora reaches it; only the tests do.

One engine solves every SDP: :func:`_interior_point`, a dense primal-dual
path-following method (HKM direction, Mehrotra predictor-corrector) for
min c.v subject to affine Hermitian blocks of v being PSD. Besides
:func:`_reduced_overhead` it serves :func:`solve`, the reference solver
for any :class:`ConicProblem` (PSD blocks, free scalars, affine
equalities). ``solve`` reduces the equalities to x = x_ls + N y with one
SVD, runs a phase 1 that minimizes the shift t making every block plus t I
PSD, and a phase 2 on the objective; see its docstring for the verdicts.
Nothing in the recovery answers calls it: it serves generic problems, the
reference builders :func:`build_cptp_feasibility` and
:func:`build_overhead_problem` (whose constraint matrices
:meth:`_RecoverySystem.rows` reads off the same block map, one column of M
per svec basis matrix of J), and the tests that compare against them.
That reference route (``solve``, the builders, :class:`Constraint`,
:class:`ConicProblem` and ``_affine_solutions``) lives in
:mod:`vqmc._reference`, which this module imports on the first access to
one of those names, so no recovery answer pays for loading it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linops, markov
from .registers import (TRACE_ATOL, ChoiOperator, DensityOperator, _acted_on, _output_trace,
                        _permuted, partial_trace)

OPTIMAL = "OPTIMAL"
FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
MAX_ITER = "MAX_ITER"

_SQRT2 = math.sqrt(2.0)

# The reference route's names, served from vqmc._reference on first access.
_REFERENCE = ("Constraint", "ConicProblem", "_affine_solutions", "solve",
              "build_cptp_feasibility", "build_overhead_problem")


def __getattr__(name: str):
    if name not in _REFERENCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _reference

    value = globals()[name] = getattr(_reference, name)
    return value


class ProblemFormatError(ValueError):
    """Raised for undeclared variables, bad dimensions, or non-Hermitian data."""


# ---------------------------------------------------------------------------
# Hermitian <-> real vectorization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _triu(dim: int):
    iu, ju = np.triu_indices(dim, k=1)
    return iu, ju


def svec(matrix: np.ndarray) -> np.ndarray:
    """Real vectorization of a Hermitian matrix, inner-product preserving.

    A stack of matrices (last two axes) gives the stack of their vectors.
    """
    iu, ju = _triu(matrix.shape[-1])
    upper = matrix[..., iu, ju]
    return np.concatenate(
        [np.diagonal(matrix, axis1=-2, axis2=-1).real, _SQRT2 * upper.real, _SQRT2 * upper.imag],
        axis=-1,
    )


def unsvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`svec`, also on a stack of vectors (last axis)."""
    iu, ju = _triu(dim)
    m = iu.size
    matrix = np.zeros(vector.shape[:-1] + (dim, dim), dtype=complex)
    matrix[..., np.arange(dim), np.arange(dim)] = vector[..., :dim]
    upper = (vector[..., dim : dim + m] + 1j * vector[..., dim + m :]) / _SQRT2
    matrix[..., iu, ju] = upper
    matrix[..., ju, iu] = upper.conj()
    return matrix


@lru_cache(maxsize=None)
def _traceless_basis(dim: int) -> np.ndarray:
    """Read-only orthonormal stack of dim**2 - 1 traceless Hermitian dim x dim matrices."""
    basis = unsvec(np.linalg.svd(svec(np.eye(dim))[None])[2][1:], dim)
    basis.setflags(write=False)
    return basis


def _kron_traceless(inputs: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal svec columns N (x) H: N of the orthonormal 2 x 2 ``inputs``, H traceless."""
    products = np.einsum("kdc,mop->kmdocp", inputs, _traceless_basis(n))
    return svec(products.reshape(-1, 2 * n, 2 * n)).T


def _hermitian_part(matrix: np.ndarray) -> np.ndarray:
    return (matrix + np.swapaxes(matrix, -1, -2).conj()) / 2


# ---------------------------------------------------------------------------
# Solution container and solver settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConicSolution:
    status: str
    objective_value: float | None
    block_values: dict
    scalar_values: dict
    primal_residual: float
    min_eigenvalue: float
    iterations: int
    debug: dict | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "objective_value": self.objective_value,
            "scalar_values": dict(self.scalar_values),
            "primal_residual": self.primal_residual,
            "min_eigenvalue": self.min_eigenvalue,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class SolverConfig:
    """Verdict tolerances and the interior point's Newton-step cap.

    ``eps_feasible < eps_infeasible`` is required: residuals between the two
    are reported as undetermined (MAX_ITER) rather than forced into a
    verdict.
    """

    eps_feasible: float = 1e-7
    eps_psd: float = 1e-9
    eps_infeasible: float = 1e-5
    max_iterations: int = 50000

    def __post_init__(self):
        tolerances = (self.eps_feasible, self.eps_psd, self.eps_infeasible)
        if not all(math.isfinite(eps) and eps > 0 for eps in tolerances):
            raise ValueError(f"tolerances must be finite and positive, got {tolerances}")
        if self.eps_feasible >= self.eps_infeasible:
            raise ValueError("eps_feasible must be smaller than eps_infeasible")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")

    def verdict(self, residual: float) -> str:
        """FEASIBLE up to ``eps_feasible``, INFEASIBLE above ``eps_infeasible``,
        MAX_ITER (undetermined) in between."""
        if residual <= self.eps_feasible:
            return FEASIBLE
        return INFEASIBLE if residual > self.eps_infeasible else MAX_ITER

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def _maxabs(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


# Stop when the complementarity gap is below this fraction of max(1, |objective|).
_GAP_TOL = 1e-10
# Fraction of the step to the boundary of the cone that a Newton step takes.
_STEP_FRACTION = 0.98
# Relative eigenvalue cut-off of the Schur matrix.
_SCHUR_RCOND = 1e-15
# Give up (MAX_ITER) when the gap has not halved over this many Newton steps.
_STALL_STEPS = 5
# The settings of every call that passes no config.
_DEFAULT_CONFIG = SolverConfig()


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product Re Tr(a' b)."""
    return float(np.vdot(a, b).real)


def _inverse_factor(matrix: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L L' of a positive definite matrix."""
    return np.linalg.inv(np.linalg.cholesky(matrix))


def _step_to_boundary(inverse_factor: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha keeping L L' + alpha D PSD, given L^-1."""
    lowest = float(np.linalg.eigvalsh(inverse_factor @ direction @ inverse_factor.conj().T)[0])
    return math.inf if lowest >= 0 else -1.0 / lowest


def _interior_point(offsets, columns, cost, v, constant, config, limit=-math.inf):
    """Minimize constant + cost . v  s.t.  S_k = offset_k + unsvec(col_k v) >= 0.

    ``offsets`` are Hermitian matrices, ``columns`` the real svec columns of
    each cone's coefficient matrices over v, and ``v`` must be strictly
    feasible. The dual is

        maximize constant - sum_k <Z_k, offset_k>  s.t.  Z_k >= 0,
                                                         sum_k col_k' svec(Z_k) = cost.

    A primal-dual path-following method runs from v and Z_k = I/2: HKM
    direction (Helmberg-Rendl-Vanderbei-Wolkowicz), Mehrotra
    predictor-corrector, one refinement step on each Newton solve, and
    ``config.max_iterations`` Newton steps at most. The primal stays
    feasible; the dual reaches feasibility along the way. OPTIMAL when the
    complementarity gap sum_k <Z_k, S_k> is at most ``_GAP_TOL``
    max(1, |objective|); FEASIBLE at the first iterate whose objective is
    below ``limit``; MAX_ITER at the cap, when a cone factorization fails,
    or when the gap has stalled.

    Returns ``(status, v, slacks, duals, iterations, gaps)``, with the gap
    before each Newton step in ``gaps``.
    """
    dims = [offset.shape[0] for offset in offsets]
    order = sum(dims)
    coefficients = [unsvec(col.T, dim) for col, dim in zip(columns, dims)]

    def lift(v):
        return [unsvec(col @ v, dim) for col, dim in zip(columns, dims)]

    def adjoint(blocks):
        return sum(col.T @ svec(block) for col, block in zip(columns, blocks))

    duals = [np.eye(dim) / 2 for dim in dims]
    status, iterations, gaps = MAX_ITER, 0, []
    while True:
        slacks = [offset + term for offset, term in zip(offsets, lift(v))]
        objective = constant + float(cost @ v)
        if objective < limit:
            status = FEASIBLE
            break
        gap = sum(_inner(z, s) for z, s in zip(duals, slacks))
        if gap <= _GAP_TOL * max(1.0, abs(objective)):
            status = OPTIMAL
            break
        gaps.append(gap)
        if iterations >= config.max_iterations or (
            iterations >= _STALL_STEPS and gap > gaps[-1 - _STALL_STEPS] / 2
        ):
            break
        try:
            inverse_slacks = [_inverse_factor(s) for s in slacks]
            inverse_duals = [_inverse_factor(z) for z in duals]
        except np.linalg.LinAlgError:
            break
        s_inv = [f.conj().T @ f for f in inverse_slacks]
        schur = sum(
            col.T @ svec(_hermitian_part(z @ coef @ si)).T
            for col, coef, z, si in zip(columns, coefficients, duals, s_inv)
        )
        # Near the optimum the Schur matrix is singular up to rounding along
        # moves within a non-unique optimal face, which cost nothing: solve
        # on its numerically nonsingular eigenspace only.
        w, u = np.linalg.eigh((schur + schur.T) / 2)
        keep = w > _SCHUR_RCOND * w[-1]
        u, w = u[:, keep], w[keep]
        residual = cost - adjoint(duals)

        def direction(sigma_mu, corrections):
            # dZ_k = base_k - herm(Z_k dS_k S_k^-1), with dv chosen so that
            # <A, dZ> = residual; one refinement step on the Schur solve
            base = [sigma_mu * si - z - c for si, z, c in zip(s_inv, duals, corrections)]

            def slack_and_dual(dv):
                ds = lift(dv)
                return ds, [b - _hermitian_part(z @ d @ si)
                            for b, z, d, si in zip(base, duals, ds, s_inv)]

            dv = u @ (u.T @ (adjoint(base) - residual) / w)
            _, dz = slack_and_dual(dv)
            dv = dv - u @ (u.T @ (residual - adjoint(dz)) / w)
            return (dv, *slack_and_dual(dv))

        def steps(ds, dz, fraction):
            alpha_p = min(_step_to_boundary(f, d) for f, d in zip(inverse_slacks, ds))
            alpha_d = min(_step_to_boundary(f, d) for f, d in zip(inverse_duals, dz))
            return min(1.0, fraction * alpha_p), min(1.0, fraction * alpha_d)

        mu = gap / order
        _, ds, dz = direction(0.0, [0.0] * len(dims))
        alpha_p, alpha_d = steps(ds, dz, 1.0)
        mu_affine = sum(
            _inner(z + alpha_d * dzk, s + alpha_p * dsk)
            for z, s, dzk, dsk in zip(duals, slacks, dz, ds)
        ) / order
        corrections = [_hermitian_part(dzk @ dsk @ si) for dzk, dsk, si in zip(dz, ds, s_inv)]
        dv, ds, dz = direction((mu_affine / mu) ** 3 * mu, corrections)
        alpha_p, alpha_d = steps(ds, dz, _STEP_FRACTION)
        v = v + alpha_p * dv
        duals = [_hermitian_part(z + alpha_d * dzk) for z, dzk in zip(duals, dz)]
        iterations += 1
    return status, v, slacks, duals, iterations, gaps


# ---------------------------------------------------------------------------
# The recovery system of one (marginal, target) pair
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tp_compatible_basis(choi_dim: int) -> np.ndarray:
    """Read-only orthonormal svec basis (columns) of {X : Tr_out X = (Tr X / 2) I_2}.

    X = A (x) I / n + sum_m A_m (x) H_m (H_m traceless on the n outputs) has
    Tr_out X = A, so A is a multiple of I: span I / sqrt(choi_dim) and all A_m (x) H_m.
    """
    identity = svec(np.eye(choi_dim))[:, None] / math.sqrt(choi_dim)
    basis = np.hstack([identity, _kron_traceless(unsvec(np.eye(4), 2), choi_dim // 2)])
    basis.setflags(write=False)
    return basis


class _RecoverySystem:
    """One (marginal, target) pair, validated once, and what both recovery
    questions ask of it.

    The pair fixes the layout: the map acts on ``act_on`` and creates the
    extension ``ext`` right after it (:func:`registers._acted_on`).
    Construction checks that the target has unit trace (within
    ``registers.TRACE_ATOL``) and that Tr_ext of it is the marginal, and groups
    the marginal as (rest, C) and the target as (rest, C, ext), the order in
    which the map produces it, with C = ``act_on``.
    Computed on first use and kept: ``petz``, the Petz map's verified
    certificate from Tr_rest of the grouped target, and the block solve of
    M svec(J) = b below: its min-norm least-squares solution x_ls as the
    matrix ``choi_ls``, with ``ls_gap`` = b - M x_ls, its max ``ls_residual``
    and ``ls_min_eigenvalue`` for both questions, and its null space, of
    dimension ``nullity``, with the orthonormal svec basis ``null_basis``
    (columns) for the interior point. :meth:`gap`, the block map, states M;
    :meth:`residual` measures any J by it, :meth:`rows` reads M's rows off it
    for the reference builders, and :meth:`certificate` verifies certificates.

    The first four rows of M are trace preservation, Tr_out J = I with
    b = svec(I_2); the rest are the entrywise reconstruction of the target
    from the marginal, with b = the target's svec.

    Write J in 2 x 2 blocks J_op[d, c] = J[(d, o), (c, p)] over the outputs
    o, p < n. The fit rows say R(J_op) = T_op, the (o, p) block of the target,
    with R(X)[a, b] = sum_{c,d} rho[(a, d), (b, c)] X[d, c] on the grouped
    marginal; the trace-preservation rows say sum_o J_oo = I. On vec
    coordinates R is the complex rest^2 x 4 matrix R[(a, b), (d, c)] =
    rho[(a, d), (b, c)]. As svec is an isometry and R(X') = R(X)', the
    Hermitian least squares is the complex one, whose min-norm solution is
    Hermitian: the off-diagonal blocks are independent least-squares
    problems in R. An orthogonal transform over o whose first
    row is 1/sqrt(n) separates the diagonal blocks: their deviations from
    the mean solve against R, the mean m against [R; sqrt(n) I], i.e.
    (R'R + n I) m = R' mean + vec(I). The singular values of M are thus
    those of R, each n^2 - 1 times, and sqrt(s^2 + n) of the mean, so ranks
    are cut at 1e-12 times the largest of these, as a dense SVD of M cuts
    them, and the null space of M is {N (x) H : R(N) = 0, N and H Hermitian,
    H traceless}.
    """

    def __init__(self, marginal: DensityOperator, target: DensityOperator):
        act_on, ext = _acted_on(marginal.labels, target.labels)
        # the tolerances are absolute, so a verdict on a rescaled pair would depend on the scale
        if abs(target.trace() - 1.0) > TRACE_ATOL:
            raise ValueError(f"target has trace {target.trace()!r}, not 1; the recovery "
                             "questions are asked of a normalized state")
        order = [lab for lab in marginal.labels if lab != act_on] + [act_on]
        grouped = _permuted(marginal.matrix, marginal.labels, order)
        self._target = _permuted(target.matrix, target.labels, order + list(ext))
        self._n = n = 2 ** (1 + len(ext))
        traced = self._target.reshape(marginal.dim, n // 2, marginal.dim, n // 2)
        gap = _maxabs(np.trace(traced, axis1=1, axis2=3) - grouped)
        if gap > 1e-10:
            raise ValueError(
                f"marginal is not the partial trace of the target over {ext} "
                f"(max deviation {gap:.3e}); refusing to build a vacuously "
                "infeasible problem"
            )
        self.marginal, self.target, self.ext = marginal, target, ext
        self._rest = rest = marginal.dim // 2
        self._fit = grouped.reshape(rest, 2, rest, 2).transpose(0, 2, 1, 3).reshape(-1, 4)

    def certificate(self, choi: np.ndarray, cp: bool):
        """``(ChoiOperator, residual)`` of a Choi matrix on act_on -> (act_on, ext),
        with the residual from the independent :func:`markov.verify_recovery`."""
        operator = ChoiOperator(matrix=choi, extension_labels=self.ext, cp_flag=cp)
        return operator, markov.verify_recovery(self.target, self.marginal, operator)

    @cached_property
    def petz(self):
        """The Petz map's ``(ChoiOperator, residual)``, which no tolerance affects."""
        rest = self._rest
        rho_out = np.trace(self._target.reshape(rest, self._n, rest, self._n), axis1=0, axis2=2)
        return self.certificate(_petz_choi(rho_out, _output_trace(rho_out)), cp=True)

    @cached_property
    def _factored(self):
        """``(u, s, vt, rank)``: the SVD of the fit matrix R."""
        u, s, vt = np.linalg.svd(self._fit, full_matrices=len(self._fit) < 4)
        rank = int((s > 1e-12 * math.sqrt(s[0] ** 2 + self._n)).sum())
        return u, s, vt, rank

    @property
    def nullity(self) -> int:
        """The dimension (n^2 - 1) dim null(R) of the null space of M."""
        return (self._n ** 2 - 1) * (4 - self._factored[3])

    @cached_property
    def null_basis(self) -> np.ndarray:
        vt, rank = self._factored[2:]
        # R(X') = R(X)': the Hermitian parts of the null vectors X and -iX span the
        # Hermitian null space, whose projector is the sum of their svec outer products
        vectors = vt[rank:].conj().reshape(-1, 2, 2)
        parts = svec(np.concatenate([_hermitian_part(vectors), _hermitian_part(-1j * vectors)]))
        hermitian = unsvec(np.linalg.eigh(parts.T @ parts)[1][:, rank:].T, 2)
        return _kron_traceless(hermitian, self._n)

    @cached_property
    def choi_ls(self) -> np.ndarray:
        u, s, vt, rank = self._factored
        rest, n = self._rest, self._n
        # vec coordinates of the target's blocks T_op[a, b] = T[(a, o), (b, p)],
        # row n o + p, so that rows :: n + 1 are the diagonal blocks
        targets = self._target.reshape(rest, n, rest, n).transpose(1, 3, 0, 2).reshape(n * n, -1)
        # the pseudo-inverse of R, transposed to act on rows of coordinates
        pinv = ((u[:, :rank] / s[:rank]) @ vt[:rank]).conj()
        blocks = targets @ pinv
        diagonal = targets[:: n + 1]
        mean = diagonal.mean(axis=0)
        # (R'R + n I) m = R' mean + vec(I): m is I / n plus a damped fit of the rest
        identity = np.eye(2).reshape(4) / n
        damped = s / (s ** 2 + n) * (u.conj().T @ (mean - self._fit @ identity))
        mean_block = identity + vt[:len(s)].conj().T @ damped
        # in exact arithmetic the deviations sum to zero; re-centre them so that
        # rounding, amplified by 1 / sigma_min(R), cannot break Tr_out J = I
        deviations = (diagonal - mean) @ pinv
        blocks[:: n + 1] = deviations - deviations.mean(axis=0) + mean_block
        choi = blocks.reshape(n, n, 2, 2).transpose(2, 0, 3, 1).reshape(2 * n, 2 * n)
        return _hermitian_part(choi)

    def _image(self, choi: np.ndarray) -> np.ndarray:
        """The extension the Choi matrix J makes of the marginal, R on each block."""
        rest, n = self._rest, self._n
        blocks = choi.reshape(2, n, 2, n).transpose(1, 3, 0, 2).reshape(n * n, 4)
        image = (self._fit @ blocks.T).reshape(rest, rest, n, n).transpose(0, 2, 1, 3)
        return image.reshape(self._target.shape)

    def gap(self, choi: np.ndarray) -> np.ndarray:
        """b - M svec(J) for the Choi matrix J, applied block by block."""
        return np.concatenate([svec(np.eye(2) - _output_trace(choi)),
                               svec(self._target - self._image(choi))])

    def rows(self):
        """The rows of M as (Hermitian G, rhs) pairs, <G, J> the row applied to
        svec(J), read off the block map: b = gap(0), column j of M is
        b - gap(E_j) at the svec basis matrix E_j of J, and G = unsvec(M[i]).

        Returns ``(choi_dim, tp_rows, fit_rows)``.
        """
        dim = 2 * self._n
        rhs = self.gap(np.zeros((dim, dim)))
        matrix = rhs[:, None] - np.array([self.gap(e) for e in unsvec(np.eye(dim * dim), dim)]).T
        rows = list(zip(unsvec(matrix, dim), rhs.tolist()))
        return dim, rows[:4], rows[4:]

    @cached_property
    def ls_gap(self) -> np.ndarray:
        """b - M x_ls, the least-squares residual."""
        return self.gap(self.choi_ls)

    @cached_property
    def ls_residual(self) -> float:
        return _maxabs(self.ls_gap)

    @cached_property
    def ls_min_eigenvalue(self) -> float:
        """min(0, lambda_min(J_ls)), the least-squares answer's ``min_eigenvalue``."""
        return min(0.0, float(np.linalg.eigvalsh(self.choi_ls)[0]))

    def residual(self, choi: np.ndarray) -> float:
        """max |M svec(J) - b|."""
        return _maxabs(self.gap(choi))


@dataclass(frozen=True)
class OverheadResult:
    """Outcome of the sampling-overhead minimization.

    ``nu`` is log2 of the optimal c1 + c2, or +inf when no
    Hermitian-preserving recovery exists at all. The Choi difference J1 - J2
    carries the recovered quasiprobability map, and
    ``certificate_residual`` re-verifies it through the independent channel
    application path.
    """

    status: str
    nu: float
    c1: float | None = None
    c2: float | None = None
    choi_difference: ChoiOperator | None = None
    certificate_residual: float | None = None
    solution: ConicSolution | None = None

    def __post_init__(self):
        if math.isfinite(self.nu):
            if self.c1 is None or self.c2 is None:
                raise ValueError("finite overhead requires c1 and c2")
            if self.c1 < -1e-9 or self.c2 < -1e-9:
                raise ValueError(f"channel weights must be nonnegative: c1={self.c1}, c2={self.c2}")
            if abs(self.c1 - self.c2 - 1.0) > 1e-7:
                raise ValueError(
                    f"trace preservation forces c1 - c2 = 1, got {self.c1 - self.c2}"
                )
            if self.nu < -1e-9:
                raise ValueError(f"overhead cannot be negative, got nu={self.nu}")

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "nu": self.nu,
            "c1_plus_c2": None if self.c1 is None else self.c1 + self.c2,
            "c1": self.c1,
            "c2": self.c2,
            "certificate_residual": self.certificate_residual,
        }


def _petz_choi(rho_out: np.ndarray, rho_in: np.ndarray) -> np.ndarray:
    """Choi matrix of the Petz recovery map of Tr_ext with reference rho_{C,ext}.

    ``rho_out`` is rho_{C,ext}, the target traced over the rest, and
    ``rho_in`` is rho_C = Tr_ext rho_{C,ext}. R(X) = S (K X K (x) I_ext) S
    with S = rho_{C,ext}^(1/2) and K = rho_C^(-1/2) on the support of rho_C;
    inputs on its kernel are sent to the maximally mixed output, which keeps
    R trace preserving.
    """
    out_dim = rho_out.shape[0]
    w, v = linops.eigh(rho_out)
    sqrt_out = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    w, v, threshold = linops._eigen_split(linops.hermitian_part(rho_in), linops.DEFAULT_REL_TOL)
    support = w > threshold
    inv_sqrt_in = (v[:, support] / np.sqrt(w[support])) @ v[:, support].conj().T
    kernel = v[:, ~support] @ v[:, ~support].conj().T
    # R(|c><d|) = M' (|c><d| (x) I_ext) M with M = (K (x) I_ext) S
    m = (_kron(inv_sqrt_in, np.eye(out_dim // 2)) @ sqrt_out).reshape(2, out_dim // 2, out_dim)
    choi = np.einsum("ceo,dep->codp", m.conj(), m).reshape(2 * out_dim, 2 * out_dim)
    choi = choi + _kron(kernel.T, np.eye(out_dim) / out_dim)
    # Tr_out J is I up to rounding that K amplifies when rho_C is nearly
    # singular; the congruence by its inverse square root restores exact TP
    w, v = np.linalg.eigh(_output_trace(choi))
    fix = _kron((v / np.sqrt(w)) @ v.conj().T, np.eye(out_dim))
    return fix @ choi @ fix


def _solution(status: str, objective: float | None, blocks: dict, scalars: dict,
              residual: float, debug: dict, iterations: int = 0) -> ConicSolution:
    """A ConicSolution whose min eigenvalue is read off the blocks."""
    eig = min([0.0, *(float(np.linalg.eigvalsh(block)[0]) for block in blocks.values())])
    return ConicSolution(
        status=status,
        objective_value=None if status == INFEASIBLE else objective,
        block_values=blocks,
        scalar_values=scalars,
        primal_residual=residual,
        min_eigenvalue=eig,
        iterations=iterations,
        debug=debug,
    )


def _split_solution(system: _RecoverySystem, status: str, j1: np.ndarray, j2: np.ndarray,
                    method: str, lower_bound: float, iterations: int) -> ConicSolution:
    """The ConicSolution of a split J1 - J2 with c2 = Tr J2 / 2, c1 = 1 + c2,
    objective c1 + c2 and the dual ``lower_bound`` it is certified against."""
    c2 = float(np.trace(j2).real) / 2
    c1 = 1.0 + c2
    # by weak duality only rounding can lift the bound above c1 + c2
    lower_bound = min(lower_bound, c1 + c2)
    return _solution(
        status, c1 + c2, {"J1": j1, "J2": j2}, {"c1": c1, "c2": c2},
        system.residual(j1 - j2),
        {"method": method, "lower_bound": lower_bound, "gap": c1 + c2 - lower_bound},
        iterations,
    )


def _reduced_overhead(system: _RecoverySystem, config: SolverConfig | None = None):
    """Minimal c1 + c2 over the splits of the recovery system's solutions.

    With x_ls and N = ``system.null_basis`` from the block solve of
    :class:`_RecoverySystem` and G the basis of :func:`_tp_compatible_basis`,
    J = unsvec(x_ls + N y) runs over the solutions of M svec(J) = b and
    J2 = unsvec(G w) over the Choi matrices with Tr_out J2 = c2 I,
    c2 = Tr J2 / 2. Then J1 = J + J2 has
    Tr_out J1 = (1 + c2) I, and the overhead SDP becomes

        minimize 1 + Tr J2  over (w, y)  s.t.  S1 = J2 >= 0,  S2 = J + J2 >= 0,

    with the dual

        maximize 1 - <Z2, J>  s.t.  Z1, Z2 >= 0,  <Z1 + Z2, G_i> = Tr G_i,
                                    <Z2, N_j> = 0.

    J2 = s I with s = 1 - min(0, lambda_min(J_ls)) is strictly feasible, and
    :func:`_interior_point` solves from there: OPTIMAL when it converges,
    MAX_ITER when it does not. The caller has ruled out a least-squares
    residual above ``eps_feasible`` (the dead zone). The final dual point,
    repaired to exact feasibility, certifies ``debug["lower_bound"]`` <=
    every feasible c1 + c2; ``debug["gap"]`` is c1 + c2 minus it.

    Returns ``(solution, J, (Z1, Z2))`` with the repaired dual point.
    """
    cfg = config or _DEFAULT_CONFIG
    choi_ls = system.choi_ls
    dim = choi_ls.shape[0]
    basis = _tp_compatible_basis(dim)
    null = system.null_basis
    identity = np.eye(dim)
    # svec columns of each cone's coefficient matrices over v = (w, y)
    columns = (np.hstack([basis, np.zeros_like(null)]), np.hstack([basis, null]))
    offsets = (np.zeros_like(choi_ls), choi_ls)
    cost = np.concatenate([basis.T @ svec(identity), np.zeros(null.shape[1])])
    start = 1.0 - system.ls_min_eigenvalue
    v = np.concatenate([basis.T @ svec(start * identity), np.zeros(null.shape[1])])
    status, v, slacks, duals, iterations, _ = _interior_point(offsets, columns, cost, v, 1.0, cfg)

    n_w = basis.shape[1]
    choi = choi_ls + unsvec(null @ v[n_w:], dim)
    # exact stationarity: project Z2 off N, put the remaining residual on Z1,
    # then shift both blocks into the cone and rescale
    z2 = duals[1] - unsvec(null @ (null.T @ svec(duals[1])), dim)
    z1 = duals[0] + unsvec(basis @ (cost[:n_w] - basis.T @ svec(duals[0] + z2)), dim)
    shifts = [max(0.0, -float(np.linalg.eigvalsh(z)[0])) for z in (z1, z2)]
    certified = [(z + t * identity) / (1.0 + sum(shifts)) for z, t in zip((z1, z2), shifts)]
    lower_bound = 1.0 - _inner(certified[1], choi)

    j2, j1 = slacks
    return _split_solution(system, status, j1, j2, "interior_point", lower_bound,
                           iterations), choi, certified


# ---------------------------------------------------------------------------
# Overhead of a unique extension from its three-parameter dual
# ---------------------------------------------------------------------------

# Pauli matrices: Y = r . sigma runs over the traceless Hermitian 2 x 2 matrices.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)
# Newton steps of the dual route before it leaves the state to _reduced_overhead.
_DUAL_STEPS = 40
# Loss of f, relative to max(1, f), that a line search forgives as rounding.
_ROUNDING = 1e-14


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, without its generic overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _bloch(r: np.ndarray) -> np.ndarray:
    """r . sigma."""
    return (r @ _PAULI.reshape(3, 4)).reshape(2, 2)


def _weighted_gram(e: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Re sum_ij weights_ij e[k, i, j] conj(e[l, i, j]) for weights >= 0."""
    scaled = (e * np.sqrt(weights)).reshape(len(e), -1)
    return (scaled @ scaled.conj().T).real


def _ball_point(choi: np.ndarray, r: np.ndarray):
    """The dual function at |r| < 1, with its gradient and Hessian in r.

    f = Tr[(W^1/2 J W^1/2)_-] for W = (I + r . sigma) (x) I. With V the
    eigenvectors and w the eigenvalues of W^1/2 J W^1/2, M = W^-1/2 V has
    M' W M = I and J = M diag(w) M', and a change dW turns w into the
    eigenvalues of diag(w) (I + E), E = M' dW M. So f gains <dW, Lambda>
    with Lambda = M diag(w_-) M' = W^-1/2 (W^1/2 J W^1/2)_- W^-1/2, and
    loses sum over w_i < 0 <= w_j of |w_i| w_j / (|w_i| + w_j) |E_ij|^2.

    Returns ``(f, gradient, hessian, (Z1, Z2), Lambda)``: the dual point
    Z2 = W^1/2 P_- W^1/2, Z1 = W - Z2 attains f, and the split Lambda has
    Lambda >= 0, J + Lambda = W^-1/2 (W^1/2 J W^1/2)_+ W^-1/2 >= 0.
    """
    n = len(choi) // 2
    w, u = np.linalg.eigh(np.eye(2) + _bloch(r))
    root, inverse_root = (_kron((u * w ** p) @ u.conj().T, np.eye(n)) for p in (0.5, -0.5))
    w, v = np.linalg.eigh(root @ choi @ root)
    neg = w < 0
    m = inverse_root @ v
    m_neg = m[:, neg]
    split = (m_neg * -w[neg]) @ m_neg.conj().T
    gradient = (_PAULI.reshape(3, 4) @ _output_trace(split).T.reshape(4)).real
    moved = (_PAULI @ m[:, ~neg].reshape(2, -1)).reshape(3, 2 * n, -1)  # (sigma_k (x) I) M
    weights = -w[neg][:, None] * w[~neg] / (w[~neg] - w[neg][:, None])
    hessian = -2.0 * _weighted_gram(m_neg.conj().T @ moved, weights)
    sides = root @ v
    duals = tuple(sides[:, side] @ sides[:, side].conj().T for side in (~neg, neg))
    return -float(w[neg].sum()), gradient, hessian, duals, split


def _sphere_point(choi: np.ndarray, r: np.ndarray):
    """The dual function at |r| = 1, with its gradient and Hessian in r in R^3.

    There I + r . sigma = 2 psi psi' and f = 2 Tr (J_psi)_- with
    J_psi = (psi' (x) I) J (psi (x) I) = sum_cd (psi psi')_dc J_cd, which is
    affine in r. Z2 = 2 psi psi' (x) P_- and Z1 = 2 psi psi' (x) P_+ attain
    f, with P_-+ the spectral projectors of J_psi. Complementary slackness
    fixes the split in the (psi, psi_perp) (x) I basis: A = (J_psi)_-,
    B = -P_- J_psi,perp and D = L1 + (L2 - L1)_+, the least trace with
    D >= L1 = B' A^+ B (J2 >= 0) and
    D >= L2 = J_perp,psi (J_psi)_+^+ J_psi,perp - J_perp,perp (J + J2 >= 0).

    Returns ``(f, gradient, hessian, (Z1, Z2), split)`` like :func:`_ball_point`.
    """
    n = len(choi) // 2
    _, u = np.linalg.eigh(np.eye(2) + _bloch(r))
    frame = _kron(u[:, ::-1], np.eye(n))  # psi (x) I, then psi_perp (x) I
    blocks = (frame.conj().T @ choi @ frame).reshape(2, n, 2, n)
    own, cross, perp = blocks[0, :, 0], blocks[0, :, 1], blocks[1, :, 1]
    mu, v = np.linalg.eigh(own)
    neg, pos = mu < 0, mu > 0
    # J_psi moves by sum_k dr_k J_k, J_k = sum_cd (sigma_k / 2)_dc J_cd
    moves = v.conj().T @ np.einsum("kdc,codp->kop", _PAULI / 2, choi.reshape(2, n, 2, n)) @ v
    gradient = -2.0 * np.einsum("kii->k", moves[:, neg][:, :, neg]).real
    hessian = 4.0 * _weighted_gram(moves[:, neg][:, :, ~neg], 1.0 / (mu[~neg] - mu[neg][:, None]))
    psi = np.outer(u[:, 1], u[:, 1].conj())
    duals = tuple(2.0 * _kron(psi, v[:, side] @ v[:, side].conj().T) for side in (~neg, neg))

    x, y = v[:, neg].conj().T @ cross, v[:, pos].conj().T @ cross
    l1 = x.conj().T @ (x / -mu[neg][:, None])
    l2 = y.conj().T @ (y / mu[pos][:, None]) - perp
    dw, dv = np.linalg.eigh(_hermitian_part(l2 - l1))
    corner = np.block([
        [(v[:, neg] * -mu[neg]) @ v[:, neg].conj().T, -v[:, neg] @ x],
        [-x.conj().T @ v[:, neg].conj().T, l1 + (dv * np.maximum(dw, 0.0)) @ dv.conj().T],
    ])
    return -2.0 * float(mu[neg].sum()), gradient, hessian, duals, frame @ corner @ frame.conj().T


def _ascent_direction(gradient: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """The Newton step of a concave model, or the gradient where the Hessian
    is not negative definite."""
    w, u = np.linalg.eigh(hessian)
    if w[-1] < 0:
        return u @ ((u.T @ gradient) / -w)
    return gradient


def _line_search(evaluate, move, value: float, slope: float):
    """Backtracking from the full step: the first t = 1, 1/2, ... whose point
    gains 1e-4 t slope over ``value``, up to rounding. Returns ``(r, point)``,
    or ``(None, None)`` when the step is too short to matter."""
    t = 1.0
    while t > 1e-10:
        r = move(t)
        point = evaluate(r)
        if point[0] >= value + 1e-4 * t * slope - _ROUNDING * max(1.0, value):
            return r, point
        t /= 2
    return None, None


def _dual_overhead(system: _RecoverySystem):
    """Minimal c1 + c2 for a unique solution J from the dual over the Bloch ball.

    With a trivial null space the dual of :func:`_reduced_overhead` forces
    Z1 + Z2 = W = (I + Y) (x) I with Y = r . sigma, |r| <= 1, and for fixed
    W its maximum is f = Tr[(W^1/2 J W^1/2)_-], a concave function of r:
    c1 + c2 = 1 + max f. Safeguarded Newton steps climb f from r = 0
    (:func:`_ball_point`). When a full step would leave the ball, the sphere
    is tried once by a Newton ascent over psi (:func:`_sphere_point`), and
    the ball steps go on at most ``_STEP_FRACTION`` of the way to the sphere.

    Every point certifies both bounds: 1 - <Z2, J> from below, and from
    above 1 + Tr J2, where J2 is the point's split made TP compatible,
    J2 + (c I - Tr_out J2) (x) I / n with c = lambda_max(Tr_out J2), then
    shifted by the multiple of I that makes J2 and J + J2 PSD by their
    computed eigenvalues. OPTIMAL, with the best of each and
    ``debug == {"method": "dual", "lower_bound": ..., "gap": ...}``, once
    they meet within ``_GAP_TOL`` max(1, c1 + c2).

    Returns ``(solution, J, (Z1, Z2))`` like :func:`_reduced_overhead`, or
    None when the bounds have not met after ``_DUAL_STEPS`` Newton steps.
    """
    choi = system.choi_ls
    dim = len(choi)
    n = dim // 2
    best = {"lower": -math.inf, "upper": math.inf}
    steps = 0

    def closed(point) -> bool:
        duals, split = point[3:]
        lower = 1.0 - _inner(duals[1], choi)
        if lower > best["lower"]:
            best.update(lower=lower, duals=duals)
        traced = _output_trace(split)
        j2 = _hermitian_part(split + _kron(
            np.linalg.eigvalsh(traced)[-1] * np.eye(2) - traced, np.eye(n) / n))
        shift = max(0.0, -np.linalg.eigvalsh(j2)[0], -np.linalg.eigvalsh(choi + j2)[0])
        j2 = j2 + shift * np.eye(dim)
        upper = 1.0 + float(np.trace(j2).real)
        if upper < best["upper"]:
            best.update(upper=upper, j2=j2)
        return best["upper"] - best["lower"] <= _GAP_TOL * max(1.0, best["upper"])

    def sphere_ascent(r) -> bool:
        nonlocal steps
        point = _sphere_point(choi, r)
        while not closed(point):
            if steps >= _DUAL_STEPS:
                return False
            gradient, hessian = point[1:3]
            tangent = np.linalg.svd(r[None])[2][1:].T
            slope = tangent.T @ gradient
            if np.linalg.norm(slope) <= _ROUNDING * max(1.0, point[0]):
                return False  # the best psi, but the optimum lies inside the ball
            d = tangent @ _ascent_direction(
                slope, tangent.T @ hessian @ tangent - (r @ gradient) * np.eye(2))
            length = float(np.linalg.norm(d))
            if not length:
                return False
            d = d * min(1.0, math.pi / 2 / length)
            length = min(length, math.pi / 2)

            def along(t, r=r, d=d, length=length):
                q = math.cos(t * length) * r + math.sin(t * length) * d / length
                return q / np.linalg.norm(q)

            r, point = _line_search(lambda q: _sphere_point(choi, q), along,
                                    point[0], float(slope @ (tangent.T @ d)))
            if point is None:
                return False
            steps += 1
        return True

    r = np.zeros(3)
    point = _ball_point(choi, r)
    sphere_tried = False
    while not closed(point):
        if steps >= _DUAL_STEPS or r @ r > 1.0 - 1e-12:
            return None  # out of steps, or too close to the sphere to evaluate f
        gradient, hessian = point[1:3]
        step = _ascent_direction(gradient, hessian)
        # the largest t with |r + t step| <= 1
        a, b, c = step @ step, r @ step, r @ r - 1.0
        if not a:
            return None  # a kink: the gradient vanishes short of the optimum
        reach = (-b + math.sqrt(b * b - a * c)) / a
        if reach <= 1.0 and not sphere_tried:
            sphere_tried = True
            if sphere_ascent((r + step) / np.linalg.norm(r + step)):
                break
        scale = min(1.0, _STEP_FRACTION * reach)

        def along(t, r=r, step=step, scale=scale):
            return r + t * scale * step

        r, point = _line_search(lambda q: _ball_point(choi, q), along, point[0],
                                scale * float(gradient @ step))
        if point is None:
            return None
        steps += 1

    j2 = best["j2"]
    return _split_solution(system, OPTIMAL, choi + j2, j2, "dual", best["lower"],
                           steps), choi, best["duals"]


# The last pair's system; it holds only data that no SolverConfig affects.
_last_system: _RecoverySystem | None = None


def _system(marginal: DensityOperator, target: DensityOperator) -> _RecoverySystem:
    """The pair's :class:`_RecoverySystem`, kept from the last call when
    ``marginal`` and ``target`` are the same objects, so asking both questions
    of a pair validates and solves it once. A frozen DensityOperator owns a
    read-only copy of its matrix and labels, and the slot keeps both objects
    alive, so identity means the same state and the same layout."""
    global _last_system
    last = _last_system
    if last is not None and last.marginal is marginal and last.target is target:
        return last
    _last_system = _RecoverySystem(marginal, target)
    return _last_system


def _least_squares_solution(system: _RecoverySystem, status: str) -> ConicSolution:
    """A verdict that the least-squares residual decides alone: the system's
    least-squares J as block ``J``, its max-abs residual and min eigenvalue."""
    return ConicSolution(status, None, {"J": system.choi_ls}, {}, system.ls_residual,
                         system.ls_min_eigenvalue, 0, {"method": "least_squares"})


def _channel(system: _RecoverySystem, cfg: SolverConfig):
    """Whether a channel on act_on recovers the pair, the one rule of both
    recovery questions: ``(status, petz)``, with ``petz`` the system's Petz
    certificate ``(ChoiOperator, residual)``, or None when not built.

    By Petz's theorem a channel rebuilds the state iff the Petz map does, so
    the status is ``cfg.verdict`` of the Petz residual. The least-squares
    residual r_ls decides first when it can: above ``eps_infeasible`` no
    trace-preserving map rebuilds the state, and the status is INFEASIBLE
    with no Petz map built. This cannot overturn a Petz FEASIBLE when
    ``eps_infeasible > d eps_feasible`` for the d x d target: the Petz Choi
    matrix is TP, so its svec is a candidate of the least squares and
    |r_ls|_inf <= |r_ls|_2 <= |T - Petz(rho)|_F <= d max|T - Petz(rho)|,
    which a Petz FEASIBLE keeps at most d eps_feasible. Without that margin
    the Petz map decides every pair.
    """
    if (cfg.eps_infeasible > system.target.dim * cfg.eps_feasible
            and cfg.verdict(system.ls_residual) == INFEASIBLE):
        return INFEASIBLE, None
    return cfg.verdict(system.petz[1]), system.petz


def sampling_overhead(marginal: DensityOperator, target: DensityOperator,
                      config: SolverConfig | None = None) -> OverheadResult:
    """Minimal quasiprobability cost of recovering ``target`` from ``marginal``
    by a map on the subsystem the pair fixes (:class:`_RecoverySystem`).

    Two cases need no SDP. When the channel rule of :func:`cptp_certify`
    (:func:`_channel`) is FEASIBLE, the answer is nu = 0 with the Petz
    channel as certificate: trace preservation forces c1 - c2 = 1 with
    c2 >= 0, so c1 + c2 >= 1 and the channel attains it. So nu = 0 exactly
    when :func:`cptp_certify` answers FEASIBLE. Otherwise, when no Hermitian
    J with Tr_out J = I rebuilds the target, the answer is nu = +inf, read
    off the least-squares residual r = b - M x_ls of the linear recovery
    system M x = b, solved block by block (:class:`_RecoverySystem`): above
    ``eps_infeasible`` it is a Farkas witness (M'r = 0, b'r = |r|^2 > 0),
    and any Hermitian solution J = J1 - J2 would split into two PSD blocks
    with Tr_out J_i = c_i I.

    A least-squares residual above ``eps_feasible`` is then undetermined:
    MAX_ITER with nu = +inf at 0 iterations, since every solution has that
    residual. Otherwise the reduced overhead SDP decides, on the same block
    solve: its three-parameter dual (:func:`_dual_overhead`) when the
    solution J is unique, with certified bounds on both sides, and the
    interior-point solve (:func:`_reduced_overhead`, capped at
    ``config.max_iterations`` Newton steps) for a null space, or when the
    dual's bounds do not meet. A target whose trace is not 1 raises
    ``ValueError``: the tolerances are absolute.
    """
    cfg = config or _DEFAULT_CONFIG
    system = _system(marginal, target)
    status, petz = _channel(system, cfg)
    if status == FEASIBLE:
        choi, residual = petz
        blocks = {"J1": choi.matrix, "J2": np.zeros_like(choi.matrix)}
        solution = _solution(OPTIMAL, 1.0, blocks, {"c1": 1.0, "c2": 0.0}, residual,
                             {"method": "petz"})
    elif cfg.verdict(system.ls_residual) != FEASIBLE:
        # every solution J = J_ls + N y has the residual of J_ls
        solution = _least_squares_solution(system, cfg.verdict(system.ls_residual))
    else:
        answer = None if system.nullity else _dual_overhead(system)
        solution, choi_matrix, _ = answer or _reduced_overhead(system, cfg)
    if solution.status != OPTIMAL:
        return OverheadResult(status=solution.status, nu=math.inf, solution=solution)

    # the Petz channel certifies nu = 0, a split J1 - J2 its own c1 + c2
    difference, residual = (petz if status == FEASIBLE
                            else system.certificate(choi_matrix, cp=False))
    c1, c2 = solution.scalar_values["c1"], solution.scalar_values["c2"]
    return OverheadResult(status=OPTIMAL, nu=math.log2(c1 + c2), c1=c1, c2=c2,
                          choi_difference=difference, certificate_residual=residual,
                          solution=solution)


def cptp_certify(marginal: DensityOperator, target: DensityOperator,
                 config: SolverConfig | None = None
                 ) -> tuple[ConicSolution, ChoiOperator | None, float | None]:
    """Decide channel recovery of ``target`` from ``marginal`` on the subsystem
    the pair fixes (:class:`_RecoverySystem`); on FEASIBLE, return the Petz
    map's Choi matrix and verified reconstruction residual as the certificate.

    :func:`_channel` decides. When the least-squares residual r_ls rules
    out every trace-preserving map, the answer is INFEASIBLE with
    ``{"method": "least_squares"}``, ``primal_residual`` = max|r_ls| and no
    Petz map built. Otherwise it is the Petz map's verdict
    (``{"method": "petz"}``): FEASIBLE up to ``eps_feasible``, INFEASIBLE
    above ``eps_infeasible`` and MAX_ITER (the dead zone) in between, with
    the verified residual as ``primal_residual``.
    :func:`build_cptp_feasibility` with :func:`solve` is the SDP route to the
    same verdict. A target whose trace is not 1 raises ``ValueError``.
    """
    cfg = config or _DEFAULT_CONFIG
    system = _system(marginal, target)
    status, petz = _channel(system, cfg)
    if petz is None:
        return _least_squares_solution(system, status), None, None
    choi, residual = petz
    solution = _solution(status, 0.0, {"J": choi.matrix}, {}, residual, {"method": "petz"})
    return (solution, choi, residual) if status == FEASIBLE else (solution, None, None)


@dataclass(frozen=True)
class SweepRow:
    p: float
    inclusion_verdict: bool | None = None
    inclusion_max_leak: float | None = None
    cptp_status: str | None = None
    cptp_residual: float | None = None
    hptp_status: str | None = None
    nu: float | None = None
    error: str | None = None
    cptp_method: str | None = None
    hptp_method: str | None = None

    def to_dict(self, verbose: bool = False) -> dict:
        """The row's report; ``verbose`` adds the route that decided each answer."""
        out = {
            "p": self.p,
            "inclusion": self.inclusion_verdict,
            "inclusion_max_leak": self.inclusion_max_leak,
            "cptp": self.cptp_status,
            "cptp_residual": self.cptp_residual,
            "hptp": self.hptp_status,
            "nu": self.nu,
        }
        if verbose:
            out["cptp_method"] = self.cptp_method
            out["hptp_method"] = self.hptp_method
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    first_inclusion_pass: float | None

    def to_dict(self, verbose: bool = False) -> dict:
        return {
            "rows": [row.to_dict(verbose) for row in self.rows],
            "first_inclusion_pass_p": self.first_inclusion_pass,
        }


def recoverability_sweep(family, grid, config: SolverConfig | None = None) -> SweepReport:
    """Run inclusion + both certifications across a parameter grid.

    ``family`` maps a grid point to a four-subsystem state whose last label
    is the extension, recovered by a map on the label before it. Per-point
    failures are recorded in the row without aborting the sweep.
    """
    rows = []
    for p in grid:
        p = float(p)
        try:
            state = family(p)
            marginal = partial_trace(state, state.labels[-1])
            inclusion = markov.kernel_inclusion_check(marginal)
            cptp_solution, _, cptp_residual = cptp_certify(marginal, state, config)
            overhead = sampling_overhead(marginal, state, config)
            rows.append(
                SweepRow(
                    p=p,
                    inclusion_verdict=inclusion.verdict,
                    inclusion_max_leak=inclusion.max_leak,
                    cptp_status=cptp_solution.status,
                    cptp_residual=cptp_residual,
                    hptp_status=overhead.status,
                    nu=overhead.nu,
                    cptp_method=cptp_solution.debug["method"],
                    hptp_method=overhead.solution.debug["method"],
                )
            )
        except Exception as exc:  # noqa: BLE001 - sweep must keep going per point
            rows.append(SweepRow(p=p, error=f"{type(exc).__name__}: {exc}"))
    passing = [row.p for row in rows if row.inclusion_verdict]
    return SweepReport(rows=tuple(rows), first_inclusion_pass=min(passing, default=None))
