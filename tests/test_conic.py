import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from vqmc import cli, conic, markov
from vqmc import registers as reg
from vqmc.conic import Constraint, ConicProblem, SolverConfig
from vqmc.registers import DensityOperator, QubitRegister, ket, projector

import oracles
from conftest import (bench_generators, random_cptp_choi, random_density, random_hermitian,
                      tolerance_split_case)


def appended_ghz3():
    ghz3 = reg.make_state("GHZ3")
    zero = DensityOperator(register=QubitRegister(("D",)), matrix=projector(ket("0")))
    return ghz3, reg.tensor(ghz3, zero)


def verify_recovery(marginal, target):
    """markov.verify_recovery of the channel appending |0>, with the argument
    order of the conic entry points."""
    return markov.verify_recovery(target, marginal, reg.make_channel_choi("APPEND_ZERO"))


def recheck(problem: ConicProblem, solution, config: SolverConfig | None = None):
    """Solver soundness: re-evaluate constraints and cones outside the solver."""
    cfg = config or SolverConfig()
    worst = 0.0
    for con in problem.equalities:
        value = 0.0
        for name, data in con.blocks.items():
            value += float(np.trace(np.asarray(data).conj().T @ solution.block_values[name]).real)
        for name, coeff in con.scalars.items():
            value += coeff * solution.scalar_values[name]
        worst = max(worst, abs(value - con.rhs))
    eig = 0.0
    for name, _ in problem.psd_blocks:
        block = solution.block_values[name]
        eig = min(eig, float(np.linalg.eigvalsh((block + block.conj().T) / 2)[0]))
    assert worst <= 10 * cfg.eps_feasible
    assert eig >= -10 * cfg.eps_psd
    return worst, eig


class TestSvec:
    def test_round_trip_and_inner_product(self, rng):
        for dim in (2, 3, 8, 16):
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            va, vb = conic.svec(a), conic.svec(b)
            assert va.shape == (dim * dim,)
            assert np.abs(conic.unsvec(va, dim) - a).max() <= 1e-14
            assert float(va @ vb) == pytest.approx(float(np.trace(a @ b).real), abs=1e-10)


class TestProblemValidation:
    def test_undeclared_block(self):
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            equalities=(Constraint(blocks={"Y": np.eye(2)}, scalars={}, rhs=0.0),),
        )
        with pytest.raises(conic.ProblemFormatError, match="undeclared block"):
            conic.solve(prob)

    def test_non_hermitian_data(self):
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            equalities=(
                Constraint(blocks={"X": np.array([[0.0, 1.0], [0.0, 0.0]])}, scalars={}, rhs=0.0),
            ),
        )
        with pytest.raises(conic.ProblemFormatError, match="not Hermitian"):
            conic.solve(prob)

    def test_undeclared_scalar(self):
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            equalities=(Constraint(blocks={}, scalars={"t": 1.0}, rhs=0.0),),
        )
        with pytest.raises(conic.ProblemFormatError, match="undeclared scalar"):
            conic.solve(prob)

    def test_duplicate_block_names(self):
        prob = ConicProblem(psd_blocks=(("X", 2), ("X", 3)))
        with pytest.raises(conic.ProblemFormatError, match="duplicate PSD block names"):
            conic.solve(prob)

    def test_name_is_a_block_and_a_scalar(self):
        prob = ConicProblem(psd_blocks=(("X", 2),), free_scalars=("X",))
        with pytest.raises(conic.ProblemFormatError, match="both a block and a scalar"):
            conic.solve(prob)

    def test_block_data_of_the_wrong_shape(self):
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            equalities=(Constraint(blocks={"X": np.eye(3)}, scalars={}, rhs=1.0),),
        )
        with pytest.raises(conic.ProblemFormatError,
                           match=r"equality 0: data for block 'X' has shape \(3, 3\), "
                                 r"expected \(2, 2\)"):
            conic.solve(prob)

    def test_config_orders_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(eps_feasible=1e-4, eps_infeasible=1e-5)

    @pytest.mark.parametrize("count", [0, -1])
    def test_config_needs_at_least_one_iteration(self, count):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            SolverConfig(max_iterations=count)

    @pytest.mark.parametrize("count", [math.nan, math.inf, 1.5, 2.0])
    def test_config_needs_an_integer_iteration_cap(self, count):
        # iterations >= nan never holds: a NaN cap would switch the cap off
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            SolverConfig(max_iterations=count)

    def test_config_takes_a_numpy_integer_cap(self):
        assert SolverConfig(max_iterations=np.int64(3)).max_iterations == 3

    @pytest.mark.parametrize("field", ["eps_feasible", "eps_psd", "eps_infeasible"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_config_needs_finite_positive_tolerances(self, field, value):
        with pytest.raises(ValueError, match="tolerances must be finite and positive"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("residual, status", [
        (0.0, conic.FEASIBLE), (1e-3, conic.FEASIBLE), (1.5e-3, conic.MAX_ITER),
        (1e-2, conic.MAX_ITER), (1.5e-2, conic.INFEASIBLE), (math.inf, conic.INFEASIBLE),
        (math.nan, conic.MAX_ITER),
    ])
    def test_config_verdict_bounds_the_dead_zone(self, residual, status):
        # both thresholds belong to the verdict below them
        config = SolverConfig(eps_feasible=1e-3, eps_infeasible=1e-2)
        assert config.verdict(residual) == status

    @pytest.mark.parametrize("where", [
        "equality block", "equality scalar", "rhs", "objective block", "objective scalar",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_data(self, where, value):
        data = np.eye(2)
        if where.endswith("block"):
            data = np.diag([1.0, value])
        equality = Constraint(
            blocks={"X": data if where == "equality block" else np.eye(2)},
            scalars={"t": value if where == "equality scalar" else 1.0},
            rhs=value if where == "rhs" else 1.0,
        )
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            free_scalars=("t",),
            equalities=(equality,),
            objective_blocks={"X": data if where == "objective block" else np.eye(2)},
            objective_scalars={"t": value if where == "objective scalar" else 0.0},
        )
        with pytest.raises(conic.ProblemFormatError, match="non-finite"):
            conic.solve(prob)


class TestSolveExamples:
    def test_diagonal_sdp_is_a_linear_program(self):
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            equalities=(
                Constraint(blocks={"X": np.diag([1.0, 0.0])}, scalars={}, rhs=1.0),
                Constraint(blocks={"X": np.diag([0.0, 1.0])}, scalars={}, rhs=2.0),
            ),
            objective_blocks={"X": np.eye(2)},
        )
        solution = conic.solve(prob)
        assert solution.status == conic.OPTIMAL
        assert solution.objective_value == pytest.approx(3.0, abs=1e-6)
        assert np.abs(solution.block_values["X"] - np.diag([1.0, 2.0])).max() <= 1e-5
        recheck(prob, solution)

    def test_rank_one_analytic_optimum(self):
        # min <I, X> s.t. <E, X> = 1 with E = |+><+|: KKT gives X = |+><+|
        plus = 0.5 * np.ones((2, 2))
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            equalities=(Constraint(blocks={"X": plus}, scalars={}, rhs=1.0),),
            objective_blocks={"X": np.eye(2)},
        )
        solution = conic.solve(prob)
        assert solution.status == conic.OPTIMAL
        assert solution.objective_value == pytest.approx(1.0, abs=1e-6)
        assert np.abs(solution.block_values["X"] - plus).max() <= 1e-5
        recheck(prob, solution)

    def test_negative_trace_is_infeasible(self):
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            equalities=(Constraint(blocks={"X": np.eye(2)}, scalars={}, rhs=-1.0),),
        )
        solution = conic.solve(prob)
        assert solution.status == conic.INFEASIBLE
        assert solution.primal_residual > SolverConfig().eps_infeasible

    def test_dead_zone_is_undetermined(self):
        # best achievable violation 5e-6 sits between eps_feasible and
        # eps_infeasible: neither verdict is justified
        prob = ConicProblem(
            psd_blocks=(("X", 1),),
            equalities=(Constraint(blocks={"X": np.eye(1)}, scalars={}, rhs=-5e-6),),
        )
        solution = conic.solve(prob, SolverConfig(max_iterations=20000))
        assert solution.status == conic.MAX_ITER
        assert 1e-7 < solution.primal_residual <= 1e-5

    def test_debug_dump_shape(self):
        w4 = reg.make_state("W4")
        marginal = reg.partial_trace(w4, "D")
        solution = conic.solve(conic.build_cptp_feasibility(marginal, w4))
        debug = solution.debug
        assert debug["psd_blocks"] == [["J", 8]]
        assert debug["constraint_count"] == 260
        assert debug["vectorized_dim"] == 64
        assert 0 < len(debug["residual_history"]) <= 200

    def test_determinism(self):
        ghz3, target = appended_ghz3()
        prob = conic.build_cptp_feasibility(ghz3, target)
        first = conic.solve(prob)
        second = conic.solve(prob)
        assert first.status == second.status
        assert first.iterations == second.iterations
        assert first.primal_residual == second.primal_residual
        assert np.array_equal(first.block_values["J"], second.block_values["J"])


class TestReferenceSolve:
    """``solve`` against analytic optima, checked through ``recheck``."""

    def test_w4_overhead_is_three(self):
        w4 = reg.make_state("W4")
        prob = conic.build_overhead_problem(reg.partial_trace(w4, "D"), w4)
        solution = conic.solve(prob)
        assert solution.status == conic.OPTIMAL
        assert solution.objective_value == pytest.approx(3.0, abs=1e-9)
        recheck(prob, solution)

    def test_a_failed_svd_is_a_value_error(self, monkeypatch):
        w4 = reg.make_state("W4")
        prob = conic.build_cptp_feasibility(reg.partial_trace(w4, "D"), w4)

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ValueError, match=r"SVD of the \d+x64 equality matrix failed") as err:
            conic.solve(prob)
        assert type(err.value) is ValueError
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_no_strictly_feasible_point(self):
        # X11 = 0 forces a zero eigenvalue on every feasible X, so phase 2
        # runs on the cone shifted by eps_psd; Tr X = X11 + X22 = 1 throughout
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            equalities=(
                Constraint(blocks={"X": np.diag([1.0, 0.0])}, scalars={}, rhs=0.0),
                Constraint(blocks={"X": np.diag([0.0, 1.0])}, scalars={}, rhs=1.0),
            ),
            objective_blocks={"X": np.eye(2)},
        )
        solution = conic.solve(prob)
        assert solution.status == conic.OPTIMAL
        assert solution.objective_value == pytest.approx(1.0, abs=1e-9)
        recheck(prob, solution)

    def test_two_blocks_and_a_free_scalar(self):
        # min s s.t. Tr X = 1, <sigma_x, X> = s, Tr Y + s = 1/2: the least
        # eigenvalue of sigma_x, s = -1 at X = |-><-|, with Tr Y = 3/2
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        prob = ConicProblem(
            psd_blocks=(("X", 2), ("Y", 3)),
            free_scalars=("s",),
            equalities=(
                Constraint(blocks={"X": np.eye(2)}, scalars={}, rhs=1.0),
                Constraint(blocks={"X": sigma_x}, scalars={"s": -1.0}, rhs=0.0),
                Constraint(blocks={"Y": np.eye(3)}, scalars={"s": 1.0}, rhs=0.5),
            ),
            objective_scalars={"s": 1.0},
        )
        solution = conic.solve(prob)
        assert solution.status == conic.OPTIMAL
        assert solution.objective_value == pytest.approx(-1.0, abs=1e-9)
        assert solution.scalar_values["s"] == pytest.approx(-1.0, abs=1e-9)
        minus = np.array([[1.0, -1.0], [-1.0, 1.0]]) / 2
        assert np.abs(solution.block_values["X"] - minus).max() <= 1e-6
        recheck(prob, solution)

    def test_unbounded_objective_is_not_optimal(self):
        # min s over a free scalar that no constraint or cone touches
        prob = ConicProblem(
            psd_blocks=(("X", 2),),
            free_scalars=("s",),
            equalities=(Constraint(blocks={"X": np.eye(2)}, scalars={}, rhs=1.0),),
            objective_scalars={"s": 1.0},
        )
        assert conic.solve(prob).status == conic.MAX_ITER

    def test_phase_one_stops_at_the_first_strictly_feasible_point(self, monkeypatch):
        # t < 0 already proves X(y) > 0, so phase 1 hands over to phase 2
        # there instead of driving t down to its bound -1
        phases = []
        interior_point = conic._interior_point

        def recording(*args, **kwargs):
            result = interior_point(*args, **kwargs)
            phases.append((result[0], result[1][-1], result[4]))
            return result

        monkeypatch.setattr(conic, "_interior_point", recording)
        w4 = reg.make_state("W4")
        solution = conic.solve(conic.build_overhead_problem(reg.partial_trace(w4, "D"), w4))
        assert solution.status == conic.OPTIMAL
        (status, t, steps), (_, _, phase_two_steps) = phases
        assert status == conic.FEASIBLE and -1.0 < t < 0.0
        assert solution.iterations == steps + phase_two_steps
        assert len(solution.debug["residual_history"]) == solution.iterations

    def test_w4_cptp_takes_few_newton_steps(self):
        w4 = reg.make_state("W4")
        solution = conic.solve(conic.build_cptp_feasibility(reg.partial_trace(w4, "D"), w4))
        assert solution.status == conic.INFEASIBLE
        assert 0 < solution.iterations <= 50
        assert len(solution.debug["residual_history"]) == solution.iterations


class TestCptpFeasibility:
    def test_appended_ghz3_is_feasible(self):
        ghz3, target = appended_ghz3()
        prob = conic.build_cptp_feasibility(ghz3, target)
        solution = conic.solve(prob)
        assert solution.status == conic.FEASIBLE
        recheck(prob, solution)
        choi = reg.ChoiOperator(matrix=solution.block_values["J"], cp_flag=False)
        assert markov.verify_recovery(target, ghz3, choi) <= 1e-6

    def test_w4_is_infeasible(self):
        # the only linear extension of the W marginal has an indefinite Choi,
        # so no channel exists; its projection onto the cone violates the
        # equalities by about 1
        w4 = reg.make_state("W4")
        marginal = reg.partial_trace(w4, "D")
        solution = conic.solve(conic.build_cptp_feasibility(marginal, w4))
        assert solution.status == conic.INFEASIBLE
        assert solution.primal_residual > 0.1

    def test_ghz4_is_infeasible(self):
        ghz4 = reg.make_state("GHZ4")
        marginal = reg.partial_trace(ghz4, "D")
        solution = conic.solve(conic.build_cptp_feasibility(marginal, ghz4))
        assert solution.status == conic.INFEASIBLE
        assert solution.primal_residual > 1e-5

    def test_rho2_is_feasible_with_certificate(self):
        rho2 = reg.make_state("RHO2")
        marginal = reg.partial_trace(rho2, "D")
        solution, choi, residual = conic.cptp_certify(marginal, rho2)
        assert solution.status == conic.FEASIBLE
        assert residual <= 1e-6
        assert choi.cp_flag

    @pytest.mark.parametrize(
        "entry",
        [
            conic.build_cptp_feasibility,
            conic.build_overhead_problem,
            conic.cptp_certify,
            conic.sampling_overhead,
        ],
        ids=lambda entry: entry.__name__,
    )
    def test_marginal_mismatch_rejected(self, entry):
        w4 = reg.make_state("W4")
        wrong = reg.partial_trace(reg.make_state("GHZ4"), "D")
        with pytest.raises(ValueError, match="partial trace"):
            entry(wrong, w4)

    @pytest.mark.parametrize(
        "entry",
        [
            conic.build_cptp_feasibility,
            conic.build_overhead_problem,
            conic.cptp_certify,
            conic.sampling_overhead,
            verify_recovery,
        ],
        ids=lambda entry: entry.__name__,
    )
    def test_layout_errors_rejected(self, entry):
        w4 = reg.make_state("W4")
        with pytest.raises(ValueError) as raised:
            entry(w4, w4)
        assert str(raised.value) == "target must extend the marginal by at least one subsystem"
        # an extension that comes first follows no subsystem of the marginal
        with pytest.raises(ValueError) as raised:
            entry(reg.partial_trace(w4, "A"), w4)
        assert str(raised.value) == (
            "target labels ('A', 'B', 'C', 'D') must equal the marginal labels ('B', 'C', 'D') "
            "with the extension ('A',) inserted right after one of them"
        )
        # a split extension follows two subsystems
        with pytest.raises(ValueError) as raised:
            entry(reg.make_state("GHZ3"), labeled("ADBCE", np.eye(32) / 32))
        assert str(raised.value) == (
            "target labels ('A', 'D', 'B', 'C', 'E') must equal the marginal labels "
            "('A', 'B', 'C') with the extension ('D', 'E') inserted right after one of them"
        )

    def test_feasible_implies_inclusion(self):
        # these certified-recoverable instances pass the structural
        # kernel-inclusion test on their marginals; not every such state does
        # (TestOneChannelRule::test_a_failed_inclusion_check_still_allows_a_channel)
        rho2 = reg.make_state("RHO2")
        ghz3, target = appended_ghz3()
        for marginal, state in ((reg.partial_trace(rho2, "D"), rho2), (ghz3, target)):
            solution = conic.solve(conic.build_cptp_feasibility(marginal, state))
            assert solution.status == conic.FEASIBLE
            assert markov.kernel_inclusion_check(marginal).verdict is True


class TestSamplingOverhead:
    def test_w4_needs_a_genuine_quasiprobability(self):
        # unique linear recovery with Choi spectrum {3, 0, ..., 0, -1}:
        # the optimal split has c1 = 2, c2 = 1, so nu = log2(3)
        w4 = reg.make_state("W4")
        result = conic.sampling_overhead(reg.partial_trace(w4, "D"), w4)
        assert result.status == conic.OPTIMAL
        assert result.c1 + result.c2 == pytest.approx(3.0, abs=1e-5)
        assert result.nu == pytest.approx(math.log2(3.0), abs=2e-5)
        assert result.certificate_residual <= 1e-6
        assert abs(result.c1 - result.c2 - 1.0) <= 1e-7
        assert not result.choi_difference.cp_flag

    def test_ghz4_has_no_hermitian_recovery(self):
        # the (|00><11| on AB) block of the marginal is zero yet the target
        # needs a 1/2 coherence there; no linear map can produce it
        ghz4 = reg.make_state("GHZ4")
        result = conic.sampling_overhead(reg.partial_trace(ghz4, "D"), ghz4)
        assert result.status == conic.INFEASIBLE
        assert math.isinf(result.nu)
        assert result.c1 is None and result.choi_difference is None

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_mixtures_inherit_the_ghz_obstruction(self, p):
        state = reg.make_state("MIX", p=p)
        result = conic.sampling_overhead(reg.partial_trace(state, "D"), state)
        assert result.status == conic.INFEASIBLE
        assert math.isinf(result.nu)

    def test_rho2_costs_nothing(self):
        rho2 = reg.make_state("RHO2")
        result = conic.sampling_overhead(reg.partial_trace(rho2, "D"), rho2)
        assert result.status == conic.OPTIMAL
        assert result.c1 == pytest.approx(1.0, abs=1e-5)
        assert result.c2 == pytest.approx(0.0, abs=1e-5)
        assert abs(result.nu) <= 2e-5
        assert result.certificate_residual <= 1e-6

    def test_finite_results_respect_lower_bound(self):
        ghz3, target = appended_ghz3()
        result = conic.sampling_overhead(ghz3, target)
        assert result.c1 + result.c2 >= 1.0 - 1e-7
        assert result.nu >= -1e-7

    @pytest.mark.parametrize("fields, message", [
        ({"nu": 0.0, "c1": 1.0}, "finite overhead requires c1 and c2"),
        ({"nu": 1.0, "c1": 1.0, "c2": -1.0}, "channel weights must be nonnegative"),
        ({"nu": 1.0, "c1": 2.0, "c2": 0.5}, "trace preservation forces c1 - c2 = 1"),
        ({"nu": -1.0, "c1": 1.0, "c2": 0.0}, "overhead cannot be negative"),
        # every check must fail on NaN, and nu is +inf or finite
        ({"nu": math.nan, "c1": 1.0, "c2": 0.0}, "overhead cannot be negative or NaN"),
        ({"nu": -math.inf}, "overhead cannot be negative or NaN"),
        ({"nu": 1.0, "c1": math.nan, "c2": math.nan}, "channel weights must be nonnegative"),
        ({"nu": 1.0, "c1": math.nan, "c2": 1.0}, "channel weights must be nonnegative"),
        ({"nu": 1.0, "c1": math.inf, "c2": 1.0}, "trace preservation forces c1 - c2 = 1"),
    ])
    def test_result_rejects_an_inconsistent_overhead(self, fields, message):
        with pytest.raises(ValueError, match=message):
            conic.OverheadResult(status=conic.OPTIMAL, **fields)

    def test_result_takes_the_allowances_and_an_infinite_overhead(self):
        conic.OverheadResult(status=conic.INFEASIBLE, nu=math.inf)
        conic.OverheadResult(status=conic.OPTIMAL, nu=-conic._NU_ALLOWANCE,
                             c1=1.0 - conic._WEIGHT_ALLOWANCE, c2=-conic._WEIGHT_ALLOWANCE)


class TestSweep:
    def test_small_grid(self):
        report = conic.recoverability_sweep(
            lambda p: reg.make_state("MIX", p=p), [0.25, 0.5, 0.75, 1.0]
        )
        assert all(row.inclusion_verdict for row in report.rows)
        assert report.first_inclusion_pass == 0.25
        last = report.rows[-1]
        assert last.p == 1.0
        assert last.cptp_status == conic.INFEASIBLE
        assert last.hptp_status == conic.OPTIMAL
        assert last.nu == pytest.approx(math.log2(3.0), abs=2e-5)
        for row in report.rows[:-1]:
            assert row.cptp_status == conic.INFEASIBLE
            assert row.hptp_status == conic.INFEASIBLE
            assert math.isinf(row.nu)

    def test_errors_do_not_abort(self):
        def family(p):
            if p == 0.5:
                raise RuntimeError("boom")
            return reg.make_state("MIX", p=p)

        report = conic.recoverability_sweep(family, [0.25, 0.5, 0.75])
        assert report.rows[1].error == "RuntimeError: boom"
        assert report.rows[0].inclusion_verdict is True
        assert report.rows[2].inclusion_verdict is True

    @pytest.mark.parametrize("verbose", [False, True], ids=["plain", "verbose"])
    def test_an_error_row_serializes_with_its_error(self, verbose):
        # GHZ4 at a scale other than 1 is refused by the recovery questions
        report = conic.recoverability_sweep(lambda p: scaled_ghz4(p)[1], [1.0, 1e3])
        ok, failed = report.to_dict(verbose)["rows"]
        assert "error" not in ok and ok["cptp"] == conic.INFEASIBLE
        assert failed["error"] == report.rows[1].error
        assert failed["error"].startswith("ValueError: target has trace 999.99")
        assert set(failed) == set(ok) | {"error"}
        assert failed["p"] == 1e3 and failed["inclusion"] is failed["nu"] is None

    def test_report_serializes(self):
        report = conic.recoverability_sweep(lambda p: reg.make_state("MIX", p=p), [0.5])
        payload = report.to_dict()
        assert payload["rows"][0]["p"] == 0.5
        assert payload["first_inclusion_pass_p"] == 0.5


class TestEntropicCrossCheck:
    @staticmethod
    def entropy(matrix):
        w = np.linalg.eigvalsh(matrix)
        w = w[w > 1e-14]
        return float(-(w * np.log2(w)).sum())

    def test_cptp_verdicts_match_conditional_mutual_information(self):
        # a channel on C recovering the state from its D-marginal exists
        # iff I(AB:D|C) = 0; an entirely different computation than the SDP
        for name, recoverable in (("W4", False), ("GHZ4", False), ("RHO2", True)):
            state = reg.make_state(name)
            cmi = (
                self.entropy(reg.partial_trace(state, "D").matrix)
                + self.entropy(reg.partial_trace(state, {"A", "B"}).matrix)
                - self.entropy(reg.partial_trace(state, {"A", "B", "D"}).matrix)
                - self.entropy(state.matrix)
            )
            marginal = reg.partial_trace(state, "D")
            solution = conic.solve(conic.build_cptp_feasibility(marginal, state))
            if recoverable:
                assert abs(cmi) <= 1e-10
                assert solution.status == conic.FEASIBLE
            else:
                assert cmi > 1e-6
                assert solution.status == conic.INFEASIBLE


class TestSolverSoundness:
    def test_every_feasible_solve_rechecks(self):
        ghz3, target = appended_ghz3()
        rho2 = reg.make_state("RHO2")
        instances = [
            conic.build_cptp_feasibility(ghz3, target),
            conic.build_cptp_feasibility(reg.partial_trace(rho2, "D"), rho2),
            conic.build_overhead_problem(reg.partial_trace(rho2, "D"), rho2),
            conic.build_overhead_problem(
                reg.partial_trace(reg.make_state("W4"), "D"), reg.make_state("W4")
            ),
        ]
        for prob in instances:
            solution = conic.solve(prob)
            assert solution.status in (conic.OPTIMAL, conic.FEASIBLE)
            recheck(prob, solution)


# ---------------------------------------------------------------------------
# Closed-form (Petz) verdicts against the SDP and entropic oracles
# ---------------------------------------------------------------------------


def labeled(labels, matrix):
    return DensityOperator(register=QubitRegister(tuple(labels)), matrix=matrix)


def classical_c_markov(rng):
    """sum_c p_c rho_AB^c (x) |c><c| (x) sigma_D^c: recoverable by construction."""
    weights = rng.dirichlet([1.0, 1.0])
    out = np.zeros((16, 16), dtype=complex)
    for c in range(2):
        rho_ab = random_density(rng, 4, rank=int(rng.integers(1, 5)))
        prepared = np.kron(projector(ket(str(c))), random_density(rng, 2))
        out += weights[c] * np.kron(rho_ab, prepared)
    return labeled("ABCD", out)


def conditional_mutual_information(target, ext):
    """I(AB:ext|C) from eigenvalues alone; zero iff a channel on C recovers."""
    entropy = TestEntropicCrossCheck.entropy
    ab = [lab for lab in target.labels if lab not in ("C", *ext)]
    return (
        entropy(reg.partial_trace(target, ext).matrix)
        + entropy(reg.partial_trace(target, ab).matrix)
        - entropy(reg.partial_trace(target, [*ab, *ext]).matrix)
        - entropy(target.matrix)
    )


def rebuild_by_blocks(marginal, choi_matrix):
    """sum_{c,d} <c|rho_ABC|d> (x) J_{cd}, with C the marginal's last label;
    a loop over the Choi blocks, apart from markov.apply_choi."""
    rest = marginal.dim // 2
    out_dim = choi_matrix.shape[0] // 2
    rho = marginal.matrix.reshape(rest, 2, rest, 2)
    choi = choi_matrix.reshape(2, out_dim, 2, out_dim)
    return sum(
        np.kron(rho[:, c, :, d], choi[c, :, d, :]) for c in range(2) for d in range(2)
    )


def petz_cases():
    ghz3, target = appended_ghz3()
    cases = {
        name: (reg.partial_trace(reg.make_state(name), "D"), reg.make_state(name))
        for name in ("RHO2", "W4", "GHZ4")
    }
    mix = reg.make_state("MIX", p=0.5)
    cases["MIX(0.5)"] = (reg.partial_trace(mix, "D"), mix)
    cases["appended GHZ3"] = (ghz3, target)
    rng = np.random.default_rng(4)
    for k in range(4):
        state = classical_c_markov(rng)
        cases[f"markov #{k}"] = (reg.partial_trace(state, "D"), state)
    for k in range(4):
        state = labeled("ABCD", random_density(rng, 16))
        cases[f"generic #{k}"] = (reg.partial_trace(state, "D"), state)
    # pure C: the Petz map needs the pseudo-inverse and the TP completion
    pure_c = labeled("ABCD", np.kron(
        np.kron(random_density(rng, 4), projector(ket("0"))), random_density(rng, 2)
    ))
    cases["pure C, product"] = (reg.partial_trace(pure_c, "D"), pure_c)
    bell_bd = (ket("0000") + ket("0101")) / math.sqrt(2)  # A = C = |0>, B-D Bell pair
    bell = labeled("ABCD", projector(bell_bd))
    cases["pure C, B-D Bell pair"] = (reg.partial_trace(bell, "D"), bell)
    return cases


PETZ_CASES = petz_cases()
PETZ_RECOVERABLE = {"RHO2", "appended GHZ3", "pure C, product"} | {
    f"markov #{k}" for k in range(4)
}
# cases whose least-squares residual exceeds eps_infeasible
PETZ_LEAST_SQUARES = {"GHZ4", "MIX(0.5)", "pure C, B-D Bell pair"} | {
    f"generic #{k}" for k in range(4)
}


def assert_valid_recovery(marginal, target, choi):
    matrix = choi.matrix
    out_dim = matrix.shape[0] // 2
    assert choi.cp_flag
    assert float(np.linalg.eigvalsh(matrix)[0]) >= -1e-12
    traced = np.trace(matrix.reshape(2, out_dim, 2, out_dim), axis1=1, axis2=3)
    assert np.abs(traced - np.eye(2)).max() <= 1e-12
    assert np.abs(rebuild_by_blocks(marginal, matrix) - target.matrix).max() <= 1e-10


class TestPetzVerdict:
    @pytest.mark.parametrize("name", list(PETZ_CASES))
    def test_agrees_with_sdp_and_entropy(self, name):
        marginal, target = PETZ_CASES[name]
        solution, choi, residual = conic.cptp_certify(marginal, target)
        reference = conic.solve(conic.build_cptp_feasibility(marginal, target))
        assert solution.status == reference.status
        cmi = conditional_mutual_information(target, ("D",))
        recoverable = name in PETZ_RECOVERABLE
        assert (abs(cmi) <= 1e-10) is recoverable and (cmi > 1e-6) is not recoverable
        assert solution.status == (conic.FEASIBLE if recoverable else conic.INFEASIBLE)
        # a Farkas residual decides before the Petz map, on exactly these cases
        ls_residual = conic._maxabs(conic._RecoverySystem(marginal, target).ls_gap)
        method = "least_squares" if ls_residual > SolverConfig().eps_infeasible else "petz"
        assert (method == "least_squares") is (name in PETZ_LEAST_SQUARES)
        assert solution.iterations == 0 and solution.debug == {"method": method}
        if method == "least_squares":
            assert solution.primal_residual == ls_residual
        if recoverable:
            assert residual == solution.primal_residual <= SolverConfig().eps_feasible
            assert_valid_recovery(marginal, target, choi)
        else:
            assert choi is None and residual is None
            assert solution.primal_residual > SolverConfig().eps_infeasible

    def test_two_qubit_extension(self):
        ghz3 = reg.make_state("GHZ3")
        zeros = labeled("DE", projector(ket("00")))
        target = reg.tensor(ghz3, zeros)
        solution, choi, _ = conic.cptp_certify(ghz3, target)
        assert solution.status == conic.FEASIBLE
        assert conic.solve(conic.build_cptp_feasibility(ghz3, target)).status == conic.FEASIBLE
        assert choi.extension_labels == ("D", "E")
        assert abs(conditional_mutual_information(target, ("D", "E"))) <= 1e-10
        assert_valid_recovery(ghz3, target, choi)

    def test_nearly_singular_c(self):
        # rho_C with eigenvalues 1 - 1e-9 and 1e-9 in a rotated basis: K
        # amplifies rounding by ~3e4, and the certificate must stay exactly TP
        rng = np.random.default_rng(5)
        rotation, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        on_c = np.kron(np.kron(np.eye(4), rotation), np.eye(2))
        matrix = sum(
            weight * np.kron(np.kron(random_density(rng, 4), projector(ket(str(c)))),
                             random_density(rng, 2))
            for c, weight in ((0, 1.0 - 1e-9), (1, 1e-9))
        )
        state = labeled("ABCD", on_c @ matrix @ on_c.conj().T)
        marginal = reg.partial_trace(state, "D")
        solution, choi, _ = conic.cptp_certify(marginal, state)
        assert solution.status == conic.FEASIBLE
        assert_valid_recovery(marginal, state, choi)

    def test_dead_zone_is_undetermined(self):
        # a 1e-6 admixture of W4 moves RHO2's Petz residual between
        # eps_feasible and eps_infeasible, where neither verdict applies
        near = reg.mix(reg.make_state("W4"), reg.make_state("RHO2"), 1e-6)
        solution, choi, _ = conic.cptp_certify(reg.partial_trace(near, "D"), near)
        assert 1e-7 < solution.primal_residual <= 1e-5
        assert solution.status == conic.MAX_ITER and choi is None


class TestClosedFormOverhead:
    @pytest.mark.parametrize("name", ["RHO2", "appended GHZ3", "markov #0"])
    def test_recoverable_states_cost_nothing_without_a_solve(self, name):
        marginal, target = PETZ_CASES[name]
        result = conic.sampling_overhead(marginal, target)
        assert result.status == conic.OPTIMAL
        assert result.solution.iterations == 0
        assert result.c1 == 1.0 and result.c2 == 0.0 and result.nu == 0.0
        assert result.certificate_residual <= 1e-12
        assert result.solution.scalar_values == {"c1": 1.0, "c2": 0.0}
        assert result.solution.objective_value == 1.0
        assert_valid_recovery(marginal, target, result.choi_difference)

    def test_w4_still_reaches_the_sdp(self):
        w4 = reg.make_state("W4")
        result = conic.sampling_overhead(reg.partial_trace(w4, "D"), w4)
        assert result.status == conic.OPTIMAL
        assert result.solution.debug["method"] == "dual"
        assert abs(result.c1 + result.c2 - 3.0) <= 1e-12
        assert 0.0 <= result.solution.debug["gap"] <= 3e-10
        assert result.c1 == pytest.approx(2.0, abs=1e-5)
        assert result.c2 == pytest.approx(1.0, abs=1e-5)

    def test_w4_cptp_needs_no_iterations(self):
        w4 = reg.make_state("W4")
        solution, choi, residual = conic.cptp_certify(reg.partial_trace(w4, "D"), w4)
        assert solution.status == conic.INFEASIBLE
        assert solution.iterations == 0
        assert solution.objective_value is None
        assert choi is None and residual is None


def relabeled_cases():
    """(marginal, target, act_on, reference pair): W4, GHZ4 and RHO2 under
    other labels, W4 extended in the middle, and GHZ3 (x) |00> on (D, E).
    Only the oracle takes ``act_on``; the builtins are symmetric under qubit
    permutations, so each reference pair on (A, B, C, D) has the same answers."""
    cases = {}
    for name in ("W4", "GHZ4", "RHO2"):
        state = reg.make_state(name)
        reference = (reg.partial_trace(state, "D"), state)
        for labels in ("WXYZ", "ADBC", "BADC"):
            other = labeled(labels, state.matrix)
            cases[f"{name} on ({', '.join(labels)})"] = (
                reg.partial_trace(other, labels[-1]), other, labels[-2], reference)
    w4 = reg.make_state("W4")
    cases["W4, extension B"] = (reg.partial_trace(w4, "B"), w4, "A",
                                (reg.partial_trace(w4, "D"), w4))
    ghz3 = reg.make_state("GHZ3")
    appended = reg.tensor(ghz3, labeled("DE", projector(ket("00"))))
    cases["GHZ3 + |00> on (D, E)"] = (ghz3, appended, "C", None)
    return cases


RELABELED_CASES = relabeled_cases()


class TestRelabeledInputs:
    @pytest.mark.parametrize("name", list(RELABELED_CASES))
    def test_answers_need_no_act_on(self, name):
        marginal, target, act_on, reference = RELABELED_CASES[name]
        solution, choi, residual = conic.cptp_certify(marginal, target)
        overhead = conic.sampling_overhead(marginal, target)
        for certificate in (choi, overhead.choi_difference):
            if certificate is not None:
                rebuilt = markov.apply_choi(marginal, certificate, act_on)
                assert rebuilt.labels == target.labels
                assert np.abs(rebuilt.matrix - target.matrix).max() <= 1e-9
                assert markov.verify_recovery(target, marginal, certificate) <= 1e-9
        if reference is None:
            assert solution.status == conic.FEASIBLE and overhead.nu == 0.0
            assert residual <= 1e-15
        else:
            assert answers(marginal, target, None) == answers(*reference, None)

    def test_sweep_matches_mix_under_other_labels(self):
        grid = [0.0, 0.5, 1.0]

        def relabeled(p):
            return labeled("WXYZ", reg.make_state("MIX", p=p).matrix)

        mix = conic.recoverability_sweep(lambda p: reg.make_state("MIX", p=p), grid)
        other = conic.recoverability_sweep(relabeled, grid)
        assert all(row.error is None for row in other.rows)
        assert other.to_dict() == mix.to_dict()


# ---------------------------------------------------------------------------
# Least-squares front end: the linear recovery system and its verdicts
# ---------------------------------------------------------------------------


def choi_stand_in(matrix, ext):
    """The attributes markov.apply_choi reads, for a Choi matrix that is not
    trace preserving (ChoiOperator refuses those, rightly, as channels)."""
    return SimpleNamespace(matrix=matrix, extension_labels=tuple(ext),
                           output_dim=matrix.shape[0] // 2, is_trace_preserving=False,
                           cp_flag=False)


def recovery_system_by_choi_application(marginal, target, act_on):
    """M and b rebuilt column by column through markov.apply_choi."""
    ext = tuple(lab for lab in target.labels if lab not in marginal.labels)
    choi_dim = 2 ** (2 + len(ext))
    out_dim = choi_dim // 2
    columns = []
    for unit in np.eye(choi_dim * choi_dim):
        basis = conic.unsvec(unit, choi_dim)
        traced = np.trace(basis.reshape(2, out_dim, 2, out_dim), axis1=1, axis2=3)
        image = markov.apply_choi(marginal, choi_stand_in(basis, ext), act_on)
        assert image.labels == target.labels
        columns.append(np.concatenate([conic.svec(traced), conic.svec(image.matrix)]))
    rhs = np.concatenate([conic.svec(np.eye(2)), conic.svec(target.matrix)])
    return np.stack(columns, axis=1), rhs


def virtual_only_state(rng):
    """(id_AB (x) R)(sigma) with R(X) = X (x) tau + 0.05 L(X) (x) Z: R is the
    unique extension, Hermitian preserving but not completely positive."""
    identity_choi = np.outer(np.eye(2).ravel(), np.eye(2).ravel())
    while True:
        sigma = labeled("ABC", random_density(rng, 8))
        choi_l = random_hermitian(rng, 4)
        choi_l /= np.abs(np.linalg.eigvalsh(choi_l)).max()
        choi_r = (np.kron(identity_choi, random_density(rng, 2))
                  + 0.05 * np.kron(choi_l, np.diag([1.0, -1.0])))
        image = markov.apply_choi(sigma, choi_stand_in(choi_r, ("D",)), "C").matrix
        if np.linalg.eigvalsh(image)[0] > 1e-6:
            return sigma, labeled("ABCD", image)


def inconsistent_cases():
    cases = {}
    for name, state in [("GHZ4", reg.make_state("GHZ4"))] + [
        (f"MIX({p})", reg.make_state("MIX", p=p)) for p in (0.0, 0.25, 0.5, 0.75, 0.95)
    ] + [("CONVEX_MIX(0.5)", reg.mix(reg.make_state("W4"), reg.make_state("RHO2"), 0.5))]:
        cases[name] = (reg.partial_trace(state, "D"), state, "C")
    rng = np.random.default_rng(9)
    for k in range(3):
        state = labeled("ABCD", random_density(rng, 16, rank=int(rng.integers(1, 17))))
        cases[f"generic #{k}"] = (reg.partial_trace(state, "D"), state, "C")
    cases["GHZ4 on (W, X, Y, Z)"] = RELABELED_CASES["GHZ4 on (W, X, Y, Z)"][:3]
    return cases


INCONSISTENT_CASES = inconsistent_cases()


def assert_matches_the_reference_sdp(marginal, target, result):
    """The overhead of a unique extension, answered by the dual route, against
    the reference solve of the full, unreduced overhead SDP, which takes the
    recovery system's dense rows."""
    solution = result.solution
    reference = conic.solve(conic.build_overhead_problem(marginal, target))
    total = result.c1 + result.c2
    assert result.status == reference.status == conic.OPTIMAL
    assert solution.debug["method"] == "dual"
    assert total == pytest.approx(reference.objective_value, abs=1e-8)
    lower = solution.debug["lower_bound"]
    assert lower <= total <= lower + 1e-5 * total
    assert 0.0 <= solution.debug["gap"] <= 3e-10
    assert result.certificate_residual <= 1e-6


class TestLeastSquaresFrontEnd:
    @pytest.mark.parametrize("name", ["W4", "GHZ3 + |00> on (D, E)", "GHZ4 on (W, X, Y, Z)",
                                      "seeded complex ABCD"])
    def test_operator_matches_choi_application(self, name):
        if name in ("W4", "seeded complex ABCD"):
            # a full-rank complex state: the fit rows take conj(rho), which a
            # real state cannot tell from rho
            target = (reg.make_state("W4") if name == "W4"
                      else labeled("ABCD", random_density(np.random.default_rng(23), 16)))
            marginal, act_on = reg.partial_trace(target, "D"), "C"
        elif name == "GHZ4 on (W, X, Y, Z)":
            marginal, target, act_on = RELABELED_CASES[name][:3]
        else:
            marginal, act_on = reg.make_state("GHZ3"), "C"
            target = reg.tensor(marginal, labeled("DE", projector(ket("00"))))
        reference, reference_rhs = recovery_system_by_choi_application(marginal, target, act_on)
        choi_dim = 4 * target.dim // marginal.dim
        assert reference.shape == (4 + target.dim ** 2, choi_dim ** 2)

        def assert_rows(rows, rhs, expected, expected_rhs):
            assert np.abs(np.array([conic.svec(m) for m in rows]) - expected).max() <= 1e-15
            assert np.abs(np.array(rhs) - expected_rhs).max() <= 1e-15

        cptp = conic.build_cptp_feasibility(marginal, target)
        assert cptp.psd_blocks == (("J", choi_dim),)
        assert_rows([con.blocks["J"] for con in cptp.equalities],
                    [con.rhs for con in cptp.equalities], reference, reference_rhs)
        # overhead: Tr_out J_i = c_i I for both blocks, then J1 - J2 fits the target
        rows = conic.build_overhead_problem(marginal, target).equalities
        for block, scalar, tp_rows in (("J1", "c1", rows[:4]), ("J2", "c2", rows[4:8])):
            assert all(con.rhs == 0.0 for con in tp_rows)
            assert_rows([con.blocks[block] for con in tp_rows],
                        [-con.scalars[scalar] for con in tp_rows], reference[:4], reference_rhs[:4])
        assert all(np.array_equal(con.blocks["J2"], -con.blocks["J1"]) for con in rows[8:])
        assert_rows([con.blocks["J1"] for con in rows[8:]], [con.rhs for con in rows[8:]],
                    reference[4:], reference_rhs[4:])

    @pytest.mark.parametrize("name", list(INCONSISTENT_CASES))
    def test_verdict_matches_the_sdp(self, name):
        marginal, state, _ = INCONSISTENT_CASES[name]
        result = conic.sampling_overhead(marginal, state)
        reference = conic.solve(conic.build_overhead_problem(marginal, state))
        assert result.status == reference.status == conic.INFEASIBLE

    @pytest.mark.parametrize("name", list(INCONSISTENT_CASES))
    def test_infeasible_carries_a_farkas_witness(self, name):
        marginal, state, act_on = INCONSISTENT_CASES[name]
        result = conic.sampling_overhead(marginal, state)
        solution = result.solution
        assert result.status == conic.INFEASIBLE and math.isinf(result.nu)
        assert result.c1 is None and result.choi_difference is None
        assert solution.iterations == 0 and solution.objective_value is None
        assert solution.debug == {"method": "least_squares"}
        assert solution.primal_residual > SolverConfig().eps_infeasible
        matrix, rhs = recovery_system_by_choi_application(marginal, state, act_on)
        witness = rhs - matrix @ conic.svec(solution.block_values["J"])
        assert np.abs(witness).max() == pytest.approx(solution.primal_residual, rel=1e-9)
        assert np.abs(matrix.T @ witness).max() <= 1e-12
        assert rhs @ witness == pytest.approx(witness @ witness, rel=1e-12)

    def test_w4_reaches_the_sdp(self):
        w4 = reg.make_state("W4")
        marginal = reg.partial_trace(w4, "D")
        result = conic.sampling_overhead(marginal, w4)
        assert_matches_the_reference_sdp(marginal, w4, result)
        assert abs(result.c1 + result.c2 - 3.0) <= 1e-12

    def test_rho2_reaches_the_petz_check(self):
        rho2 = reg.make_state("RHO2")
        result = conic.sampling_overhead(reg.partial_trace(rho2, "D"), rho2)
        assert result.status == conic.OPTIMAL and result.nu == 0.0
        assert result.solution.debug == {"method": "petz"}

    def test_virtual_only_state_reaches_the_sdp(self):
        marginal, state = virtual_only_state(np.random.default_rng(13))
        result = conic.sampling_overhead(marginal, state)
        assert_matches_the_reference_sdp(marginal, state, result)
        assert result.c1 + result.c2 > 1.0


# ---------------------------------------------------------------------------
# Interior-point overhead solve on the reduced problem
# ---------------------------------------------------------------------------


def extension_of(choi_r):
    """Choi matrix of R o (Tr_D o R)^-1, the unique map C -> C'D that extends
    the D-marginal of (id (x) R)(sigma) to the state itself."""
    blocks = choi_r.reshape(2, 4, 2, 4)
    reduced = np.trace(choi_r.reshape(2, 2, 2, 2, 2, 2), axis1=2, axis2=5)  # [i, c, j, c']
    inverse = np.linalg.inv(reduced.transpose(1, 3, 0, 2).reshape(4, 4)).reshape(2, 2, 2, 2)
    return np.einsum("klij,kolp->iojp", inverse, blocks).reshape(8, 8)


def hptp_extension_state(rng):
    """(id_AB (x) R)(sigma) with R = (1+t) N1 - t N2 for random channels and
    sigma near the maximally mixed state; returns the state and the Choi
    matrix of the unique extension of its D-marginal."""
    while True:
        sigma = labeled("ABC", 0.9 * np.eye(8) / 8 + 0.1 * random_density(rng, 8))
        t = rng.uniform(0.1, 0.3)
        choi_r = (1 + t) * random_cptp_choi(rng) - t * random_cptp_choi(rng)
        image = markov.apply_choi(sigma, choi_stand_in(choi_r, ("D",)), "C").matrix
        image = (image + image.conj().T) / 2
        if np.linalg.eigvalsh(image)[0] > 1e-6:
            return labeled("ABCD", image), extension_of(choi_r)


def overhead_bracket(choi):
    """[1 + Tr J-, 1 + 2 lambda_max(Tr_out J-)]: the trace norm bounds every
    split from below, and J2 = J- + (c I - Tr_out J-) (x) I/4 is a split."""
    w, v = np.linalg.eigh(choi)
    negative = (v * np.maximum(-w, 0.0)) @ v.conj().T
    traced = np.trace(negative.reshape(2, 4, 2, 4), axis1=1, axis2=3)
    return 1.0 + np.trace(negative).real, 1.0 + 2.0 * np.linalg.eigvalsh(traced)[-1]


def reduced_solve(marginal, target, config=None):
    system = conic._RecoverySystem(marginal, target)
    return (system, *conic._reduced_overhead(system, config))


def assert_certified_dual(marginal, target, solution, choi, duals):
    """Check the dual point apart from the solver: both blocks PSD, Z1 + Z2 - I
    of the form Y (x) I with Tr Y = 0 (so <Z1 + Z2, G> = Tr G on every
    TP-compatible G), Z2 orthogonal to the null space of the recovery system
    rebuilt through markov.apply_choi, and the bound equal to 1 - <Z2, J>."""
    z1, z2 = duals
    assert min(np.linalg.eigvalsh(z1)[0], np.linalg.eigvalsh(z2)[0]) >= -1e-12
    excess = (z1 + z2 - np.eye(8)).reshape(2, 4, 2, 4)
    y = np.trace(excess, axis1=1, axis2=3) / 4
    assert np.abs(excess - np.einsum("cd,op->codp", y, np.eye(4))).max() <= 1e-10
    assert abs(np.trace(y)) <= 1e-10
    matrix, rhs = recovery_system_by_choi_application(marginal, target, "C")
    assert np.abs(matrix @ conic.svec(choi) - rhs).max() <= 1e-12
    _, s, vt = np.linalg.svd(matrix)
    null = vt[int((s > 1e-12 * s[0]).sum()):]
    assert np.abs(null @ conic.svec(z2)).max(initial=0.0) <= 1e-12
    lower = solution.debug["lower_bound"]
    assert lower == pytest.approx(1.0 - np.vdot(z2, choi).real, abs=1e-12)
    assert lower <= solution.objective_value


HPTP_STATES = {seed: hptp_extension_state(np.random.default_rng(seed)) for seed in range(6)}


class TestInteriorPointOverhead:
    @pytest.mark.parametrize("seed", list(HPTP_STATES))
    def test_hptp_extension_lies_in_its_bracket(self, seed):
        state, extension = HPTP_STATES[seed]
        marginal = reg.partial_trace(state, "D")
        result = conic.sampling_overhead(marginal, state)
        assert result.status == conic.OPTIMAL
        assert result.solution.debug["method"] == "dual"
        lower, upper = overhead_bracket(extension)
        total = result.c1 + result.c2
        assert lower - 1e-9 <= total <= upper + 1e-9
        assert result.solution.debug["lower_bound"] <= total
        assert result.solution.debug["gap"] <= 1e-5 * total
        assert np.abs(result.choi_difference.matrix - extension).max() <= 1e-8
        assert result.certificate_residual <= 1e-10

    @pytest.mark.parametrize("name", ["W4", "hptp #0", "markov #0"])
    def test_dual_point_certifies_the_bound(self, name):
        if name == "W4":
            target = reg.make_state("W4")
        elif name == "hptp #0":
            target = HPTP_STATES[0][0]
        else:
            target = PETZ_CASES["markov #0"][1]
        marginal = reg.partial_trace(target, "D")
        _, solution, choi, duals = reduced_solve(marginal, target)
        assert solution.status == conic.OPTIMAL
        assert_certified_dual(marginal, target, solution, choi, duals)

    def test_null_space_directions_reach_a_channel(self):
        # a classical C leaves the coherences between C = 0 and C = 1 of J
        # free; the solve must still find c1 + c2 = 1, which a channel attains
        marginal, target = PETZ_CASES["markov #0"]
        system, solution, choi, _ = reduced_solve(marginal, target)
        assert system.null_basis.shape[1] == 30
        assert solution.status == conic.OPTIMAL
        assert solution.objective_value == pytest.approx(1.0, abs=1e-8)
        assert solution.scalar_values["c2"] == pytest.approx(0.0, abs=1e-8)
        assert np.abs(rebuild_by_blocks(marginal, choi) - target.matrix).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_virtual_only_states_match_admm(self, seed):
        marginal, state = virtual_only_state(np.random.default_rng([seed, 3]))
        assert_matches_the_reference_sdp(marginal, state, conic.sampling_overhead(marginal, state))

    def test_iteration_cap_gives_max_iter(self, monkeypatch):
        w4 = reg.make_state("W4")
        marginal, config = reg.partial_trace(w4, "D"), SolverConfig(max_iterations=2)
        _, solution, _, _ = reduced_solve(marginal, w4, config)
        assert solution.status == conic.MAX_ITER and solution.iterations == 2
        # the same cap where sampling_overhead falls back to the interior point
        monkeypatch.setattr(conic, "_dual_overhead", lambda system: None)
        result = conic.sampling_overhead(marginal, w4, config)
        assert result.status == conic.MAX_ITER and math.isinf(result.nu)
        assert result.solution.iterations == 2
        assert result.c1 is None and result.choi_difference is None

    def test_no_general_solver_on_any_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling_overhead reached the general SDP route "
                                 "or the dense rows of the recovery system")

        for name in ("solve", "build_overhead_problem", "_affine_solutions"):
            monkeypatch.setattr(conic, name, refuse)
        monkeypatch.setattr(conic._RecoverySystem, "rows", refuse)
        ghz3 = reg.make_state("GHZ3")
        cases = [(reg.partial_trace(target, "D"), target) for target in (
            reg.make_state("W4"), reg.make_state("GHZ4"), reg.make_state("RHO2"), HPTP_STATES[1][0]
        )] + [(ghz3, reg.tensor(ghz3, labeled("DE", projector(ket("00")))))]
        for marginal, target in cases:
            result = conic.sampling_overhead(marginal, target)
            assert result.status in (conic.OPTIMAL, conic.INFEASIBLE)

    def test_w4_factors_no_matrix_taller_than_20_rows(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recording(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        w4 = reg.make_state("W4")
        assert conic.sampling_overhead(reg.partial_trace(w4, "D"), w4).status == conic.OPTIMAL
        assert shapes and max(rows for rows, _ in shapes) <= 20

    def test_stalled_gap_gives_max_iter(self, monkeypatch):
        # with no reachable tolerance the solve must stop once the gap stops
        # shrinking, long before the 50 000-step cap
        monkeypatch.setattr(conic, "_GAP_TOL", 0.0)
        w4 = reg.make_state("W4")
        marginal = reg.partial_trace(w4, "D")
        _, solution, _, _ = reduced_solve(marginal, w4)
        assert solution.status == conic.MAX_ITER and solution.iterations < 100
        # the same stall where sampling_overhead falls back to the interior point
        monkeypatch.setattr(conic, "_dual_overhead", lambda system: None)
        result = conic.sampling_overhead(marginal, w4)
        assert result.status == conic.MAX_ITER and math.isinf(result.nu)
        assert result.solution.iterations < 100

    def test_dead_zone_is_undetermined(self):
        # a 1e-6 admixture of GHZ4 leaves W4's recovery system inconsistent
        # by less than eps_infeasible but more than eps_feasible
        near = reg.mix(reg.make_state("W4"), reg.make_state("GHZ4"), 1.0 - 1e-6)
        result = conic.sampling_overhead(reg.partial_trace(near, "D"), near)
        assert 1e-7 < result.solution.primal_residual <= 1e-5
        assert result.status == conic.MAX_ITER and math.isinf(result.nu)
        # decided by the least-squares residual alone, which no solve can change
        assert result.solution.debug == {"method": "least_squares"}
        assert result.solution.iterations == 0


# ---------------------------------------------------------------------------
# Dual route: the overhead of a unique extension over the Bloch ball
# ---------------------------------------------------------------------------


def dual_cases():
    """Unique extensions, labeled by where the dual optimum lies."""
    w4 = reg.make_state("W4")
    cases = {"W4 (sphere)": (reg.partial_trace(w4, "D"), w4)}
    for seed, (state, _) in HPTP_STATES.items():
        where = "ball" if seed == 5 else "sphere"
        cases[f"hptp #{seed} ({where})"] = (reg.partial_trace(state, "D"), state)
    for seed in (0, 1, 12):
        where = "sphere" if seed == 12 else "ball"
        cases[f"virtual-only #{seed} ({where})"] = virtual_only_state(
            np.random.default_rng([seed, 3]))
    return cases


DUAL_CASES = dual_cases()


def iterative_unique_extensions(seed):
    """The states of bench/workloads.py's iterative corpus at ``seed`` with a
    unique extension: W4, the 89 virtual-only states and the HPTP-extension
    state."""
    gen = bench_generators()
    rng = np.random.default_rng([seed, 3])
    states = [gen.w4(), *(gen.virtual_only_state(rng)[0] for _ in range(89))]
    return states + [gen.hptp_extension_state(np.random.default_rng(1))[0]]


def dual_solve(marginal, target):
    system = conic._RecoverySystem(marginal, target)
    assert system.null_basis.shape[1] == 0
    return (system, *conic._dual_overhead(system))


def on_sphere(duals):
    """True when Z1 + Z2 = (I + Y) (x) I has |r| = 1 for Y = r . sigma."""
    n = len(duals[0]) // 2
    total = np.trace((duals[0] + duals[1]).reshape(2, n, 2, n), axis1=1, axis2=3) / n
    return bool(np.linalg.eigvalsh(total)[0] <= 1e-9)


def assert_certified_split(solution, choi):
    """Check the split apart from the solver: J2 and J + J2 PSD, J2 trace
    preserving up to the scale c2, and c1 + c2 at most _GAP_TOL max(1, c1 + c2)
    above the certified lower bound."""
    j1, j2 = solution.block_values["J1"], solution.block_values["J2"]
    n = len(j2) // 2
    assert np.linalg.eigvalsh(j2)[0] >= -1e-12
    assert np.linalg.eigvalsh(choi + j2)[0] >= -1e-12
    assert np.abs(j1 - (choi + j2)).max() <= 1e-15
    c2 = np.trace(j2).real / 2
    traced = np.trace(j2.reshape(2, n, 2, n), axis1=1, axis2=3)
    assert np.abs(traced - c2 * np.eye(2)).max() <= 1e-12
    assert solution.scalar_values["c2"] == pytest.approx(c2, abs=1e-12)
    assert solution.scalar_values["c1"] == pytest.approx(1.0 + c2, abs=1e-12)
    assert solution.objective_value == pytest.approx(1.0 + 2.0 * c2, abs=1e-12)
    total, lower = solution.objective_value, solution.debug["lower_bound"]
    assert lower <= total <= lower + conic._GAP_TOL * max(1.0, total)


def assert_certified_primal(marginal, target, solution, choi):
    """assert_certified_split, and J1 - J2 rebuilding the state through
    markov.apply_choi, so that c1 + c2 bounds the overhead from above."""
    assert_certified_split(solution, choi)
    j1, j2 = solution.block_values["J1"], solution.block_values["J2"]
    ext = [lab for lab in target.labels if lab not in marginal.labels]
    rebuilt = markov.apply_choi(marginal, choi_stand_in(j1 - j2, ext), "C")
    assert np.abs(rebuilt.matrix - target.matrix).max() <= 1e-10


class TestDualRoute:
    @pytest.mark.parametrize("name", list(DUAL_CASES))
    def test_both_bounds_are_certified(self, name):
        marginal, target = DUAL_CASES[name]
        _, solution, choi, duals = dual_solve(marginal, target)
        assert solution.status == conic.OPTIMAL
        assert solution.debug["method"] == "dual"
        assert on_sphere(duals) == name.endswith("(sphere)")
        assert_certified_dual(marginal, target, solution, choi, duals)
        assert_certified_primal(marginal, target, solution, choi)
        total = solution.objective_value
        assert solution.debug["gap"] == pytest.approx(total - solution.debug["lower_bound"])
        assert 0.0 <= solution.debug["gap"] <= 1e-10 * max(1.0, total)

    @pytest.mark.parametrize("name", list(DUAL_CASES))
    def test_agrees_with_the_interior_point(self, name):
        marginal, target = DUAL_CASES[name]
        _, dual, _, _ = dual_solve(marginal, target)
        _, interior, _, _ = reduced_solve(marginal, target)
        assert dual.status == interior.status == conic.OPTIMAL
        assert dual.objective_value == pytest.approx(interior.objective_value, abs=1e-9)
        # each route's certified lower bound holds for the other's value
        assert dual.debug["lower_bound"] <= interior.objective_value
        assert interior.debug["lower_bound"] <= dual.objective_value

    @pytest.mark.parametrize("relative, clamped", [(1e-12, False), (1e-15, True)])
    def test_only_a_crossing_within_rounding_is_clamped(self, relative, clamped):
        # weak duality keeps the bound at or below c1 + c2, so a bound above it
        # by more than _ROUNDING max(1, c1 + c2) is a fault that the gap must show
        marginal, target = DUAL_CASES["W4 (sphere)"]
        system, solution, _, _ = dual_solve(marginal, target)
        total = solution.objective_value
        lower = total * (1.0 + relative)
        assert lower > total
        split = conic._split_solution(system, conic.OPTIMAL, solution.block_values["J1"],
                                      solution.block_values["J2"], "dual", lower, 0)
        assert split.objective_value == total
        if clamped:
            assert split.debug == {"method": "dual", "lower_bound": total, "gap": 0.0}
        else:
            assert split.debug == {"method": "dual", "lower_bound": lower, "gap": total - lower}
            assert split.debug["gap"] < 0

    def test_two_qubit_extension(self):
        # (id (x) R)(sigma) with R(X) = X (x) tau_DE + 0.02 L(X) (x) Z_D (x) I_E
        rng = np.random.default_rng(5)
        identity_choi = np.outer(np.eye(2).ravel(), np.eye(2).ravel())
        while True:
            sigma = labeled("ABC", (np.eye(8) / 8 + random_density(rng, 8)) / 2)
            choi_l = random_hermitian(rng, 4)
            choi_l /= np.abs(np.linalg.eigvalsh(choi_l)).max()
            choi_r = (np.kron(identity_choi, (np.eye(4) / 4 + random_density(rng, 4)) / 2)
                      + 0.02 * np.kron(choi_l, np.diag([1.0, 1.0, -1.0, -1.0])))
            image = markov.apply_choi(sigma, choi_stand_in(choi_r, ("D", "E")), "C").matrix
            if np.linalg.eigvalsh(image)[0] > 1e-6:
                break
        target = labeled("ABCDE", image)
        _, solution, choi, (z1, z2) = dual_solve(sigma, target)
        assert choi.shape == (16, 16)
        assert solution.status == conic.OPTIMAL and solution.debug["method"] == "dual"
        assert solution.objective_value > 1.0
        assert_certified_primal(sigma, target, solution, choi)
        # the dual point, checked as assert_certified_dual does on one-qubit extensions
        assert min(np.linalg.eigvalsh(z1)[0], np.linalg.eigvalsh(z2)[0]) >= -1e-12
        excess = (z1 + z2 - np.eye(16)).reshape(2, 8, 2, 8)
        y = np.trace(excess, axis1=1, axis2=3) / 8
        assert np.abs(excess - np.einsum("cd,op->codp", y, np.eye(8))).max() <= 1e-10
        assert abs(np.trace(y)) <= 1e-10
        lower = solution.debug["lower_bound"]
        assert lower == pytest.approx(1.0 - np.vdot(z2, choi).real, abs=1e-12)
        assert 0.0 <= solution.objective_value - lower <= 1e-10 * solution.objective_value

    def test_w4_costs_log2_3(self):
        w4 = reg.make_state("W4")
        result = conic.sampling_overhead(reg.partial_trace(w4, "D"), w4)
        assert result.status == conic.OPTIMAL
        assert result.solution.debug["method"] == "dual"
        assert result.c1 == pytest.approx(2.0, abs=1e-12)
        assert result.c2 == pytest.approx(1.0, abs=1e-12)
        assert result.nu == pytest.approx(math.log2(3.0), abs=1e-12)
        assert result.certificate_residual <= 1e-12

    def test_certified_in_few_evaluations_on_the_iterative_corpora(self, monkeypatch):
        register = QubitRegister(tuple("ABCD"))
        counts = count_calls(monkeypatch, [(conic, "_ball_point"), (conic, "_sphere_point")])
        answers = 0
        for seed in (7, 11, 2001):
            for k, matrix in enumerate(iterative_unique_extensions(seed)):
                target = DensityOperator(register=register, matrix=matrix)
                system = conic._RecoverySystem(reg.partial_trace(target, "D"), target)
                solution, choi, _ = conic._dual_overhead(system)
                assert solution.debug["method"] == "dual", (seed, k)
                assert_certified_split(solution, choi)
                answers += 1
        assert answers == 273
        # with only the first-order split, whose gap |g| - r . g closes one Newton
        # step after the lower bound, these states take 4.51 evaluations each
        assert (counts["_ball_point"] + counts["_sphere_point"]) / answers <= 3.8

    def test_unique_extensions_never_reach_the_interior_point(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a unique extension reached the interior-point engine")

        monkeypatch.setattr(conic, "_interior_point", refuse)
        for name in ("W4 (sphere)", "hptp #0 (sphere)", "virtual-only #0 (ball)"):
            marginal, target = DUAL_CASES[name]
            result = conic.sampling_overhead(marginal, target)
            assert result.status == conic.OPTIMAL
            assert result.solution.debug["method"] == "dual"

    def test_sphere_ascent_out_of_steps_falls_back_to_the_interior_point(self, monkeypatch):
        marginal, target = DUAL_CASES["hptp #0 (sphere)"]
        uncapped = conic.sampling_overhead(marginal, target)
        # the first ball step reaches the sphere, whose ascent then stops
        # after the one Newton step allowed, short of closing the gap
        monkeypatch.setattr(conic, "_DUAL_STEPS", 1)
        assert conic._dual_overhead(conic._RecoverySystem(marginal, target)) == "out_of_steps"
        result = conic.sampling_overhead(marginal, target)
        assert result.status == conic.OPTIMAL
        assert result.solution.debug["method"] == "interior_point"
        assert result.solution.debug["dual_declined"] == "out_of_steps"
        assert result.c1 + result.c2 == pytest.approx(uncapped.c1 + uncapped.c2, abs=1e-9)

    def test_unmet_bounds_fall_back_to_the_interior_point(self, monkeypatch):
        monkeypatch.setattr(conic, "_DUAL_STEPS", 0)
        marginal, target = DUAL_CASES["virtual-only #0 (ball)"]
        assert conic._dual_overhead(conic._RecoverySystem(marginal, target)) == "out_of_steps"
        result = conic.sampling_overhead(marginal, target)
        assert result.status == conic.OPTIMAL
        assert result.solution.debug["method"] == "interior_point"
        assert result.solution.debug["dual_declined"] == "out_of_steps"


def concave_quadratic(x):
    """A point in _line_search's form, (f, ...), of f(x) = -(x - 1)^2."""
    return (-(x - 1.0) ** 2,)


class TestDualRouteSafeguards:
    def test_ascent_direction_is_the_newton_step_of_a_negative_definite_hessian(self):
        hessian = np.diag([-1.0, -2.0, -4.0])
        gradient = np.array([1.0, 1.0, 1.0])
        step = conic._ascent_direction(gradient, hessian)
        assert np.abs(step - np.array([1.0, 0.5, 0.25])).max() <= 1e-15

    @pytest.mark.parametrize("top", [0.0, 2.0], ids=["singular", "indefinite"])
    def test_ascent_direction_is_the_gradient_where_the_hessian_is_not_negative_definite(
            self, top):
        gradient = np.array([0.3, -0.2, 0.1])
        step = conic._ascent_direction(gradient, np.diag([-1.0, -3.0, top]))
        assert step is gradient

    def test_line_search_halves_a_full_step_that_overshoots(self):
        tried = []

        def move(t):
            tried.append(t)
            return 4.0 * t

        # from x = 0 the full step lands at f(4) = -9, the half step at f(2) = -1,
        # neither above f(0) = -1 by 1e-4 t slope; the quarter step reaches x = 1
        x, point = conic._line_search(concave_quadratic, move, -1.0, 8.0)
        assert tried == [1.0, 0.5, 0.25]
        assert x == 1.0 and point == (0.0,)

    def test_line_search_gives_up_on_a_step_that_never_gains(self):
        tried = []

        def move(t):
            tried.append(t)
            return t

        assert conic._line_search(lambda x: (-1.0,), move, 0.0, 1.0) == (None, None)
        # t = 1, 1/2, ..., 2^-33, the last above 1e-10
        assert tried == [2.0 ** -k for k in range(34)]

    @staticmethod
    def assert_declines_to_the_interior_point(monkeypatch, name, reason, **patches):
        """With ``patches`` on conic, the dual route of DUAL_CASES[name] declines
        for ``reason`` and sampling_overhead answers by the interior point,
        naming that reason, with the unpatched c1 + c2."""
        marginal, target = DUAL_CASES[name]
        expected = conic.sampling_overhead(marginal, target)
        for attribute, value in patches.items():
            monkeypatch.setattr(conic, attribute, value)
        assert conic._dual_overhead(conic._RecoverySystem(marginal, target)) == reason
        result = conic.sampling_overhead(copied(marginal), copied(target))
        assert result.status == conic.OPTIMAL
        assert result.solution.debug["method"] == "interior_point"
        assert result.solution.debug["dual_declined"] == reason
        assert result.c1 + result.c2 == pytest.approx(expected.c1 + expected.c2, abs=1e-9)

    def test_a_failed_ball_line_search_declines(self, monkeypatch):
        self.assert_declines_to_the_interior_point(
            monkeypatch, "virtual-only #0 (ball)", "line_search",
            _line_search=lambda *args: (None, None))

    def test_a_failed_sphere_line_search_declines_the_sphere(self, monkeypatch):
        search = conic._line_search

        def failing_on_the_sphere(evaluate, move, value, slope):
            # a sphere search starts from a unit vector, a ball search inside the ball
            if abs(np.linalg.norm(move(0.0)) - 1.0) <= 1e-12:
                return None, None
            return search(evaluate, move, value, slope)

        # the optimum lies on the sphere, which the ball steps only come near
        self.assert_declines_to_the_interior_point(
            monkeypatch, "hptp #0 (sphere)", "near_sphere", _line_search=failing_on_the_sphere)

    def test_a_vanishing_sphere_direction_declines_the_sphere(self, monkeypatch):
        direction = conic._ascent_direction

        def none_along_the_sphere(gradient, hessian):
            # the sphere ascent steps in the two tangent coordinates, the ball in three
            return np.zeros(2) if len(gradient) == 2 else direction(gradient, hessian)

        self.assert_declines_to_the_interior_point(
            monkeypatch, "hptp #0 (sphere)", "near_sphere",
            _ascent_direction=none_along_the_sphere)

    def test_a_vanishing_ball_direction_declines(self, monkeypatch):
        self.assert_declines_to_the_interior_point(
            monkeypatch, "virtual-only #0 (ball)", "kink",
            _ascent_direction=lambda gradient, hessian: np.zeros_like(gradient))


# ---------------------------------------------------------------------------
# Block solve of the recovery system against the dense SVD of M rebuilt
# through markov.apply_choi
# ---------------------------------------------------------------------------


def block_solve_cases():
    cases = {}
    for name in ("W4", "RHO2", "GHZ4"):
        cases[name] = (*PETZ_CASES[name], "C")
    cases["markov #0"] = (*PETZ_CASES["markov #0"], "C")
    for seed in range(3):
        state = HPTP_STATES[seed][0]
        cases[f"hptp #{seed}"] = (reg.partial_trace(state, "D"), state, "C")
    for seed in range(3):
        cases[f"virtual-only #{seed}"] = (*virtual_only_state(np.random.default_rng([seed, 3])),
                                          "C")
    for p in (0.0, 0.5, 0.95):
        state = reg.make_state("MIX", p=p)
        cases[f"MIX({p})"] = (reg.partial_trace(state, "D"), state, "C")
    # the oracle applies each map on the act_on these cases name
    for name, (marginal, target, act_on, _) in RELABELED_CASES.items():
        cases[name] = (marginal, target, act_on)
    return cases


BLOCK_SOLVE_CASES = block_solve_cases()


class TestBlockSolve:
    @pytest.mark.parametrize("name", list(BLOCK_SOLVE_CASES))
    def test_matches_the_dense_least_squares(self, name):
        marginal, target, act_on = BLOCK_SOLVE_CASES[name]
        system = conic._RecoverySystem(marginal, target)
        matrix, rhs = recovery_system_by_choi_application(marginal, target, act_on)
        dense_x_ls, _ = conic._affine_solutions(matrix, rhs)
        assert np.abs(conic.svec(system.choi_ls) - dense_x_ls).max() <= 1e-12
        dense_residual = np.abs(rhs - matrix @ dense_x_ls).max()
        assert system.residual(system.choi_ls) == pytest.approx(dense_residual, abs=1e-12)
        _, s, vt = np.linalg.svd(matrix)
        dense_null = vt[int((s > 1e-12 * s[0]).sum()):].T
        null = system.null_basis
        assert null.shape == dense_null.shape
        assert np.abs(null.T @ null - np.eye(null.shape[1])).max(initial=0.0) <= 1e-12
        assert np.abs(null @ null.T - dense_null @ dense_null.T).max() <= 1e-12
        choi_dim = math.isqrt(matrix.shape[1])
        choi = random_hermitian(np.random.default_rng(len(name)), choi_dim)
        expected = np.abs(matrix @ conic.svec(choi) - rhs).max()
        assert system.residual(choi) == pytest.approx(expected, abs=1e-12)

    def test_w4_pair_runs_the_petz_map_once(self, monkeypatch):
        calls = []
        petz_choi = conic._petz_choi

        def counting(*args, **kwargs):
            calls.append(args)
            return petz_choi(*args, **kwargs)

        monkeypatch.setattr(conic, "_petz_choi", counting)
        w4 = reg.make_state("W4")
        marginal = reg.partial_trace(w4, "D")
        assert conic.cptp_certify(marginal, w4)[0].status == conic.INFEASIBLE
        assert conic.sampling_overhead(marginal, w4).status == conic.OPTIMAL
        assert len(calls) == 1


def ill_conditioned_markov(seed, weight, admixture=1e-11):
    """A classical-C Markov state with ``weight`` on C = |1>, mixed with
    ``admixture`` of a random full-rank state. sigma_min(R) is ~1e-13, so the
    block solve amplifies rounding ~1e13-fold; a channel still recovers the
    state within eps_feasible."""
    rng = np.random.default_rng(seed)
    out = np.zeros((16, 16), dtype=complex)
    for c, share in ((0, 1.0 - weight), (1, weight)):
        rho_ab = random_density(rng, 4, rank=int(rng.integers(1, 5)))
        out += share * np.kron(rho_ab, np.kron(projector(ket(str(c))), random_density(rng, 2)))
    return labeled("ABCD", (1.0 - admixture) * out + admixture * random_density(rng, 16))


ILL_CONDITIONED = {
    f"weight {weight:g}, seed {seed}": ill_conditioned_markov(seed, weight)
    for weight in (1e-12, 1e-10)
    for seed in range(40)
}


class TestIllConditionedBlockSolve:
    def test_trace_preservation_survives_rounding(self):
        for name, state in ILL_CONDITIONED.items():
            system = conic._RecoverySystem(reg.partial_trace(state, "D"), state)
            drift = np.abs(reg._output_trace(system.choi_ls) - np.eye(2)).max()
            assert drift <= 1e-12, f"{name}: Tr_out J_ls is off the identity by {drift:.3e}"

    def test_residual_matches_a_dense_least_squares(self):
        compared = 0
        for name, state in ILL_CONDITIONED.items():
            system = conic._RecoverySystem(reg.partial_trace(state, "D"), state)
            _, tp_rows, fit_rows = system.rows()
            matrix = conic.svec(np.array([row for row, _ in tp_rows + fit_rows]))
            rhs = np.array([value for _, value in tp_rows + fit_rows])
            try:
                dense_x, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
            except np.linalg.LinAlgError:
                continue  # LAPACK's SVD does not converge on a few of these
            compared += 1
            dense = np.abs(matrix @ dense_x - rhs).max()
            block = system.residual(system.choi_ls)
            assert block <= 4 * dense + 1e-12, f"{name}: block {block:.3e}, dense {dense:.3e}"
        assert compared >= 60

    def test_a_recoverable_state_never_gets_infinite_overhead(self):
        for name, state in ILL_CONDITIONED.items():
            marginal = reg.partial_trace(state, "D")
            assert conic.cptp_certify(marginal, state)[0].status == conic.FEASIBLE, name
            result = conic.sampling_overhead(marginal, state)
            assert result.status != conic.INFEASIBLE, f"{name}: a channel recovers, yet nu = +inf"


# ---------------------------------------------------------------------------
# One recovery system per state: the Petz map from its grouped layout, and
# what a pair costs in partial traces, Petz maps and Choi applications
# ---------------------------------------------------------------------------


def layout_cases():
    cases = {}
    for name in ("W4", "GHZ4", "RHO2"):
        state = reg.make_state(name)
        cases[name] = (reg.partial_trace(state, "D"), state, "C")
    for name, state in (("MIX(0.5)", reg.make_state("MIX", p=0.5)),
                        ("CONVEX_MIX(0.5)", reg.mix(reg.make_state("W4"),
                                                    reg.make_state("RHO2"), 0.5))):
        cases[name] = (reg.partial_trace(state, "D"), state, "C")
    rng = np.random.default_rng(22)
    for k in range(4):
        state = labeled("ABCD", random_density(rng, 16, rank=int(rng.integers(1, 17))))
        cases[f"seeded #{k}"] = (reg.partial_trace(state, "D"), state, "C")
    ghz3 = reg.make_state("GHZ3")
    cases["GHZ3 + |00> on (D, E)"] = (ghz3, reg.tensor(ghz3, labeled("DE", projector(ket("00")))),
                                      "C")
    state = labeled("ADBC", random_density(rng, 16))
    cases["act on A, labels (A, D, B, C)"] = (reg.partial_trace(state, "D"), state, "A")
    return cases


LAYOUT_CASES = layout_cases()


def count_calls(monkeypatch, targets):
    """Replace each (module, name) by a counting wrapper; returns the counts by name."""
    counts = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        original = getattr(module, name)

        def counting(*args, original=original, name=name, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


def assert_same_overhead(result, expected):
    """Every field, debug dict and matrix of two overhead answers is bitwise equal."""
    for field in ("status", "nu", "c1", "c2", "certificate_residual"):
        assert getattr(result, field) == getattr(expected, field), field
    assert result.choi_difference.matrix.tobytes() == expected.choi_difference.matrix.tobytes()
    assert result.solution.to_dict() == expected.solution.to_dict()
    assert result.solution.debug == expected.solution.debug
    assert result.solution.block_values.keys() == expected.solution.block_values.keys()
    for name, block in result.solution.block_values.items():
        assert block.tobytes() == expected.solution.block_values[name].tobytes(), name


class TestOneSystemPerState:
    @pytest.mark.parametrize("name", list(LAYOUT_CASES))
    def test_petz_map_matches_the_reference_marginals(self, name):
        marginal, target, act_on = LAYOUT_CASES[name]
        system = conic._RecoverySystem(marginal, target)
        reference = conic._petz_choi(*oracles.petz_marginals(
            target.matrix, target.labels, act_on, system.ext))
        choi, residual = system.petz
        assert np.abs(choi.matrix - reference).max() <= 1e-14
        reference_choi = reg.ChoiOperator(matrix=reference, extension_labels=system.ext)
        expected = markov.verify_recovery(target, marginal, reference_choi)
        assert residual == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("name", ["W4", "GHZ4", "RHO2", "MIX(0.5)", "CONVEX_MIX(0.5)"])
    def test_a_sweep_point_traces_once_and_runs_petz_at_most_once(self, monkeypatch, name):
        state = LAYOUT_CASES[name][1]
        counts = count_calls(monkeypatch, [(reg, "partial_trace"), (conic, "partial_trace"),
                                           (conic, "_petz_choi"), (markov, "apply_choi")])
        report = conic.recoverability_sweep(lambda p: state, [0.0])
        assert report.rows[0].error is None
        assert counts["partial_trace"] == 1
        assert counts["_petz_choi"] <= 1
        if name == "RHO2":
            # the overhead's nu = 0 reuses the verified Petz certificate
            assert report.rows[0].nu == 0.0
            assert counts["apply_choi"] == 1

    def test_overhead_takes_the_least_squares_gap_once(self, monkeypatch):
        marginal, target, _ = LAYOUT_CASES["W4"]
        expected = conic.sampling_overhead(marginal, target)
        # a fresh pair of objects, so the call builds its own system
        w4 = reg.make_state("W4")
        counts = count_calls(monkeypatch, [(conic._RecoverySystem, "gap")])
        result = conic.sampling_overhead(reg.partial_trace(w4, "D"), w4)
        # the least-squares J's gap, kept for the channel rule and the
        # overhead's own residual test, then the dual route's certificate residual
        assert counts["gap"] == 2
        assert result.solution.debug["method"] == "dual"
        assert_same_overhead(result, expected)

    def test_a_lone_overhead_builds_one_petz_map(self, monkeypatch):
        marginal, target, _ = LAYOUT_CASES["W4"]
        conic.cptp_certify(marginal, target)
        expected = conic.sampling_overhead(marginal, target)
        counts = count_calls(monkeypatch, [(conic, "_petz_choi"), (markov, "apply_choi")])
        result = conic.sampling_overhead(*fresh_pair("W4"))
        # the channel rule's Petz map and its check, then the dual route's certificate
        assert counts == {"_petz_choi": 1, "apply_choi": 2}
        assert_same_overhead(result, expected)

    @pytest.mark.parametrize("name", ["W4", "GHZ4", "RHO2"])
    def test_cached_least_squares_gap_is_the_gap_of_choi_ls(self, name):
        system = conic._RecoverySystem(*LAYOUT_CASES[name][:2])
        assert system.ls_gap.tobytes() == system.gap(system.choi_ls).tobytes()

    def test_nonconvexity_demo_builds_a_petz_map_only_at_the_endpoints(self, monkeypatch,
                                                                      capsys):
        counts = count_calls(monkeypatch, [(conic._RecoverySystem, "__init__"),
                                           (conic, "_petz_choi"), (markov, "apply_choi")])
        assert cli.main(["demo", "nonconvexity"]) == cli.EXIT_PASS
        capsys.readouterr()
        # one system per state; RHO2 and W4 build and verify one Petz map each,
        # the midpoint's least-squares residual rules it out without one, and
        # W4's overhead certificate is the third Choi application
        assert counts == {"__init__": 3, "_petz_choi": 2, "apply_choi": 3}

    @pytest.mark.parametrize("name", list(LAYOUT_CASES))
    def test_cptp_certify_builds_petz_only_past_the_least_squares(self, monkeypatch, name):
        marginal, target, _ = LAYOUT_CASES[name]
        ls_residual = conic._maxabs(conic._RecoverySystem(marginal, target).ls_gap)
        excluded = ls_residual > SolverConfig().eps_infeasible
        counts = count_calls(monkeypatch, [(conic, "_petz_choi"), (np.linalg, "svd")])
        solution, _, _ = conic.cptp_certify(marginal, target)
        assert solution.status in (conic.FEASIBLE, conic.INFEASIBLE)
        assert solution.debug == {"method": "least_squares" if excluded else "petz"}
        # one SVD of the fit matrix R for the least squares, and the Petz map
        # only where the least-squares residual leaves it a chance
        assert counts == {"_petz_choi": 0 if excluded else 1, "svd": 1}


# ---------------------------------------------------------------------------
# The one-slot system cache, and the least-squares answer before the Petz map
# ---------------------------------------------------------------------------

DEAD_ZONE = SolverConfig(eps_feasible=0.1, eps_infeasible=0.9)
# eps_infeasible <= 16 eps_feasible: the Petz map decides every channel verdict
NO_MARGIN = SolverConfig(eps_feasible=1e-6, eps_infeasible=1e-5)


def fresh_pair(name):
    """A new (marginal, target) of a builtin: equal to LAYOUT_CASES', other objects."""
    state = reg.make_state(name)
    return reg.partial_trace(state, "D"), state


def answers(marginal, target, config):
    """What a report shows of both answers, as comparable data."""
    solution = conic.cptp_certify(marginal, target, config)[0]
    overhead = conic.sampling_overhead(marginal, target, config)
    return (solution.to_dict(), solution.debug, overhead.to_dict(), overhead.solution.to_dict(),
            overhead.solution.debug)


class TestSystemCache:
    def test_both_questions_of_one_pair_build_one_system(self, monkeypatch):
        marginal, target, _ = LAYOUT_CASES["W4"]
        counts = count_calls(monkeypatch, [(conic._RecoverySystem, "__init__"),
                                           (conic, "_petz_choi")])
        conic.cptp_certify(marginal, target)
        conic.sampling_overhead(marginal, target)
        conic.cptp_certify(marginal, target)
        conic.sampling_overhead(marginal, target)
        assert counts == {"__init__": 1, "_petz_choi": 1}
        assert conic._last_system.marginal is marginal and conic._last_system.target is target

    def test_equal_but_distinct_objects_miss(self, monkeypatch):
        marginal, target = fresh_pair("W4")
        twin_marginal, twin_target = fresh_pair("W4")
        assert np.array_equal(marginal.matrix, twin_marginal.matrix)
        assert np.array_equal(target.matrix, twin_target.matrix)
        counts = count_calls(monkeypatch, [(conic._RecoverySystem, "__init__")])
        for pair in ((marginal, target), (twin_marginal, target), (twin_marginal, twin_target),
                     (marginal, twin_target)):
            conic.cptp_certify(*pair)
        assert counts["__init__"] == 4

    def test_a_pair_that_fails_validation_is_never_kept(self):
        marginal = LAYOUT_CASES["GHZ4"][0]
        target = LAYOUT_CASES["W4"][1]
        for call in (conic.cptp_certify, conic.sampling_overhead, conic.cptp_certify):
            with pytest.raises(ValueError, match="not the partial trace"):
                call(marginal, target)
            assert conic._last_system is None

    def test_each_config_gets_its_own_verdict(self, monkeypatch):
        marginal, target, _ = LAYOUT_CASES["GHZ4"]
        expected = {name: answers(*fresh_pair("GHZ4"), config)
                    for name, config in (("default", None), ("dead zone", DEAD_ZONE))}
        counts = count_calls(monkeypatch, [(conic._RecoverySystem, "__init__")])
        got = {name: answers(marginal, target, config)
               for name, config in (("dead zone", DEAD_ZONE), ("default", None))}
        assert answers(marginal, target, DEAD_ZONE) == got["dead zone"]
        assert counts["__init__"] == 1
        assert got == expected
        cptp, cptp_debug, overhead = got["default"][:3]
        assert (cptp["status"], cptp_debug, overhead["status"]) == (
            conic.INFEASIBLE, {"method": "least_squares"}, conic.INFEASIBLE)
        # GHZ4's Petz residual 0.5 lies inside the dead zone (0.1, 0.9]
        cptp, cptp_debug, overhead = got["dead zone"][:3]
        assert (cptp["status"], cptp_debug, overhead["status"]) == (
            conic.MAX_ITER, {"method": "petz"}, conic.MAX_ITER)
        assert cptp["primal_residual"] == pytest.approx(0.5, abs=1e-12)


def corpus_states():
    """Seeded states from every benchmark corpus generator, the builtins and
    the MIX and CONVEX_MIX grids."""
    gen = bench_generators()
    rng = np.random.default_rng(2028)
    states = {}
    for k in range(12):
        states[f"generic #{k}"] = gen.generic_state(rng)
        states[f"low-rank #{k}"] = gen.low_rank_state(rng)
        states[f"markov #{k}"] = gen.markov_state(rng)[0]
        states[f"virtual-only #{k}"] = gen.virtual_only_state(rng)[0]
        states[f"hptp-extension #{k}"] = gen.hptp_extension_state(rng)[0]
    for k in range(21):
        states[f"MIX({k / 20:g})"] = gen.mix(k / 20)
        states[f"CONVEX_MIX({k / 20:g})"] = gen.convex_mix(k / 20)
    states.update(W4=gen.w4(), GHZ4=gen.ghz4(), RHO2=gen.rho2())
    return states


class TestLeastSquaresFirst:
    def test_without_the_margin_the_petz_map_decides(self, monkeypatch):
        marginal, target, _ = LAYOUT_CASES["GHZ4"]
        assert NO_MARGIN.eps_infeasible <= target.dim * NO_MARGIN.eps_feasible
        petz_residual = conic._RecoverySystem(marginal, target).petz[1]
        counts = count_calls(monkeypatch, [(conic, "_petz_choi")])
        solution, choi, residual = conic.cptp_certify(marginal, target, NO_MARGIN)
        assert counts["_petz_choi"] == 1
        assert solution.status == conic.INFEASIBLE and solution.debug == {"method": "petz"}
        assert solution.primal_residual == petz_residual
        assert choi is None and residual is None
        # with the default margin the least squares decides the same pair
        default = conic.cptp_certify(marginal, target)[0]
        assert default.debug == {"method": "least_squares"}
        assert default.primal_residual == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_the_shortcut_never_hides_a_petz_recovery(self):
        eps_feasible = SolverConfig().eps_feasible
        decided = {"least_squares": 0, "petz": 0}
        for name, matrix in corpus_states().items():
            target = labeled("ABCD", matrix)
            marginal = reg.partial_trace(target, "D")
            solution, _, _ = conic.cptp_certify(marginal, target)
            method = solution.debug["method"]
            decided[method] += 1
            if method != "least_squares":
                continue
            assert solution.status == conic.INFEASIBLE, name
            choi = reg.ChoiOperator(
                matrix=conic._petz_choi(*oracles.petz_marginals(matrix, "ABCD", "C", ("D",))),
                extension_labels=("D",))
            residual = markov.verify_recovery(target, marginal, choi)
            assert residual > eps_feasible, f"{name}: the Petz map recovers within {residual:.3e}"
        assert decided["least_squares"] >= 40 and decided["petz"] >= 40, decided


# ---------------------------------------------------------------------------
# One channel rule for both recovery questions: nu = 0 exactly when
# cptp_certify is FEASIBLE
# ---------------------------------------------------------------------------

CHANNEL_CONFIGS = {"default": SolverConfig(), "dead zone": DEAD_ZONE, "no margin": NO_MARGIN}
# the two case sets share W4, RHO2, GHZ4, markov #0 and MIX(0.5)
CHANNEL_CASES = {**{name: (*pair, "C") for name, pair in PETZ_CASES.items()}, **BLOCK_SOLVE_CASES}


def copied(state):
    """An equal DensityOperator that is another object, so the system cache misses."""
    return reg.DensityOperator(register=state.register, matrix=state.matrix)


class TestOneChannelRule:
    @pytest.mark.parametrize("config", list(CHANNEL_CONFIGS))
    @pytest.mark.parametrize("name", list(CHANNEL_CASES))
    def test_nu_is_zero_exactly_when_a_channel_recovers(self, name, config):
        marginal, target, _ = CHANNEL_CASES[name]
        cfg = CHANNEL_CONFIGS[config]
        solution = conic.cptp_certify(marginal, target, cfg)[0]
        after = conic.sampling_overhead(marginal, target, cfg)
        alone = conic.sampling_overhead(copied(marginal), copied(target), cfg)
        recovered = solution.status == conic.FEASIBLE
        for overhead in (after, alone):
            assert (overhead.solution.debug["method"] == "petz") is recovered
            if recovered:
                assert overhead.nu == 0.0
        assert alone.to_dict() == after.to_dict()
        assert alone.solution.debug == after.solution.debug

    def test_tolerances_between_the_petz_and_least_squares_residuals(self):
        marginal, target, config = tolerance_split_case()
        system = conic._RecoverySystem(marginal, target)
        petz_residual, ls_residual = system.petz[1], conic._maxabs(system.ls_gap)
        assert petz_residual <= config.eps_feasible < config.eps_infeasible < ls_residual
        assert config.eps_infeasible <= target.dim * config.eps_feasible
        solution, choi, residual = conic.cptp_certify(marginal, target, config)
        assert solution.status == conic.FEASIBLE and solution.debug == {"method": "petz"}
        assert residual == petz_residual and choi is not None
        for overhead in (conic.sampling_overhead(marginal, target, config),
                         conic.sampling_overhead(copied(marginal), copied(target), config)):
            assert overhead.status == conic.OPTIMAL and overhead.nu == 0.0
            assert overhead.solution.debug == {"method": "petz"}
            assert overhead.certificate_residual == petz_residual

    def test_a_failed_inclusion_check_still_allows_a_channel(self):
        # the check compares the AC and BC kernels in one space: Ker(AC|1)
        # holds |1>|1>, which leaks out of Ker(BC|1), yet appending |0>_D is
        # undone by a channel that prepares |0>
        abc = labeled("ABC", 0.5 * projector(ket("000")) + 0.5 * projector(ket("011")))
        target = reg.tensor(abc, labeled("D", projector(ket("0"))))
        report = markov.kernel_inclusion_check(abc)
        assert not report.verdict and "necessary_only" not in report.to_dict()
        solution, choi, _ = conic.cptp_certify(abc, target)
        assert solution.status == conic.FEASIBLE
        assert_valid_recovery(abc, target, choi)
        overhead = conic.sampling_overhead(abc, target)
        assert overhead.nu == 0.0 and overhead.solution.debug == {"method": "petz"}


# ---------------------------------------------------------------------------
# The least squares in block coordinates: the nullity, a null basis only for
# the interior point, one least-squares answer per state, and the order of
# the dual bracket on the benchmark corpora
# ---------------------------------------------------------------------------


NULLITY_CASES = {
    **{name: case[:2] for name, case in {**BLOCK_SOLVE_CASES, **LAYOUT_CASES}.items()},
    **{name: (reg.partial_trace(state, "D"), state) for name, state in ILL_CONDITIONED.items()},
}


def benchmark_corpus(seed):
    """The states of the screen, direct and iterative corpora that
    bench/workloads.py draws at ``seed``, in its order."""
    gen = bench_generators()
    mix_grid = [gen.mix(k / 20) for k in range(21)]
    rng = np.random.default_rng([seed, 1])
    states = [draw(rng) for draw in (gen.generic_state, gen.low_rank_state) for _ in range(100)]
    states += [gen.markov_state(rng)[0] for _ in range(100)]
    states += [gen.w4(), gen.ghz4(), gen.rho2(), *mix_grid]
    states += [gen.convex_mix(lam) for lam in rng.uniform(0.05, 0.95, size=9)]
    rng = np.random.default_rng([seed, 2])
    states += [gen.generic_state(rng) for _ in range(40)] + [gen.ghz4(), *mix_grid[:20]]
    states += [gen.convex_mix(lam) for lam in rng.uniform(0.05, 0.95, size=9)]
    states += [gen.w4(), gen.rho2()]
    rng = np.random.default_rng(0)
    states += [gen.markov_state(rng)[0] for _ in range(8)]
    rng = np.random.default_rng([seed, 3])
    states += [gen.virtual_only_state(rng)[0] for _ in range(89)]
    return states + [gen.hptp_extension_state(np.random.default_rng(1))[0]]


class TestBlockCoordinates:
    @pytest.mark.parametrize("name", list(NULLITY_CASES))
    def test_nullity_is_the_dimension_of_the_null_basis(self, name):
        system = conic._RecoverySystem(*NULLITY_CASES[name])
        assert system.nullity == system.null_basis.shape[1]

    def test_only_the_interior_point_builds_the_null_basis(self):
        for name, method in (("W4", "dual"), ("GHZ4", "least_squares")):
            marginal, target, _ = LAYOUT_CASES[name]
            conic.cptp_certify(marginal, target)
            assert conic.sampling_overhead(marginal, target).solution.debug["method"] == method
            assert conic._last_system.target is target
            assert "null_basis" not in conic._last_system.__dict__, name
        system, *_ = reduced_solve(*LAYOUT_CASES["W4"][:2])
        assert "null_basis" in system.__dict__

    def test_both_answers_share_one_least_squares_solution(self, monkeypatch):
        marginal, target, _ = LAYOUT_CASES["GHZ4"]
        counts = count_calls(monkeypatch, [(np.linalg, "eigvalsh")])
        cptp = conic.cptp_certify(marginal, target)[0]
        overhead = conic.sampling_overhead(marginal, target).solution
        assert counts == {"eigvalsh": 1}
        assert cptp.debug == {"method": "least_squares"}
        for field in ("status", "objective_value", "scalar_values", "primal_residual",
                      "min_eigenvalue", "iterations", "debug"):
            assert getattr(cptp, field) == getattr(overhead, field), field
        assert cptp.block_values.keys() == overhead.block_values.keys() == {"J"}
        assert cptp.block_values["J"].tobytes() == overhead.block_values["J"].tobytes()

    @pytest.mark.parametrize("seed", [7, 11, 2001])
    def test_dual_bounds_stay_below_the_overhead_on_the_corpora(self, seed):
        register = QubitRegister(tuple("ABCD"))
        duals = 0
        for k, matrix in enumerate(benchmark_corpus(seed)):
            target = DensityOperator(register=register, matrix=matrix)
            result = conic.sampling_overhead(reg.partial_trace(target, "D"), target)
            if result.solution.debug["method"] == "dual":
                duals += 1
                total = result.c1 + result.c2
                assert result.solution.debug["lower_bound"] <= total, f"state {k}"
                assert result.solution.debug["gap"] >= 0.0, f"state {k}"
        # W4 twice, MIX(1), and every virtual-only and HPTP-extension state
        assert duals == 3 + 89 + 1


# ---------------------------------------------------------------------------
# The recovery primitives against independent oracles: the TP-compatible and
# null-space bases of the interior point, the Bloch roots of the ball, and
# one least-squares residual per state
# ---------------------------------------------------------------------------


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def tp_compatible_projector_by_complement(choi_dim):
    """The projector onto the complement of the three traceless
    trace-preservation rows B_k (x) I, B_k = unsvec(e_k), of a Choi matrix."""
    rows = conic.svec(np.kron(conic.unsvec(np.eye(4), 2), np.eye(choi_dim // 2)))
    traceless = np.vstack([rows[0] - rows[1], rows[2:]])
    complement = np.linalg.svd(traceless)[2][3:].T
    return complement @ complement.T


def ball_value_by_eigh_roots(choi, r):
    """Tr[(W^1/2 J W^1/2)_-] for W = (I + r . sigma) (x) I, |r| < 1, with
    W^1/2 built from an eigendecomposition of I + r . sigma."""
    w, u = np.linalg.eigh(np.eye(2) + np.einsum("k,kij->ij", r, PAULI))
    root = np.kron((u * np.sqrt(w)) @ u.conj().T, np.eye(len(choi) // 2))
    w = np.linalg.eigvalsh(root @ choi @ root)
    return -float(w[w < 0].sum())


NULL_SPACE_CASES = [name for name, case in NULLITY_CASES.items()
                    if conic._RecoverySystem(*case).nullity]


class TestRecoveryPrimitives:
    @pytest.mark.parametrize("dim", [8, 16])
    def test_tp_compatible_basis(self, dim):
        basis = conic._tp_compatible_basis(dim)
        assert basis.shape == (dim * dim, dim * dim - 3)
        assert np.abs(basis.T @ basis - np.eye(dim * dim - 3)).max() <= 1e-12
        n = dim // 2
        traced = np.trace(conic.unsvec(basis.T, dim).reshape(-1, 2, n, 2, n), axis1=2, axis2=4)
        scalar = np.trace(traced, axis1=1, axis2=2)[:, None, None] / 2 * np.eye(2)
        assert np.abs(traced - scalar).max() <= 1e-12  # Tr_out of every column is a multiple of I
        projector = tp_compatible_projector_by_complement(dim)
        assert np.abs(basis @ basis.T - projector).max() <= 1e-12

    @pytest.mark.parametrize("name", NULL_SPACE_CASES)
    def test_null_basis_is_annihilated_by_the_choi_application_system(self, name):
        marginal, target = NULLITY_CASES[name]
        null = conic._RecoverySystem(marginal, target).null_basis
        assert np.abs(null.T @ null - np.eye(null.shape[1])).max() <= 1e-12
        act_on = reg._acted_on(marginal.labels, target.labels)[0]
        matrix, _ = recovery_system_by_choi_application(marginal, target, act_on)
        # the rank rule: N spans singular values of M at most 1e-12 times its largest
        assert np.linalg.norm(matrix @ null, 2) <= 1e-12 * np.linalg.norm(matrix, 2) + 1e-15

    def test_there_are_null_space_cases(self):
        assert len(NULL_SPACE_CASES) >= 10

    @pytest.mark.parametrize("name", list(DUAL_CASES))
    def test_ball_point_matches_the_eigh_roots(self, name):
        choi = conic._RecoverySystem(*DUAL_CASES[name]).choi_ls
        n = len(choi) // 2
        rng = np.random.default_rng(34)
        for radius in [*rng.uniform(0.0, 1.0, size=6), 0.999]:
            direction = rng.normal(size=3)
            r = radius * direction / np.linalg.norm(direction)
            value, _, _, duals, _, _ = conic._ball_point(choi, r)
            expected = ball_value_by_eigh_roots(choi, r)
            assert abs(value - expected) <= 1e-12 * max(1.0, expected), (radius, value, expected)
            weight = np.kron(np.eye(2) + np.einsum("k,kij->ij", r, PAULI), np.eye(n))
            assert np.abs(duals[0] + duals[1] - weight).max() <= 1e-12

    @pytest.mark.parametrize("name", list(DUAL_CASES))
    def test_second_order_split_is_psd_and_tp_to_first_order(self, name):
        choi = conic._RecoverySystem(*DUAL_CASES[name]).choi_ls
        n = len(choi) // 2
        rng = np.random.default_rng(36)
        for radius in (0.0, *rng.uniform(0.0, 0.9, size=4)):
            direction = rng.normal(size=3)
            r = radius * direction / np.linalg.norm(direction)
            value, gradient, hessian, _, split, refine = conic._ball_point(choi, r)
            gram = -hessian / 2
            weight = np.kron(np.eye(2) + np.einsum("k,kij->ij", r, PAULI), np.eye(n))

            def bloch_residual(j2):
                traced = np.trace(j2.reshape(2, n, 2, n), axis1=1, axis2=3)
                return np.einsum("kij,ji->k", PAULI, traced).real

            assert np.abs(refine(np.zeros(3)) - split).max() <= 1e-12
            assert np.abs(bloch_residual(split) - gradient).max() <= 1e-12
            for mu in (rng.normal(size=3), 1e-3 * rng.normal(size=3)):
                j2 = refine(mu)
                scale = max(1.0, np.abs(j2).max())
                assert np.linalg.eigvalsh(j2)[0] >= -1e-12 * scale
                assert np.linalg.eigvalsh(choi + j2)[0] >= -1e-12 * scale
                # the sigma part of Tr_out moves by 2 G mu plus a term even in mu
                odd = (bloch_residual(j2) - bloch_residual(refine(-mu))) / 2
                assert np.abs(odd - 2.0 * gram @ mu).max() <= 1e-10 * scale
                # the price over f is the Newton decrement mu' G mu
                price = np.vdot(weight, j2).real - value
                assert price == pytest.approx(mu @ gram @ mu, rel=1e-9, abs=1e-12)

    def test_default_answers_compute_the_least_squares_residual_once(self, monkeypatch):
        marginal, target = fresh_pair("GHZ4")
        counts = count_calls(monkeypatch, [(SolverConfig, "__post_init__")])
        measured = []
        maxabs = conic._maxabs

        def recording(v):
            measured.append(v)
            return maxabs(v)

        monkeypatch.setattr(conic, "_maxabs", recording)
        cptp = conic.cptp_certify(marginal, target)[0]
        overhead = conic.sampling_overhead(marginal, target)
        assert cptp.debug == overhead.solution.debug == {"method": "least_squares"}
        assert counts == {"__post_init__": 0}
        system = conic._last_system
        assert system.target is target
        assert sum(v is system.ls_gap for v in measured) == 1


def scaled_ghz4(scale):
    """GHZ4 times ``scale`` as an unnormalized state, with its D-marginal."""
    target = DensityOperator(register=QubitRegister(("A", "B", "C", "D")),
                             matrix=scale * reg.make_state("GHZ4").matrix, normalized=False)
    return reg.partial_trace(target, "D"), target


RECOVERY_CALLS = {
    "cptp_certify": conic.cptp_certify,
    "sampling_overhead": conic.sampling_overhead,
    "build_cptp_feasibility": conic.build_cptp_feasibility,
    "build_overhead_problem": conic.build_overhead_problem,
}


class TestUnitTraceTarget:
    @pytest.mark.parametrize("call", list(RECOVERY_CALLS))
    def test_a_target_whose_trace_is_not_one_is_refused(self, call):
        # the tolerances are absolute, so a verdict on these would depend on the scale
        for scale in (1e-8, 1e-6, 1e3, 0.0):
            marginal, target = scaled_ghz4(scale)
            message = re.escape(f"target has trace {target.trace()!r}, not 1")
            with pytest.raises(ValueError, match=message):
                RECOVERY_CALLS[call](marginal, target)
        # the trace decides, not the flag: a unit-trace target flagged unnormalized,
        # as an HPTP-extended state is, gets the normalized state's answer
        marginal, target = scaled_ghz4(1.0)
        normalized = reg.make_state("GHZ4")
        expected = RECOVERY_CALLS[call](reg.partial_trace(normalized, "D"), normalized)
        answer = RECOVERY_CALLS[call](marginal, target)
        if call == "cptp_certify":
            assert answer[0].to_dict() == expected[0].to_dict()
        elif call == "sampling_overhead":
            assert answer.to_dict() == expected.to_dict()
