"""Acceptance gate: one test (or named sub-test) per shipped criterion.

Each criterion is asserted exactly as stated, at its stated tolerance, with
its stated runtime budget. A per-criterion PASS/FAIL line is printed in the
terminal summary (see conftest).

Several criteria pin worked-example values that disagree with what the
defining formulas actually evaluate to. Those assertions are kept faithful
to the stated criterion and therefore fail; the computed ground truth is
recorded next to each one and established independently in
tests/oracles.py and the unit-test modules:

  - the four-qubit W state admits no recovery channel acting on C alone
    (the unique linear extension has an indefinite Choi, spectrum
    {3, 0, ..., 0, -1}), so its minimal quasiprobability cost is
    c1 + c2 = 3, nu = log2(3), not 1 and 0   -> criteria 1, 2, 10, 11
  - its conditional block at outcome 0 is diag(1/2, 0, 1/4, 0) with a
    two-dimensional kernel, not a rank-one matrix with a three-dimensional
    kernel                                    -> criterion 5 (outcome 0)
  - its four traced single-index blocks on B are pairwise distinct, so the
    pairwise linearity test finds no witness  -> criterion 6
"""

import json
import math
import time

import numpy as np
import pytest

from vqmc import cli, conic, linops, markov
from vqmc import registers as reg
from vqmc.registers import DensityOperator, QubitRegister, ket, projector

import oracles
from conftest import FIXTURES, random_cptp_choi, random_density, random_psd


def w4():
    return reg.make_state("W4")


def w4_marginal():
    return reg.partial_trace(w4(), "D")


def subspace_equal(basis: linops.SubspaceBasis, columns: np.ndarray, tol: float) -> bool:
    other = linops.SubspaceBasis.from_columns(columns)
    forward, _ = linops.subspace_contained(basis, other, tol=tol)
    backward, _ = linops.subspace_contained(other, basis, tol=tol)
    return forward and backward


# -- criterion 1: W recovery, analytic path ---------------------------------


def test_criterion_01_w4_analytic_recovery():
    """apply_choi(Tr_D W4, W_RECOVERY, C) equals W4 with max-abs error <= 1e-12.

    Computed ground truth: the residual is 0.25 (the block-diagonal Choi
    cannot produce the C-off-diagonal coherences of the W state).
    """
    start = time.perf_counter()
    residual = markov.verify_recovery(w4(), w4_marginal(), reg.make_channel_choi("W_RECOVERY"))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    assert residual <= 1e-12, f"analytic W recovery residual {residual} (computed truth: 0.25)"


# -- criterion 2: W recovery, solver path ------------------------------------


def test_criterion_02_w4_solver_feasibility():
    """CPTP feasibility on (Tr_D W4, W4) is FEASIBLE with residual <= 1e-6.

    Computed ground truth: INFEASIBLE; the Petz map misses the state by
    1/6 in its largest entry.
    """
    start = time.perf_counter()
    solution, _, residual = conic.cptp_certify(w4_marginal(), w4())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert solution.iterations <= 50000
    assert solution.status == conic.FEASIBLE, (
        f"status {solution.status}, phase-1 residual {solution.primal_residual:.4f}"
    )
    assert residual is not None and residual <= 1e-6


def test_criterion_02_w4_overhead_value():
    """sampling_overhead on (Tr_D W4, W4) returns c1+c2 = 1 +- 1e-5, nu = 0 +- 2e-5.

    Computed ground truth: c1+c2 = 3 (c1 = 2, c2 = 1), nu = log2(3).
    """
    start = time.perf_counter()
    result = conic.sampling_overhead(w4_marginal(), w4())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert result.status == conic.OPTIMAL
    assert result.c1 + result.c2 == pytest.approx(1.0, abs=1e-5), (
        f"c1+c2 = {result.c1 + result.c2} (computed truth: 3)"
    )
    assert result.nu == pytest.approx(0.0, abs=2e-5)


# -- criterion 3: GHZ non-recoverability --------------------------------------


def test_criterion_03_ghz4_infeasible_both_ways():
    """GHZ4: channel recovery INFEASIBLE (violation > 1e-5), overhead +inf."""
    start = time.perf_counter()
    ghz4 = reg.make_state("GHZ4")
    marginal = reg.partial_trace(ghz4, "D")
    solution = conic.solve(conic.build_cptp_feasibility(marginal, ghz4))
    overhead = conic.sampling_overhead(marginal, ghz4)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert solution.status == conic.INFEASIBLE
    assert solution.primal_residual > 1e-5
    assert overhead.status == conic.INFEASIBLE
    assert math.isinf(overhead.nu)


# -- criterion 4: mixtures pass inclusion yet have no virtual recovery --------


def test_criterion_04_mixture_necessity_without_sufficiency():
    """For p in {0.25, 0.5, 0.75}: inclusion passes while overhead is +inf."""
    start = time.perf_counter()
    for p in (0.25, 0.5, 0.75):
        state = reg.make_state("MIX", p=p)
        marginal = reg.partial_trace(state, "D")
        assert markov.kernel_inclusion_check(marginal).verdict is True, f"p={p}"
        overhead = conic.sampling_overhead(marginal, state)
        assert math.isinf(overhead.nu), f"p={p}"
    assert time.perf_counter() - start < 30.0


# -- criterion 5: explicit kernel values ---------------------------------------


def test_criterion_05_kernel_of_outcome_zero_block():
    """Ker of the outcome-0 block of Tr_D W4 equals span{|01>,|11>,|00>-|10>}.

    Computed ground truth: the block is diag(1/2, 0, 1/4, 0); its kernel is
    the two-dimensional span{|01>, |11>}.
    """
    block = markov.conditional_block(w4_marginal(), "C", 0, {"B"})
    kernel = linops.kernel_basis(block.matrix)
    expected = np.stack([ket("01"), ket("11"), (ket("00") - ket("10")) / np.sqrt(2)], axis=1)
    assert subspace_equal(kernel, expected, tol=1e-10), (
        f"kernel dimension {kernel.dim} (computed truth: 2, asserted: 3)"
    )


def test_criterion_05_kernel_of_outcome_one_block():
    """Ker of the outcome-1 block of Tr_D W4 equals span{|00>,|10>,|11>}."""
    block = markov.conditional_block(w4_marginal(), "C", 1, {"B"})
    kernel = linops.kernel_basis(block.matrix)
    expected = np.stack([ket("00"), ket("10"), ket("11")], axis=1)
    assert subspace_equal(kernel, expected, tol=1e-10)


# -- criterion 6: two-qubit-marginal impossibility -----------------------------


def test_criterion_06_two_qubit_block_witness():
    """Blocks of W4 over A (keep B) are inconsistent with a witness pair whose
    traced parts both equal |0><0|/4 within 1e-12.

    Computed ground truth: the traced blocks are diag(1/2,1/4), |1><0|/4,
    |0><1|/4 and |0><0|/4 -- pairwise distinct, so no witness exists and the
    pairwise report is 'consistent'.
    """
    report = markov.marginal_block_consistency(w4(), "B", {"C", "D"})
    assert not report.consistent, "pairwise check found no witness (computed truth)"
    quarter00 = 0.25 * projector(ket("0"))
    found = False
    blocks = {(b.row, b.col): b.matrix for b in markov.operator_blocks(w4(), ["A"])}
    for witness in report.witnesses:
        traced = [
            markov._trace_out_axes(blocks[pair], 3, [1, 2])
            for pair in (witness.first, witness.second)
        ]
        if all(np.abs(t - quarter00).max() <= 1e-12 for t in traced):
            found = True
    assert found


# -- criterion 7: append-channel example ---------------------------------------


def test_criterion_07_append_channel_exact():
    """APPEND_ZERO is trace-preserving to 1e-12 and extends GHZ3 exactly."""
    choi = reg.make_channel_choi("APPEND_ZERO")
    reduced = np.trace(choi.matrix.reshape(2, 4, 2, 4), axis1=1, axis2=3)
    assert np.abs(reduced - np.eye(2)).max() <= 1e-12
    ghz3 = reg.make_state("GHZ3")
    target = reg.tensor(
        ghz3, DensityOperator(register=QubitRegister(("D",)), matrix=projector(ket("0")))
    )
    assert markov.verify_recovery(target, ghz3, choi) <= 1e-12


# -- criterion 8: property suites ----------------------------------------------


def test_criterion_08_support_kernel_duality_and_rank():
    """Duality and rank monotonicity over 200 seeded PSD pairs; zero violations."""
    for seed in range(200):
        rng = np.random.default_rng(8000 + seed)
        dim = int(rng.integers(3, 9))
        rank_x = int(rng.integers(1, dim))
        if seed % 2 == 0:
            frame = np.linalg.qr(
                rng.standard_normal((dim, rank_x)) + 1j * rng.standard_normal((dim, rank_x))
            )[0]
            rank_y = int(rng.integers(1, rank_x + 1))
            x = frame @ random_psd(rng, rank_x) @ frame.conj().T
            y = frame[:, :rank_y] @ random_psd(rng, rank_y) @ frame[:, :rank_y].conj().T
        else:
            x = random_psd(rng, dim, rank_x)
            y = random_psd(rng, dim, dim)
        ker_incl, _ = linops.subspace_contained(linops.kernel_basis(x), linops.kernel_basis(y))
        supp_incl, _ = linops.subspace_contained(
            linops.support_basis(y), linops.support_basis(x)
        )
        assert ker_incl == supp_incl
        if ker_incl:
            assert linops.rank_of(x) >= linops.rank_of(y)


def test_criterion_08_weight_conservation():
    """Conditional-block weights sum to the parent trace on 100 random states."""
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        state = DensityOperator(
            register=QubitRegister(("A", "B", "C")), matrix=random_density(rng, 8)
        )
        for measure in ("A", "B", "C"):
            other = [lab for lab in ("A", "B", "C") if lab != measure][0]
            total = sum(
                markov.conditional_block(state, measure, j, {other}).weight for j in (0, 1)
            )
            assert abs(total - state.trace()) <= 1e-10


def test_criterion_08_solver_soundness_rechecks():
    """Every feasible solve satisfies equalities within 10x eps and PSD within 10x eps."""
    cfg = conic.SolverConfig()
    ghz3 = reg.make_state("GHZ3")
    target = reg.tensor(
        ghz3, DensityOperator(register=QubitRegister(("D",)), matrix=projector(ket("0")))
    )
    rho2 = reg.make_state("RHO2")
    instances = [
        conic.build_cptp_feasibility(ghz3, target),
        conic.build_cptp_feasibility(reg.partial_trace(rho2, "D"), rho2),
        conic.build_overhead_problem(reg.partial_trace(rho2, "D"), rho2),
        conic.build_overhead_problem(w4_marginal(), w4()),
    ]
    for problem in instances:
        solution = conic.solve(problem, cfg)
        assert solution.status in (conic.OPTIMAL, conic.FEASIBLE)
        worst = 0.0
        for con in problem.equalities:
            value = sum(
                float(np.trace(np.asarray(data).conj().T @ solution.block_values[name]).real)
                for name, data in con.blocks.items()
            ) + sum(c * solution.scalar_values[name] for name, c in con.scalars.items())
            worst = max(worst, abs(value - con.rhs))
        assert worst <= 10 * cfg.eps_feasible
        eig = min(
            float(np.linalg.eigvalsh(solution.block_values[name])[0])
            for name, _ in problem.psd_blocks
        )
        assert eig >= -10 * cfg.eps_psd


def test_criterion_08_channel_application_properties():
    """Linearity within 1e-11 and CPTP preservation within 1e-10, 50 channels."""
    register = QubitRegister(("A", "C"))
    for seed in range(50):
        rng = np.random.default_rng(10000 + seed)
        choi = reg.ChoiOperator(matrix=random_cptp_choi(rng))
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        alpha = float(rng.uniform(0.1, 0.9))
        mixed = DensityOperator(register=register, matrix=alpha * rho + (1 - alpha) * sigma)
        lhs = markov.apply_choi(mixed, choi, "C").matrix
        rhs = alpha * markov.apply_choi(
            DensityOperator(register=register, matrix=rho), choi, "C"
        ).matrix + (1 - alpha) * markov.apply_choi(
            DensityOperator(register=register, matrix=sigma), choi, "C"
        ).matrix
        assert np.abs(lhs - rhs).max() <= 1e-11
        out = markov.apply_choi(DensityOperator(register=register, matrix=rho), choi, "C")
        assert abs(out.trace() - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10


# -- criterion 9: oracle-fixed open items ---------------------------------------


def test_criterion_09_fixtures_match_fresh_oracle_run():
    """The committed inclusion fixtures agree with a fresh independent-oracle run."""
    with open(FIXTURES / "inclusion_oracle.json", encoding="utf-8") as fh:
        committed = json.load(fh)
    fresh = {
        name: oracles.inclusion_oracle(state) for name, state in oracles.fixture_cases().items()
    }
    assert set(committed["cases"]) == {"GHZ4", "CONVEX_MIX_0.5", "MIX_0.05"}
    for name, case in fresh.items():
        stored = committed["cases"][name]
        assert stored["verdict"] == case["verdict"]
        for stored_outcome, fresh_outcome in zip(stored["outcomes"], case["outcomes"]):
            assert stored_outcome["contained"] == fresh_outcome["contained"]
            assert abs(stored_outcome["max_leak"] - fresh_outcome["max_leak"]) <= 1e-10


def test_criterion_09_library_matches_fixtures():
    """The library's inclusion verdicts reproduce the committed oracle verdicts."""
    with open(FIXTURES / "inclusion_oracle.json", encoding="utf-8") as fh:
        committed = json.load(fh)
    states = {
        "GHZ4": reg.make_state("GHZ4"),
        "CONVEX_MIX_0.5": reg.mix(reg.make_state("W4"), reg.make_state("RHO2"), 0.5),
        "MIX_0.05": reg.make_state("MIX", p=0.05),
    }
    for name, state in states.items():
        report = markov.kernel_inclusion_check(reg.partial_trace(state, "D"))
        assert report.verdict == committed["cases"][name]["verdict"], name


# -- criterion 10: non-convexity demo --------------------------------------------


def test_criterion_10_endpoints_cptp_feasible():
    """Both segment endpoints (W4 and RHO2) are channel-recoverable.

    Computed ground truth: RHO2 is; W4 is not (no CPTP extension exists).
    """
    rho2 = reg.make_state("RHO2")
    sol_rho2 = conic.solve(conic.build_cptp_feasibility(reg.partial_trace(rho2, "D"), rho2))
    assert sol_rho2.status == conic.FEASIBLE
    sol_w4 = conic.solve(conic.build_cptp_feasibility(w4_marginal(), w4()))
    assert sol_w4.status == conic.FEASIBLE, (
        f"W4 endpoint: {sol_w4.status} (computed truth: INFEASIBLE)"
    )


def test_criterion_10_midpoint_matches_fixture(capsys):
    """The midpoint inclusion verdict matches the committed fixture; a failing
    fixture verdict must surface as exit code 2 with a named leaking vector."""
    with open(FIXTURES / "inclusion_oracle.json", encoding="utf-8") as fh:
        fixture = json.load(fh)["cases"]["CONVEX_MIX_0.5"]
    code = cli.main(["demo", "nonconvexity"])
    out = capsys.readouterr().out
    report = json.loads(out)
    rows = {row["lambda"]: row for row in report["results"]["rows"]}
    assert rows[0.5]["inclusion"] == fixture["verdict"]
    if fixture["verdict"]:
        assert code == 0
    else:
        assert code == 2
        assert "leaking_vector" in report["results"]


# -- criterion 11: sweep -----------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_run():
    grid = [round(0.05 * k, 2) for k in range(21)]
    start = time.perf_counter()
    report = conic.recoverability_sweep(lambda p: reg.make_state("MIX", p=p), grid)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_11_sweep_grid_and_inclusion(sweep_run):
    """21 points complete under 60 s; inclusion holds at every p >= 0.25; the
    p = 0.05 entry matches the committed oracle fixture."""
    report, elapsed = sweep_run
    assert elapsed < 60.0
    assert len(report.rows) == 21
    assert not any(row.error for row in report.rows)
    for row in report.rows:
        if row.p >= 0.25:
            assert row.inclusion_verdict is True, f"p={row.p}"
    with open(FIXTURES / "inclusion_oracle.json", encoding="utf-8") as fh:
        fixture = json.load(fh)["cases"]["MIX_0.05"]
    row005 = next(row for row in report.rows if row.p == 0.05)
    assert row005.inclusion_verdict == fixture["verdict"]


def test_criterion_11_endpoint_row(sweep_run):
    """The p = 1.0 row shows a feasible channel recovery with nu = 0 +- 2e-5.

    Computed ground truth: CPTP-INFEASIBLE with nu = log2(3).
    """
    report, _ = sweep_run
    row = next(row for row in report.rows if row.p == 1.0)
    assert row.cptp_status == conic.FEASIBLE, (
        f"cptp {row.cptp_status} (computed truth: INFEASIBLE)"
    )
    assert row.nu == pytest.approx(0.0, abs=2e-5), f"nu {row.nu} (computed truth: log2 3)"
