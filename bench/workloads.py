"""Corpora, per-state answers and output checks for the four workloads.

``screen``, ``direct`` and ``iterative`` carry each state of a seeded corpus
through the library in-process; ``cli`` runs a scripted session of fresh
``vqmc`` processes. Every output is checked against ``oracles``, which
never call the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import generators as gen
import oracles

EPS_INFEASIBLE = 1e-5  # vqmc's default SolverConfig.eps_infeasible
CERT_TOL = 1e-6
VALUE_TOL = 1e-6
# Fixed inputs on which sampling_overhead stops at MAX_ITER after 50 000
# phase-2 iterations although the affine system is consistent (see README):
# the HPTP-extension state from generator seed 1, and the third of the
# classical-C Markov states drawn from generator seed 0.
MAX_ITER_FAULT_SEED = 1
MARKOV_SEED = 0
MARKOV_COUNT = 8
MARKOV_MAX_ITER_INDEX = 2
VIRTUAL_ONLY_COUNT = 89
SWEEP_POINTS = 21


@dataclass
class Item:
    label: str
    matrix: np.ndarray
    extension: np.ndarray | None = None  # Choi matrix of the generating extension map
    nu: float | None = None  # known exact overhead
    max_iter_fault: bool = False
    oracle: dict = field(default_factory=dict)
    state: object = None  # vqmc DensityOperator, built in setup


def _mix_grid(count: int) -> list[Item]:
    return [Item(f"MIX p={k / 20:g}", gen.mix(k / 20)) for k in range(count)]


def _convex_mix(rng, count: int) -> list[Item]:
    lams = rng.uniform(0.05, 0.95, size=count)
    return [Item(f"CONVEX_MIX lambda={lam:.3f}", gen.convex_mix(lam)) for lam in lams]


def screen_corpus(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 1])
    items = [Item(f"generic #{k}", gen.generic_state(rng)) for k in range(100)]
    items += [Item(f"low-rank #{k}", gen.low_rank_state(rng)) for k in range(100)]
    items += [Item(f"markov #{k}", gen.markov_state(rng)[0]) for k in range(100)]
    items += [Item("W4", gen.w4()), Item("GHZ4", gen.ghz4()), Item("RHO2", gen.rho2())]
    return items + _mix_grid(21) + _convex_mix(rng, 9)


def direct_corpus(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 2])
    items = [Item(f"generic #{k}", gen.generic_state(rng)) for k in range(40)]
    items.append(Item("GHZ4", gen.ghz4()))
    return items + _mix_grid(20) + _convex_mix(rng, 9)


def iterative_corpus(seed: int) -> list[Item]:
    """W4, RHO2, the fixed Markov states, seeded virtual-only states and the
    HPTP-extension fault state: 100 states."""
    items = [Item("W4", gen.w4(), nu=math.log2(3.0)), Item("RHO2", gen.rho2(), nu=0.0)]
    rng = np.random.default_rng(MARKOV_SEED)
    for k in range(MARKOV_COUNT):
        state, choi = gen.markov_state(rng)
        items.append(Item(f"markov #{k}", state, extension=choi, nu=0.0,
                          max_iter_fault=k == MARKOV_MAX_ITER_INDEX))
    rng = np.random.default_rng([seed, 3])
    for k in range(VIRTUAL_ONLY_COUNT):
        state, choi = gen.virtual_only_state(rng)
        items.append(Item(f"virtual-only #{k}", state, extension=choi))
    state, choi = gen.hptp_extension_state(np.random.default_rng(MAX_ITER_FAULT_SEED))
    items.append(Item("hptp-extension (MAX_ITER fault)", state, extension=choi, max_iter_fault=True))
    return items


CORPORA = {"screen": screen_corpus, "direct": direct_corpus, "iterative": iterative_corpus}
OPS_PER_STATE = {"screen": 1, "direct": 3, "iterative": 3}


def build_states(items: list[Item]) -> None:
    from vqmc import registers

    register = registers.QubitRegister(("A", "B", "C", "D"))
    for item in items:
        item.state = registers.DensityOperator(register=register, matrix=item.matrix)


def compute_oracles(items: list[Item], full: bool) -> None:
    for item in items:
        item.oracle["inclusion"] = oracles.inclusion(item.matrix)
        if full:
            item.oracle["cmi"] = oracles.cmi(item.matrix)
            residual, choi = oracles.least_squares_extension(item.matrix)
            item.oracle["ls_residual"] = residual
            if residual <= EPS_INFEASIBLE:
                extension = item.extension if item.extension is not None else choi
                item.oracle["bracket"] = oracles.overhead_bracket(extension)


# ---------------------------------------------------------------------------
# In-process answers
# ---------------------------------------------------------------------------


def answer(item: Item, full: bool) -> dict:
    """Carry one state to its full answer: inclusion, then CPTP and overhead."""
    from vqmc import conic, markov, registers

    marginal = registers.partial_trace(item.state, "D")
    out = {"inclusion": markov.kernel_inclusion_check(marginal)}
    if full:
        out["cptp"] = conic.cptp_certify(marginal, item.state)
        out["hptp"] = conic.sampling_overhead(marginal, item.state)
    return out


def check_inclusion(expected: dict, verdict: bool, dims) -> list[str]:
    problems = []
    if verdict != expected["verdict"]:
        problems.append(f"inclusion verdict {verdict}, oracle {expected['verdict']}")
    if [tuple(d) for d in dims] != expected["ker_dims"]:
        problems.append(f"kernel dims {dims}, oracle {expected['ker_dims']}")
    return problems


def check(item: Item, out: dict) -> tuple[list[str], int]:
    """Compare one answer with the oracles; returns (problems, failed operations)."""
    report = out["inclusion"]
    dims = [(o.ker_dim_ac, o.ker_dim_bc) for o in report.per_outcome]
    problems = check_inclusion(item.oracle["inclusion"], report.verdict, dims)
    if "cptp" not in out:
        return problems, 0

    solution, choi, _ = out["cptp"]
    recoverable = item.oracle["cmi"] <= oracles.CMI_ZERO
    if (solution.status == "FEASIBLE") != recoverable or solution.status not in ("FEASIBLE", "INFEASIBLE"):
        problems.append(f"CPTP {solution.status} but I(AB:D|C) = {item.oracle['cmi']:.3e}")
    if choi is not None and oracles.certificate_residual(item.matrix, choi.matrix) > CERT_TOL:
        problems.append("CPTP certificate fails the independent Choi application")

    overhead = out["hptp"]
    if item.oracle["ls_residual"] > EPS_INFEASIBLE:
        if not (overhead.status == "INFEASIBLE" and math.isinf(overhead.nu)):
            problems.append(f"overhead {overhead.status} nu={overhead.nu} on an inconsistent system")
        return problems, 0
    if overhead.status == "MAX_ITER" and item.max_iter_fault:
        return problems, 1
    if overhead.status != "OPTIMAL":
        problems.append(f"overhead {overhead.status} on a consistent system")
        return problems, 0
    total = overhead.c1 + overhead.c2
    lo, hi = item.oracle["bracket"]
    if not lo - VALUE_TOL <= total <= hi + VALUE_TOL:
        problems.append(f"c1+c2 = {total} outside the bracket [{lo}, {hi}]")
    if abs(overhead.c1 - overhead.c2 - 1.0) > VALUE_TOL:
        problems.append(f"c1 - c2 = {overhead.c1 - overhead.c2}")
    if item.nu is not None and abs(overhead.nu - item.nu) > VALUE_TOL:
        problems.append(f"nu = {overhead.nu}, expected {item.nu}")
    if oracles.certificate_residual(item.matrix, overhead.choi_difference.matrix) > CERT_TOL:
        problems.append("overhead certificate fails the independent Choi application")
    return problems, 0


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------

REPORT_KEYS = {"command", "inputs", "results", "config", "version", "timestamp"}
EXIT_FOR_STATUS = {"OPTIMAL": 0, "FEASIBLE": 0, "INFEASIBLE": 2}


def session_commands(state_file: str) -> list[list[str]]:
    return [
        ["--version"],
        ["inclusion", "--builtin", "W4"],
        ["certify", "--builtin", "W4", "--mode", "hptp"],
        ["certify", "--builtin", "W4", "--mode", "cptp"],
        ["certify", "--builtin", "GHZ4", "--mode", "cptp"],
        ["certify", state_file, "--mode", "hptp"],
        ["sweep", "--family", "MIX", "--grid", "0:1:21"],
    ]


def cli_oracles(seeded_state: np.ndarray) -> dict:
    """Expected answers for every state the session touches."""

    def answers(matrix):
        residual, _ = oracles.least_squares_extension(matrix)
        return {"inclusion": oracles.inclusion(matrix), "cmi": oracles.cmi(matrix),
                "ls_residual": residual}

    return {
        "W4": answers(gen.w4()),
        "GHZ4": answers(gen.ghz4()),
        "seeded": answers(seeded_state),
        "sweep": [answers(gen.mix(k / 20)) for k in range(SWEEP_POINTS)],
    }


def _cptp_status(expected: dict) -> str:
    return "FEASIBLE" if expected["cmi"] <= oracles.CMI_ZERO else "INFEASIBLE"


def _check_overhead(expected: dict, results: dict, nu: float | None) -> list[str]:
    if expected["ls_residual"] > EPS_INFEASIBLE:
        if results.get("nu") != "inf" or results.get("status") != "INFEASIBLE":
            return [f"overhead {results.get('status')} nu={results.get('nu')} on an inconsistent system"]
        return []
    problems = []
    if results.get("status") != "OPTIMAL":
        problems.append(f"overhead status {results.get('status')}")
    elif nu is not None and abs(results["nu"] - nu) > VALUE_TOL:
        problems.append(f"nu = {results['nu']}, expected {nu}")
    return problems


def check_cli(argv: list[str], code: int, stdout: str, expected: dict) -> list[str]:
    """Exit code and report fields of one invocation against the documented rules."""
    if argv == ["--version"]:
        ok = code == 0 and stdout.startswith("vqmc ") and len(stdout.split()) == 2
        return [] if ok else [f"--version exited {code} with {stdout!r}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"{argv}: stdout is not one JSON report (exit {code})"]
    if set(report) != REPORT_KEYS:
        return [f"{argv}: report keys {sorted(report)}"]
    results = report["results"]
    command = argv[0]
    if command == "inclusion":
        want = expected["W4"]["inclusion"]
        dims = [(o["ker_dim_ac"], o["ker_dim_bc"]) for o in results["outcomes"]]
        problems = check_inclusion(want, results["verdict"], dims)
        if code != (0 if results["verdict"] else 2):
            problems.append(f"inclusion exit {code} for verdict {results['verdict']}")
        return problems
    if command == "certify":
        key = argv[2] if argv[1] == "--builtin" else "seeded"
        want = expected[key]
        if argv[-1] == "cptp":
            problems = []
            if results["status"] != _cptp_status(want):
                problems.append(f"{key} CPTP {results['status']}, I(AB:D|C) = {want['cmi']:.3e}")
        else:
            nu = math.log2(3.0) if key == "W4" else None
            problems = _check_overhead(want, results, nu)
            if key == "W4" and not problems:
                if abs(results["c1"] - 2.0) > VALUE_TOL or abs(results["c2"] - 1.0) > VALUE_TOL:
                    problems.append(f"W4 c1={results['c1']} c2={results['c2']}, expected 2 and 1")
                if results["certificate_residual"] > CERT_TOL:
                    problems.append(f"W4 certificate residual {results['certificate_residual']}")
        if code != EXIT_FOR_STATUS.get(results["status"], 3):
            problems.append(f"certify exit {code} for status {results['status']}")
        return problems
    # sweep
    problems = [] if code == 0 else [f"sweep exit {code}"]
    rows = results["rows"]
    if len(rows) != SWEEP_POINTS:
        return problems + [f"sweep returned {len(rows)} rows"]
    for k, (row, want) in enumerate(zip(rows, expected["sweep"])):
        if abs(row["p"] - k / 20) > 1e-12 or "error" in row:
            problems.append(f"sweep row {k}: p={row['p']} error={row.get('error')}")
            continue
        if row["inclusion"] != want["inclusion"]["verdict"]:
            problems.append(f"sweep p={row['p']}: inclusion {row['inclusion']}")
        if row["cptp"] != _cptp_status(want):
            problems.append(f"sweep p={row['p']}: CPTP {row['cptp']}")
        nu = math.log2(3.0) if k == SWEEP_POINTS - 1 else None
        problems += [f"sweep p={row['p']}: {p}" for p in
                     _check_overhead(want, {"status": row["hptp"], "nu": row["nu"]}, nu)]
    return problems
