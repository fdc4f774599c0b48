"""Command-line front end.

Subcommands: state, inclusion, certify, sweep, demo. Every command prints a
RunReport as JSON (floats at 17 significant digits, +inf as the string
"inf"); --pretty indents it. Exit codes are a stable contract:

    0  pass / feasible
    1  usage or IO error
    2  fail / infeasible
    3  undetermined (solver dead zone or iteration cap)

Reports are deterministic for fixed inputs and flags except the timestamp.

Each command imports the modules it uses when it runs, so building the
parser, --version and --help load no numpy. The solver flags and --tol
default to None, which stands for conic.SolverConfig's defaults and
markov.INCLUSION_LEAK_TOL.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

from . import __version__, _json

if TYPE_CHECKING:
    from . import conic, markov, registers

BUILTIN_NAMES = ("GHZ4", "W4", "MIX", "RHO2", "GHZ3", "CONVEX_MIX")
# Most points of a start:stop:count grid; a larger count is refused before any is built.
MAX_GRID_COUNT = 100_000

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_UNDETERMINED = 3


class UsageError(ValueError):
    pass


def build_builtin(name: str, p: float | None = None, lam: float | None = None):
    from . import registers

    name = name.upper()
    if name == "CONVEX_MIX":
        if lam is None:
            raise UsageError("CONVEX_MIX requires --lambda")
        if not 0.0 <= lam <= 1.0:
            raise UsageError(f"--lambda must lie in [0, 1], got {lam}")
        return registers.mix(registers.make_state("W4"), registers.make_state("RHO2"), lam)
    if name == "MIX":
        if p is None:
            raise UsageError("MIX requires --p")
        return registers.make_state("MIX", p=p)
    if name in registers.STATE_NAMES:
        return registers.make_state(name)
    raise UsageError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")


def _resolve_state(args) -> tuple[registers.DensityOperator, dict]:
    from . import registers

    inputs: dict = {}
    if getattr(args, "builtin", None):
        state = build_builtin(args.builtin, p=args.p, lam=args.lam)
        inputs["builtin"] = args.builtin.upper()
        if args.p is not None:
            inputs["p"] = args.p
        if args.lam is not None:
            inputs["lambda"] = args.lam
    elif getattr(args, "state_file", None):
        state = registers.load_state(args.state_file)
        inputs["state_file"] = args.state_file
    else:
        raise UsageError("provide either --builtin NAME or a state file path")
    return state, inputs


def _marginal_of(state: registers.DensityOperator) -> registers.DensityOperator:
    from . import registers

    if state.register.n_qubits == 4:
        return registers.partial_trace(state, state.labels[-1])
    if state.register.n_qubits == 3:
        return state
    raise UsageError(f"expected a 3- or 4-subsystem state, got labels {state.labels}")


def _solver_config(args) -> conic.SolverConfig:
    """The solver flags given on the command line over SolverConfig's defaults."""
    from .conic import SolverConfig

    flags = {"eps_feasible": args.eps_feas, "eps_infeasible": args.eps_infeasible,
             "max_iterations": args.max_iter}
    return SolverConfig(**{key: value for key, value in flags.items() if value is not None})


def _report(command: str, inputs: dict, results: dict, config: dict | None = None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "config": config or {},
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _print(report: dict, args) -> None:
    """Write the report to ``--out``, if given, then to stdout, so that an
    unwritable path leaves nothing on stdout."""
    indent = 1 if args.pretty else None
    text = _json.dumps(report, indent=indent) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_state(args) -> int:
    from . import registers

    state = build_builtin(args.name, p=args.p, lam=args.lam)
    if args.out:
        registers.save_state(state, args.out)
        payload = _report(
            "state",
            {"name": args.name.upper(), "p": args.p, "lambda": args.lam},
            {"written": args.out, "dim": state.dim},
        )
    else:
        payload = registers.state_to_dict(state)
    sys.stdout.write(_json.dumps(payload, indent=1 if args.pretty else None) + "\n")
    return EXIT_PASS


def cmd_inclusion(args) -> int:
    from . import markov

    state, inputs = _resolve_state(args)
    marginal = _marginal_of(state)
    tol = markov.INCLUSION_LEAK_TOL if args.tol is None else args.tol
    report = markov.kernel_inclusion_check(marginal, tol=tol)
    results = report.to_dict()
    if args.verbose and not report.verdict:
        results["leaking_vector"] = _leak_payload(report)
    _print(_report("inclusion", inputs, results), args)
    return EXIT_PASS if report.verdict else EXIT_FAIL


def cmd_certify(args) -> int:
    from . import conic, registers

    state, inputs = _resolve_state(args)
    if state.register.n_qubits != 4:
        raise UsageError(f"certify needs a four-subsystem state, got labels {state.labels}")
    marginal = registers.partial_trace(state, state.labels[-1])
    config = _solver_config(args)
    inputs["mode"] = args.mode

    if args.mode == "cptp":
        solution, choi, residual = conic.cptp_certify(marginal, state, config)
        results = solution.to_dict()
        results["reconstruction_residual"] = residual
        if args.verbose:
            results["solver_debug"] = solution.debug
            if choi is not None:
                results["choi_re"] = choi.matrix.real.tolist()
                results["choi_im"] = choi.matrix.imag.tolist()
        status = solution.status
    else:
        overhead = conic.sampling_overhead(marginal, state, config)
        results = overhead.to_dict()
        results["iterations"] = overhead.solution.iterations
        results["primal_residual"] = overhead.solution.primal_residual
        if args.verbose:
            results["solver_debug"] = overhead.solution.debug
        status = overhead.status

    _print(_report("certify", inputs, results, config.to_dict()), args)
    if status in (conic.OPTIMAL, conic.FEASIBLE):
        return EXIT_PASS
    if status == conic.INFEASIBLE:
        return EXIT_FAIL
    return EXIT_UNDETERMINED


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:count or a comma list, got {text!r}")
        start, stop = float(parts[0]), float(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise UsageError(f"grid {text!r}: the count must be an integer, "
                             f"got {parts[2]!r}") from None
        if count > MAX_GRID_COUNT:
            raise UsageError(f"grid {text!r}: the count must be at most {MAX_GRID_COUNT}, "
                             f"got {count}")
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        grid = [start + k * step for k in range(count)]
    else:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    if not grid:
        raise UsageError(f"grid has no points: {text!r}")
    if any(not 0.0 <= p <= 1.0 for p in grid):
        raise UsageError(f"grid points must lie in [0, 1], got {grid}")
    return grid


def cmd_sweep(args) -> int:
    from . import conic, registers

    if args.family.upper() != "MIX":
        raise UsageError(f"only the MIX family is available, got {args.family!r}")
    grid = _parse_grid(args.grid)
    config = _solver_config(args)
    report = conic.recoverability_sweep(lambda p: registers.make_state("MIX", p=p), grid, config)
    out = _report(
        "sweep",
        {"family": "MIX", "grid": grid},
        report.to_dict(args.verbose),
        config.to_dict(),
    )
    _print(out, args)
    return EXIT_PASS if not any(row.error for row in report.rows) else EXIT_ERROR


def cmd_demo(args) -> int:
    if args.name == "two_qubit_recovery":
        if (args.max_iter, args.eps_feas, args.eps_infeasible) != (None, None, None):
            raise UsageError("demo two_qubit_recovery runs no solver; --max-iter, --eps-feas "
                             "and --eps-infeasible do not apply")
        return _demo_two_qubit_recovery(args)
    config = _solver_config(args)
    if args.name == "append_channel":
        return _demo_append_channel(args, config)
    if args.name == "nonconvexity":
        return _demo_nonconvexity(args, config)
    raise UsageError(f"unknown demo {args.name!r}")


def _demo_append_channel(args, config) -> int:
    """A three-qubit GHZ extended by the channel that appends |0>; it passes
    when the config's verdict on the factory's residual is FEASIBLE."""
    from . import conic, markov, registers

    ghz3 = registers.make_state("GHZ3")
    choi = registers.make_channel_choi("APPEND_ZERO")
    target = registers.tensor(ghz3, registers.DensityOperator(
        register=registers.QubitRegister(("D",)),
        matrix=registers.projector(registers.ket("0")),
    ))
    residual = markov.verify_recovery(target, ghz3, choi)
    solution, _, solver_residual = conic.cptp_certify(ghz3, target, config)
    results = {
        "factory_residual": residual,
        "solver_status": solution.status,
        "solver_residual": solver_residual,
        "conclusion": "appending |0> to C reproduces the extended state exactly",
    }
    if args.verbose:
        results["choi_re"] = choi.matrix.real.tolist()
        results["choi_im"] = choi.matrix.imag.tolist()
    _print(_report("demo", {"name": args.name}, results, config.to_dict()), args)
    return EXIT_PASS if config.verdict(residual) == conic.FEASIBLE else EXIT_FAIL


def _demo_two_qubit_recovery(args) -> int:
    """Blocks of the four-qubit W state over A, traced to B: the pairwise
    linearity test for recovering the state from its two-qubit marginal."""
    from . import markov, registers

    report = markov.marginal_block_consistency(registers.make_state("W4"), keep="B",
                                               extend_to={"C", "D"})
    results = {
        "consistency": report.to_dict(),
        "traced_blocks_on_B": {f"Tr_CD M_{blk.row}{blk.col}": traced.real.tolist()
                               for blk, traced in zip(report.blocks, report.traced)},
        "conclusion": (
            "pairwise traced-block comparison finds no equal pair, so the "
            "linearity obstruction alone does not rule out a B -> BCD map; "
            "positivity does (no channel exists), which is outside this check"
        ),
    }
    if args.verbose:
        for blk in report.blocks:
            results[f"M_{blk.row}{blk.col}_re"] = blk.matrix.real.tolist()
    _print(_report("demo", {"name": args.name}, results, {}), args)
    return EXIT_PASS


def _demo_nonconvexity(args, config) -> int:
    """Inclusion and recoverability across the W4 -- RHO2 segment: the
    recoverability sweep of CONVEX_MIX at lambda = 0, 1/2 and 1.

    Under the default tolerances both endpoints admit a quasiprobability
    recovery (RHO2 even a channel), while the midpoint admits none: the
    recoverable set is not convex. The conclusion claims that only when the
    rows show it.
    """
    from . import conic

    sweep = conic.recoverability_sweep(lambda lam: build_builtin("CONVEX_MIX", lam=lam),
                                       (0.0, 0.5, 1.0), config)
    rows = []
    for row in sweep.rows:
        if row.error is not None:
            raise ValueError(row.error)
        rows.append({"lambda" if key == "p" else key: value
                     for key, value in row.to_dict(args.verbose).items()
                     if key != "cptp_residual"})
    start, midpoint, end = rows
    # a finite nu at both endpoints, and a proven nu = inf at the midpoint
    if start["hptp"] == end["hptp"] == conic.OPTIMAL and midpoint["hptp"] == conic.INFEASIBLE:
        conclusion = ("endpoints admit a Hermitian-preserving recovery while the "
                      "midpoint does not; the set of recoverable states is non-convex")
    else:
        conclusion = "these rows do not show that the set of recoverable states is non-convex"
    results = {"rows": rows, "conclusion": conclusion}
    _print(_report("demo", {"name": args.name}, results, config.to_dict()), args)
    return EXIT_PASS if midpoint["inclusion"] else EXIT_FAIL


def _leak_payload(inclusion: markov.InclusionReport) -> dict | None:
    """The report's first AC kernel vector that leaks out of the BC kernel."""
    for entry in inclusion.per_outcome:
        if entry.leaking_vector is not None:
            return {
                "outcome": entry.outcome,
                "re": entry.leaking_vector.real.tolist(),
                "im": entry.leaking_vector.imag.tolist(),
                "leak": entry.leaking_vector_leak,
            }
    return None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit with EXIT_ERROR, not argparse's 2;
    the subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vqmc",
        description="Virtual-recovery analysis of four-qubit states",
    )
    parser.add_argument("--version", action="version", version=f"vqmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver=False):
        p.add_argument("--pretty", action="store_true", help="indent the JSON report")
        p.add_argument("--verbose", action="store_true", help="include intermediate matrices")
        p.add_argument("--out", help="also write the report to this path")
        if solver:
            p.add_argument("--max-iter", type=int,
                           help="cap on the interior-point Newton steps of one solve")
            p.add_argument("--eps-feas", type=float,
                           help="largest max-abs reconstruction residual that counts as "
                                "recovered (feasible)")
            p.add_argument("--eps-infeasible", type=float,
                           help="smallest max-abs residual that counts as infeasible; "
                                "residuals between the two are undetermined (exit 3)")

    def add_state_args(p):
        p.add_argument("state_file", nargs="?", help="state JSON file")
        p.add_argument("--builtin", help=f"one of {', '.join(BUILTIN_NAMES)}")
        p.add_argument("--p", type=float, default=None, help="mixing parameter for MIX")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="mixing parameter for CONVEX_MIX")

    p_state = sub.add_parser("state", help="write a builtin state in the JSON format")
    p_state.add_argument("name", help=f"one of {', '.join(BUILTIN_NAMES)}")
    p_state.add_argument("--p", type=float, default=None)
    p_state.add_argument("--lambda", dest="lam", type=float, default=None)
    p_state.add_argument("--out", help="output path (stdout when omitted)")
    p_state.add_argument("--pretty", action="store_true", help="indent the JSON output")
    p_state.set_defaults(func=cmd_state)

    p_incl = sub.add_parser("inclusion", help="kernel-inclusion check")
    add_state_args(p_incl)
    p_incl.add_argument("--tol", type=float)
    add_common(p_incl)
    p_incl.set_defaults(func=cmd_inclusion)

    p_cert = sub.add_parser("certify", help="SDP recovery certification")
    add_state_args(p_cert)
    p_cert.add_argument("--mode", choices=("cptp", "hptp"), required=True)
    add_common(p_cert, solver=True)
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="recoverability sweep over a state family")
    p_sweep.add_argument("--family", default="MIX")
    p_sweep.add_argument("--grid", default="0:1:21", help="start:stop:count or comma list")
    add_common(p_sweep, solver=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="scripted demonstration scenarios")
    p_demo.add_argument("name", choices=("nonconvexity", "two_qubit_recovery", "append_channel"))
    add_common(p_demo, solver=True)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
