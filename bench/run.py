"""vqmc benchmark: four workloads, end-to-end metrics and a traced layer run.

Run from the root of a source checkout:

    python3 bench/run.py --workload screen|direct|iterative|cli|all \
        --seed N --seconds S --trace 0|1

Each workload runs in its own process with OpenBLAS/OMP/MKL pinned to one
thread, imports vqmc from ``src/`` of the checkout, and attempts whole
rounds (one pass over its corpus, or one scripted CLI session) until
``--seconds`` have elapsed. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics (per round) with
``--trace 1``. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("screen", "direct", "iterative", "cli")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "states_per_s": "states/s",
    "state_ms_p50": "ms",
    "state_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "cli_session_s": "s",
}


def _cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _timed_run(cmd: list[str], env=None) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import vqmc and build the inputs."""
    if workload == "cli":
        cmd, env = [sys.executable, "-m", "vqmc.cli", "--version"], _cli_env()
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
        env = None
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, proc = _timed_run(cmd, env)
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed: {proc.stderr.strip()}")
        walls.append(wall)
    return statistics.median(walls)


def setup(workload: str, seed: int):
    """Import vqmc from the checkout and build the workload's states."""
    import workloads

    items = workloads.CORPORA[workload](seed)
    workloads.build_states(items)
    return items


def _end_to_end(setup_s, round_times, rss_kb, commands=None) -> dict:
    """End-to-end metrics of the untraced rounds.

    In-process, a state is one corpus item: its quantiles are taken per
    round and then the median over rounds, so that a slow stretch of the
    machine moves them less. On ``cli`` (``commands`` given), a state is one
    of the session's single-state invocations (``inclusion`` or ``certify``),
    timed as its median over the run's sessions, and ``states_per_s`` is the
    sweep's grid points per second of its fresh process.
    """
    import workloads

    walls = [sum(times) for times in round_times]
    if commands is None:
        quantiles = [statistics.quantiles(times, n=10, method="inclusive") for times in round_times]
        p50 = statistics.median(q[4] for q in quantiles)
        p90 = statistics.median(q[8] for q in quantiles)
        states_per_s = len(round_times[0]) / statistics.median(walls)
    else:
        single = [statistics.median(times[k] for times in round_times)
                  for k, argv in enumerate(commands) if argv[0] in ("inclusion", "certify")]
        quantiles = statistics.quantiles(single, n=10, method="inclusive")
        p50, p90 = quantiles[4], quantiles[8]
        sweeps = [wall for times in round_times for argv, wall in zip(commands, times)
                  if argv[0] == "sweep"]
        states_per_s = workloads.SWEEP_POINTS / statistics.median(sweeps)
    values = {
        "setup_s": setup_s,
        "states_per_s": states_per_s,
        "state_ms_p50": 1e3 * p50,
        "state_ms_p90": 1e3 * p90,
        "peak_rss_mb": rss_kb / 1024.0,
        "cli_session_s": statistics.median(walls),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


class Run:
    """Rounds, timings, checks and operation counts of one workload run."""

    def __init__(self, seconds: float, trace: bool):
        from tracer import Tracer

        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.round_times: list[list[float]] = []  # per-state times of untraced rounds
        self.traced_walls: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def rounds(self):
        """Yield ``traced`` flags for whole rounds until the time is up.

        With tracing on, rounds alternate untraced/traced, so that the
        traced run also measures its own overhead.
        """
        start = time.perf_counter()
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            if traced:
                self.tracer.install()
            try:
                yield traced
            finally:
                if traced:
                    self.tracer.uninstall()
            index += 1
            if time.perf_counter() - start >= self.seconds and (not self.trace or index >= 2):
                return

    def end_round(self, traced: bool, times: list[float]) -> None:
        if traced:
            self.traced_walls.append(sum(times))
        else:
            self.round_times.append(times)

    def result(self, metrics: dict) -> dict:
        for problem in dict.fromkeys(self.problems):
            sys.stderr.write(f"check failed: {problem}\n")
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def run_in_process(workload: str, seed: int, run: Run) -> dict:
    import workloads

    items = setup(workload, seed)
    full = workload != "screen"
    workloads.compute_oracles(items, full)
    workloads.answer(items[0], full)  # warm-up, untimed
    ops = workloads.OPS_PER_STATE[workload]
    for traced in run.rounds():
        times = []
        for item in items:
            start = time.perf_counter()
            if traced:
                with run.tracer.span("state", item.label):
                    out = workloads.answer(item, full)
            else:
                out = workloads.answer(item, full)
            times.append(time.perf_counter() - start)
            problems, failed = workloads.check(item, out)
            run.problems += [f"{item.label}: {p}" for p in problems]
            run.attempted += ops
            run.failed += failed
        run.end_round(traced, times)
    return {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run_cli(seed: int, run: Run) -> dict:
    import numpy as np

    import generators
    import workloads

    tag = f"{os.getpid()}"
    WORK.mkdir(exist_ok=True)
    state_file = WORK / f"state-{tag}.json"
    seeded = generators.generic_state(np.random.default_rng([seed, 4]))
    with open(state_file, "w", encoding="utf-8") as fh:
        json.dump({"labels": ["A", "B", "C", "D"], "dims": [2, 2, 2, 2],
                   "re": seeded.real.tolist(), "im": seeded.imag.tolist(),
                   "normalized": True}, fh)
    spans_file = WORK / f"spans-{tag}.json"
    expected = workloads.cli_oracles(seeded)
    commands = workloads.session_commands(str(state_file.relative_to(ROOT)))
    env = _cli_env()
    try:
        for traced in run.rounds():
            times = []
            for argv in commands:
                if traced:
                    with run.tracer.span("cli.process", argv[0]):
                        wall, proc = _timed_run(
                            [sys.executable, str(BENCH / "cli_child.py"), str(spans_file), *argv])
                        with open(spans_file, encoding="utf-8") as fh:
                            run.tracer.extend(json.load(fh))
                else:
                    wall, proc = _timed_run([sys.executable, "-m", "vqmc.cli", *argv], env)
                times.append(wall)
                problems = workloads.check_cli(argv, proc.returncode, proc.stdout, expected)
                run.problems += [f"vqmc {' '.join(argv)}: {p}" for p in problems]
                run.attempted += 1
            run.end_round(traced, times)
    finally:
        state_file.unlink(missing_ok=True)
        spans_file.unlink(missing_ok=True)
    return {"rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, "commands": commands}


def layer_metrics(run: Run) -> dict:
    """Per-round layer figures from the spans of the traced rounds."""
    from tracer import summarize

    spans = run.tracer.spans
    rounds = len(run.traced_walls)
    summary = summarize(spans)
    values: dict = {}

    def total(name, key="ms"):
        return summary.get(name, {}).get(key, 0.0)

    for name in ("registers.partial_trace", "linops.kernel_basis",
                 "markov.kernel_inclusion_check"):
        values[f"{name}.calls"] = (total(name, "calls"), "count")
        values[f"{name}.ms"] = (total(name), "ms")
    for name in ("linops.subspace_contained", "conic.build_cptp_feasibility",
                 "conic.build_overhead_problem", "markov.verify_recovery", "cli.import"):
        values[f"{name}.ms"] = (total(name), "ms")
    values["markov.apply_choi.calls"] = (total("markov.apply_choi", "calls"), "count")
    for name in ("conic.cptp_certify", "conic.sampling_overhead"):
        values[f"{name}.self_ms"] = (total(name, "self_ms"), "ms")
    values["cli.process.ms"] = (total("cli.process") - total("cli.main"), "ms")

    solve = {key: 0.0 for key in ("zero_count", "zero_ms", "cptp_ms", "cptp_it", "hptp_ms",
                                  "hptp_it", "undetermined", "after_feasible")}
    main_ms = {cmd: 0.0 for cmd in ("version", "inclusion", "certify", "sweep")}
    # Each state's CPTP solve precedes its overhead solve under the same root
    # span; a sweep process answers its grid points one after another.
    cptp_feasible: dict = {}
    for index, (name, start, end, parent, tag) in enumerate(spans):
        ms = (end - start) / 1e6
        if name == "cli.main":
            main_ms[tag] += ms
        if name != "conic.solve":
            continue
        root = index
        while spans[root][3] >= 0:
            root = spans[root][3]
        kind, iterations = tag["kind"], tag["iterations"]
        solve[kind + "_ms"] += ms
        solve[kind + "_it"] += iterations
        if iterations == 0:
            solve["zero_count"] += 1
            solve["zero_ms"] += ms
        if tag["status"] == "MAX_ITER":
            solve["undetermined"] += 1
        if kind == "cptp":
            cptp_feasible[root] = tag["status"] == "FEASIBLE"
        elif cptp_feasible.get(root):
            solve["after_feasible"] += iterations
    values.update({
        "conic.solve.zero_iteration.count": (solve["zero_count"], "count"),
        "conic.solve.zero_iteration.ms": (solve["zero_ms"], "ms"),
        "conic.solve.cptp.ms": (solve["cptp_ms"], "ms"),
        "conic.solve.cptp.iterations": (solve["cptp_it"], "iterations"),
        "conic.solve.hptp.ms": (solve["hptp_ms"], "ms"),
        "conic.solve.hptp.iterations": (solve["hptp_it"], "iterations"),
        "conic.solve.undetermined.count": (solve["undetermined"], "count"),
        "conic.hptp.iterations_after_cptp_feasible": (solve["after_feasible"], "iterations"),
    })
    for cmd, ms in main_ms.items():
        values[f"cli.main.{cmd}.ms"] = (ms, "ms")
    metrics = {name: {"value": value / rounds, "unit": unit} for name, (value, unit) in values.items()}
    untraced = statistics.median(sum(times) for times in run.round_times)
    overhead = statistics.median(run.traced_walls) / untraced - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return dict(sorted(metrics.items()))


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[workload]
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, metric in res["metrics"].items():
            print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "vqmc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no vqmc sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    run = Run(args.seconds, bool(args.trace))
    if args.workload == "cli":
        info = run_cli(args.seed, run)
    else:
        info = run_in_process(args.workload, args.seed, run)
    if args.trace:
        WORK.mkdir(exist_ok=True)
        run.tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(run)
    else:
        metrics = _end_to_end(setup_s, run.round_times, info["rss_kb"], info.get("commands"))
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
