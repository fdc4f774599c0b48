"""Regenerate the reference figures quoted in bench/README.md.

    python3 bench/reference.py

Prints in-process medians of 7 repeats for the W4 solves and the MIX sweep,
fresh-process CLI wall times, the W4 ground truth from the independent
oracles, and the state of the two MAX_ITER fault instances. BLAS is pinned to one thread as in
bench/run.py.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import generators as gen  # noqa: E402
import oracles  # noqa: E402
import vqmc  # noqa: E402
from vqmc import conic, registers  # noqa: E402
import workloads  # noqa: E402

REPEATS = 7


def median_ms(fn) -> tuple[float, object]:
    times, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), result


def state_of(matrix):
    return registers.DensityOperator(register=registers.QubitRegister(tuple("ABCD")), matrix=matrix)


def main() -> int:
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, vqmc {vqmc.__version__}, "
          f"{os.cpu_count()} cpus, BLAS threads pinned to 1, median of {REPEATS}")

    w4 = state_of(gen.w4())
    marginal = registers.partial_trace(w4, "D")
    ms, overhead = median_ms(lambda: conic.sampling_overhead(marginal, w4))
    print(f"in-process W4 sampling_overhead   {ms:8.1f} ms  {overhead.solution.iterations} iterations")
    ms, (solution, _, _) = median_ms(lambda: conic.cptp_certify(marginal, w4))
    print(f"in-process W4 cptp_certify        {ms:8.1f} ms  {solution.iterations} iterations")
    grid = [k / 20 for k in range(21)]
    ms, _ = median_ms(lambda: conic.recoverability_sweep(
        lambda p: registers.make_state("MIX", p=p), grid))
    print(f"in-process sweep MIX 0:1:21       {ms:8.1f} ms")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["--version"], ["inclusion", "--builtin", "W4"],
                 ["certify", "--builtin", "W4", "--mode", "hptp"],
                 ["certify", "--builtin", "W4", "--mode", "cptp"],
                 ["sweep", "--family", "MIX", "--grid", "0:1:21"]):
        cmd = [sys.executable, "-m", "vqmc.cli", *argv]
        ms, _ = median_ms(lambda: subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True))
        print(f"fresh process vqmc {' '.join(argv):32s} {ms:8.1f} ms")

    residual, choi = oracles.least_squares_extension(gen.w4())
    lo, hi = oracles.overhead_bracket(choi)
    spectrum = np.round(np.linalg.eigvalsh(choi), 12) + 0.0  # no -0.0
    print(f"W4 oracle: least-squares residual {residual:.1e}, extension spectrum "
          f"{sorted(set(spectrum.tolist()))}, bracket [{lo:.6f}, {hi:.6f}], I(AB:D|C) = "
          f"{oracles.cmi(gen.w4()):.6f}")
    print(f"W4 solver: nu = {overhead.nu:.9f} (log2 3 = {math.log2(3):.9f}), "
          f"c1 = {overhead.c1:.9f}, c2 = {overhead.c2:.9f}")

    markov_rng = np.random.default_rng(workloads.MARKOV_SEED)
    markov = [gen.markov_state(markov_rng) for _ in range(workloads.MARKOV_COUNT)]
    faults = {
        f"HPTP-extension state (generator seed {workloads.MAX_ITER_FAULT_SEED})":
            gen.hptp_extension_state(np.random.default_rng(workloads.MAX_ITER_FAULT_SEED)),
        f"Markov state #{workloads.MARKOV_MAX_ITER_INDEX} (generator seed {workloads.MARKOV_SEED})":
            markov[workloads.MARKOV_MAX_ITER_INDEX],
    }
    for name, (matrix, extension) in faults.items():
        fault = state_of(matrix)
        fault_marginal = registers.partial_trace(fault, "D")
        start = time.perf_counter()
        result = conic.sampling_overhead(fault_marginal, fault)
        seconds = time.perf_counter() - start
        lo, hi = oracles.overhead_bracket(extension)
        stop = result.solution.scalar_values
        print(f"MAX_ITER fault, {name}: {result.status} after {result.solution.iterations} "
              f"iterations in {seconds:.1f} s; bracket [{lo:.4f}, {hi:.4f}], final c1+c2 = "
              f"{stop['c1'] + stop['c2']:.4f}, equality residual "
              f"{result.solution.primal_residual:.1e}, least-squares residual "
              f"{oracles.least_squares_extension(matrix)[0]:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
