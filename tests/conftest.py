import re
import sys
import pathlib

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

_acceptance_results: dict[int, list[tuple[str, bool]]] = {}
_CRITERION_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match:
        _acceptance_results.setdefault(int(match.group(1)), []).append(
            (report.nodeid, report.passed)
        )


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_results):
        entries = _acceptance_results[number]
        passed = sum(1 for _, ok in entries if ok)
        verdict = "PASS" if passed == len(entries) else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d}: {verdict}  ({passed}/{len(entries)} checks passed)"
        )


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    factors = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return factors @ factors.conj().T


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    psd = random_psd(rng, dim, rank)
    return psd / np.trace(psd).real


def random_cptp_choi(rng: np.random.Generator, env_dim: int = 2) -> np.ndarray:
    """Choi matrix of a random channel from one qubit to two, via an isometry."""
    raw = rng.standard_normal((4 * env_dim, 2)) + 1j * rng.standard_normal((4 * env_dim, 2))
    isometry, _ = np.linalg.qr(raw)
    choi = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            lifted = isometry @ unit @ isometry.conj().T
            out = np.trace(lifted.reshape(4, env_dim, 4, env_dim), axis1=1, axis2=3)
            choi[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4] = out
    return choi


def bench_generators():
    """bench/generators.py, the benchmark's corpus generators, imported
    without writing a bytecode cache."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "generators.py"
    spec = importlib.util.spec_from_file_location("bench_generators", path)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def tolerance_split_case():
    """A pair whose Petz residual lies below its least-squares residual, and
    tolerances that split them: ``(marginal, target, config)``.

    The state is a classical-C Markov state of bench/generators.py (seed 11)
    with a 1e-6 admixture of a random state. Its least-squares max residual
    is 9.2e-8 and its Petz residual 6.2e-8; ``eps_feasible`` sits just above
    the Petz residual and ``eps_infeasible`` midway to the least-squares one,
    so the configuration lacks the margin eps_infeasible > 16 eps_feasible.
    """
    from vqmc import conic
    from vqmc import registers as reg

    gen = bench_generators()
    rng = np.random.default_rng(11)
    matrix = (1 - 1e-6) * gen.markov_state(rng)[0] + 1e-6 * gen.density(rng, 16)
    target = reg.DensityOperator(register=reg.QubitRegister(tuple("ABCD")), matrix=matrix)
    marginal = reg.partial_trace(target, "D")
    system = conic._RecoverySystem(marginal, target)
    eps_feasible = system.petz[1] * (1 + 1e-3)
    eps_infeasible = (eps_feasible + conic._maxabs(system.ls_gap)) / 2
    config = conic.SolverConfig(eps_feasible=eps_feasible, eps_infeasible=eps_infeasible)
    return marginal, target, config


@pytest.fixture(autouse=True)
def empty_system_slot():
    """Start every test with conic's one-slot recovery-system cache empty, so
    that no test counts work against a system an earlier test built for one
    of the shared module-level pairs."""
    conic = sys.modules.get("vqmc.conic")
    if conic is not None:
        conic._last_system = None


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture(scope="session")
def inclusion_fixture():
    import json

    with open(FIXTURES / "inclusion_oracle.json", encoding="utf-8") as fh:
        return json.load(fh)
