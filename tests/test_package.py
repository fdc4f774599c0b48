"""The package's lazy exports: every public name resolves to its home module's object;
the README's library example prints what it says, and every name it cites exists."""

import importlib
import pathlib
import re

import pytest

import vqmc
from vqmc import _reference, conic

PUBLIC_NAMES = {
    "ChoiOperator", "ConditionalBlock", "ConicProblem", "ConicSolution", "ConsistencyReport",
    "Constraint", "DensityOperator", "InclusionReport", "OverheadResult", "QubitRegister",
    "SolverConfig", "SubspaceBasis", "SweepReport", "apply_choi", "build_cptp_feasibility",
    "build_overhead_problem", "conditional_block", "cptp_certify", "eigh", "kernel_basis",
    "kernel_inclusion_check", "ket", "load_state", "make_channel_choi", "make_state",
    "marginal_block_consistency", "mix", "partial_trace", "partial_transpose", "rank_of",
    "recoverability_sweep", "sampling_overhead", "save_state", "solve", "subspace_contained",
    "support_basis", "tensor", "theta_blocks", "verify_recovery", "__version__",
}
REFERENCE_NAMES = ("solve", "build_cptp_feasibility", "build_overhead_problem", "Constraint",
                   "ConicProblem", "_affine_solutions")


def test_public_names_are_unchanged():
    assert set(vqmc.__all__) == PUBLIC_NAMES
    assert len(vqmc.__all__) == len(PUBLIC_NAMES)


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES - {"__version__"}))
def test_every_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"vqmc.{vqmc._EXPORTS[name]}")
    assert getattr(vqmc, name) is getattr(home, name)
    assert name in dir(vqmc)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from vqmc import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert namespace["__version__"] == vqmc.__version__


@pytest.mark.parametrize("module", [vqmc, conic], ids=["vqmc", "conic"])
def test_an_unknown_name_is_an_attribute_error_that_names_it(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_conic_serves_the_reference_route_from_its_own_module(name):
    assert getattr(conic, name) is getattr(_reference, name)



ROOT = pathlib.Path(__file__).resolve().parent.parent
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"


def test_readme_library_example_prints_what_it_says(capsys):
    readme = (ROOT / "README.md").read_text()
    examples = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(examples) == 1
    exec(examples[0], {})
    assert capsys.readouterr().out == "True INFEASIBLE 1.584962500721156\n"


def test_every_name_the_readme_cites_exists():
    cited = set(re.findall(f"`({IDENTIFIER})`", (ROOT / "README.md").read_text()))
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
               *(ROOT / "bench").glob("*.py")]
    words = {word for path in sources for word in re.findall(IDENTIFIER, path.read_text())}
    assert len(cited) >= 40
    assert sorted(cited - words) == []
