"""One tolerance model: every small threshold of vqmc is a named constant
listed once in README's "Tolerances" table.

The scan parses ``src/vqmc`` and allows a float literal with 0 < |x| < 1e-3
only as the whole value (or its negation) of a module-level constant or of
a ``SolverConfig`` field default. Each such name needs a row in the table,
and each row must name an attribute of its home module that holds the value
it lists.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vqmc"
SMALL = 1e-3
ROW = re.compile(r"^\| `([\w.]+)` \| `vqmc\.(\w+)` \| ([-+.\w]+) \|")


def is_small(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < SMALL)


def named_values(tree: ast.Module):
    """``(name, value node)`` of each module-level constant and SolverConfig field default."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            yield node.targets[0].id, node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and node.value is not None:
            yield node.target.id, node.value
        elif isinstance(node, ast.ClassDef) and node.name == "SolverConfig":
            for field in node.body:
                if isinstance(field, ast.AnnAssign) and field.value is not None:
                    yield f"SolverConfig.{field.target.id}", field.value


def literal(value: ast.expr):
    """The literal node a name's value is, through one unary minus, or None."""
    if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
        value = value.operand
    return value if isinstance(value, ast.Constant) else None


def small_names_and_inline(tree: ast.Module):
    """``(names, inline)``: the names whose value is a small float literal, and
    ``(line, value)`` of every small float literal that is no such value."""
    names, allowed = [], set()
    for name, value in named_values(tree):
        node = literal(value)
        if node is not None and is_small(node):
            names.append(name)
            allowed.add(id(node))
    inline = [(node.lineno, node.value) for node in ast.walk(tree)
              if is_small(node) and id(node) not in allowed]
    return names, inline


def scan():
    """``(inline, named)`` over the package: ``file:line value`` of each inline
    small literal, and ``(module, name)`` of each name whose value is one."""
    inline, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        names, found = small_names_and_inline(ast.parse(path.read_text(), filename=str(path)))
        named.update((path.stem, name) for name in names)
        inline += [f"{path.name}:{line} {value!r}" for line, value in found]
    return inline, named


def table_rows():
    """``(module, name, listed value)`` of each row of README's "Tolerances" table."""
    _, _, section = (ROOT / "README.md").read_text().partition("\n## Tolerances\n")
    section = section.split("\n## ", 1)[0]
    rows = [ROW.match(line) for line in section.splitlines() if line.startswith("| `")]
    assert all(rows), "every table row must read | `name` | `vqmc.module` | value |"
    return [(match[2], match[1], match[3]) for match in rows]


def test_no_small_float_literal_outside_a_named_constant():
    inline, _ = scan()
    assert inline == []


def test_every_named_small_threshold_has_a_table_row():
    _, named = scan()
    listed = {(module, name) for module, name, _ in table_rows()}
    assert named, "the scan found no named threshold"
    assert sorted(named - listed) == []


def test_the_table_lists_each_name_once():
    names = [(module, name) for module, name, _ in table_rows()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module, name, value", table_rows())
def test_each_row_names_a_constant_with_its_value(module, name, value):
    holder = importlib.import_module(f"vqmc.{module}")
    for part in name.split("."):
        holder = getattr(holder, part)
    assert holder == float(value)


def test_the_scan_tells_a_named_threshold_from_an_inline_one():
    tree = ast.parse("LIMIT = 1e-9\nFLOOR = -1e-8\n\n\n"
                     "class SolverConfig:\n    eps: float = 1e-7\n\n\n"
                     "def f(x):\n    return LIMIT < x < 1.0 - 1e-12 and x > 1e-3\n")
    assert small_names_and_inline(tree) == (["LIMIT", "FLOOR", "SolverConfig.eps"], [(10, 1e-12)])
