"""Source checks: no safety check may depend on `assert`, which `python -O` strips."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sprawl"


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), "package sources not found"
    assert not found, f"assert statements: {found}"
