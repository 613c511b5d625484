"""Source-level guards that hold for the whole package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toricfano"


def test_no_assert_in_package():
    """``python -O`` strips assert statements, so a check that can change a
    result must raise a typed error instead."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_start_up_imports_no_rational_arithmetic():
    """Every decision is made in integers: importing the CLI loads neither
    ``fractions`` nor ``decimal``."""
    src = str(PACKAGE.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, toricfano.cli; "
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
        text=True,
        timeout=60,
    ).stdout
    assert out == "[]\n"
