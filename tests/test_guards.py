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


def test_start_up_imports_no_code_generation():
    """The records are built without ``dataclasses``: importing the CLI
    loads none of the modules that generating code at import time needs.
    The modules are compared before and after the import, so whatever the
    interpreter preloads does not count."""
    src = str(PACKAGE.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys; before = set(sys.modules); import toricfano.cli; "
        "new = set(sys.modules) - before; "
        "print(sorted(new & {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'})); "
        "print(sorted(m for m in new if m.startswith('toricfano')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
        text=True,
        timeout=60,
    ).stdout.splitlines()
    assert out[0] == "[]"
    # the import did happen in this process, from the package under test
    assert "'toricfano.cli'" in out[1] and "'toricfano.fan'" in out[1]


def test_start_up_loads_no_argument_parser_and_inverts_nothing():
    """The command line is read by a table dispatcher, and cones are
    inverted on demand: importing the CLI loads neither ``argparse`` nor
    the ``gettext`` it pulls in, and fills no entry of ``fan._analyze``,
    the validity pass and the kernel's only caller, so start-up pays for
    neither.  The modules are compared before and after the import."""
    src = str(PACKAGE.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys; before = set(sys.modules); import toricfano.cli, toricfano.fan; "
        "print(sorted((set(sys.modules) - before) & {'argparse', 'gettext'}), "
        "toricfano.fan._analyze.cache_info().currsize, "
        "'toricfano.cli' in set(sys.modules) - before)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
        text=True,
        timeout=60,
    ).stdout
    assert out == "[] 0 True\n"
