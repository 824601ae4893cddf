"""Every module src/dtqw imports is in the standard library, dtqw itself, or a
runtime dependency declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dtqw").glob("*.py"))


def _name(requirement: str) -> str:
    """The normalized distribution name of a requirement string."""
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")


def _runtime_dependencies() -> set[str]:
    """The distribution names of pyproject.toml's ``dependencies = [...]``,
    read by pattern: tomllib is not in Python 3.10."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    return {_name(d) for d in re.findall(r'"([^"]*)"', declared)}


def _imported_top_level(path: Path) -> set[str]:
    """Top-level names of every absolute import in the file, those inside
    functions included; relative imports are dtqw's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_dependencies_are_numpy_alone():
    assert _runtime_dependencies() == {"numpy"}


def test_the_pattern_reads_the_dependencies_tomllib_reads():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert _runtime_dependencies() == {_name(d) for d in declared}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_stdlib_dtqw_or_declared(path):
    allowed = set(sys.stdlib_module_names) | {"dtqw"} | _runtime_dependencies()
    assert _imported_top_level(path) - allowed == set()


def test_an_undeclared_import_inside_a_function_is_seen(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("import numpy as np\n\ndef f():\n    from scipy import linalg\n"
                   "    import dtqw.core\n    from . import io\n", encoding="utf-8")
    assert _imported_top_level(src) == {"numpy", "scipy", "dtqw"}
