"""Every public function, class and method of src/dtqw has a reader in
src/dtqw, or an entry in READERS that names the file outside it that reads it.

A name counts as referenced when any module of src/dtqw loads it as a bare
name, reads it as an attribute, or imports it (the package root's exports
included).  Names are matched by their last component, so the check cannot
tell two methods of one name apart, nor a method from a function of its name;
it finds helpers that nothing calls.  It missed ``WalkerState.norm`` and
``ThetaProfile.sites`` while only tests called them, because ``np.linalg.norm``
and ``WalkerState.sites`` share their names."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dtqw").glob("*.py"))

# "module.name" or "module.Class.method" -> the file that reads it: the
# acceptance criteria, the benchmark tracer, or a test oracle.
READERS = {
    "core.circle_distance": "tests/test_acceptance.py",
    "core.CoinParams.with_theta": "tests/test_acceptance.py",
    "core.pauli_decompose": "tests/test_sweep_kernel.py",
    "lattice.WalkerState.localized": "tests/test_lattice.py",
    "lattice.WalkOperator.layers": "bench/spans.py",
    "lattice.diagonalize": "tests/test_acceptance.py",
    "lattice.eigenvalues": "tests/test_symmetry.py",
    "momentum.bloch_vector": "tests/test_acceptance.py",
    "momentum.dispersion": "tests/test_acceptance.py",
    "momentum.momentum_step_matrix": "tests/test_acceptance.py",
    "momentum.special_points": "tests/test_symmetry.py",
}


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, name) of each public top-level function and class of
    the module, and of each public method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, defs[:2]) and not item.name.startswith("_"))


def _references(tree: ast.Module) -> set[str]:
    """Every name the module loads, every attribute it reads and every name it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def unreferenced(paths) -> set[str]:
    """The qualified public names defined in the files that none of them references."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}
    referenced = set().union(*map(_references, trees.values()))
    return {qualified for module, tree in trees.items()
            for qualified, name in _public_definitions(tree, module) if name not in referenced}


def test_every_public_name_has_a_reader():
    assert unreferenced(SOURCES) - READERS.keys() == set()


def test_every_listed_name_is_unreferenced_in_the_library():
    # an entry whose name the library now calls, or that no longer exists, goes
    assert READERS.keys() - unreferenced(SOURCES) == set()


@pytest.mark.parametrize("qualified", sorted(READERS))
def test_each_listed_reader_reads_its_name(qualified):
    name = qualified.rsplit(".", 1)[-1]
    assert re.search(rf"\b{name}\b", (ROOT / READERS[qualified]).read_text(encoding="utf-8"))


def test_an_unreferenced_name_is_seen(tmp_path):
    (tmp_path / "probe.py").write_text(
        "def used():\n    pass\n\ndef orphan():\n    pass\n\ndef _private():\n    pass\n\n"
        "class Walk:\n    def step(self):\n        pass\n\n    def idle(self):\n"
        "        return used()\n\n    def __len__(self):\n        return 0\n",
        encoding="utf-8")
    (tmp_path / "caller.py").write_text("from .probe import Walk\n\nWalk().step()\n",
                                        encoding="utf-8")
    paths = sorted(tmp_path.glob("*.py"))
    assert unreferenced(paths) == {"probe.orphan", "probe.Walk.idle"}
