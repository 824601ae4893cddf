"""The benchmark's tracer and workloads still fit the library.

``bench/spans.py`` wraps the functions in ``spans.TARGETS`` and, for the
entries of ``spans._COUNTERS``, reads named arguments of each call;
``bench/workloads.py`` drives the CLI with its flags.  A renamed function,
parameter or flag would otherwise surface only in ``bench/selftest.py``.
The modules are executed from their source files, so no bytecode is written
under ``bench/``, and nothing there is changed.
"""

import ast
import inspect
import sys
import types
from pathlib import Path

import dtqw.cli  # noqa: F401  (loads every module a target lives in)

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH / "spans.py"


def _load(name: str):
    """bench/<name>.py, executed from its source; no bytecode cache is written."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), module.__file__, "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


spans = _load("spans")


def _bound_names() -> dict[str, set[str]]:
    """Per ``_COUNTERS`` entry, the argument names its function reads as
    ``a["name"]``, following module-level helpers it passes ``a`` to."""
    tree = ast.parse(SPANS_PATH.read_text(encoding="utf-8"))
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def read(node: ast.AST, arg: str) -> set[str]:
        names = set()
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                    and sub.value.id == arg and isinstance(sub.slice, ast.Constant)):
                names.add(sub.slice.value)
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                  and sub.func.id in helpers):
                helper = helpers[sub.func.id]
                for param, value in zip(helper.args.args, sub.args):
                    if isinstance(value, ast.Name) and value.id == arg:
                        names |= read(helper, param.arg)
        return names

    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_COUNTERS"):
            return {key.value: read(value, value.args.args[0].arg)
                    for key, value in zip(node.value.keys, node.value.values)}
    raise AssertionError("bench/spans.py assigns no _COUNTERS")


def test_every_target_resolves():
    for module, path in spans.TARGETS:
        owner, attr, original = spans._resolve(module, path)
        assert callable(original), f"{module}.{path}"
        assert getattr(owner, attr) is original


def test_every_bound_argument_is_a_parameter_of_its_target():
    targets = {f"{m}.{p}": spans._resolve(m, p)[2] for m, p in spans.TARGETS}
    bound = _bound_names()
    assert set(bound) == set(spans._COUNTERS)
    for name, names in bound.items():
        params = set(inspect.signature(targets[name]).parameters)
        assert names <= params, f"{name} binds {sorted(names - params)}, not among {sorted(params)}"


def test_the_bound_names_are_found():
    bound = {name: names for name, names in _bound_names().items() if names}
    assert bound == {
        "io.write_csv": {"path", "rows"},
        "lattice.WalkOperator.apply_array": {"amps"},
        "lattice.diagonalize": {"u"},
        "topology.winding_mt": {"grid_size"},
        "lattice.WalkOperator.dense": {"self"},
        "io.write_json": {"path"},
    }


def test_both_workloads_pass_at_their_tiny_size_under_the_tracer(tmp_path, monkeypatch):
    workloads = _load("workloads")
    monkeypatch.chdir(tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        passes = [workloads.run_pass(name, workloads.draw(name, 1), workloads.SIZES["tiny"])
                  for name in workloads.WORKLOADS]
    finally:
        tracer.uninstall()
    for p in passes:
        assert (p.failed, p.wrong) == (0, 0), f"{p.workload}: {p.notes}"
    traced = {span[1] for span in tracer.spans}
    assert {f"{m}.{p}" for m, p in spans.TARGETS} <= traced
    assert spans.leaked_wrappers() == []
