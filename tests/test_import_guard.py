"""No dtqw code path loads scipy.

dtqw needs numpy alone at run time; scipy is a test dependency, the dense
Schur oracle of the tests.  The suite itself loads scipy, so each case runs in
a fresh interpreter and reports which scipy modules it ended up with.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Run dtqw.cli.main on argv (nothing but the import when argv is empty), then
# print the exit code and the loaded scipy modules as the last line.
CLI_PROBE = """
import json, sys
from dtqw.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

# The dense spectra, which no subcommand calls, and the symmetry suite, at N = 8.
SPECTRA_PROBE = """
import json, sys
from dtqw.core import CoinParams
from dtqw.lattice import build_walk, diagonalize, eigenvalues
from dtqw.symmetry import run_symmetry_suite
p = CoinParams(0.0, 0.0, 0.0, 0.5)
sd = diagonalize(build_walk(p, n_sites=8))
eigenvalues(build_walk(p, n_sites=8))
run_symmetry_suite(p, n_sites=8)
print(json.dumps({"residual": sd.max_residual,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

# Every README example of the "Command line" section, on small sizes.
SMALL_EXAMPLES = [
    ["band", "--theta", "0.7854", "--grid", "16"],
    ["map", "--theta", "0.7854", "--frame", "v1", "--grid", "16"],
    ["winding", "--theta", "0.5"],
    ["invariant", "--theta", "0.5"],
    ["invariant", "--theta1", "0.5", "--theta2", "-0.5"],
    ["symmetry", "--theta", "0.7854", "--ring-size", "8"],
    ["edge", "--theta1", "-0.7854", "--theta2", "0.7854", "--beta", "1.5708"],
    ["evolve", "--theta1", "-0.7854", "--theta2", "0.7854", "--beta", "1.5708",
     "--case", "overlap-both", "--steps", "12"],
    ["sweep", "--theta-min", "-1", "--theta-max", "1", "--theta-step", "0.5",
     "--grid", "16"],
]


def _probe(script: str, *argv: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_bare_cli_import_loads_no_scipy():
    assert _probe(CLI_PROBE) == {"code": 0, "scipy": []}


@pytest.mark.parametrize("argv", SMALL_EXAMPLES, ids=lambda argv: argv[0])
def test_subcommand_loads_no_scipy(argv, tmp_path):
    assert _probe(CLI_PROBE, *argv, "--out", str(tmp_path)) == {"code": 0, "scipy": []}


def test_small_examples_cover_every_readme_example():
    path = SRC.parent / "tools" / "readme_outputs.py"
    spec = importlib.util.spec_from_file_location("readme_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    readme = tool.readme_examples((SRC.parent / "README.md").read_text(encoding="utf-8"))
    assert [argv[0] for argv in readme] == [argv[0] for argv in SMALL_EXAMPLES]


def test_spectra_and_symmetry_suite_load_no_scipy():
    result = _probe(SPECTRA_PROBE)
    assert result["scipy"] == []
    assert result["residual"] < 1e-12
