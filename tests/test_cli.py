import argparse
import csv
import errno
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dtqw import cli, lattice, momentum, topology
from dtqw.cli import main
from dtqw.errors import NumericalContractError


def run(args):
    return main(args)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_band_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "b"
    assert run(["band", "--theta", "0.7854", "--grid", "64", "--out", str(out)]) == 0
    gap = json.loads(capsys.readouterr().out)
    assert gap["is_gapped"] is True
    with open(out / "band.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 65
    meta = read_json(out / "band.csv.meta.json")
    assert meta["tool"] == "dtqw"
    assert meta["config"]["theta"] == 0.7854


def test_band_gapless_flagged(tmp_path, capsys):
    assert run(["band", "--theta", "0", "--out", str(tmp_path)]) == 0
    gap = json.loads(capsys.readouterr().out)
    assert gap["is_gapped"] is False and gap["gap_at_delta"] <= 1e-9


def test_band_missing_theta_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["band"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_invariant_single_theta(tmp_path, capsys):
    assert run(["invariant", "--theta", "0.5", "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result == {"winding_mt": 1, "pole_k0": "S", "pole_k1": "N",
                      "phase_label": "ThetaPositive"}


def test_invariant_pair(tmp_path, capsys):
    code = run(["invariant", "--theta1", "0.5", "--theta2", "-0.5", "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["rel_homotopic"] is False
    assert result["predicted_edge_states"] == 2


def test_non_finite_angle_exits_2(tmp_path, capsys):
    for value in ("inf", "-inf", "nan"):
        assert run(["band", f"--theta={value}", "--out", str(tmp_path)]) == 2
        assert "is not finite" in capsys.readouterr().err


def test_invariant_gapless_exits_2(tmp_path, capsys):
    assert run(["invariant", "--theta", "0", "--out", str(tmp_path)]) == 2
    assert "gapless parameters: theta = 0.0 closes both gaps" in capsys.readouterr().err


def test_invariant_requires_exactly_one_form(tmp_path, capsys):
    for flags in (["--theta", "0.5", "--theta1", "0.2", "--theta2", "0.4"], [],
                  ["--theta", "0.5", "--theta1", "0.3"], ["--theta", "0.5", "--theta2", "0.3"],
                  ["--theta1", "0.3"], ["--theta2", "0.3"]):
        assert run(["invariant", *flags, "--out", str(tmp_path)]) == 2
        assert "give either --theta or both --theta1 and --theta2" in capsys.readouterr().err


def test_winding_values(tmp_path, capsys):
    assert run(["winding", "--theta", "0.5", "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result == {"winding_mt": 1, "rotated_v1_about_x": -1, "rotated_v2_about_z": 1}


@pytest.mark.parametrize("theta", ["1e-7", "3.14159"])
def test_winding_near_a_gap_closing(tmp_path, capsys, theta):
    # the frame-rotated curve turns fastest at k = 0 and k = pi near a
    # closing; the closed forms need no k-grid
    assert run(["winding", "--theta", theta, "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result == {"winding_mt": 1, "rotated_v1_about_x": -1, "rotated_v2_about_z": 1}


_VALID_ARGS = {
    "band": ["band", "--theta", "0.5"],
    "map": ["map", "--theta", "0.5"],
    "winding": ["winding", "--theta", "0.5"],
    "invariant": ["invariant", "--theta", "0.5"],
    "symmetry": ["symmetry", "--theta", "0.5"],
    "edge": ["edge", "--theta1", "-0.5", "--theta2", "0.5"],
    "evolve": ["evolve", "--theta1", "-0.5", "--theta2", "0.5", "--case", "overlap-one"],
    "sweep": ["sweep", "--theta-min", "0", "--theta-max", "1", "--theta-step", "0.5"],
}


@pytest.mark.parametrize("command, flag", [
    *((command, "--seed") for command in _VALID_ARGS),
    ("winding", "--grid"), ("invariant", "--grid")])
def test_flags_that_change_no_value_are_refused(tmp_path, capsys, command, flag):
    # --grid changes no closed-form winding, and no subcommand draws at random
    with pytest.raises(SystemExit) as exc:
        run([*_VALID_ARGS[command], flag, "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _outputs(out: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("args", [
    ["band", "--theta", "-1e-4", "--grid", "16"],
    ["sweep", "--theta-min", "-1e-3", "--theta-max", "1e-3", "--theta-step", "5e-4"],
    ["invariant", "--theta1", "-2e-5", "--theta2", "0.5"],
    ["symmetry", "--theta", "0.5", "--delta", "-1E-1", "--beta", "-.5e0"],
])
def test_negative_values_in_exponent_notation(tmp_path, capsys, args):
    # argparse alone reads -1e-4 after a flag as a flag of its own
    out = ["--out", str(tmp_path / "out")]
    assert run(args + out) == 0
    spaced = _outputs(tmp_path / "out"), capsys.readouterr().out
    joined = [f"{flag}={value}" for flag, value in zip(args[1::2], args[2::2])]
    for path in (tmp_path / "out").iterdir():
        path.unlink()
    assert run(args[:1] + joined + out) == 0
    assert (_outputs(tmp_path / "out"), capsys.readouterr().out) == spaced


def test_negative_non_finite_values_reach_validation(tmp_path, capsys):
    code = run(["sweep", "--theta-min", "-inf", "--theta-max", "1", "--theta-step", "0.1",
                "--out", str(tmp_path)])
    assert code == 2
    assert "--theta-min must be finite, got -inf" in capsys.readouterr().err


def test_winding_of_complex_coin_has_the_real_coins_frame_values(tmp_path, capsys):
    for flag in ("--alpha", "--beta"):
        out = tmp_path / flag.strip("-")
        assert run(["winding", "--theta", "0.5", flag, "0.3", "--out", str(out)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result == {"winding_mt": 1, "rotated_v1_about_x": -1, "rotated_v2_about_z": 1}
        assert read_json(out / "winding.json") == result


def test_symmetry_report(tmp_path, capsys):
    code = run(["symmetry", "--theta", "0.7853981633974483", "--out", str(tmp_path)])
    assert code == 0
    reports = read_json(tmp_path / "symmetry.json")
    assert {r["name"] for r in reports} >= {"SUB", "PHS", "PS", "CS"}
    assert all(r["passed"] for r in reports)
    assert "passed" in capsys.readouterr().out


def test_symmetry_incommensurate_alpha_omits_only_phs(tmp_path, capsys):
    code = run(["symmetry", "--theta", "0.5", "--alpha", "0.3", "--ring-size", "8",
                "--out", str(tmp_path)])
    assert code == 0
    reports = read_json(tmp_path / "symmetry.json")
    assert [r["name"] for r in reports] == ["SUB", "PS", "CS", "TimeShiftV1", "TimeShiftV2"]
    assert all(r["passed"] for r in reports)
    assert "PHS" not in capsys.readouterr().out


def test_symmetry_omits_phs_just_off_a_lattice_momentum(tmp_path, capsys):
    code = run(["symmetry", "--theta", "0.5", "--alpha", "1e-11", "--ring-size", "16",
                "--out", str(tmp_path)])
    assert code == 0
    reports = read_json(tmp_path / "symmetry.json")
    assert "PHS" not in [r["name"] for r in reports]
    assert all(r["passed"] for r in reports)


@pytest.mark.parametrize("ring", ["8", "16"])
@pytest.mark.parametrize("flag, value, omitted", [
    ("--alpha", "1e-12", ["PHS"]),
    ("--beta", "5e-13", []),
    ("--beta", "1e-12", []),
])
def test_symmetry_omits_relations_just_off_their_domain(tmp_path, capsys, ring, flag, value,
                                                        omitted):
    # alpha N off 2 pi Z is off the PHS domain; CS and the time shifts, moved by
    # the gauge, hold for any alpha and beta
    code = run(["symmetry", "--theta", "0.5", flag, value, "--ring-size", ring,
                "--out", str(tmp_path)])
    assert code == 0
    reports = read_json(tmp_path / "symmetry.json")
    names = [r["name"] for r in reports]
    assert set(names) | set(omitted) == {"SUB", "PHS", "PS", "CS", "TimeShiftV1",
                                         "TimeShiftV2"}
    assert not set(names) & set(omitted)
    assert all(r["passed"] for r in reports)


def test_edge_subcommand(tmp_path, capsys):
    code = run(["edge", "--theta1", "-0.7853981633974483",
                "--theta2", "0.7853981633974483",
                "--beta", "1.5707963267948966", "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["norm_constant"] == pytest.approx(2 * math.sqrt(2))
    assert all(s["residual"] < 1e-8 for s in result["states"])
    assert (tmp_path / "edge_eta0.csv").exists()
    assert (tmp_path / "edge_eta_pi.csv").exists()


def test_evolve_subcommand(tmp_path, capsys):
    code = run(["evolve", "--theta1", "-0.7853981633974483",
                "--theta2", "0.7853981633974483",
                "--beta", "1.5707963267948966",
                "--case", "overlap-both", "--steps", "60",
                "--ring-size", "160", "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["passed"] is True
    assert result["oscillation_detected"] is True
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 62  # header + 61 recorded steps


@pytest.mark.parametrize("theta1, theta2, case, ring", [
    ("-3.0", "3.0", "overlap-both", "256"),
    ("-0.2", "0.3", "overlap-one", "1024"),
    ("-2.8", "2.9", "overlap-one", "1024"),
])
def test_evolve_near_a_gap_closing_predicts_the_window_weight(tmp_path, capsys,
                                                              theta1, theta2, case, ring):
    # The edge states spread past the +/-5-site window here, so the plateau
    # sits well below the projection weight; the window weight accounts for it.
    code = run(["evolve", "--theta1", theta1, "--theta2", theta2, "--case", case,
                "--steps", "100", "--ring-size", ring, "--out", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result == read_json(tmp_path / "experiment.json")
    assert result["edge_window_weight"] < 0.96
    projection_weight = sum(re**2 + im**2 for re, im in result["edge_projections"])
    assert result["predicted_weight"] == pytest.approx(
        projection_weight * result["edge_window_weight"], rel=1e-12)
    tolerance = result["thresholds"]["plateau"]
    assert abs(result["plateau"] - result["predicted_weight"]) < 0.1 * tolerance
    assert result["passed"] is True


def test_evolve_ring_too_small_exits_2(tmp_path, capsys):
    code = run(["evolve", "--theta1", "-0.5", "--theta2", "0.5",
                "--case", "overlap-one", "--steps", "500",
                "--ring-size", "64", "--out", str(tmp_path)])
    assert code == 2
    assert "ring of 64 sites too small: need n_sites >= 1012" in capsys.readouterr().err


def test_edge_near_a_closing_names_the_ring_cap(tmp_path, capsys):
    # the smallest ring that holds the closed form, about 2.8e8 sites, exceeds the cap
    code = run(["edge", "--theta1", "-1e-7", "--theta2", "1.0", "--ring-size", "64",
                "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: ValidationError: ring of 64 sites too small: the geometric tails overlap the "
        "wrap-around wall (no admitted ring, up to 4194304 sites, holds the closed form)\n")


def test_edge_with_a_tail_that_never_decays_exits_2(tmp_path, capsys):
    # cos(1e-17) / (1 + sin(1e-17)) rounds to 1, so no ring is long enough
    for command in (["edge"], ["evolve", "--case", "overlap-one"]):
        code = run([*command, "--theta1", "-0.5", "--theta2", "1e-17", "--out", str(tmp_path)])
        assert code == 2
        assert "overlap the wrap-around wall (no ring is long enough)" in capsys.readouterr().err


def test_evolve_too_few_steps_exits_2(tmp_path, capsys):
    for steps in ("11", "-1"):  # negative steps take the same refusal
        code = run(["evolve", "--theta1", "-0.5", "--theta2", "0.5", "--case", "overlap-both",
                    "--steps", steps, "--ring-size", "64", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"steps = {steps}: the experiment needs at least 12 steps" in err
        assert not (tmp_path / "experiment.json").exists()
        assert not (tmp_path / "trajectory.csv").exists()


def test_sweep_partitions_by_sign(tmp_path, capsys):
    code = run(["sweep", "--theta-min", "-0.4", "--theta-max", "0.4",
                "--theta-step", "0.2", "--grid", "64", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    labels = {}
    for row in rows:
        theta = float(row["theta"])
        if abs(theta) < 1e-9:
            assert row["phase_label"] == "Gapless"
        else:
            labels.setdefault(theta > 0, set()).add(row["phase_label"])
    assert labels[True] == {"ThetaPositive"}
    assert labels[False] == {"ThetaNegative"}


def test_sweep_empty_range_exits_2(tmp_path, capsys):
    assert run(["sweep", "--theta-min", "1", "--theta-max", "0",
                "--theta-step", "0.1", "--out", str(tmp_path)]) == 2
    assert run(["sweep", "--theta-min", "0", "--theta-max", "1",
                "--theta-step", "-0.1", "--out", str(tmp_path)]) == 2


def test_sweep_non_finite_range_exits_2(tmp_path, capsys):
    for flag, value in (("--theta-max", "inf"), ("--theta-min", "-inf"),
                        ("--theta-step", "nan"), ("--theta-max", "nan")):
        bounds = {"--theta-min": "-1", "--theta-max": "1", "--theta-step": "0.5", flag: value}
        argv = ["sweep", *(f"{k}={v}" for k, v in bounds.items()), "--out", str(tmp_path)]
        assert run(argv) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("step, points", [("5e-324", "inf"), ("1e-12", "6e+12")])
def test_sweep_refuses_more_than_the_point_cap(tmp_path, capsys, step, points):
    # the refusal comes before the theta list, so neither input allocates it
    assert run(["sweep", "--theta-min", "-3", "--theta-max", "3", "--theta-step", step,
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"asks for {points} sweep points, more than 10000000" in err
    assert not (tmp_path / "sweep.csv").exists()


def _refuse_non_finite(name):
    raise AssertionError(f"{name} in JSON output")


def test_json_tables_write_null_for_non_finite_cells(tmp_path, capsys):
    # theta = 0 closes both gaps: the Bloch vector is undefined at k = alpha, alpha + pi
    assert run(["band", "--theta", "0", "--grid", "8", "--format", "json",
                "--out", str(tmp_path)]) == 0
    text = (tmp_path / "band.json").read_text()
    rows = json.loads(text, parse_constant=_refuse_non_finite)
    assert [i for i, row in enumerate(rows) if row["n_x"] is None] == [3, 7]
    assert all(row["n_z"] is None for row in rows if row["n_x"] is None)
    assert all(isinstance(row["omega_plus"], float) for row in rows)
    run(["band", "--theta", "0", "--grid", "8", "--out", str(tmp_path)])
    assert (tmp_path / "band.csv").read_text().count("nan") == 6  # CSV keeps nan


@pytest.mark.parametrize("command", [["band", "--theta", "0.5"], ["map", "--theta", "0.5"],
                                     ["sweep", "--theta-min", "0", "--theta-max", "1",
                                      "--theta-step", "0.5"]])
def test_grid_above_the_cap_is_refused_before_any_array(tmp_path, capsys, monkeypatch,
                                                        command):
    def no_grid(*args):
        raise AssertionError("a k-grid was built")

    for module, name in ((momentum, "k_grid"), (topology, "k_grid")):
        monkeypatch.setattr(module, name, no_grid)
    too_big = str(momentum.MAX_GRID + 1)
    assert run([*command, "--grid", too_big, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --grid must be at most 1048576, got {too_big}\n"
    assert run([*command, "--grid", "7", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: --grid must be at least 8, got 7\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["symmetry", "--theta", "0.5"],
                                     ["edge", "--theta1", "-1", "--theta2", "1"],
                                     ["evolve", "--theta1", "-1", "--theta2", "1",
                                      "--case", "overlap-one"]])
@pytest.mark.parametrize("ring", [lattice.MAX_RING + 2, 10**13])
def test_ring_above_the_cap_is_refused_before_any_array(tmp_path, capsys, monkeypatch,
                                                        command, ring):
    def no_ring(*args, **kwargs):
        raise AssertionError("a ring was built")

    for name in ("InterfaceSpec", "run_symmetry_suite"):
        monkeypatch.setattr(cli, name, no_ring)
    assert run([*command, "--ring-size", str(ring), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: --ring-size must be at most {lattice.MAX_RING}, got {ring}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ring", [1024, 4096])
def test_symmetry_runs_on_rings_above_512(tmp_path, ring):
    assert run(["symmetry", "--theta", "0.7854", "--ring-size", str(ring),
                "--out", str(tmp_path)]) == 0
    reports = read_json(tmp_path / "symmetry.json")
    assert [r["name"] for r in reports] == ["SUB", "PHS", "PS", "CS", "TimeShiftV1",
                                            "TimeShiftV2"]
    assert all(r["passed"] for r in reports)


def test_an_out_that_is_a_file_or_under_one_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out, code in ((taken, errno.EEXIST), (taken / "sub", errno.ENOTDIR)):
        assert run(["winding", "--theta", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {os.strerror(code)}\n"
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept"


def test_error_contract_exit_codes_and_stderr(tmp_path, capsys, monkeypatch):
    assert run(["winding", "--theta", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: ValidationError: gapless parameters: theta = 0.0 closes both gaps\n")

    def broken(*args):
        raise NumericalContractError("image is not on a pole")

    monkeypatch.setattr(cli, "winding_mt", broken)
    assert run(["winding", "--theta", "0.5", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: NumericalContractError: image is not on a pole\n"


def test_degrees_flag(tmp_path, capsys):
    assert run(["invariant", "--theta", "45", "--degrees", "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["phase_label"] == "ThetaPositive"


def test_outputs_are_byte_deterministic(tmp_path, capsys):
    args = ["band", "--theta", "0.9", "--alpha", "0.3", "--grid", "128",
            "--out", str(tmp_path)]
    assert run(args) == 0
    first = {name: (tmp_path / name).read_bytes()
             for name in ("band.csv", "band.csv.meta.json")}
    assert run(args) == 0
    capsys.readouterr()
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob


def test_symmetry_is_deterministic(tmp_path):
    run(["symmetry", "--theta", "0.6", "--out", str(tmp_path / "a")])
    run(["symmetry", "--theta", "0.6", "--out", str(tmp_path / "b")])
    ja = (tmp_path / "a" / "symmetry.json").read_bytes()
    jb = (tmp_path / "b" / "symmetry.json").read_bytes()
    assert ja == jb


def test_sweep_near_gap_closing(tmp_path, capsys):
    code = run(["sweep", "--theta-min", "-0.0003", "--theta-max", "0.0003",
                "--theta-step", "0.0001", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        labels = [row["phase_label"] for row in csv.DictReader(fh)]
    assert labels == ["ThetaNegative"] * 3 + ["Gapless"] + ["ThetaPositive"] * 3


def _sweep_theta_column(tmp_path, lo: str, hi: str, step: str) -> list[str]:
    assert run(["sweep", "--theta-min", lo, "--theta-max", hi, "--theta-step", step,
                "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        return [row["theta"] for row in csv.DictReader(fh)]


def test_sweep_writes_the_grid_thetas_unchanged(tmp_path, capsys):
    assert _sweep_theta_column(tmp_path, "0.0003", "0.0003", "1") == ["0.0003"]
    # the middle point of the near-closing probe is -3e-4 + 3 * 1e-4 in floats
    column = _sweep_theta_column(tmp_path, "-0.0003", "0.0003", "0.0001")
    assert column[3] == "5.421010862427522e-20"
    assert column == [repr(-0.0003 + i * 0.0001) for i in range(7)]
    column = _sweep_theta_column(tmp_path, "-3", "3", "0.1")
    assert column == [repr(-3 + i * 0.1) for i in range(61)]


def test_sweep_classifies_every_gapped_theta(tmp_path, capsys):
    # |sin theta| > GAP_EPS is gapped, and a gapped theta classifies
    assert run(["sweep", "--theta-min", "1e-11", "--theta-max", "1e-11",
                "--theta-step", "1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["phase_label"] == "ThetaPositive" and row["pole_k1"] == "N"


def test_sweep_has_no_workers_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--theta-min", "0.1", "--theta-max", "0.2", "--theta-step", "0.1",
             "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert run(["sweep", "--theta-min", "0.1", "--theta-max", "0.2", "--theta-step", "0.1",
                "--out", str(tmp_path)]) == 0
    assert "workers" not in read_json(tmp_path / "sweep.csv.meta.json")["config"]


def test_invariant_near_gap_closing(tmp_path, capsys):
    assert run(["invariant", "--theta", "1e-4", "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["phase_label"] == "ThetaPositive"


def _readme_outputs_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "readme_outputs.py"
    spec = importlib.util.spec_from_file_location("readme_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.txt"


def _golden_mismatch(tool, got: list[str], want: list[str]) -> str:
    """Which paths and exit lines differ, and whether the environment does."""
    def split(lines):
        env = next(line for line in lines if line.startswith(tool.ENV_PREFIX))
        files = dict(reversed(line.split("  ", 1)) for line in lines
                     if not line.startswith(("#", "exit ")))
        return env, files, [line for line in lines if line.startswith("exit ")]

    (env_got, files_got, exits_got), (env_want, files_want, exits_want) = split(got), split(want)
    paths = sorted(p for p in files_got.keys() | files_want.keys()
                   if files_got.get(p) != files_want.get(p))
    exits = sorted(set(exits_got) ^ set(exits_want))
    env = ("in the recorded environment" if env_got == env_want else
           f"in another environment than the recorded one: {env_got} against {env_want}")
    return (f"{len(paths)} output files differ from {GOLDEN.name} {env}: {paths}; "
            f"exit lines not in both: {exits}")


def test_readme_examples_all_exit_0(tmp_path):
    tool = _readme_outputs_tool()
    lines, ok = tool.oracle_lines(str(tmp_path))
    assert ok
    readme = [argv[0] for sub, argv in tool.examples() if not sub.startswith("x")]
    assert {"band", "map", "winding", "invariant", "symmetry", "edge", "evolve",
            "sweep"} <= set(readme)
    written = {Path(path).parts[0] for _, path in tool.digests(str(tmp_path))}
    assert written == {sub for sub, _ in tool.examples()}

    # every output of those examples and of the extra cases, byte for byte; the
    # environment line only explains a mismatch, a new environment alone is none
    want = GOLDEN.read_text(encoding="utf-8").splitlines()

    def outputs(found):
        return [line for line in found if not line.startswith(tool.ENV_PREFIX)]

    assert outputs(lines) == outputs(want), _golden_mismatch(tool, lines, want)


def test_the_environment_line_needs_no_scipy(monkeypatch):
    tool = _readme_outputs_tool()
    metadata = tool.importlib.metadata
    with_scipy = tool.environment()

    def numpy_only(name):
        raise metadata.PackageNotFoundError(name)

    monkeypatch.setattr(metadata, "version", numpy_only)
    assert tool.environment() == {k: v for k, v in with_scipy.items() if k != "scipy"}


def test_the_readme_quick_start_runs_from_the_package_root():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("Quick start:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from dtqw import " in block and block.rstrip().endswith("# 2*sqrt(2)")
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", block], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert math.isclose(float(done.stdout.splitlines()[-1]), 2 * math.sqrt(2), rel_tol=1e-12)


# Arguments every subcommand accepts, a negative exponent value among them.
_PARSER_ARGV = {
    "band": ["--theta", "-1e-4", "--grid", "16"],
    "map": ["--theta", "0.6", "--frame", "v2"],
    "winding": ["--theta", "1", "--beta", "-2"],
    "invariant": ["--theta1", "-1", "--theta2", "1"],
    "symmetry": ["--theta", "0.5", "--degrees"],
    "edge": ["--theta1", "-1", "--theta2", "1", "--ring-size", "32", "--format", "json"],
    "evolve": ["--theta1", "-1", "--theta2", "1", "--case", "overlap-one", "--steps", "20"],
    "sweep": ["--theta-min", "-1", "--theta-max", "1", "--theta-step", "0.5"],
}


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that grows by one for every ArgumentParser constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_no_parser_is_built_twice(tmp_path, capsys, parsers_built):
    cli.build_parser.cache_clear()
    calls = [[command, *flags, "--out", str(tmp_path / command)]
             for command, flags in _PARSER_ARGV.items()]
    assert [main(argv) for argv in calls] == [0] * len(calls)
    assert len(parsers_built) == 9  # the top level and the eight subcommands
    parsers_built.clear()
    assert [main(argv) for argv in calls] == [0] * len(calls)
    assert cli.build_parser() is cli.build_parser()
    assert parsers_built == []


def test_importing_the_cli_builds_no_parser(parsers_built):
    spec = importlib.util.spec_from_file_location("dtqw._cli_import_probe", cli.__file__)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.build_parser is not cli.build_parser
    assert parsers_built == []


# Good calls and refusals, interleaved: (argv, exit code); None for a good call.
_INTERLEAVED = [
    (["sweep", "--theta-min", "-30", "--theta-max", "30", "--theta-step", "15", "--degrees",
      "--format", "json"], None),
    (["edge", "--theta1", "-1", "--theta2", "1", "--ring-size", "32", "--format", "json"], None),
    (["sweep", "--theta-min", "-1", "--theta-max", "1", "--theta-step", "0.5", "--bogus"], 2),
    (["sweep", "--theta-min", repr(-math.pi / 6), "--theta-max", repr(math.pi / 6),
      "--theta-step", repr(math.pi / 12), "--format", "json"], None),
    (["edge", "--theta1", "-1", "--theta2", "1", "--ring-size", "3"], 2),
    (["edge", "--theta1", "-1", "--theta2", "1", "--ring-size", "32", "--format", "csv"], None),
]


def _call(argv, out: str, capsys) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) of one main call."""
    try:
        code = main([*argv, "--out", out])
    except SystemExit as exc:
        code = exc.code
    printed = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in Path(out).glob("*")} if Path(out).is_dir() else {}
    return code, printed.out, printed.err, files


def test_reused_parsers_carry_no_state_between_calls(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sidecars echo --out: the same relative one each time
    cli.build_parser.cache_clear()
    warm = [_call(argv, f"c{i}", capsys) for i, (argv, _) in enumerate(_INTERLEAVED)]
    for i, (argv, refused) in enumerate(_INTERLEAVED):
        assert warm[i][0] == (refused or 0), argv
        assert bool(warm[i][3]) == (refused is None), argv
        cli.build_parser.cache_clear()
        assert _call(argv, f"c{i}", capsys) == warm[i], argv
    # the same angles in degrees and in radians: the same table, only the echo differs
    assert warm[0][3]["sweep.json"] == warm[3][3]["sweep.json"]
    echoes = [json.loads(warm[i][3]["sweep.json.meta.json"])["config"] for i in (0, 3)]
    assert [(echo.pop("degrees"), echo.pop("out")) for echo in echoes] == [(True, "c0"),
                                                                            (False, "c3")]
    assert echoes[0] == echoes[1]
    assert "unrecognized arguments: --bogus" in warm[2][2]
    assert warm[4][2] == "error: --ring-size must be even and at least 4, got 3\n"


def _edge_peak_at_the_benchmark_ring(out, fmt: str) -> int:
    """Traced peak of a second ``dtqw edge --ring-size 16384`` run, in bytes."""
    tool = _readme_outputs_tool()
    argv = ["edge", *tool._WALL, "--ring-size", "16384", "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edge_at_the_benchmark_ring_holds_no_table_in_memory(tmp_path, capsys):
    # the row lists of both 16384-row state tables took the traced peak to 7.31 MiB
    peak = _edge_peak_at_the_benchmark_ring(tmp_path, "csv")
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_json_edge_at_the_benchmark_ring_holds_no_table_in_memory(tmp_path, capsys):
    # a dict per row and the whole indented text took the traced peak to 27.7 MiB
    peak = _edge_peak_at_the_benchmark_ring(tmp_path, "json")
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"
