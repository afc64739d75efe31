"""End-to-end runs of the command line driver via main(argv)."""

import json

import pytest

from confdyn.cli import _getb, main
from confdyn.errors import ConfigError


def _args(command, preset, out, *extra):
    return [command, "--preset", preset, "--out-dir", str(out), *extra]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_fig1(tmp_path, capsys):
    assert main(_args("simulate", "fig1", tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is True
    assert len(summary["runs"]) == 4
    for r in summary["runs"]:
        assert r["max_drift"] <= 1e-8
        assert (tmp_path / r["file"]).exists()
        # the linear field is entered and exited once per orbit
        assert any(name == "z=0" for name, _ in r["events"])
        # the diagnostics include the deliberately non-conserved p3
        assert "p3" in r["drifts"] and "p3" not in r["gated"]
        assert r["drifts"]["p3"] > 0.1
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_simulate_fig2(tmp_path):
    assert main(_args("simulate", "fig2", tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is True
    assert len(summary["runs"]) == 4


def test_simulate_planewave(tmp_path):
    assert main(_args("simulate", "planewave", tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    run = summary["runs"][0]
    assert set(run["gated"]) == {f"Q{i}" for i in range(1, 8)}
    assert run["max_drift"] <= 1e-8


def test_simulate_gate_failure_exits_one(tmp_path):
    # an impossible drift gate turns the same healthy run into a failure
    code = main(_args("simulate", "planewave", tmp_path, "--tol-rel", "1e-18"))
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is False


def test_simulate_deterministic_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(_args("simulate", "fig1", a)) == 0
    assert main(_args("simulate", "fig1", b)) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert names == [f"run_{i:03d}.csv" for i in range(4)] + ["summary.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    runs = json.loads((a / "summary.json").read_text())["runs"]
    assert [r["index"] for r in runs] == [0, 1, 2, 3]
    assert [r["file"] for r in runs] == names[:4]


def test_simulate_json_format(tmp_path):
    assert main(_args("simulate", "dilation", tmp_path, "--format", "json")) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    run = summary["runs"][0]
    assert run["file"].endswith(".json")
    blob = json.loads((tmp_path / run["file"]).read_text())
    assert blob["form"] == "instant"


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_spacelike(tmp_path, capsys):
    assert main(_args("certify", "spacelike", tmp_path)) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == "maximally superintegrable"
    assert cert["rank"] == 5
    assert "maximally superintegrable" in capsys.readouterr().out


def test_certify_conformal(tmp_path):
    assert main(_args("certify", "conformal", tmp_path)) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == "minimally superintegrable"
    assert cert["rank"] == 5
    assert cert["involutive_subset"] == ["Q1", "Q2", "Q3", "K"]


def test_certify_planewave(tmp_path):
    assert main(_args("certify", "planewave", tmp_path)) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == "maximally superintegrable"
    assert cert["rank"] == 7


def test_certify_truncated_set(tmp_path):
    # the preset expects (and therefore passes on) "not certified"
    assert main(_args("certify", "truncated", tmp_path)) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == "not certified"


@pytest.mark.parametrize("preset", ["conformal", "planewave"])
def test_certify_deterministic_output(tmp_path, preset):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(_args("certify", preset, a)) == 0
    assert main(_args("certify", preset, b)) == 0
    assert ((a / "certification.json").read_bytes()
            == (b / "certification.json").read_bytes())


def test_certify_unexpected_label_fails(tmp_path):
    code = main(_args("certify", "spacelike", tmp_path,
                      "--set", "certify.expect=integrable"))
    assert code == 1


# ---------------------------------------------------------------------------
# kg
# ---------------------------------------------------------------------------

def test_kg_planewave(tmp_path):
    assert main(_args("kg", "planewave", tmp_path)) == 0
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "point,h,residual_h,residual_h2,ratio"
    ratios = [float(row.split(",")[4]) for row in lines[1:]]
    assert len(ratios) == 60
    assert all(3.5 < r < 4.5 for r in ratios)
    summary = json.loads((tmp_path / "kg_summary.json").read_text())
    assert summary["pass"] is True


def test_kg_conformal(tmp_path):
    assert main(_args("kg", "conformal", tmp_path)) == 0
    summary = json.loads((tmp_path / "kg_summary.json").read_text())
    assert summary["pass"] is True


def test_kg_offshell_control_fails(tmp_path):
    assert main(_args("kg", "kgcontrol", tmp_path)) == 1
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    ratios = [float(row.split(",")[4]) for row in lines[1:]]
    # the control plateaus instead of converging
    assert all(r < 1.5 for r in ratios)


def test_kg_deterministic_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(_args("kg", "dilation", a)) == 0
    assert main(_args("kg", "dilation", b)) == 0
    for name in ("convergence.csv", "kg_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def test_orbit_fig2_csv(tmp_path):
    assert main(_args("orbit", "fig2", tmp_path)) == 0
    lines = (tmp_path / "orbit.csv").read_text().strip().splitlines()
    assert lines[0] == "xplus,x0,x1,x2,x3,p0,p1,p2,p3"
    assert len(lines) > 100


def test_orbit_fig1_json(tmp_path):
    assert main(_args("orbit", "fig1", tmp_path, "--format", "json",
                      "--set", "run.tend=2.2")) == 0
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert doc["family"] == "spacelike"
    assert doc["constants"]["Q5"] == pytest.approx(1.1180339887498948482)


def test_orbit_past_asymptote_exits_three(tmp_path):
    # kappa = 0.9 has its asymptote at x+ = 10; asking for 12 leaves the domain
    code = main(_args("orbit", "fig2", tmp_path,
                      "--set", "sweep.count=1", "--set", "run.tend=12"))
    assert code == 3


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_unknown_preset_exits_two(tmp_path, capsys):
    assert main(_args("simulate", "fig3", tmp_path)) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_bad_override_grammar_exits_two(tmp_path):
    assert main(_args("simulate", "fig1", tmp_path, "--set", "nodot")) == 2


def test_bad_numeric_value_exits_two(tmp_path):
    assert main(_args("simulate", "fig1", tmp_path,
                      "--set", "run.tend=fast")) == 2


def test_boolean_typo_exits_two(tmp_path, capsys):
    # a misspelt boolean must not silently integrate the unswitched field
    assert main(_args("simulate", "fig1", tmp_path,
                      "--set", "background.switched=ture")) == 2
    assert "not a boolean" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("raw, value", [("1", True), (" TRUE ", True),
                                        ("Yes", True), ("on", True),
                                        ("0", False), ("False", False),
                                        (" no", False), ("OFF", False)])
def test_boolean_spellings(raw, value):
    assert _getb({"run": {"flag": raw}}, "run", "flag") is value


@pytest.mark.parametrize("raw", ["ture", "", "2", "y", "none"])
def test_boolean_typos_rejected(raw):
    with pytest.raises(ConfigError):
        _getb({"run": {"flag": raw}}, "run", "flag")


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["simulate", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err  # explains what is missing


def test_ini_config_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[background]\n"
        "family = linear_z\n"
        "B = 1.0\n"
        "m0sq = 1.0\n"
        "switched = true\n"
        "[run]\n"
        "form = instant\n"
        "tstart = 0\n"
        "tend = 4\n"
        "[initial]\n"
        "t = 0\n"
        "x = 0,0,0\n"
        "p = 0,0,-0.5\n"
        "[monitor]\n"
        "set = spacelike\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(ini), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"]) == 1
    assert summary["runs"][0]["max_drift"] <= 1e-8


def test_override_wins_over_preset(tmp_path):
    assert main(_args("simulate", "fig1", tmp_path,
                      "--set", "sweep.count=1", "--set", "run.tend=1.0")) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["runs"]) == 1
