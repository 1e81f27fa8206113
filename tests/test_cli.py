import csv
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexjoint.cli import (
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ONEDOF_STUDY,
    TWOLINK_STUDY,
    _claim,
    _gain_combos,
    main,
    reproduce_paper,
    run_bode,
    run_pzmap,
    run_simulate,
    run_synth,
    run_verify,
    write_csv,
)
from flexjoint.config import parse_config
from flexjoint.csvfmt import _BLOCK_CELLS

FAST_SIM = """
[plant]
n = 1
M = 3
J = 3
K = 1e6
D = 1

[controller]
K_F = 0.9
K_G = 4

[outer_loop]
K_phi = 100
D_phi = 10

[target]
M_d = 3
K_d = 10
D_d = 100

[sweep]
K_F = -0.9, 0, 0.9
K_G = 0, 1, 4

[sim]
dt = 2e-5
T = 0.05
input = step(1, 1, 0)
"""

INFEASIBLE = """
[plant]
n = 1
M = 3
J = 3
K = 1e6
D = 1

[controller]
K_F = 1.5
K_G = 0
"""

BAD_PLANT = """
[plant]
n = 1
M = 3
J = 3
K = 1e6
D = -1

[controller]
K_F = 0.5
K_G = 0
"""


@pytest.fixture
def fast_cfg_path(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(FAST_SIM, encoding="utf-8")
    return path


class TestSynth:
    def test_reports_values(self, capsys, tmp_path):
        cfg = parse_config(FAST_SIM)
        report = run_synth(cfg, tmp_path)
        out = capsys.readouterr().out
        assert "K_H" in out and "J_e" in out and "admissible: yes" in out
        assert (tmp_path / "synth.txt").exists()
        assert report["shaped"].K_e[0, 0] == pytest.approx(1e5, rel=1e-9)

    def test_identity_config(self, capsys, tmp_path):
        text = FAST_SIM.replace("K_F = 0.9\nK_G = 4", "K_F = 0\nK_G = 0")
        run_synth(parse_config(text), None)
        out = capsys.readouterr().out
        assert "admissible: yes" in out

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(INFEASIBLE, encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == EXIT_INFEASIBLE

    def test_invalid_plant_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BAD_PLANT, encoding="utf-8")
        assert main(["synth", "--config", str(path)]) == EXIT_INFEASIBLE


class TestBode:
    def test_csv_shape_and_header(self, tmp_path):
        cfg = parse_config(FAST_SIM)
        errors = run_bode(cfg, tmp_path, grid_points=50)
        lines = (tmp_path / "bode.csv").read_text().splitlines()
        assert lines[0] == "system_id,omega_rad_s,mag_db,phase_deg,err_db"
        assert len(lines) == 1 + 10 * 50   # 9 sweep systems + target
        assert len(errors) == 9

    def test_error_orderings_on_coarse_grid(self, tmp_path):
        errors = run_bode(parse_config(FAST_SIM), tmp_path, grid_points=100)
        assert errors[(0.9, 4.0)] < errors[(0.9, 0.0)]
        assert errors[(0.9, 4.0)] < errors[(-0.9, 4.0)]

    def test_byte_identical_outputs(self, tmp_path):
        cfg = parse_config(FAST_SIM)
        run_bode(cfg, tmp_path / "a", grid_points=25)
        run_bode(cfg, tmp_path / "b", grid_points=25)
        assert (tmp_path / "a" / "bode.csv").read_bytes() \
            == (tmp_path / "b" / "bode.csv").read_bytes()


class TestPzmap:
    def test_target_rows_present(self, tmp_path):
        run_pzmap(parse_config(FAST_SIM), tmp_path)
        lines = (tmp_path / "pzmap.csv").read_text().splitlines()
        assert lines[0] == "system_id,kind,re,im,dom_dist"
        target_rows = [l for l in lines if l.startswith("target,")]
        # two poles and one zero
        kinds = sorted(row.split(",")[1] for row in target_rows)
        assert kinds == ["pole", "pole", "zero"]
        pole_rows = [r.split(",") for r in target_rows if r.split(",")[1] == "pole"]
        res = sorted(float(r[2]) for r in pole_rows)
        assert res[0] == pytest.approx(-5.0 / 3.0, rel=1e-9)

    def test_identity_combo_keeps_plant_poles(self, tmp_path):
        text = FAST_SIM.replace("K_F = -0.9, 0, 0.9", "K_F = 0").replace(
            "K_G = 0, 1, 4", "K_G = 0").replace("[outer_loop]\nK_phi = 100\nD_phi = 10\n\n", "")
        run_pzmap(parse_config(text), tmp_path)
        lines = (tmp_path / "pzmap.csv").read_text().splitlines()[1:]
        poles = [complex(float(r.split(",")[2]), float(r.split(",")[3]))
                 for r in lines if r.startswith("kf0_kg0,pole")]
        # open-loop plant poles: origin pair and the elastic mode at 816.5 rad/s
        fast = max(abs(p) for p in poles)
        assert fast == pytest.approx(816.4966, rel=1e-4)


class TestSimulate:
    def test_zero_input_constant_columns(self, tmp_path):
        text = FAST_SIM.replace("input = step(1, 1, 0)", "input = zero")
        summary = run_simulate(parse_config(text), tmp_path)
        lines = (tmp_path / "sim.csv").read_text().splitlines()
        assert lines[0].startswith("t,q_1,phi_1,p_1,z_1,tau_1,tau_e_1,tau_u_1,H,supply")
        first = [float(v) for v in lines[1].split(",")[1:]]
        last = [float(v) for v in lines[-1].split(",")[1:]]
        assert first == last
        assert len(summary) == 1

    def test_step_run_produces_motion(self, tmp_path):
        summary = run_simulate(parse_config(FAST_SIM), tmp_path)
        data = np.genfromtxt(tmp_path / "sim.csv", delimiter=",", names=True)
        assert np.max(np.abs(data["q_1"])) > 0
        assert summary[0][3] <= 1e-6 * max(summary[0][4], 1e-12)

    def test_bundled_study_csv_is_deterministic(self, tmp_path):
        # two runs of the bundled 1-DOF study write the same bytes, in the
        # column set README documents for sim*.csv
        cfg = parse_config(ONEDOF_STUDY)
        for out in ("a", "b"):
            run_simulate(cfg, tmp_path / out, horizon=0.01)
        data = (tmp_path / "a" / "sim.csv").read_bytes()
        assert data == (tmp_path / "b" / "sim.csv").read_bytes()
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        schema, = [line for line in readme.splitlines() if line.startswith("| `sim*.csv` |")]
        columns = [c.strip(" `").replace("_*", "_1") for c in schema.split("|")[2].split(",")]
        lines = data.decode().splitlines()
        assert lines[0].split(",") == columns
        assert len(lines) == 1 + 501
        assert {len(line.split(",")) for line in lines[1:]} == {len(columns)}

    def test_cli_dt_override_rejects_unstable(self, fast_cfg_path, tmp_path):
        code = main(["simulate", "--config", str(fast_cfg_path),
                     "--out", str(tmp_path), "--dt", "1e-2"])
        assert code == EXIT_INFEASIBLE

    def test_output_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "study.cfg"
        path.write_text(FAST_SIM + "\n[output]\ndir = results\n", encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == EXIT_OK
        assert (tmp_path / "results" / "sim.csv").exists()
        assert main(["simulate", "--config", str(path), "--out", "flag"]) == EXIT_OK
        assert (tmp_path / "flag" / "sim.csv").exists()

    @pytest.mark.parametrize("command", ["bode", "pzmap", "simulate"])
    def test_missing_output_dir_names_both_sources(self, command, fast_cfg_path, capsys):
        assert main([command, "--config", str(fast_cfg_path)]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "--out" in err and "[output] dir" in err

    @pytest.mark.parametrize("argv", [["bode", "--grid-points", "0"],
                                      ["bode", "--grid-points", "-3"],
                                      ["verify", "--seed", "-1"]])
    def test_bad_integer_options_exit_2(self, argv, fast_cfg_path, tmp_path, capsys):
        # a bad count or seed is malformed input (exit 2), never a traceback
        out = ["--out", str(tmp_path)] if argv[0] == "bode" else []
        assert main([*argv, "--config", str(fast_cfg_path), *out]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_cli_non_finite_values_are_configuration_errors(self, fast_cfg_path, tmp_path):
        code = main(["simulate", "--config", str(fast_cfg_path),
                     "--out", str(tmp_path), "--horizon", "nan"])
        assert code == EXIT_INFEASIBLE
        path = tmp_path / "nan_input.cfg"
        path.write_text(FAST_SIM.replace("input = step(1, 1, 0)", "input = step(nan, 1, 0)"),
                        encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("line, key", [
        ("n = nan", "[plant] n"), ("n = abc", "[plant] n"), ("n = 1.5", "[plant] n"),
        ("M = abc", "[plant] M"), ("M = zero", "[plant] M"),
        ("K_phi = abc", "[outer_loop] K_phi"),
        ("T = abc", "[sim] T"), ("dt = abc", "[sim] dt"),
        ("input = step(1, nan, 0)", "[sim] input"),
        ("input = sinusoid(1, 10, inf)", "[sim] input"),
        ("input = step(1, 1.5, 0)", "[sim] input"),
        ("input = step(1, 1, 0, 7)", "[sim] input"),
        ("input = step(1, 0, 0)", "[sim] input"),
        ("input = diag(1, 2, 3)", "[sim] input"),
        ("K = [[1e6, [0]], [0, 1e6]]", "[plant] K"),
    ])
    def test_malformed_values_exit_2(self, line, key, tmp_path, capsys):
        # a value of the wrong type is malformed input (exit 2) named by its
        # key: never a traceback (exit 1 means divergence), never read quietly
        name = line.split(" = ")[0]
        lines = [line if row.startswith(f"{name} = ") else row for row in FAST_SIM.splitlines()]
        assert line in lines
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith(f"error: {key} ")

    def test_input_joint_is_named_as_written(self, tmp_path, capsys):
        # the config counts joints from 1; the message says how it counts
        path = tmp_path / "joint.cfg"
        path.write_text(FAST_SIM.replace("input = step(1, 1, 0)", "input = step(1, 2, 0)"),
                        encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert "joint 2 counting from 1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_1(self, tmp_path, capsys):
        # a finite input so large that the state overflows on the first steps
        path = tmp_path / "huge_input.cfg"
        path.write_text(FAST_SIM.replace("input = step(1, 1, 0)", "input = step(1e308, 1, 0)"),
                        encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_DIVERGED
        assert "state became non-finite" in capsys.readouterr().err


def _without_section(text, section):
    """``text`` with the ``[section]`` block removed."""
    return re.sub(rf"\[{section}\]\n(?:(?:[^\[\n].*)?\n)*", "", text)


class TestStudyPreconditions:
    """A config a study cannot run on exits 2 with the study's own message."""

    SHAPED = _without_section(FAST_SIM, "sweep").replace("K_F = 0.9\nK_G = 4", "J_e = 1\nK_e = 1e5")
    JE_SWEEP = FAST_SIM.replace("K_F = -0.9, 0, 0.9\nK_G = 0, 1, 4", "J_e = 1, 2")

    @pytest.mark.parametrize("command, text, message", [
        ("bode", SHAPED, "a full K_F/K_G sweep needs either [sweep] lists or scalar gain "
                         "values in [controller]"),
        ("simulate", JE_SWEEP, "a J_e sweep requires a shaped-parameter controller"),
        ("bode", TWOLINK_STUDY, "this study requires a single-joint constant-mass plant"),
        ("pzmap", _without_section(FAST_SIM, "target"),
         "[target] section is required for the pole-zero study"),
        ("synth", _without_section(FAST_SIM, "controller"),
         "[controller] section is required for synth"),
        ("verify", _without_section(FAST_SIM, "controller"),
         "[controller] section is required for verify"),
    ], ids=["gain-grid-without-gains", "je-sweep-with-gain-pair", "bode-on-two-link",
            "pzmap-without-target", "synth-without-controller", "verify-without-controller"])
    def test_exits_2_with_message(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "study.cfg"
        path.write_text(text, encoding="utf-8")
        out = [] if command == "verify" else ["--out", str(tmp_path)]
        assert main([command, "--config", str(path), *out]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == f"error: {message}\n"


class TestReproducePaper:
    """The 1-DOF studies run for real; the two-link sweep is stubbed with
    three summary rows, since its integration takes about a minute."""

    @staticmethod
    def _sweep(l2_values):
        def run_simulate_stub(cfg, outdir, dt=None, horizon=None):
            return [(f"sim_je{i + 1}", float(i + 1), l2, 0.0, 1.0, 1.0)
                    for i, l2 in enumerate(l2_values)]
        return run_simulate_stub

    def test_every_claim_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("flexjoint.cli.run_simulate", self._sweep([0.3, 0.2, 0.1]))
        summary = reproduce_paper(tmp_path / "direct")
        with open(tmp_path / "direct" / "summary.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["check", "status", "detail"]
        assert len(rows) == 17 and len(summary) == 16
        assert [row[1] for row in rows[1:]] == ["pass"] * 16
        assert main(["reproduce-paper", "--out", str(tmp_path / "main")]) == EXIT_OK
        assert "completed in" in capsys.readouterr().out

    def test_failed_claim_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("flexjoint.cli.run_simulate", self._sweep([0.3, 0.3, 0.1]))
        assert main(["reproduce-paper", "--out", str(tmp_path)]) == EXIT_VERIFY_FAILED
        assert "FAIL sim_l2_strictly_decreasing_in_sweep" in capsys.readouterr().out


@pytest.mark.parametrize("sweep, combos", [
    ("K_F = -0.9, 0.9", [(-0.9, 4.0), (0.9, 4.0)]),
    ("K_G = 0, 1, 4", [(0.9, 0.0), (0.9, 1.0), (0.9, 4.0)]),
], ids=["K_F_list", "K_G_list"])
def test_one_sweep_list_takes_the_other_gain_from_controller(sweep, combos):
    text = "[plant]\nn = 1\nM = 3\nJ = 3\nK = 1e6\n[controller]\nK_F = 0.9\nK_G = 4\n"
    assert _gain_combos(parse_config(text + "[sweep]\n" + sweep + "\n")) == combos


def test_claim_row():
    # non-strict claims allow 1e-12 of increase, strict ones none
    assert _claim("c", [1.0, 1.0 + 5e-13], ".3f") == ("c", "pass", "1.000 -> 1.000")
    assert _claim("c", [1.0, 1.0 + 5e-13], ".3f", strict=True)[1] == "fail"
    assert _claim("c", [1.0, 1.0 + 2e-12], ".3f")[1] == "fail"
    assert _claim("c", [3e-4, 2.5e-4, 1e-4], ".6g", strict=True) \
        == ("c", "pass", "0.0003 -> 0.00025 -> 0.0001")


def test_write_csv_number_format(tmp_path):
    path = tmp_path / "row.csv"
    write_csv(path, ["a", "b"], [[-0.0, 0.0, float("nan"), float("-inf"), 1e-310, 7]], [("x",)])
    assert path.read_text() == "a,b\nx,0,0,nan,-inf,9.9999999999999694e-311,7\n"


@settings(derandomize=True, max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cols=st.integers(0, 6), width=st.integers(0, 2),
       as_list=st.booleans())
def test_write_csv_matches_per_cell_format(tmp_path_factory, seed, cols, width, as_list):
    # blocks hold at most _BLOCK_CELLS cells of whole rows, so these rows
    # cross block boundaries at every width; the reference formats one cell at a time
    rng = np.random.default_rng(seed)
    rows = 2 * _BLOCK_CELLS + 1
    values = rng.integers(0, 2**64, (rows, cols), dtype=np.uint64, endpoint=False).view(float)
    special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1e-310,
                        2.2250738585072009e-308, 1.7976931348623157e308])
    mask = rng.random(values.shape) < 0.2
    values[mask] = rng.choice(special, mask.sum())
    labels = [tuple(rng.choice(["sys", "kf0.9_kg4", "pole", "", "target"], width))
              for _ in range(rows)] if width or cols == 0 else None
    header = [f"c{i}" for i in range(width + cols)]
    path = tmp_path_factory.mktemp("csv") / "block.csv"
    write_csv(path, header, values.tolist() if as_list else values, labels)
    want = [",".join(header)]
    for i, row in enumerate(values):
        want.append(",".join([*(labels[i] if labels else ()),
                              *(format(float(x) + 0.0, ".17g") for x in row)]))
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


class TestVerify:
    def test_all_pass_on_benchmark(self, fast_cfg_path):
        lines, ok = run_verify(parse_config(FAST_SIM), seed=0)
        assert ok
        assert all(line.startswith("PASS") for line in lines)
        names = [line.split()[1] for line in lines]
        assert "equivalence_residual" in names and "positive_real" in names

    def test_corrupted_gains_fail_consistency(self):
        from flexjoint import ConfigurationError, ImpedanceGains
        from flexjoint.control import check_gain_consistency
        from flexjoint.model import LinearRobotParams
        plant = LinearRobotParams(n=1, M=3.0, J=3.0, K=1e6, D=1.0)
        from flexjoint import synthesize_gains
        g, sp = synthesize_gains(plant, 1.5, 5e5)
        bad = ImpedanceGains(g.K_F, g.K_G, g.K_H + 0.05)
        with pytest.raises(ConfigurationError):
            check_gain_consistency(bad, sp, plant)

    def test_exit_code_via_main(self, fast_cfg_path):
        assert main(["verify", "--config", str(fast_cfg_path), "--seed", "1"]) == EXIT_OK

    def test_bad_plant_fails_before_running(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(BAD_PLANT, encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == EXIT_INFEASIBLE


class TestEntryPoint:
    def test_console_script_smoke(self, fast_cfg_path):
        proc = subprocess.run(
            [sys.executable, "-m", "flexjoint.cli", "synth", "--config", str(fast_cfg_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "admissible: yes" in proc.stdout

    def test_missing_config_file(self, tmp_path):
        assert main(["bode", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("config, out, fragment", [
        (".", "out", "Is a directory"),
        ("latin1.cfg", "out", "latin1.cfg: not UTF-8 text"),
        ("study.cfg", "study.cfg", "File exists"),
        ("study.cfg", "study.cfg/out", "Not a directory"),
    ], ids=["config_is_a_directory", "config_not_utf8", "out_is_a_file", "out_beneath_a_file"])
    def test_path_and_encoding_errors_exit_infeasible(self, fast_cfg_path, tmp_path, capsys,
                                                       config, out, fragment):
        (tmp_path / "latin1.cfg").write_bytes(FAST_SIM.replace("M_d", "M\xe9").encode("latin-1"))
        code = main(["bode", "--config", str(tmp_path / config), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == EXIT_INFEASIBLE
        assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err, err

    @pytest.mark.parametrize("command, options, edit, fragment", [
        ("bode", ["--grid-points", str(2 ** 55)], None,
         "bode.csv of 10 systems x 3.6e+16 grid points would need 1.8e+18 array entries"),
        ("simulate", [], ("T = 0.05", "T = 1e12"),
         "a run of 5e+16 steps x 11 columns would need 5.5e+17 array entries"),
        ("simulate", ["--dt", "1e-300"], None,
         "a run of 5e+298 steps x 11 columns would need 5.5e+299 array entries"),
        ("synth", [], ("\nn = 1\n", "\nn = 1e300\n"),
         "[plant] M as a 1e+300 x 1e+300 matrix would need inf array entries"),
    ], ids=["bode_grid", "sim_horizon", "sim_dt", "plant_joints"])
    def test_oversized_runs_are_refused_before_allocating(self, tmp_path, capsys, command,
                                                          options, edit, fragment):
        path = tmp_path / "study.cfg"
        path.write_text(FAST_SIM if edit is None else FAST_SIM.replace(*edit), encoding="utf-8")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), *options])
        err = capsys.readouterr().err
        assert code == EXIT_INFEASIBLE
        assert err.count("\n") == 1 and err.startswith("error: ") and fragment in err, err
        assert err.endswith("above the bound of 67108864 (2^26)\n"), err


def test_bundled_study_configs_parse():
    cfg = parse_config(ONEDOF_STUDY)
    assert cfg.sweep["K_F"] == [-0.9, 0.0, 0.9]
    assert cfg.target["D_d"] == 100.0


class TestCoupledSimulate:
    def test_environment_section_runs_coupled(self, tmp_path):
        # the input acts as an extra external torque on top of the
        # environment reaction, so the interconnection is driven
        text = FAST_SIM + "\n[environment]\nM_h = 1\nD_h = 2\nK_h = 50\n"
        summary = run_simulate(parse_config(text), tmp_path)
        data = np.genfromtxt(tmp_path / "sim.csv", delimiter=",", names=True)
        assert np.max(np.abs(data["q_1"])) > 0.0
        assert np.all(np.isfinite(data["tau_e_1"]))
        assert summary[0][3] <= 1e-6 * max(summary[0][4], 1e-12)

    def test_zero_input_coupled_stays_at_rest(self, tmp_path):
        text = FAST_SIM.replace("input = step(1, 1, 0)", "input = zero") \
            + "\n[environment]\nM_h = 1\nD_h = 2\nK_h = 50\n"
        run_simulate(parse_config(text), tmp_path)
        data = np.genfromtxt(tmp_path / "sim.csv", delimiter=",", names=True)
        for col in ("q_1", "phi_1", "p_1", "z_1", "H"):
            assert np.all(data[col] == 0.0)


def test_synth_pure_force_feedback_values(capsys):
    text = FAST_SIM.replace("K_F = 0.9\nK_G = 4", "K_F = 0.9\nK_G = 0")
    report = run_synth(parse_config(text), None)
    capsys.readouterr()
    shaped = report["shaped"]
    assert shaped.J_e[0, 0] == pytest.approx(0.3 / 1.9, rel=1e-6)
    assert shaped.K_e[0, 0] == pytest.approx(1e5, rel=1e-9)
    assert shaped.D_e[0, 0] == pytest.approx(0.1, rel=1e-9)


THREE_JOINTS = """
[plant]
n = 3
M = [[3, 0.5, 0], [0.5, 2, 0.3], [0, 0.3, 1.5]]
J = 2, 1.5, 1
K = diag(1e4, 2e4, 1.5e4)
D = 1

[controller]
J_e = [[1, 0.2, 0], [0.2, 0.8, 0.1], [0, 0.1, 0.6]]
K_e = diag(1.5e4, 3e4, 2e4)

[outer_loop]
K_phi = 100
D_phi = 10

[sim]
dt = 2e-5
T = 0.02
input = step(1, 2, 0)
"""


@pytest.mark.parametrize("outer", [True, False])
def test_verify_checks_positive_real_for_three_joints(outer):
    # the loops the polynomial conversion called not-passive
    text = THREE_JOINTS if outer else _without_section(THREE_JOINTS, "outer_loop")
    lines, ok = run_verify(parse_config(text), seed=0)
    assert ok, lines
    assert "positive_real" in [line.split()[1] for line in lines]


def test_verify_skips_positive_real_beyond_the_conversion_limit():
    # six joints are 24 states, which ss_to_tf refuses
    text = """
[plant]
n = 6
M = 2
J = 1.5
K = 1e4
D = 1

[controller]
J_e = 0.8
K_e = 2e4

[sim]
dt = 2e-5
T = 0.01
input = step(1, 2, 0)
"""
    lines, ok = run_verify(parse_config(text), seed=0)
    assert ok, lines
    assert "positive_real" not in [line.split()[1] for line in lines]


def test_verify_on_two_link_config():
    from flexjoint.cli import TWOLINK_STUDY
    cfg = parse_config(TWOLINK_STUDY.replace("T = 1.5", "T = 0.2"))
    lines, ok = run_verify(cfg, seed=2)
    assert ok, lines
    names = [line.split()[1] for line in lines]
    # the positive-real check applies to constant-mass plants only
    assert "positive_real" not in names
    assert "equivalence_residual" in names


# Each value of both bundled studies is replaced by each of these tokens:
# malformed text, non-finite numbers, ragged rows, and values well formed for
# some kinds but not for others.
FUZZ_TOKENS = ("abc", "nan", "inf", "-inf", "[[1, [0]], [0, 1]]", "diag(1, 2, 3)", "1, 2, 3",
               "true", "zero", "[1, 'a']", "step(1, 1, 0)", "[]")
STUDIES = {"onedof": ONEDOF_STUDY, "twolink": TWOLINK_STUDY}


def _study_values(name):
    """(study, line index, section, key) of every value line of a bundled study."""
    section, out = None, []
    for i, row in enumerate(STUDIES[name].splitlines()):
        if row.startswith("["):
            section = row[1:-1]
        elif " = " in row:
            out.append((name, i, section, row.split(" = ")[0]))
    return out


STUDY_VALUES = _study_values("onedof") + _study_values("twolink")


def _line_of(study, section, key):
    (index,) = [i for s, i, sec, k in STUDY_VALUES if (s, sec, k) == (study, section, key)]
    return index


def _run_edited(study, index, line, argv, tmp_path, capsys):
    """Exit code and stderr of ``main(argv)`` on the study with line ``index``
    replaced by ``line`` (appended when ``index`` is None)."""
    rows = STUDIES[study].splitlines()
    if index is None:
        rows.append(line)
    else:
        rows[index] = line
    path = tmp_path / "edited.cfg"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main([argv[0], "--config", str(path), *argv[1:]])
    return code, capsys.readouterr().err


def _names_key(err, section, key):
    # the control layer shapes [controller] gains against the plant and
    # names them as its own arguments
    return f"[{section}] {key}" in err or (section == "controller"
                                           and err.startswith(f"error: {key}: "))


class TestConfigFuzz:
    """Every value of both bundled studies, replaced by each fuzz token, runs
    through ``main``: it exits 0 or 2, raises nothing, and on 2 names its
    ``[section] key``."""

    @pytest.mark.parametrize("study, index, section, key", STUDY_VALUES,
                             ids=[f"{s}-{sec}-{k}" for s, _, sec, k in STUDY_VALUES])
    def test_every_value_through_synth(self, study, index, section, key, tmp_path, capsys):
        assert len(STUDY_VALUES) == 35
        for token in FUZZ_TOKENS:
            code, err = _run_edited(study, index, f"{key} = {token}", ["synth"], tmp_path, capsys)
            assert code in (EXIT_OK, EXIT_INFEASIBLE), token
            assert code == EXIT_OK or _names_key(err, section, key), (token, err)

    @pytest.mark.parametrize("study, section, key, token", [
        ("onedof", "plant", "M", "[1, 'a']"), ("onedof", "sim", "input", "[]"),
        ("onedof", "sim", "dt", "[1, 'a']"), ("onedof", "outer_loop", "K_phi", "1, 2, 3"),
        ("twolink", "plant", "link_lengths", "1, 2, 3"),
        ("twolink", "plant", "link_masses", "diag(1, 2, 3)"),
        ("twolink", "nonlinear_target", "q_d", "1, 2, 3"), ("twolink", "plant", "gravity", "nan"),
    ])
    def test_values_through_simulate(self, study, section, key, token, tmp_path, capsys):
        code, err = _run_edited(study, _line_of(study, section, key), f"{key} = {token}",
                                ["simulate", "--horizon", "0.002", "--out", str(tmp_path)],
                                tmp_path, capsys)
        assert code == EXIT_INFEASIBLE and _names_key(err, section, key), err

    @pytest.mark.parametrize("study, index, line, argv, key", [
        # an unknown key, which was read as nothing
        ("onedof", None, "[outer_loop]\nphi_D = 0.5", ["synth"], "[outer_loop] phi_D"),
        # a boolean that is not one, which was read as true
        ("twolink", _line_of("twolink", "plant", "gravity"), "gravity = abc", ["synth"],
         "[plant] gravity"),
        # a section the command does not read is still checked
        ("onedof", None, "[target]\nM_d = abc", ["simulate", "--horizon", "0.002"],
         "[target] M_d"),
        ("twolink", None, "[environment]\nK_h = nan", ["synth"], "[environment] K_h"),
    ])
    def test_every_section_is_checked(self, study, index, line, argv, key, tmp_path, capsys):
        if argv[0] == "simulate":
            argv = [*argv, "--out", str(tmp_path)]
        code, err = _run_edited(study, index, line, argv, tmp_path, capsys)
        assert code == EXIT_INFEASIBLE and err.startswith(f"error: {key} "), err


class TestOverflowExits2:
    """A finite value whose products overflow float64 ends in one ``error:``
    line and exit 2, with no RuntimeWarning (an error under this suite)."""

    def test_pzmap_refuses_an_overflowing_transfer_function(self, tmp_path, capsys):
        code, err = _run_edited("onedof", _line_of("onedof", "plant", "M"), "M = 1e-300",
                                ["pzmap", "--out", str(tmp_path)], tmp_path, capsys)
        assert code == EXIT_INFEASIBLE
        assert err.startswith("error: transfer function: ") and err.count("\n") == 1, err
        assert "overflows float64" in err

    @pytest.mark.parametrize("line", ["M = 1e-300", "K = 1e300"])
    def test_verify_refuses_a_plant_field_that_overflows(self, line, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _run_edited("onedof", _line_of("onedof", "plant", line.split()[0]),
                                    line, ["verify"], tmp_path, capsys)
        assert code == EXIT_INFEASIBLE and not caught, [str(w.message) for w in caught]
        assert err == ("error: equivalence residual: the plant state or field overflows "
                       "float64; rescale the plant\n"), err

    @pytest.mark.parametrize("argv", [["synth"], ["simulate", "--horizon", "0.002"]],
                             ids=["synth", "simulate"])
    def test_two_link_inertias_that_overflow_name_the_links(self, argv, tmp_path, capsys):
        code, err = _run_edited("twolink", _line_of("twolink", "plant", "link_lengths"),
                                "link_lengths = 1e300, 0.4", [*argv, "--out", str(tmp_path)],
                                tmp_path, capsys)
        assert code == EXIT_INFEASIBLE
        assert err.startswith("error: link_lengths [1e+300, 0.4] and link_masses [4.0, 2.5] ")
        assert err.count("\n") == 1, err
