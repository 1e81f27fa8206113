import csv
import subprocess
import sys

import numpy as np
import pytest

from flexjoint.cli import (
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ONEDOF_STUDY,
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

    def test_cli_non_finite_values_are_configuration_errors(self, fast_cfg_path, tmp_path):
        code = main(["simulate", "--config", str(fast_cfg_path),
                     "--out", str(tmp_path), "--horizon", "nan"])
        assert code == EXIT_INFEASIBLE
        path = tmp_path / "nan_input.cfg"
        path.write_text(FAST_SIM.replace("input = step(1, 1, 0)", "input = step(nan, 1, 0)"),
                        encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_INFEASIBLE

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_1(self, tmp_path, capsys):
        # a finite input so large that the state overflows on the first steps
        path = tmp_path / "huge_input.cfg"
        path.write_text(FAST_SIM.replace("input = step(1, 1, 0)", "input = step(1e308, 1, 0)"),
                        encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == EXIT_DIVERGED
        assert "state became non-finite" in capsys.readouterr().err


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


def test_write_csv_number_format(tmp_path):
    path = tmp_path / "row.csv"
    write_csv(path, ["a", "b"], [[-0.0, 0.0, float("nan"), float("-inf"), 1e-310, 7, "x"]])
    assert path.read_text() == "a,b\n0,0,nan,-inf,9.9999999999999694e-311,7,x\n"


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


def test_verify_on_two_link_config():
    from flexjoint.cli import TWOLINK_STUDY
    cfg = parse_config(TWOLINK_STUDY.replace("T = 1.5", "T = 0.2"))
    lines, ok = run_verify(cfg, seed=2)
    assert ok, lines
    names = [line.split()[1] for line in lines]
    # the positive-real check only applies to single-joint constant-mass plants
    assert "positive_real" not in names
    assert "equivalence_residual" in names
