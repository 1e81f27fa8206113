import re

import pytest

from flexjoint import ConfigurationError, LinearRobotParams, NonlinearRobotModel
from flexjoint.config import (
    _SCHEMA,
    GainPair,
    ShapedPair,
    build_controller_spec,
    build_environment,
    build_input,
    build_outer_loop,
    build_plant,
    build_target,
    parse_config,
    serialize_config,
)

ONEDOF = """
# benchmark single-joint setup
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

[environment]
M_h = 1
D_h = 2
K_h = 3

[sweep]
K_F = -0.9, 0, 0.9
K_G = 0, 1, 4

[sim]
dt = 2e-5
T = 2
input = step(1, 1, 0)

[output]
dir = out
"""

TWOLINK = """
[plant]
type = two_link_arm
link_lengths = 0.5, 0.4
link_masses = 4, 2.5
motor_inertias = 1, 1
K = diag(1e4, 1e4)
D = diag(0, 0)
gravity = off

[controller]
J_e = diag(1, 1)
K_e = [[2e4, 0], [0, 2e4]]

[sim]
input = sinusoid(2, 15, 1)
"""


class TestParsing:
    def test_scalars_and_scientific(self):
        cfg = parse_config(ONEDOF)
        assert cfg.plant["K"] == 1e6
        assert cfg.sim["dt"] == 2e-5

    def test_lists(self):
        cfg = parse_config(ONEDOF)
        assert cfg.sweep["K_F"] == [-0.9, 0.0, 0.9]

    def test_diag_and_rows(self):
        cfg = parse_config(TWOLINK)
        assert cfg.plant["K"] == [[1e4, 0.0], [0.0, 1e4]]
        assert cfg.controller["K_e"] == [[2e4, 0.0], [0.0, 2e4]]

    def test_booleans(self):
        cfg = parse_config(TWOLINK)
        assert cfg.plant["gravity"] is False

    def test_input_specs(self):
        assert parse_config(ONEDOF).sim["input"] == ("step", 1.0, 1.0, 0.0)
        assert parse_config(TWOLINK).sim["input"] == ("sinusoid", 2.0, 15.0, 1.0)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# top\n\n[plant]\nn = 1  # joints\nM=1\nJ=1\nK=1\nD=0\n")
        assert cfg.plant["n"] == 1.0

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("[plant]\nn=1\n[extras]\nx=1\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("n = 1\n")

    def test_missing_plant_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("[sim]\ndt = 1e-3\n")

    def test_both_parametrizations_rejected(self):
        text = "[plant]\nn=1\nM=1\nJ=1\nK=1\n[controller]\nK_F=0\nK_G=0\nJ_e=1\nK_e=1\n"
        with pytest.raises(ConfigurationError):
            parse_config(text)

    def test_neither_parametrization_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("[plant]\nn=1\nM=1\nJ=1\nK=1\n[controller]\nK_F=0\n")

    def test_bad_sweep_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("[plant]\nn=1\nM=1\nJ=1\nK=1\n[sweep]\nD_e = 1, 2\n")

    def test_malformed_value_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("[plant]\nn = \n")

    @pytest.mark.parametrize("call, fragment", [
        (lambda: parse_config("[plant\nn = 1\n"), "line 1: malformed section header '[plant'"),
        (lambda: parse_config("[plant]\nn 1\n"), "line 2: expected 'key = value', got 'n 1'"),
        (lambda: build_plant(parse_config("[plant]\nn = 1\nM = 3\nJ = 3\n")),
         "[plant] is missing 'K'"),
    ], ids=["section_header", "line_without_equals", "missing_plant_K"])
    def test_malformed_file_is_named(self, call, fragment):
        with pytest.raises(ConfigurationError, match=re.escape(fragment)):
            call()


BASE = "[plant]\nn = 1\nM = 3\nJ = 3\nK = 1e6\n"


class TestSchema:
    def test_counts_are_integers(self):
        cfg = parse_config(BASE.replace("n = 1", "n = 2.0") + "[sim]\ninput = step(1, 2e0, 0)\n")
        assert cfg.plant["n"] == 2 and isinstance(cfg.plant["n"], int)
        assert isinstance(cfg.sim["input"][2], int)

    @pytest.mark.parametrize("text, spec", [
        ("zero", ("zero",)), ("Zero()", ("zero",)),
        ("step(2)", ("step", 2.0, 1, 0.0)), ("STEP(2, 3)", ("step", 2.0, 3, 0.0)),
        ("sinusoid(1, 5)", ("sinusoid", 1.0, 5.0, 1)),
    ])
    def test_input_defaults_are_filled(self, text, spec):
        assert parse_config(BASE + f"[sim]\ninput = {text}\n").sim["input"] == spec

    def test_names_are_text(self):
        assert parse_config(BASE + "[output]\ndir = 1\n").output["dir"] == "1"

    def test_numbers_lists_become_lists(self):
        cfg = parse_config(BASE + "[sweep]\nJ_e = 0.5\nK_F = [1, 2]\n")
        assert cfg.sweep == {"J_e": [0.5], "K_F": [1.0, 2.0]}

    @pytest.mark.parametrize("section, line", [
        ("outer_loop", "phi_D = 0.5"), ("plant", "n = 0"), ("plant", "n = 2.5"),
        ("plant", "gravity = maybe"), ("plant", "M = [[1, 2], [3]]"), ("plant", "M = [[[1]]]"),
        ("plant", "M = ['1', 'a']"), ("plant", "link_lengths = diag(1, 2)"),
        ("plant", "K = 1, inf"), ("sweep", "K_F = []"), ("sweep", "J_e = diag(1)"),
        ("sim", "input = ramp(1)"), ("sim", "input = step(1, 1, 0, 7)"),
        ("sim", "input = sinusoid(1, 2, 0)"), ("sim", "dt = 1e999"), ("output", "dir ="),
    ])
    def test_each_key_is_checked_where_it_is_read(self, section, line):
        key = line.split("=")[0].strip()
        text = BASE.replace("[plant]", f"[plant]\n{line}") if section == "plant" \
            else BASE + f"[{section}]\n{line}\n"
        with pytest.raises(ConfigurationError, match=re.escape(f"[{section}] {key} ")):
            parse_config(text)


# Every key of the table: the plant's keys of both types, and the two
# controller parametrizations in turn.
EVERY_KEY = """
[plant]
type = two_link_arm
n = 2
M = [[3, 0.5], [0.5, 2]]
J = 1.5, 2
K = diag(1e4, 2e4)
D = 1
link_lengths = [0.5, 0.4]
link_masses = 4, 2.5
motor_inertias = 1
gravity = yes

[controller]
{controller}

[outer_loop]
K_phi = 1000
D_phi = 135
phi_d = 0.1, -0.2
gravity_comp = on

[target]
M_d = 3
K_d = [10]
D_d = [[100]]

[nonlinear_target]
K_theta = diag(1000, 900)
D_theta = 135
q_d = [0.3, 0]

[environment]
M_h = 1
D_h = 2, 3
K_h = 50

[sweep]
K_F = -0.9, 0, 0.9
K_G = 1
J_e = [1, 0.5, 0.25]

[sim]
dt = 5e-5
T = 1.5
input = sinusoid(2, 15)

[output]
dir = results/run 1
"""
CONTROLLERS = ("K_F = 0.9\nK_G = [[4, 0], [0, 4]]", "J_e = diag(1, 1)\nK_e = 2e4")


class TestRoundTrip:
    def test_whole_table_round_trips(self):
        keys = set()
        for controller in CONTROLLERS:
            cfg = parse_config(EVERY_KEY.format(controller=controller))
            assert parse_config(serialize_config(cfg)) == cfg
            keys |= {(name, key) for name in _SCHEMA for key in getattr(cfg, name)}
        assert keys == {(name, key) for name, section in _SCHEMA.items() for key in section}

    @pytest.mark.parametrize("text", [ONEDOF, TWOLINK])
    def test_serialize_then_parse_is_identity(self, text):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_serialization_is_stable(self):
        cfg = parse_config(ONEDOF)
        assert serialize_config(cfg) == serialize_config(parse_config(serialize_config(cfg)))


class TestBuilders:
    def test_linear_plant(self):
        plant = build_plant(parse_config(ONEDOF))
        assert isinstance(plant, LinearRobotParams)
        assert plant.K[0, 0] == 1e6

    def test_two_link_plant(self):
        plant = build_plant(parse_config(TWOLINK))
        assert isinstance(plant, NonlinearRobotModel)
        assert plant.n == 2
        assert plant.K[0, 0] == 1e4

    def test_controller_specs(self):
        assert isinstance(build_controller_spec(parse_config(ONEDOF)), GainPair)
        assert isinstance(build_controller_spec(parse_config(TWOLINK)), ShapedPair)

    def test_outer_loop_broadcast(self):
        outer = build_outer_loop(parse_config(ONEDOF), 1)
        assert outer.K_phi[0, 0] == 100.0
        outer2 = build_outer_loop(parse_config(TWOLINK), 2)
        assert outer2 is None

    def test_target_and_environment(self):
        cfg = parse_config(ONEDOF)
        target = build_target(cfg)
        assert target.M_d[0, 0] == 3.0
        env = build_environment(cfg, 1)
        assert env.D_h[0, 0] == 2.0

    def test_input_builders(self):
        sig = build_input(parse_config(ONEDOF))
        assert sig.kind == "step" and sig.joint == 0 and sig.amplitude == 1.0
        sig2 = build_input(parse_config(TWOLINK))
        assert sig2.kind == "sinusoid" and sig2.frequency == 15.0
