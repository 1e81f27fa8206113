"""Experiment configuration: a small sectioned key-value format.

Files consist of ``[section]`` headers and ``key = value`` lines; ``#``
starts a comment.  Values can be

* numbers (scientific notation accepted),
* booleans (``true/false/on/off/yes/no``),
* comma-separated lists: ``-0.9, 0, 0.9``,
* matrices: ``diag(1000, 1000)`` or row lists ``[[1, 2], [3, 4]]``,
* input specs: ``zero``, ``step(amplitude, joint, start)``,
  ``sinusoid(amplitude, frequency, joint)`` (1-based integer joint index).

Sections: ``plant`` (required), ``controller`` (exactly one of the gain
pair ``K_F``/``K_G`` or the shaped pair ``J_e``/``K_e``), ``outer_loop``,
``target``, ``nonlinear_target``, ``environment``, ``sweep`` (lists of
``K_F``, ``K_G``, or ``J_e`` values), ``sim`` (``dt``, ``T``, ``input``),
``output`` (``dir``, used when ``--out`` is not given).  ``serialize_config``
emits a canonical form whose re-parse compares equal to the original.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .control import OuterLoop
from .errors import ConfigurationError
from .linalg import as_matrix, as_vector
from .lti import EnvironmentImpedance, TargetImpedance
from .model import LinearRobotParams, two_link_arm
from .sim import InputSignal

_CALL_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)\((.*)\)$")


@dataclass
class ExperimentConfig:
    """Parsed configuration; section contents are normalized plain values."""

    plant: dict = field(default_factory=dict)
    controller: dict | None = None
    outer_loop: dict | None = None
    target: dict | None = None
    nonlinear_target: dict | None = None
    environment: dict | None = None
    sweep: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


_KNOWN_SECTIONS = tuple(f.name for f in fields(ExperimentConfig))


@dataclass(frozen=True)
class GainPair:
    """Controller given as the gain pair; K_H follows from the plant."""

    K_F: object
    K_G: object


@dataclass(frozen=True)
class ShapedPair:
    """Controller given as the shaped pair; D_e follows from the plant."""

    J_e: object
    K_e: object


def _parse_value(text: str, where: str):
    text = text.strip()
    if text == "":
        raise ConfigurationError(f"{where}: empty value")
    low = text.lower()
    if low in ("true", "on", "yes"):
        return True
    if low in ("false", "off", "no"):
        return False
    if low == "zero":
        return ("zero",)
    call = _CALL_RE.match(text)
    if call:
        name = call.group(1).lower()
        raw_args = call.group(2).strip()
        args = [a.strip() for a in raw_args.split(",")] if raw_args else []
        try:
            vals = [float(a) for a in args]
        except ValueError:
            raise ConfigurationError(f"{where}: non-numeric argument in {text!r}") from None
        if name == "diag":
            if not vals:
                raise ConfigurationError(f"{where}: diag() needs at least one entry")
            return [[vals[i] if i == j else 0.0 for j in range(len(vals))]
                    for i in range(len(vals))]
        if name in ("step", "sinusoid"):
            return (name, *vals)
        raise ConfigurationError(f"{where}: unknown function {name!r}")
    if text.startswith("["):
        try:
            parsed = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            raise ConfigurationError(f"{where}: malformed bracket expression {text!r}") from None
        if isinstance(parsed, (list, tuple)) and parsed and isinstance(parsed[0], (list, tuple)):
            return [[float(v) for v in row] for row in parsed]
        return [float(v) for v in parsed]
    if "," in text:
        try:
            return [float(v) for v in text.split(",")]
        except ValueError:
            raise ConfigurationError(f"{where}: malformed list {text!r}") from None
    try:
        return float(text)
    except ValueError:
        return text


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; unknown sections or malformed values raise."""
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigurationError(f"line {lineno}: malformed section header {raw!r}")
            name = line[1:-1].strip().lower()
            if name not in _KNOWN_SECTIONS:
                raise ConfigurationError(f"line {lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigurationError(f"line {lineno}: key outside of any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        current[key] = _parse_value(value, f"line {lineno}")

    if "plant" not in sections:
        raise ConfigurationError("missing required [plant] section")
    cfg = ExperimentConfig(**sections)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.controller is not None:
        has_gains = "K_F" in cfg.controller and "K_G" in cfg.controller
        has_shaped = "J_e" in cfg.controller and "K_e" in cfg.controller
        if has_gains == has_shaped:
            raise ConfigurationError(
                "[controller] must supply exactly one parametrization: "
                "either K_F and K_G, or J_e and K_e")
    for key, values in list(cfg.sweep.items()):
        if key not in ("K_F", "K_G", "J_e"):
            raise ConfigurationError(f"[sweep] supports K_F, K_G, J_e; got {key!r}")
        if isinstance(values, float):
            values = [values]
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"[sweep] {key} must be a non-empty list of numbers")
        cfg.sweep[key] = [read_number(v, f"[sweep] {key}") for v in values]
    for key in ("T", "dt"):
        if key in cfg.sim:
            cfg.sim[key] = read_number(cfg.sim[key], f"[sim] {key}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        if value[0] == "zero":
            return "zero"
        return f"{value[0]}({', '.join(format(v, '.17g') for v in value[1:])})"
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            rows = ", ".join("[" + ", ".join(format(v, ".17g") for v in row) + "]"
                             for row in value)
            return f"[{rows}]"
        return ", ".join(format(v, ".17g") for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; ``parse_config(serialize_config(cfg)) == cfg``."""
    lines = []
    for name in _KNOWN_SECTIONS:
        section = getattr(cfg, name)
        if section is None or (section == {} and name != "plant"):
            continue
        lines.append(f"[{name}]")
        for key in sorted(section):
            lines.append(f"{key} = {_format_value(section[key])}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def read_number(value, key: str, integer: bool = False):
    """``value`` as a finite float, or an int when ``integer``; anything else
    raises a ConfigurationError that names ``key``."""
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and np.isfinite(value)):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    if integer and value != int(value):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value) if integer else float(value)


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"[{where}] is missing {key!r}")
    return section[key]


def build_plant(cfg: ExperimentConfig):
    """Instantiate the plant described by [plant]."""
    sec = cfg.plant
    kind = sec.get("type", "linear")
    if kind == "two_link_arm":
        return two_link_arm(
            link_lengths=_require(sec, "link_lengths", "plant"),
            link_masses=_require(sec, "link_masses", "plant"),
            motor_inertias=_require(sec, "motor_inertias", "plant"),
            joint_stiffness=np.array(_require(sec, "K", "plant")),
            joint_damping=np.array(sec.get("D", 0.0)),
            gravity=bool(sec.get("gravity", False)),
        )
    if kind != "linear":
        raise ConfigurationError(f"[plant] unknown type {kind!r}")
    n = read_number(_require(sec, "n", "plant"), "[plant] n", integer=True)
    return LinearRobotParams(
        n=n,
        M=np.array(_require(sec, "M", "plant")),
        J=np.array(_require(sec, "J", "plant")),
        K=np.array(_require(sec, "K", "plant")),
        D=np.array(sec.get("D", 0.0)),
    )


def build_controller_spec(cfg: ExperimentConfig):
    """Controller parametrization from [controller], if present."""
    if cfg.controller is None:
        return None
    sec = cfg.controller
    if "K_F" in sec:
        return GainPair(sec["K_F"], sec["K_G"])
    return ShapedPair(sec["J_e"], sec["K_e"])


def build_outer_loop(cfg: ExperimentConfig, n: int) -> OuterLoop | None:
    if cfg.outer_loop is None:
        return None
    sec = cfg.outer_loop
    return OuterLoop(
        K_phi=as_matrix(np.array(_require(sec, "K_phi", "outer_loop")), n, "K_phi"),
        D_phi=as_matrix(np.array(_require(sec, "D_phi", "outer_loop")), n, "D_phi"),
        phi_d=as_vector(np.array(sec.get("phi_d", 0.0)), n, "phi_d"),
        gravity_comp=bool(sec.get("gravity_comp", False)),
    )


def build_target(cfg: ExperimentConfig) -> TargetImpedance | None:
    if cfg.target is None:
        return None
    sec = cfg.target
    return TargetImpedance(
        n=1,
        M_d=_require(sec, "M_d", "target"),
        K_d=_require(sec, "K_d", "target"),
        D_d=_require(sec, "D_d", "target"),
    )


def build_environment(cfg: ExperimentConfig, n: int) -> EnvironmentImpedance | None:
    if cfg.environment is None:
        return None
    sec = cfg.environment
    return EnvironmentImpedance(
        n=n,
        M_h=np.array(sec.get("M_h", 0.0)),
        D_h=np.array(sec.get("D_h", 0.0)),
        K_h=np.array(sec.get("K_h", 0.0)),
    )


def build_input(cfg: ExperimentConfig) -> InputSignal:
    """Input signal from [sim] input=...; joint indices are 1-based here."""
    spec = cfg.sim.get("input", ("zero",))
    if not isinstance(spec, tuple):
        spec = (spec,)
    kind, args = spec[0], spec[1:]
    if kind == "zero":
        return InputSignal.zero()
    # step(amplitude, joint, start) and sinusoid(amplitude, frequency, joint)
    defaults = {"step": (0.0, 1.0, 0.0), "sinusoid": (0.0, 1.0, 1.0)}.get(kind)
    if defaults is None:
        raise ConfigurationError(f"[sim] unknown input kind {kind!r}")
    if len(args) > len(defaults):
        raise ConfigurationError(f"[sim] input {kind}() takes at most {len(defaults)} "
                                 f"arguments, got {len(args)}")
    a, b, c = args + defaults[len(args):]
    if kind == "step":
        return InputSignal.step(a, read_number(b, "[sim] input joint", integer=True) - 1, c)
    return InputSignal.sinusoid(a, b, read_number(c, "[sim] input joint", integer=True) - 1)


def build_nonlinear_target(cfg: ExperimentConfig, n: int):
    """(K_theta, D_theta, q_d) triple from [nonlinear_target], if present."""
    if cfg.nonlinear_target is None:
        return None
    sec = cfg.nonlinear_target
    K_theta = as_matrix(np.array(_require(sec, "K_theta", "nonlinear_target")), n, "K_theta")
    D_theta = as_matrix(np.array(_require(sec, "D_theta", "nonlinear_target")), n, "D_theta")
    q_d = as_vector(np.array(sec.get("q_d", 0.0)), n, "q_d")
    return K_theta, D_theta, q_d
