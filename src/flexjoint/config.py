"""Experiment configuration: a small sectioned key-value format.

Files consist of ``[section]`` headers and ``key = value`` lines; ``#``
starts a comment.  ``_SCHEMA`` names every section and key with the kind of
its value, and ``parse_config`` reads each value by that kind: a finite
number (scientific notation accepted), a count (an integer >= 1), a vector
(a number or a list ``-0.9, 0, 0.9`` or ``[-0.9, 0, 0.9]``), a matrix (a
vector, ``diag(1000, 1000)`` or rows ``[[1, 2], [3, 4]]``), a non-empty
number list, a boolean (``true/false/on/off/yes/no``), an input spec
(``zero``, ``step(amplitude, joint, start)`` or ``sinusoid(amplitude,
frequency, joint)`` with a 1-based joint; omitted trailing arguments
default to ``0, 1, 0`` and ``0, 1, 1``) or a name (the text as written).
An unknown section or key, or a value not of its key's kind, raises a
``ConfigurationError`` naming ``[section] key``, whatever the command.  The
builders check shapes against the joint count.  ``serialize_config`` emits
a canonical form whose re-parse compares equal to the original.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, field

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


# Value kinds: each parser raises ValueError, TypeError, LookupError or
# SyntaxError on text that is not of its kind.

def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _count(text: str) -> int:
    value = _number(text)
    if value < 1 or value != int(value):
        raise ValueError(text)
    return int(value)


def _array(text: str, ndim: int, ndmin: int = 0):
    """A float (0-D), list (1-D) or list of rows (2-D) of finite numbers, of
    ``ndmin`` to ``ndim`` dimensions."""
    call = _CALL_RE.match(text)
    if call and call.group(1).lower() == "diag":
        d = [_number(v) for v in call.group(2).split(",")]
        value = [[v if i == j else 0.0 for j in range(len(d))] for i, v in enumerate(d)]
    elif text.startswith("["):
        value = ast.literal_eval(text)
    else:
        value = [_number(v) for v in text.split(",")] if "," in text else _number(text)
    arr = np.array(value, dtype=float, ndmin=ndmin)
    if arr.ndim > ndim or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(text)
    return arr.tolist()


_BOOLEANS = {"true": True, "on": True, "yes": True, "false": False, "off": False, "no": False}

# argument kinds and defaults of each input spec
_INPUTS = {"zero": (), "step": ((_number, 0.0), (_count, 1), (_number, 0.0)),
           "sinusoid": ((_number, 0.0), (_number, 1.0), (_count, 1))}


def _input(text: str) -> tuple:
    call = _CALL_RE.match(text)
    name, raw = (call.group(1).lower(), call.group(2)) if call else (text.lower(), "")
    kinds = _INPUTS[name]
    args = raw.split(",") if raw.strip() else []
    if len(args) > len(kinds):
        raise ValueError(text)
    return (name, *(parse(a) for (parse, _), a in zip(kinds, args)),
            *(default for _, default in kinds[len(args):]))


_NUMBER = ("a finite number", _number)
_COUNT = ("an integer >= 1", _count)
_VECTOR = ("a finite number or list of them", lambda text: _array(text, 1))
_MATRIX = ("a finite number, list or matrix", lambda text: _array(text, 2))
_NUMBERS = ("a non-empty list of finite numbers", lambda text: _array(text, 1, 1))
_BOOLEAN = ("true or false", lambda text: _BOOLEANS[text.lower()])
_INPUT = ("zero, step(amplitude, joint, start) or sinusoid(amplitude, frequency, joint) "
          "with a finite amplitude and an integer joint >= 1", _input)
_NAME = ("a name", str)

# section -> key -> (kind description, parser); the only place a key's kind is named
_SCHEMA = {
    "plant": {"type": _NAME, "n": _COUNT, "M": _MATRIX, "J": _MATRIX, "K": _MATRIX,
              "D": _MATRIX, "link_lengths": _VECTOR, "link_masses": _VECTOR,
              "motor_inertias": _MATRIX, "gravity": _BOOLEAN},
    "controller": dict.fromkeys(("K_F", "K_G", "J_e", "K_e"), _MATRIX),
    "outer_loop": {"K_phi": _MATRIX, "D_phi": _MATRIX, "phi_d": _VECTOR,
                   "gravity_comp": _BOOLEAN},
    "target": dict.fromkeys(("M_d", "K_d", "D_d"), _MATRIX),
    "nonlinear_target": {"K_theta": _MATRIX, "D_theta": _MATRIX, "q_d": _VECTOR},
    "environment": dict.fromkeys(("M_h", "D_h", "K_h"), _MATRIX),
    "sweep": dict.fromkeys(("K_F", "K_G", "J_e"), _NUMBERS),
    "sim": {"dt": _NUMBER, "T": _NUMBER, "input": _INPUT},
    "output": {"dir": _NAME},
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; an unknown section or key or a value not of
    its key's kind raises ConfigurationError."""
    sections: dict[str, dict] = {}
    name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigurationError(f"line {lineno}: malformed section header {raw!r}")
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ConfigurationError(f"line {lineno}: unknown section [{name}]")
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if name is None:
            raise ConfigurationError(f"line {lineno}: key outside of any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[name]:
            raise ConfigurationError(f"[{name}] {key} is not a known key (line {lineno})")
        if not value:
            raise ConfigurationError(f"[{name}] {key} has no value (line {lineno})")
        what, parse = _SCHEMA[name][key]
        try:
            sections[name][key] = parse(value)
        except (LookupError, SyntaxError, TypeError, ValueError):
            raise ConfigurationError(
                f"[{name}] {key} must be {what}, got {value!r} (line {lineno})") from None

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


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format(value, ".17g")
    if isinstance(value, list):
        return "[" + ", ".join(map(_format_value, value)) + "]"
    if isinstance(value, tuple):
        return value[0] + "(" + ", ".join(map(_format_value, value[1:])) + ")"
    return value


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; ``parse_config(serialize_config(cfg)) == cfg``."""
    lines = []
    for name in _SCHEMA:
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

def _get(cfg: ExperimentConfig, where: str, key: str, n: int | None = None,
         coerce=as_matrix, default=None):
    """``[where] key``, or ``default`` when given; with ``n``, coerced to
    ``n`` joints by ``coerce`` under the name ``[where] key``."""
    value = getattr(cfg, where).get(key, default)
    if value is None:
        raise ConfigurationError(f"[{where}] is missing {key!r}")
    return value if n is None else coerce(value, n, f"[{where}] {key}")


def build_plant(cfg: ExperimentConfig):
    """Instantiate the plant described by [plant]."""
    kind = cfg.plant.get("type", "linear")
    if kind == "two_link_arm":
        return two_link_arm(
            link_lengths=_get(cfg, "plant", "link_lengths", 2, as_vector),
            link_masses=_get(cfg, "plant", "link_masses", 2, as_vector),
            motor_inertias=_get(cfg, "plant", "motor_inertias", 2),
            joint_stiffness=_get(cfg, "plant", "K", 2),
            joint_damping=_get(cfg, "plant", "D", 2, default=0.0),
            gravity=cfg.plant.get("gravity", False),
        )
    if kind != "linear":
        raise ConfigurationError(f"[plant] type must be linear or two_link_arm, got {kind!r}")
    n = _get(cfg, "plant", "n")
    return LinearRobotParams(
        n=n,
        M=_get(cfg, "plant", "M", n),
        J=_get(cfg, "plant", "J", n),
        K=_get(cfg, "plant", "K", n),
        D=_get(cfg, "plant", "D", n, default=0.0),
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
    return OuterLoop(
        K_phi=_get(cfg, "outer_loop", "K_phi", n),
        D_phi=_get(cfg, "outer_loop", "D_phi", n),
        phi_d=_get(cfg, "outer_loop", "phi_d", n, as_vector, 0.0),
        gravity_comp=cfg.outer_loop.get("gravity_comp", False),
    )


def build_target(cfg: ExperimentConfig) -> TargetImpedance | None:
    if cfg.target is None:
        return None
    return TargetImpedance(
        n=1,
        M_d=_get(cfg, "target", "M_d", 1),
        K_d=_get(cfg, "target", "K_d", 1),
        D_d=_get(cfg, "target", "D_d", 1),
    )


def build_environment(cfg: ExperimentConfig, n: int) -> EnvironmentImpedance | None:
    if cfg.environment is None:
        return None
    return EnvironmentImpedance(
        n=n,
        M_h=_get(cfg, "environment", "M_h", n, default=0.0),
        D_h=_get(cfg, "environment", "D_h", n, default=0.0),
        K_h=_get(cfg, "environment", "K_h", n, default=0.0),
    )


def build_input(cfg: ExperimentConfig) -> InputSignal:
    """Input signal from [sim] input=...; joint indices are 1-based here."""
    kind, *args = cfg.sim.get("input", ("zero",))
    if kind == "step":
        amplitude, joint, start = args
        return InputSignal.step(amplitude, joint - 1, start)
    if kind == "sinusoid":
        amplitude, frequency, joint = args
        return InputSignal.sinusoid(amplitude, frequency, joint - 1)
    return InputSignal.zero()


def build_nonlinear_target(cfg: ExperimentConfig, n: int):
    """(K_theta, D_theta, q_d) triple from [nonlinear_target], if present."""
    if cfg.nonlinear_target is None:
        return None
    return (_get(cfg, "nonlinear_target", "K_theta", n),
            _get(cfg, "nonlinear_target", "D_theta", n),
            _get(cfg, "nonlinear_target", "q_d", n, as_vector, 0.0))
