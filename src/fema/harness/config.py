"""Flat typed run-configuration files.

Format: `[section]` headers, `key = value` lines, `#` comments, blank lines.
Three sections: [run] (what to train, where, for how long), [agent]
(learner settings), [fema] (failure-memory settings plus its on/off switch).
Unknown sections or keys are rejected with the file name, line number, and
field spelled out. Values are typed per field; booleans are `true`/`false`,
the seed list is comma-separated, and `none` marks an unset optional field.

Environment variables named FEMA_<SECTION>__<KEY> (upper case) override file
values at parse time, e.g. FEMA_RUN__TOTAL_STEPS=5000.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

from ..agents.common import AgentConfig
from ..envs import REGISTRY
from ..errors import ConfigError
from ..memory import FemaConfig

ENV_PREFIX = "FEMA_"
AGENT_KINDS = ("sac", "ppo")

# [run] keys handled outside the two dataclasses. algo and fema_on are
# deliberately absent from the [agent] schema: the run section owns them.
_RUN_FIELDS = {
    "agent": "str",
    "env": "str",
    "seeds": "int_list",
    "total_steps": "int",
    "out_dir": "str",
    "loss_log_every": "int",
    "eval_every": "int",
    "eval_episodes": "int",
    "threshold_return": "opt_float",
    "sweep_axis": "str",
    "sweep_value": "str",
}
_RUN_REQUIRED = ("agent", "env", "seeds", "total_steps", "out_dir")
_AGENT_SKIP = ("algo", "fema_on")


class SchemaWarning(UserWarning):
    """Config is valid but a field is inert in this combination."""


@dataclass
class RunConfig:
    agent_kind: str
    env_kind: str
    seeds: tuple
    total_steps: int
    out_dir: str
    loss_log_every: int = 1000
    eval_every: int = 0
    eval_episodes: int = 0
    threshold_return: float | None = None
    sweep_axis: str = "none"
    sweep_value: str = "none"
    agent: AgentConfig = field(default_factory=AgentConfig)
    fema_enabled: bool = False
    fema: FemaConfig = field(default_factory=FemaConfig)

    def validate(self) -> "RunConfig":
        if self.agent_kind not in AGENT_KINDS:
            raise ConfigError(f"unknown agent kind {self.agent_kind!r}")
        if self.env_kind not in REGISTRY:
            raise ConfigError(f"unknown env kind {self.env_kind!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if self.loss_log_every < 1:
            raise ConfigError("loss_log_every must be >= 1")
        if self.eval_every < 0 or self.eval_episodes < 0:
            raise ConfigError("eval_every and eval_episodes must be >= 0")
        if self.eval_every > 0 and self.eval_episodes == 0:
            raise ConfigError("eval_every > 0 needs eval_episodes >= 1")
        if self.threshold_return is not None and not math.isfinite(self.threshold_return):
            raise ConfigError(f"threshold_return must be finite or none, "
                              f"got {self.threshold_return}")
        self.agent.validate()
        self.fema.validate()
        if not self.fema_enabled and self.fema.n_candidates != 1:
            warnings.warn(
                "fema.n_candidates is unused while the failure memory is off",
                SchemaWarning, stacklevel=2,
            )
        return self


def _dataclass_kinds(cls, skip=()) -> dict:
    probe = cls()
    out = {}
    for f in fields(cls):
        if f.name in skip:
            continue
        default = getattr(probe, f.name)
        if isinstance(default, bool):
            out[f.name] = "bool"
        elif isinstance(default, int):
            out[f.name] = "int"
        elif isinstance(default, float):
            out[f.name] = "float"
        else:
            out[f.name] = "str"
    return out


def _schemas() -> dict:
    return {
        "run": dict(_RUN_FIELDS),
        "agent": _dataclass_kinds(AgentConfig, skip=_AGENT_SKIP),
        "fema": {"enabled": "bool", **_dataclass_kinds(FemaConfig)},
    }


def _parse_scalar(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "bool":
            if raw in ("true", "false"):
                return raw == "true"
            raise ValueError("expected true or false")
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "opt_float":
            return None if raw == "none" else float(raw)
        if kind == "int_list":
            if not raw:
                raise ValueError("expected at least one integer")
            return tuple(int(tok.strip()) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad {kind} value {raw!r} ({exc})")
    raise ConfigError(f"{where}: unhandled field kind {kind!r}")


def _render_scalar(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "int_list":
        return ", ".join(str(v) for v in value)
    if kind == "opt_float":
        return "none" if value is None else repr(float(value))
    if kind == "float":
        return repr(float(value))
    return str(value)


def _parse_lines(text: str, source: str, schemas: dict) -> dict:
    """Collect (section, key) -> typed value with line-level diagnostics.

    Duplicate keys within a section are rejected so silent overrides cannot
    hide in long files.
    """
    values = {}
    section = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in schemas:
                raise ConfigError(f"{source}:{line_no}: unknown section "
                                  f"[{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', "
                              f"got {stripped!r}")
        if section is None:
            raise ConfigError(f"{source}:{line_no}: key outside any [section]")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in schemas[section]:
            raise ConfigError(f"{source}:{line_no}: unknown field "
                              f"'{section}.{key}'")
        if (section, key) in values:
            raise ConfigError(f"{source}:{line_no}: duplicate field "
                              f"'{section}.{key}'")
        where = f"{source}:{line_no}: field '{section}.{key}'"
        values[(section, key)] = _parse_scalar(schemas[section][key], raw, where)
    return values


def parse_text(text: str, source: str = "<config>") -> RunConfig:
    schemas = _schemas()
    return _build(_parse_lines(text, source, schemas), source)


def apply_env_overrides(values: dict, environ: dict, schemas: dict) -> None:
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX) or "__" not in name:
            continue
        section, _, key = name[len(ENV_PREFIX):].partition("__")
        section, key = section.lower(), key.lower()
        if section not in schemas or key not in schemas[section]:
            raise ConfigError(f"env:{name}: no config field "
                              f"'{section}.{key}' to override")
        where = f"env:{name}: field '{section}.{key}'"
        values[(section, key)] = _parse_scalar(schemas[section][key],
                                               environ[name], where)


def _build(values: dict, source: str) -> RunConfig:
    for key in _RUN_REQUIRED:
        if ("run", key) not in values:
            raise ConfigError(f"{source}: missing required field 'run.{key}'")
    run = {k: v for (sec, k), v in values.items() if sec == "run"}
    agent_kw = {k: v for (sec, k), v in values.items() if sec == "agent"}
    fema_kw = {k: v for (sec, k), v in values.items() if sec == "fema"}
    fema_enabled = fema_kw.pop("enabled", False)

    agent_kw["algo"] = run["agent"]
    agent_kw["fema_on"] = fema_enabled
    rc = RunConfig(
        agent_kind=run["agent"],
        env_kind=run["env"],
        seeds=run["seeds"],
        total_steps=run["total_steps"],
        out_dir=run["out_dir"],
        loss_log_every=run.get("loss_log_every", 1000),
        eval_every=run.get("eval_every", 0),
        eval_episodes=run.get("eval_episodes", 0),
        threshold_return=run.get("threshold_return"),
        sweep_axis=run.get("sweep_axis", "none"),
        sweep_value=run.get("sweep_value", "none"),
        agent=AgentConfig(**agent_kw),
        fema_enabled=fema_enabled,
        fema=FemaConfig(**fema_kw),
    )
    return rc.validate()


def render_config(rc: RunConfig, comments: tuple = ()) -> str:
    """Canonical text for a RunConfig; parse_text(render_config(rc)) == rc."""
    schemas = _schemas()
    lines = [f"# {c}" for c in comments]
    lines.append("[run]")
    run_values = {
        "agent": rc.agent_kind, "env": rc.env_kind, "seeds": rc.seeds,
        "total_steps": rc.total_steps, "out_dir": rc.out_dir,
        "loss_log_every": rc.loss_log_every, "eval_every": rc.eval_every,
        "eval_episodes": rc.eval_episodes,
        "threshold_return": rc.threshold_return,
        "sweep_axis": rc.sweep_axis, "sweep_value": rc.sweep_value,
    }
    for key, kind in _RUN_FIELDS.items():
        lines.append(f"{key} = {_render_scalar(kind, run_values[key])}")
    lines.append("")
    lines.append("[agent]")
    for key, kind in schemas["agent"].items():
        lines.append(f"{key} = {_render_scalar(kind, getattr(rc.agent, key))}")
    lines.append("")
    lines.append("[fema]")
    lines.append(f"enabled = {_render_scalar('bool', rc.fema_enabled)}")
    for key, kind in _dataclass_kinds(FemaConfig).items():
        lines.append(f"{key} = {_render_scalar(kind, getattr(rc.fema, key))}")
    lines.append("")
    return "\n".join(lines)


def parse_config(path, environ: dict | None = None) -> RunConfig:
    """Parse a config file, then apply FEMA_* environment overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    schemas = _schemas()
    values = _parse_lines(text, str(path), schemas)
    if environ:
        apply_env_overrides(values, environ, schemas)
    return _build(values, str(path))
