"""Flat typed run-configuration files.

Format: `[section]` headers, `key = value` lines, `#` comments, blank lines.
The schema is read from the dataclasses, in field order:
- [run] holds RunConfig's own fields; keys `agent` and `env` set
  `agent_kind` and `env_kind`, and fields without a default are required;
- [agent] holds AgentConfig's fields;
- [fema] holds `enabled` (RunConfig.fema_enabled), then FemaConfig's fields.
Unknown sections or keys are rejected with the file name, line number, and
field spelled out. Values are typed by each field's annotation; booleans are
`true`/`false`, the seed list is comma-separated, and `none` marks an unset
optional field.

Environment variables named FEMA_<SECTION>__<KEY> (upper case) override file
values at parse time, e.g. FEMA_RUN__TOTAL_STEPS=5000.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, field, fields

from ..agents import AGENTS, AgentConfig
from ..envs import REGISTRY
from ..errors import ConfigError
from ..memory import FemaConfig

ENV_PREFIX = "FEMA_"
# Field annotation -> value kind, where the two differ.
_KINDS = {"tuple": "int_list", "float | None": "opt_float"}
# RunConfig field -> [run] key, where the two differ.
_RUN_KEYS = {"agent_kind": "agent", "env_kind": "env"}
# RunConfig fields kept outside [run]: [fema] `enabled` and the two sections.
_NOT_RUN = ("agent", "fema_enabled", "fema")


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
        if self.agent_kind not in AGENTS:
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


def _kind(f) -> str:
    return _KINDS.get(f.type, f.type)


def _run_fields() -> dict:
    """[run] key -> RunConfig field, in declaration order."""
    return {_RUN_KEYS.get(f.name, f.name): f
            for f in fields(RunConfig) if f.name not in _NOT_RUN}


def _schemas() -> dict:
    return {
        "run": {key: _kind(f) for key, f in _run_fields().items()},
        "agent": {f.name: _kind(f) for f in fields(AgentConfig)},
        "fema": {"enabled": "bool", **{f.name: _kind(f) for f in fields(FemaConfig)}},
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


def parse_text(text: str, source: str = "<config>",
               environ: dict | None = None) -> RunConfig:
    """Parse config text, then apply FEMA_* overrides from `environ`."""
    schemas = _schemas()
    values = _parse_lines(text, source, schemas)
    if environ:
        apply_env_overrides(values, environ, schemas)
    return _build(values, source)


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
    run_fields = _run_fields()
    for key, f in run_fields.items():
        if f.default is MISSING and ("run", key) not in values:
            raise ConfigError(f"{source}: missing required field 'run.{key}'")
    kw = {"run": {}, "agent": {}, "fema": {}}
    for (section, key), value in values.items():
        kw[section][key] = value
    run = {run_fields[key].name: value for key, value in kw["run"].items()}
    if "enabled" in kw["fema"]:
        run["fema_enabled"] = kw["fema"].pop("enabled")
    rc = RunConfig(**run, agent=AgentConfig(**kw["agent"]),
                   fema=FemaConfig(**kw["fema"]))
    return rc.validate()


def render_config(rc: RunConfig, comments: tuple = ()) -> str:
    """Canonical text for a RunConfig; parse_text(render_config(rc)) == rc."""
    values = {
        "run": {key: getattr(rc, f.name) for key, f in _run_fields().items()},
        "agent": vars(rc.agent),
        "fema": {"enabled": rc.fema_enabled, **vars(rc.fema)},
    }
    lines = [f"# {c}" for c in comments]
    for section, kinds in _schemas().items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_render_scalar(kind, values[section][key])}"
                  for key, kind in kinds.items()]
        lines.append("")
    return "\n".join(lines)


def parse_config(path, environ: dict | None = None) -> RunConfig:
    """Parse a config file, then apply FEMA_* environment overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_text(text, str(path), environ)
