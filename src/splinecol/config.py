"""Experiment configuration: validation, JSON files, CLI merging."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from ._validation import whole_counts, whole_number
from .collocation import SCHEME_KINDS
from .errors import ConfigError
from .estimator import METHODS
from .problems import EXAMPLES

EXAMPLE_IDS = tuple(EXAMPLES)


def _counts(value, name):
    return None if value is None else whole_counts(value, name, 2, ConfigError)


def read_config_file(path) -> dict:
    """The JSON object in ``path``, not yet validated as a configuration."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    return data


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run (or sweep) of the collocation pipeline.

    ``igac`` forces the collocation counts to equal the control counts;
    ``igal_variable`` derives them as n + 2 per direction; ``igal_fixed``
    uses explicit counts (``m``, or ``m_seq`` for sweeps over a fixed n).
    """

    example: str = "I"
    method: str = "igac"
    scheme: str = "greville"
    n: tuple | None = None
    m: tuple | None = None
    n_seq: tuple = ()
    m_seq: tuple = ()
    quad_order: int | None = None
    boundary_weight: object = "auto"
    output: str | None = None

    def __post_init__(self):
        if self.example not in EXAMPLE_IDS:
            raise ConfigError(
                f"unknown example {self.example!r}; choose from {EXAMPLE_IDS}"
            )
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.scheme not in SCHEME_KINDS:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; choose from {SCHEME_KINDS}"
            )
        object.__setattr__(self, "n", _counts(self.n, "n"))
        object.__setattr__(self, "m", _counts(self.m, "m"))
        object.__setattr__(
            self, "n_seq", tuple(_counts(v, "n_seq entry") for v in self.n_seq)
        )
        object.__setattr__(
            self, "m_seq", tuple(_counts(v, "m_seq entry") for v in self.m_seq)
        )
        if self.quad_order is not None:
            quad_order = whole_number(self.quad_order, "quad_order", 1, ConfigError)
            object.__setattr__(self, "quad_order", quad_order)
        if self.boundary_weight != "auto":
            try:
                object.__setattr__(self, "boundary_weight", float(self.boundary_weight))
            except (TypeError, ValueError):
                raise ConfigError(
                    "boundary_weight must be a number or 'auto'"
                ) from None
        if self.method == "igac" and (self.m_seq or self.m not in (None, self.n)):
            raise ConfigError("igac collocates at exactly n points; omit m")
        if self.method == "igal_variable" and (self.m is not None or self.m_seq):
            raise ConfigError("igal_variable derives m = n + 2; omit m")
        if self.method == "igal_fixed" and self.m is None and not self.m_seq:
            raise ConfigError("igal_fixed needs m (or m_seq for sweeps)")
        if self.m_seq and self.n is None:
            raise ConfigError("an m sweep needs a fixed n")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["n"] = list(self.n) if self.n else None
        out["m"] = list(self.m) if self.m else None
        out["n_seq"] = [list(v) for v in self.n_seq]
        out["m_seq"] = [list(v) for v in self.m_seq]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**data)
