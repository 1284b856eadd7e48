"""Run options: their allowed values, their defaults and their one check.

`RunConfig` holds every option of `adaptls run`, and `knee-curve` reads it too;
`RunConfig.validate` checks each field's type and range, and `read_config`
reads a ``--config`` file.  The ranges come from the methods: Kneedle needs
a sensitivity >= 0, and MCL an inflation > 1 and an expansion power >= 2.
The stages take the RunConfig itself and read their options off it; a
field's default is its only default, and `validate` its only range check.
The module imports only the standard library, so checking a config loads no
numpy.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .corpus import read_json
from .errors import NotFound

DATE_METHODS = ("datewise", "adprm-d")
EVENT_METHODS = ("clust", "adprm-e")
METHODS = DATE_METHODS + EVENT_METHODS
BASELINE_METHODS = ("datewise", "clust")  # fixed-constraint baselines
ADAPTIVE_METHODS = ("adprm-d", "adprm-e")  # the methods with a knee
CONSTRAINTS = ("base", "adaptive")
K_POLICIES = ("expert", "one")
SUMMARIZERS = ("rank", "opt")

DEFAULT_LAMBDA = 1.0  # `train --lambda`; every run option's default is a RunConfig field

# name -> (rule as stated in the error, test on a finite number)
_NUMBER_RULES = {
    "alpha": (">= 0", lambda x: x >= 0),
    "sensitivity": (">= 0", lambda x: x >= 0),
    "graph_threshold": ("in [0, 1]", lambda x: 0 <= x <= 1),
    "mcl_inflation": ("> 1", lambda x: x > 1),
    "mcl_eps": ("> 0", lambda x: x > 0),
    "mcl_prune": ("in [0, 1)", lambda x: 0 <= x < 1),
    "lambda": (">= 0", lambda x: x >= 0),
}
# name -> least allowed value
_INTEGER_RULES = {"mcl_expansion": 2, "mcl_max_iter": 1, "c_max": 1, "jobs": 1}


def is_finite_number(value) -> bool:
    """A JSON number that is finite as a float; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def check_number(name: str, value) -> None:
    """Raise ValueError unless `value` is a finite number within `name`'s range."""
    rule, ok = _NUMBER_RULES[name]
    if not (is_finite_number(value) and ok(value)):
        raise ValueError(f"{name} must be a finite number {rule}, got {value!r}")


def _check_integer(name: str, value) -> None:
    least = _INTEGER_RULES[name]
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_choice(name: str, value, allowed) -> None:
    if not (isinstance(value, str) and value in allowed):
        raise ValueError(f"unknown {name} {value!r}; expected one of {', '.join(allowed)}")


class RunConfig(NamedTuple):
    """Every run option; set fields with `_replace`, dump them with `_asdict`."""

    dataset_dir: str = ""
    output_dir: str = ""
    method: str = "adprm-d"
    constraint: str = "adaptive"
    k_policy: str = "one"
    summarizer: str | None = None  # None = method default
    regressors_dir: str | None = None
    alpha: float = 0.01
    sensitivity: float = 1.0
    c_max: int | None = None  # None = every scored item
    graph_threshold: float = 0.1
    mcl_expansion: int = 2
    mcl_inflation: float = 2.0
    mcl_max_iter: int = 100
    mcl_eps: float = 1e-6
    mcl_prune: float = 1e-5
    use_query_filter: bool = False
    jobs: int = 1

    def validate(self) -> None:
        """Raise ValueError naming the first field of the wrong type or range."""
        for name in ("dataset_dir", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not (self.regressors_dir is None or isinstance(self.regressors_dir, str)):
            raise ValueError(f"regressors_dir must be a string, got {self.regressors_dir!r}")
        _check_choice("method", self.method, METHODS)
        _check_choice("constraint", self.constraint, CONSTRAINTS)
        _check_choice("k_policy", self.k_policy, K_POLICIES)
        if self.summarizer is not None:
            _check_choice("summarizer", self.summarizer, SUMMARIZERS)
        if self.method in BASELINE_METHODS and self.constraint != "base":
            raise ValueError(
                f"{self.method} is a fixed-constraint baseline; use constraint=base"
            )
        for name in _NUMBER_RULES:
            if name != "lambda":  # a train option
                check_number(name, getattr(self, name))
        for name in _INTEGER_RULES:
            if not (name == "c_max" and self.c_max is None):
                _check_integer(name, getattr(self, name))
        if not isinstance(self.use_query_filter, bool):
            raise ValueError(f"use_query_filter must be true or false, got {self.use_query_filter!r}")

    def effective_summarizer(self) -> str:
        if self.summarizer is not None:
            return self.summarizer
        return "opt" if self.method in BASELINE_METHODS else "rank"


FIELD_NAMES = RunConfig._fields


def read_config(path) -> RunConfig:
    """The RunConfig a JSON config file sets; fields it omits keep their defaults.

    A missing file raises NotFound; a file `corpus.read_json` refuses raises
    ParseError; a key that is no field raises ValueError.  The values are
    checked by `validate`, not here.
    """
    path = Path(path)
    if not path.is_file():
        raise NotFound(f"config file not found: {path}")
    obj = read_json(path)
    for key in obj:
        if key not in FIELD_NAMES:
            raise ValueError(f"unknown config key {key!r}")
    return RunConfig(**obj)
