"""Uniform result record for numeric verification checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonfiniteResult


@dataclass(frozen=True)
class CheckReport:
    name: str
    deviation: float
    tol: float
    passed: bool
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # numpy scalars must not leak into JSON reports
        object.__setattr__(self, "deviation", float(self.deviation))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(
            self,
            "params",
            {k: v.item() if hasattr(v, "item") else v
             for k, v in self.params.items()},
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "deviation": self.deviation,
            "tol": self.tol,
            "passed": self.passed,
            "params": self.params,
        }


def verdict(name: str, deviation: float, bound: float, params: dict,
            floor: bool = False) -> CheckReport:
    """The one pass rule of every check: a report passes when deviation <=
    bound, or, for an expected failure (floor), when deviation > bound, and
    is then marked "expected": "failure".  A NaN deviation fails both."""
    if floor:
        return CheckReport(name, deviation, bound, deviation > bound,
                           {**params, "expected": "failure"})
    return CheckReport(name, deviation, bound, deviation <= bound, params)


def relative_deviation(lhs: complex, rhs: complex, scale: float = 0.0) -> float:
    """|lhs - rhs| over the largest available magnitude; NonfiniteResult
    where a value it compares, or their difference, is beyond a float."""
    try:
        dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), scale, 1e-300)
    except OverflowError:  # the magnitude of a complex value
        dev = math.inf
    if not math.isfinite(dev):
        raise NonfiniteResult(f"the deviation of {lhs!r} from {rhs!r} does not fit in a float")
    return dev


def _relative(lhs, rhs, scale):
    """relative_deviation on columns: the same value on finite inputs."""
    denom = np.maximum(np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), scale), 1e-300)
    return np.abs(lhs - rhs) / denom
