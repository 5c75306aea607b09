"""Two-parameter logistic item response function and its derivatives."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# Slopes below this magnitude make the difficulty b = -tau/a meaningless.
A_MIN = 1e-6


class ModelKind(enum.Enum):
    """Model family: the 1PL fixes every discrimination at one."""

    ONE_PL = "1pl"
    TWO_PL = "2pl"


@dataclass(frozen=True)
class ItemParams:
    """Discrimination a and difficulty b of one item.

    The threshold parametrization tau = -a*b is exposed as a property so
    the two forms can never drift apart.
    """

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"item parameters must be finite, got a={self.a}, b={self.b}")
        if self.a == 0.0:
            raise ValueError("discrimination must be nonzero")

    @property
    def tau(self) -> float:
        return -self.a * self.b


def irf(p: ItemParams, theta: float) -> float:
    """P(correct | theta) = exp(a(theta-b)) / (1 + exp(a(theta-b))).

    Evaluated on the overflow-safe branch for either sign of the exponent.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    z = p.a * (theta - p.b)
    if z <= 0.0:
        ez = math.exp(z)
        return ez / (1.0 + ez)
    return 1.0 / (1.0 + math.exp(-z))


def irf_grad(p: ItemParams, theta: float) -> tuple[float, float]:
    """Partial derivatives (dP/da, dP/db) of the response probability.

    dP/da = (theta - b) * P * (1 - P)
    dP/db = -a * P * (1 - P)
    """
    prob = irf(p, theta)
    pq = prob * (1.0 - prob)
    return (theta - p.b) * pq, -p.a * pq
