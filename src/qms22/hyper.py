"""Training hyperparameters, kept apart from the numerical code so that
the command line can read its defaults without importing numpy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

__all__ = ["HyperParams"]


@dataclass(frozen=True)
class HyperParams:
    """Training hyperparameters.

    Defaults are the benchmark settings QMS22 was tuned with: seven member
    functions with ten rows each, clip threshold 0.5, sixty sweeps, unit
    steps for matrix entries, 255-unit steps for offsets, and offsets
    started at (25500, 0, ..., 0). They assume features normalized to a
    max-abs of roughly 255. m, q, iterations and seed must be integers
    and the other fields finite; a bad value raises ValueError naming
    its field.

    Attributes:
        m: number of member functions (classes), >= 2.
        q: rows per member matrix, >= 1.
        alpha: ratio clip threshold in [0, 1).
        iterations: number of full coordinate sweeps, >= 0.
        step_a: perturbation distance for entries of each A, > 0.
        step_b: perturbation distance for entries of each b, > 0.
        b_init: initial value of the first entry of each b.
        denom_guard: small positive value added to every ratio denominator.
        seed: RNG seed for the parts shuffle in the detector pipeline,
            >= 0; training itself draws no random numbers.
    """

    m: int = 7
    q: int = 10
    alpha: float = 0.5
    iterations: int = 60
    step_a: float = 1.0
    step_b: float = 255.0
    b_init: float = 25500.0
    denom_guard: float = 1e-12
    seed: int = 42

    def __post_init__(self):
        for name in ("m", "q", "iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha", "step_a", "step_b", "b_init", "denom_guard"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        for name in ("step_a", "step_b", "denom_guard"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.seed < 0:   # numpy's default_rng takes no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
