"""Run configuration shared by the CLI and the randomized checks."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .errors import InvalidParameter

DEFAULT_SEED = 20260814
DEFAULT_TRIALS = 200
DEFAULT_BUDGET = 10_000_000
DEFAULT_OUTPUT = "text"
SEED_ENV_VAR = "TRIADEFORM_SEED"


@dataclass
class Config:
    rng_seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    quantifier_budget: int = DEFAULT_BUDGET
    output: str = DEFAULT_OUTPUT

    def __post_init__(self):
        if self.output not in ("text", "json"):
            raise InvalidParameter(f"output must be 'text' or 'json', got {self.output!r}")
        if self.trials < 0 or self.quantifier_budget <= 0:
            raise InvalidParameter("trials must be >= 0 and quantifier_budget positive")

    def rng(self) -> random.Random:
        return random.Random(self.rng_seed)


def resolve_seed(flag_value: int | None, environ=None) -> int:
    """Seed precedence: TRIADEFORM_SEED env var, then flag, then default."""
    env = os.environ if environ is None else environ
    raw = env.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise InvalidParameter(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if flag_value is not None:
        return flag_value
    return DEFAULT_SEED
