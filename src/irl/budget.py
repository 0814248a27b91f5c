"""Candidate-count budget shared by the exhaustive enumerators."""

import os

from irl.errors import FormatError, PreconditionError

DEFAULT_BUDGET = 1_000_000
ENV_VAR = "IRL_BUDGET"


def candidate_budget() -> int:
    """Budget from the IRL_BUDGET environment variable, or the default."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise FormatError(f"{ENV_VAR} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise FormatError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def budget_limit(budget) -> int:
    """``budget``, an integer >= 0, or the candidate budget when it is None."""
    if budget is None:
        return candidate_budget()
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
        raise PreconditionError(f"budget must be an integer >= 0, got {budget!r}")
    return budget
