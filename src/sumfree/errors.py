"""Exception types shared across the package, and the one budget gate
every projected-count refusal goes through."""

from __future__ import annotations

from typing import Optional


class SumfreeError(Exception):
    """Base class for all domain errors raised by this package."""


class ModulusMismatchError(SumfreeError):
    """Two sets from different cyclic groups were combined."""


class IntervalCoversGroupError(SumfreeError):
    """An interval of length >= n was requested; it would cover all of Z_n."""


class NotAUnitError(SumfreeError):
    """A dilation factor shares a common divisor with the modulus."""


class ParameterError(SumfreeError):
    """Construction parameters are malformed or outside their domain."""


class DomainError(SumfreeError):
    """An argument violates an operation's precondition."""


class ConstructionError(SumfreeError):
    """A construction or search broke an invariant it relies on, or failed
    its own verification."""


class BudgetExceededError(SumfreeError):
    """An enumeration would exceed the configured search budget."""

    def __init__(self, message: str, required: int, limit: int):
        super().__init__(message)
        self.required = required
        self.limit = limit


def _count_text(count: int) -> str:
    """count in decimal, or as a power of two when Python refuses that many
    digits (4300 by default): budget refusals name counts of any size."""
    try:
        return str(count)
    except ValueError:
        exponent = count.bit_length() - 1
        if count == 1 << exponent:
            return f"2**{exponent}"
        return f"more than 2**{exponent}"


def require_budget(
    work: str, unit: str, cost: int, budget: Optional[int], default: int
) -> None:
    """Refuse cost projected units of work past budget, default when None,
    with the message "{work} {cost} {unit}, budget is {limit}"."""
    limit = default if budget is None else budget
    if cost > limit:
        raise BudgetExceededError(
            f"{work} {_count_text(cost)} {unit}, budget is {_count_text(limit)}",
            required=cost,
            limit=limit,
        )
