"""Exception types shared across the package, how their messages print
counts, and the recursion-depth check the depth-first searches share."""

from __future__ import annotations

import sys

# frames of the recursion limit kept back from a search: the caller's stack
# under it (the CLI, a test runner, a pool worker) and the helpers each node calls
STACK_HEADROOM = 200


class SumfreeError(Exception):
    """Base class for all domain errors raised by this package."""


class ModulusMismatchError(SumfreeError):
    """Two sets from different cyclic groups were combined."""


class IntervalCoversGroupError(SumfreeError):
    """An interval of length >= n was requested; use the full-set constructor."""


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


class DepthLimitError(SumfreeError):
    """A depth-first search would recurse deeper than the interpreter allows."""

    def __init__(self, message: str, depth: int, limit: int):
        super().__init__(message)
        self.depth = depth
        self.limit = limit


def require_depth(depth: int, search: str) -> None:
    """Refuse, before it starts, a search that recurses depth levels deep
    when the interpreter's recursion limit, less STACK_HEADROOM, is lower."""
    limit = sys.getrecursionlimit() - STACK_HEADROOM
    if depth > limit:
        raise DepthLimitError(
            f"{search} recurses {depth} levels deep, the interpreter allows "
            f"{limit} (recursion limit {sys.getrecursionlimit()} less "
            f"{STACK_HEADROOM} for the frames below the search)",
            depth=depth,
            limit=limit,
        )


def count_text(count: int) -> str:
    """count in decimal, or as a power of two when Python refuses that many
    digits (4300 by default): budget refusals name counts of any size."""
    try:
        return str(count)
    except ValueError:
        exponent = count.bit_length() - 1
        if count == 1 << exponent:
            return f"2**{exponent}"
        return f"more than 2**{exponent}"
