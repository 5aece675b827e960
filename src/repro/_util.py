"""Small internal utilities shared across the library."""

from __future__ import annotations

import math
import sys


def ensure_recursion_limit(minimum: int) -> None:
    """Raise the interpreter recursion limit to at least ``minimum``.

    The branch-and-bound solvers recurse once per decision, so their depth
    is bounded by the number of vertices; Python's default limit of 1000 is
    too small for graphs with a few thousand vertices.  Raising the limit
    is global to the interpreter but never lowers it.
    """
    if sys.getrecursionlimit() < minimum:
        sys.setrecursionlimit(minimum)


def recursion_headroom_for(num_vertices: int) -> int:
    """Recursion limit needed for a solver run on ``num_vertices`` vertices."""
    return 4 * num_vertices + 1000


def is_finite_number(value: float) -> bool:
    """``False`` for NaN, an infinity, an int too large for a float or a non-number."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False
