"""Exact entropy and mutual information over small discrete tables, in bits."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["entropy_bits", "mutual_information_bits", "mutual_information_cells"]


def entropy_bits(probs: Iterable[float]) -> float:
    """Shannon entropy of a probability vector, with 0 log 0 = 0."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def mutual_information_bits(joint: Sequence[Sequence[float]]) -> float:
    """Mutual information of a joint table, rows and columns as the two variables.

    The table must hold nonnegative entries summing to one; zero cells
    contribute nothing.
    """
    return mutual_information_cells(
        [[(j, p) for j, p in enumerate(row) if p != 0.0] for row in joint]
    )


def mutual_information_cells(table: Sequence[Sequence[tuple[int, float]]]) -> float:
    """:func:`mutual_information_bits` of a table given by its nonzero cells.

    ``table[i]`` lists row ``i``'s nonzero entries as ``(column, p)`` in
    column order.  Each marginal sums the same entries in the same order
    as the dense table, less its zeros, which add nothing exactly, so the
    result is the dense one bit for bit, except where the product of two
    marginals underflows to 0.0: there the logarithm is taken term by term.
    """
    by_column: dict[int, list[float]] = {}
    for row in table:
        for j, p in row:
            by_column.setdefault(j, []).append(p)
    col_marg = {j: sum(ps) for j, ps in by_column.items()}
    total = 0.0
    for row in table:
        row_marg = sum([p for _, p in row])
        for j, p in row:
            if p > 0.0:
                try:
                    total += p * math.log2(p / (row_marg * col_marg[j]))
                except ZeroDivisionError:
                    if not (row_marg > 0.0 and col_marg[j] > 0.0):
                        raise  # a marginal is zero: a negative cell cancelled the rest
                    # the product of subnormal marginals underflowed
                    total += p * (math.log2(p) - math.log2(row_marg) - math.log2(col_marg[j]))
    return total
