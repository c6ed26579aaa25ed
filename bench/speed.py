"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the same Python code runs up to
a third faster or slower for tens of seconds at a time, which swamps
the differences a benchmark is meant to show.  Every timing is therefore
scaled by ``SPEED_REF_S / c``, where ``c`` is the time of a fixed
calibration unit measured just before and just after the timed code.
The unit does the kind of interpreter work the package does (bit-mask
rule scans, frozenset construction, dict and set lookups), so it speeds
up and slows down with it.  ``SPEED_REF_S`` is a nominal unit time: on
the 2-core Intel Xeon the workloads were sized on (Python 3.11.7) the
unit took 0.75-1.15 ms, so scaled figures read as seconds on that
machine at a middling speed.
"""

from __future__ import annotations

from time import perf_counter

SPEED_REF_S = 1.0e-3
CALIBRATE_EVERY_S = 0.2

_RULES = [((1 << (i % 17)) | (1 << ((i * 7) % 23)), 1 << (i % 29)) for i in range(48)]
_LABELS = [f"c{i}" for i in range(32)]
_INDEX = {label: i for i, label in enumerate(_LABELS)}


def _unit() -> int:
    seen = set()
    for state in range(0, 1 << 16, 613):
        out = state
        for prereqs, bit in _RULES:
            if prereqs & ~state == 0:
                out |= bit
        labels = frozenset(_LABELS[i] for i in range(min(32, state.bit_length())) if state >> i & 1)
        mask = 0
        for label in labels:
            mask |= 1 << _INDEX[label]
        seen.add((labels, mask, out))
    return len(seen)


def calibrate() -> float:
    """Seconds the unit takes now: the best of three runs."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _unit()
        best = min(best, perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Scale for a timing bracketed by calibrations ``before`` and ``after``."""
    return 2 * SPEED_REF_S / (before + after)


def run_calibrated(items, run_one) -> list[float]:
    """Call ``run_one`` on each item, calibrating every ``CALIBRATE_EVERY_S``.

    Returns one scale factor per item, from the calibrations on either
    side of it.
    """
    cal = [calibrate()]
    last = perf_counter()
    before = []
    for item in items:
        if perf_counter() - last >= CALIBRATE_EVERY_S:
            cal.append(calibrate())
            last = perf_counter()
        before.append(len(cal) - 1)
        run_one(item)
    cal.append(calibrate())
    return [factor(cal[k], cal[k + 1]) for k in before]
