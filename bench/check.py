"""The correctness gate: reference outputs and independent invariants.

An output is reduced to a skeleton (its text with every number taken
out) and the list of numbers.  The skeleton must match the reference
exactly; integers must be equal and any other number must lie within
``TOL`` of the reference.  On top of that, each op family has invariants
that hold whatever the reference says.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from pathlib import Path

TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_FIELD = re.compile(r"[^,|\n]+")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _strip(value, numbers: list):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        numbers.append(value)
        return "#"
    if isinstance(value, dict):
        return {k: _strip(v, numbers) for k, v in value.items()}
    return [_strip(v, numbers) for v in value]


def canonical(text: str, fmt: str) -> dict:
    """``{"sha": skeleton digest, "num": numbers}`` of a JSON or delimited-text output."""
    numbers: list = []
    if fmt == "json":
        skeleton = json.dumps(_strip(json.loads(text), numbers))
    else:
        def take(match):
            if _is_number(match.group()):
                numbers.append(_number(match.group()))
                return "#"
            return match.group()
        skeleton = _FIELD.sub(take, text)
    return {"sha": hashlib.sha256(skeleton.encode()).hexdigest(), "num": numbers}


def matches(got: dict, want: dict) -> bool:
    if got["sha"] != want["sha"] or len(got["num"]) != len(want["num"]):
        return False
    for a, b in zip(got["num"], want["num"]):
        if isinstance(a, int) and isinstance(b, int):
            if a != b:
                return False
        elif not abs(a - b) <= TOL:
            return False
    return True


def load_reference(workload: str, keys: set) -> dict:
    """The reference entries for ``keys``; the file holds one ``key<TAB>json`` line per op."""
    entries = {}
    with gzip.open(REFERENCE_DIR / f"{workload}.txt.gz", "rt") as fh:
        for line in fh:
            key, _, entry = line.partition("\t")
            if key in keys:
                entries[key] = json.loads(entry)
    return entries


def save_reference(workload: str, entries: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    lines = "".join(f"{key}\t{json.dumps(entries[key], separators=(',', ':'))}\n" for key in sorted(entries))
    # mtime=0 keeps the file byte-identical when the outputs are.
    (REFERENCE_DIR / f"{workload}.txt.gz").write_bytes(gzip.compress(lines.encode(), 9, mtime=0))


def invariant_errors(op, text: str) -> list[str]:
    """Independent checks of one op's output; empty when all hold."""
    errors = []
    expect = op.expect
    if "antichain" in expect:
        n = expect["antichain"]
        if op.fmt == "text":
            if len(text.splitlines()) != 2 ** n + 1:
                errors.append(f"antichain-{n} csv does not list 2^{n} states")
        else:
            out = json.loads(text)
            if out["count"] != 2 ** n or len(out["states"]) != 2 ** n:
                errors.append(f"antichain-{n} family size is {out['count']}, not 2^{n}")
            if not all(out["learning_space"].values()):
                errors.append(f"antichain-{n} learning-space flags {out['learning_space']}")
    if expect.get("passed") and json.loads(text)["passed"] is not True:
        errors.append("audit did not pass")
    if "broadcast" in expect:
        k, depth = expect["broadcast"]
        if text.strip() != str(k * (depth - 1) + 1):
            errors.append(f"broadcast-min {text.strip()} != k(L-1)+1 = {k * (depth - 1) + 1}")
    if expect.get("exact_in_bounds"):
        out = json.loads(text)
        if not out["lower"] - TOL <= out["exact"] <= out["upper"] + TOL:
            errors.append(f"exact {out['exact']} outside [{out['lower']}, {out['upper']}]")
    if "chain_tau" in expect:
        # Direct teaching on a chain names the target one round after
        # reaching it, unless it is the deepest target: nothing is left
        # to tell it from by then.
        targets = expect["chain_tau"]
        deepest = targets[-1]
        out = json.loads(text)
        for trace in out if isinstance(out, list) else [out]:
            distance = int(trace["theta"][1:])
            want = distance if trace["theta"] == deepest else distance + 1
            if trace["tau"] != want:
                errors.append(f"tau {trace['tau']} for {trace['theta']}, expected {want}")
    return errors


def corrupt(text: str) -> str:
    """A wrong output for the gate's self-test: one number off by 1e-6, or one extra field."""
    match = re.search(r"(?<![\d.])\d+\.\d+(?![\d.eE])", text)
    if match:
        bumped = repr(float(match.group()) + 1e-6)
        return text[: match.start()] + bumped + text[match.end():]
    return text + "x\n"
