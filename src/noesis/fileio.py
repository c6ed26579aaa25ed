"""Scenario, mind, and trace file formats.

Everything on disk is JSON; traces can additionally be exported as flat
CSV, one row per round.  Probabilities are serialized with 12 significant
digits, which round-trips well inside the audit tolerance, and writers
emit keys in a fixed order so identical inputs produce identical bytes.

The loaders test the entries of each list (rules, signals, strategy
rows) inline, by exact type, and format no message on the way, so a load
that succeeds costs little more than its JSON parse.  A list that fails
a test is read again through the general checks (``_need``,
``_need_strings`` and the per-entry readers), which raise the first
error, worded and ordered as they always were.

Traces go through :func:`dump_traces`, whose bytes are those of
:func:`dump_json` on :func:`trace_to_dict`'s dicts; it writes the fixed
trace layout straight from the episode.  Every other JSON output goes
through :func:`dump_json`, one writer that keeps its own stack of open
containers, so output has no depth limit.  Its bytes are those of
``json.dumps(value, indent=2)`` with each float first rounded to 12
significant digits.  A JSON trace's state is spelled round by round
from the last round's text (:class:`_StateText`), since an episode's
state grows by at most one label per round; the CSV export sorts and
joins each round's state afresh, and refuses a label holding ``|``, the
join's separator, as ``reach --format csv`` does.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import FormatError, NoesisError
from .mind import _STR_ONLY, ConceptSpace, ExpansionRule, Mind, _frozen
from .signals import SignalSystem
from .teaching import EpisodeTrace, Round, Scenario, StrategySpec

__all__ = [
    "LoadedScenario",
    "load_mind",
    "load_scenario",
    "load_scenario_bundle",
    "scenario_digest",
    "trace_to_dict",
    "trace_from_dict",
    "write_trace",
    "read_trace",
    "trace_to_csv",
    "dump_json",
    "dump_traces",
]


_escape = json.encoder.encode_basestring_ascii
_NULL_TOKEN = "_null_"  # stands in for the unparseable observation in traces, so no signal may use it
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    """A float at 12 significant digits, spelled as ``json`` spells floats."""
    text = repr(float(format(x, ".12g")))
    return _NONFINITE.get(text, text)


class _TextMemo(dict):
    """Each nonzero float's text, computed by ``text_of`` on first sight.

    Zeros are never stored: ``0.0`` and ``-0.0`` are one key but two texts.
    """

    def __init__(self, text_of: Callable[[float], str]) -> None:
        super().__init__()
        self.text_of = text_of

    def __missing__(self, x: float) -> str:
        text = self.text_of(x)
        if x:
            self[x] = text
        return text


# The text of each plain scalar type; lists of one such type are written in one join.
_SCALAR_TEXT = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _other_scalar_text(value: Any) -> Optional[str]:
    """The text of a str, int or float subclass as ``json`` writes it; None for anything else."""
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_head(key: Any) -> str:
    """A dict key and its colon as ``json`` writes them; a float key is not rounded."""
    if isinstance(key, str):
        return _escape(key) + ": "
    if isinstance(key, float):
        text = float.__repr__(key)
        text = _NONFINITE.get(text, text)
    elif key is True or key is False or key is None:
        text = _SCALAR_TEXT[type(key)](key)
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return '"' + text + '": '


class _KeyHeads(dict):
    """The head of each dict key, computed on first use; only plain ``str`` keys are stored.

    ``1``, ``1.0`` and ``True`` are one dict key but three texts, so they
    are spelled afresh each time; a ``str`` never equals any of them.
    """

    def __missing__(self, key: Any) -> str:
        head = _key_head(key)
        if type(key) is str:
            self[key] = head
        return head


def _heads(indent: str) -> Iterator[str]:
    """What precedes each entry of a container: ``indent``, then a comma and ``indent``."""
    return itertools.chain((indent,), itertools.repeat("," + indent))


def dump_json(value: Any) -> str:
    """Deterministic JSON text: fixed key order, rounded floats, trailing newline.

    The bytes are those of ``json.dumps(value, indent=2) + "\\n"`` with every
    float value (not key) first rounded to 12 significant digits, and the
    errors are ``json``'s: ``TypeError`` for a value or key it cannot write
    and ``ValueError`` for a container that holds itself.  Containers are
    opened and closed on an explicit stack, so nesting has no depth limit.

    A list whose items share one plain scalar type (exact ``str``, ``int``,
    ``float``, ``bool`` or None) is written in one join.  A list whose
    items are all exact ``list``s, or all exact ``tuple``s, whose elements
    share one such type is written with one join per row, an empty row as
    ``[]``: a reachable family's states and a chain's states are such
    lists.  Subclasses, and rows of both kinds or of mixed types, take the
    general path.

    Each distinct nonzero float's text is computed once per call and kept
    for the rest of it; zeros are always spelled afresh, since ``0.0`` and
    ``-0.0`` compare equal but print as ``0.0`` and ``-0.0``.  Each plain
    ``str`` key's head (its text, colon and space) is kept the same way;
    other keys are spelled afresh, since ``1``, ``1.0`` and ``True`` are
    one key but three texts.
    """
    scalar_text = {**_SCALAR_TEXT, float: _TextMemo(_float_text).__getitem__}
    key_head = _KeyHeads().__getitem__
    out: list[str] = []
    open_ids: set[int] = set()
    # One frame per open container: its (text before the entry, entry) pairs, closing text, id.
    stack: list[tuple[Iterator[tuple[str, Any]], str, int]] = [(iter((("", value),)), "\n", 0)]
    while stack:
        entries, closing, ident = stack[-1]
        for head, item in entries:
            text_of = scalar_text.get(type(item))
            if text_of is None:
                break
            out.append(head + text_of(item))
        else:
            stack.pop()
            open_ids.discard(ident)
            out.append(closing)
            continue
        out.append(head)
        text = _other_scalar_text(item)
        if text is not None:
            out.append(text)
            continue
        is_dict = isinstance(item, dict)
        if not is_dict and not isinstance(item, (list, tuple)):
            raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")
        if not item:
            out.append("{}" if is_dict else "[]")
            continue
        indent = "\n" + "  " * len(stack)
        closing = indent[:-2] + ("}" if is_dict else "]")
        if not is_dict:
            kinds = set(map(type, item))
            kind = kinds.pop() if len(kinds) == 1 else None
            text_of = scalar_text.get(kind)
            if text_of is not None:
                out.append("[" + indent + ("," + indent).join(map(text_of, item)) + closing)
                continue
            if kind is list or kind is tuple:
                # Rows that are all empty call no text function, so any one will do.
                cells = set(map(type, itertools.chain.from_iterable(item))) or {str}
                text_of = scalar_text.get(cells.pop()) if len(cells) == 1 else None
                if text_of is not None:
                    inner = indent + "  "
                    row_closing = indent + "]"
                    rows = ["[" + inner + ("," + inner).join(map(text_of, row)) + row_closing if row else "[]"
                            for row in item]
                    out.append("[" + indent + ("," + indent).join(rows) + closing)
                    continue
        if id(item) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(item))
        if is_dict:
            out.append("{")
            heads = map(str.__add__, _heads(indent), map(key_head, item))
            stack.append((zip(heads, item.values()), closing, id(item)))
        else:
            out.append("[")
            stack.append((zip(_heads(indent), item), closing, id(item)))
    return "".join(out)


def _read_json(path: str | Path) -> dict[str, Any]:
    """The JSON object a file holds; any other top level is a :class:`FormatError`."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be an object")
    return data


def _need(data: Mapping[str, Any], field: str, kind: type, where: str) -> Any:
    if field not in data:
        raise FormatError(f"{where}: missing field {field!r}")
    value = data[field]
    if not isinstance(value, kind):
        raise FormatError(f"{where}: field {field!r} must be {kind.__name__}")
    return value


def _need_strings(data: Mapping[str, Any], field: str, where: str) -> list[str]:
    values = _need(data, field, list, where)
    if not all(isinstance(v, str) for v in values):
        raise FormatError(f"{where}: field {field!r} must hold only strings")
    return values


def _rule_from_dict(entry: Any, i: int, where: str) -> ExpansionRule:
    """``rules[i]`` read through the general checks, which word its error."""
    if not isinstance(entry, dict):
        raise FormatError(f"{where}: rules[{i}] must be an object")
    prereqs = _need_strings(entry, "prereqs", f"{where}: rules[{i}]")
    target = _need(entry, "target", str, f"{where}: rules[{i}]")
    return ExpansionRule(frozenset(prereqs), target)


def _rules_from_list(raw_rules: list, where: str) -> list[ExpansionRule]:
    """The rules that ``raw_rules`` lists, each ``{"prereqs": [str, ...], "target": str}``.

    Each entry's shape is tested inline and every prerequisite's type in
    one pass at the end.  If any test fails, the whole list goes back
    through :func:`_rule_from_dict`, which raises the first error in list
    order.
    """
    prereqs, targets = [], []
    for entry in raw_rules:
        if type(entry) is not dict:
            break
        labels, target = entry.get("prereqs"), entry.get("target")
        if type(labels) is not list or type(target) is not str:
            break
        prereqs.append(labels)
        targets.append(target)
    else:
        if {*map(type, itertools.chain.from_iterable(prereqs))} <= _STR_ONLY:
            return [_frozen(ExpansionRule, prereqs=frozenset(p), target=t) for p, t in zip(prereqs, targets)]
    return [_rule_from_dict(entry, i, where) for i, entry in enumerate(raw_rules)]


def _mind_from_dict(data: Mapping[str, Any], where: str) -> Mind:
    concepts = _need_strings(data, "concepts", where)
    axioms = _need_strings(data, "axioms", where)
    rules = _rules_from_list(_need(data, "rules", list, where), where)
    try:
        space = ConceptSpace(tuple(concepts))
        mind = Mind(space=space, axioms=frozenset(axioms), rules=tuple(rules))
        mind._compiled  # force validation so errors surface at load time
    except NoesisError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return mind


def load_mind(path: str | Path) -> Mind:
    """Read and validate a mind file (concepts, axioms, rules)."""
    return _mind_from_dict(_read_json(path), str(path))


@dataclass(frozen=True)
class LoadedScenario:
    """A fully validated scenario plus its declared strategy and load notes."""

    scenario: Scenario
    strategy: StrategySpec
    notes: tuple[str, ...]

    @cached_property
    def digest(self) -> str:
        """:func:`scenario_digest` of the scenario and its strategy, computed on first read."""
        return scenario_digest(self.scenario, self.strategy)


def _token_row(row: Any, alphabet: Mapping[str, str], where: str) -> tuple[str, ...]:
    """A strategy row whose entries are all tokens of the alphabet."""
    if not isinstance(row, list):
        raise FormatError(f"{where} must be a token list")
    for j, tok in enumerate(row):
        if not isinstance(tok, str):
            raise FormatError(f"{where}[{j}] must be a token string, got {tok!r}")
        if tok not in alphabet:
            raise FormatError(f"{where}[{j}]: unknown signal token {tok!r}")
    return tuple(row)


def _plain_row(row: Any, alphabet: Mapping[str, str]) -> bool:
    """True iff ``row`` is a list of plain strings, each a token of the alphabet."""
    return type(row) is list and {*map(type, row)} <= _STR_ONLY and all(map(alphabet.__contains__, row))


def _strategy_from_dict(data: Any, where: str, alphabet: Mapping[str, str]) -> StrategySpec:
    if not isinstance(data, dict):
        raise FormatError(f"{where}: field 'strategy' must be an object")
    kind = _need(data, "kind", str, where)
    if kind == "direct":
        return StrategySpec(kind="direct")
    if kind == "scripted":
        rows = _need(data, "rows", dict, f"{where}: strategy")
        fixed = {
            target: tuple(row)
            if _plain_row(row, alphabet)
            else _token_row(row, alphabet, f"{where}: strategy.rows[{target!r}]")
            for target, row in rows.items()
        }
        return StrategySpec(kind="scripted", rows=fixed)
    if kind == "broadcast":
        row = data.get("row")
        if not _plain_row(row, alphabet):
            row = _token_row(_need(data, "row", list, f"{where}: strategy"), alphabet, f"{where}: strategy.row")
        return StrategySpec(kind="broadcast", row=tuple(row))
    raise FormatError(f"{where}: unknown strategy kind {kind!r}")


def _finite(value: Any, field: str, where: str) -> float:
    """A number read from ``field``: a finite JSON number (not a string, not a boolean)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise FormatError(f"{where}: field {field!r} needs finite numbers, got {value!r}")


def _signal_from_dict(entry: Any, i: int, index: Mapping[str, int], where: str) -> tuple[str, str]:
    """``signals[i]`` as its ``(token, concept)`` pair, read through the general checks, which word its error."""
    if not isinstance(entry, dict):
        raise FormatError(f"{where}: signals[{i}] must be an object")
    token = _need(entry, "token", str, f"{where}: signals[{i}]")
    if token == _NULL_TOKEN:
        raise FormatError(f"{where}: signals[{i}]: token {_NULL_TOKEN!r} is reserved for the null observation")
    target = _need(entry, "target", str, f"{where}: signals[{i}]")
    if target not in index:
        raise FormatError(f"{where}: signals[{i}]: unknown concept {target!r}")
    return token, target


def _signals_from_list(
    raw_signals: list, index: Mapping[str, int], where: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The tokens, and the concepts they teach, that ``raw_signals`` lists as ``{"token": str, "target": str}``.

    Each entry is tested inline.  If any test fails, the whole list goes
    back through :func:`_signal_from_dict`, which raises the first error
    in list order.
    """
    tokens, concepts = [], []
    for entry in raw_signals:
        if type(entry) is not dict:
            break
        token, target = entry.get("token"), entry.get("target")
        if type(token) is not str or type(target) is not str or token == _NULL_TOKEN or target not in index:
            break
        tokens.append(token)
        concepts.append(target)
    else:
        return tuple(tokens), tuple(concepts)
    pairs = [_signal_from_dict(entry, i, index, where) for i, entry in enumerate(raw_signals)]
    return tuple(token for token, _ in pairs), tuple(concept for _, concept in pairs)


def load_scenario_bundle(path: str | Path) -> LoadedScenario:
    """Read a scenario file: mind, signals, targets, prior, and strategy.

    The prior is normalized on load; a note records the rescaling.  Any
    invariant violation is reported with the offending field name.
    """
    where = str(path)
    data = _read_json(path)
    mind = _mind_from_dict(data, where)
    raw_signals = _need(data, "signals", list, where)
    tokens, concepts = _signals_from_list(raw_signals, mind.space.index, where)
    targets = _need_strings(data, "targets", where)
    raw_prior = _need(data, "prior", list, where)
    notes: list[str] = []
    weights = [_finite(w, "prior", where) for w in raw_prior]
    if any(w < 0 for w in weights):
        raise FormatError(f"{where}: field 'prior' has a negative weight")
    total = sum(weights)
    if not math.isfinite(total):
        raise FormatError(f"{where}: field 'prior' overflows when summed")
    if total <= 0:
        raise FormatError(f"{where}: field 'prior' must have positive total weight")
    if abs(total - 1.0) > 1e-12:
        notes.append(f"prior weights sum to {total:.12g}; normalized to 1")
    prior = tuple(w / total for w in weights)
    try:
        system = SignalSystem(tokens, concepts)
        scenario = Scenario(mind=mind, system=system, targets=tuple(targets), prior=prior)
    except NoesisError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    strategy = _strategy_from_dict(data.get("strategy", {"kind": "direct"}), where, system.target_of)
    return LoadedScenario(scenario=scenario, strategy=strategy, notes=tuple(notes))


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file and return just the validated scenario."""
    return load_scenario_bundle(path).scenario


def scenario_digest(scenario: Scenario, strategy: Optional[StrategySpec] = None) -> str:
    """Stable content hash of a scenario (and strategy declaration, if any)."""
    payload = {
        "concepts": list(scenario.mind.space.concepts),
        "axioms": sorted(scenario.mind.axioms),
        "rules": [
            {"prereqs": sorted(r.prereqs), "target": r.target}
            for r in scenario.mind.effective_rules
        ],
        "signals": [
            {"token": t, "target": c}
            for t, c in zip(scenario.system.tokens, scenario.system.targets)
        ],
        "targets": list(scenario.targets),
        "prior": [f"{p:.12g}" for p in scenario.prior],
    }
    if strategy is not None:
        payload["strategy"] = {
            "kind": strategy.kind,
            "rows": {t: list(r) for t, r in sorted(strategy.rows.items())} if strategy.rows else None,
            "row": list(strategy.row) if strategy.row else None,
        }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _parsed_to_json(parsed: Optional[str]) -> str:
    if parsed == _NULL_TOKEN:
        raise FormatError(f"parsed token {_NULL_TOKEN!r} would read back as the null observation")
    return _NULL_TOKEN if parsed is None else parsed


def _parsed_from_json(text: str) -> Optional[str]:
    return None if text == _NULL_TOKEN else text


class _StateText:
    """Each round's state as its sorted labels, each spelled by ``label_text``, joined by ``sep``.

    Called on one episode's states in round order.  A state that is the
    last state's set object reuses its text.  One that adds a single plain
    ``str`` label to it gets that label's text spliced in at the label's
    ``bisect`` position, at an offset summed from the text lengths kept;
    any other state is sorted afresh.  A state that is not a ``frozenset``
    of plain ``str`` labels gets None, and :func:`dump_traces` takes the
    general route.
    """

    def __init__(self, label_text: Callable[[str], str], sep: str) -> None:
        self.label_text = label_text
        self.sep = sep
        self.state: Optional[frozenset] = None
        self.text = ""
        self.labels: list[str] = []  # sorted
        self.lengths: list[int] = []  # of each label's text

    def __call__(self, state: Any) -> Optional[str]:
        if type(state) is not frozenset:
            return None
        last = self.state
        if state is last:
            return self.text
        if last is not None and len(state) == len(last) + 1:
            added = state - last  # one label exactly when ``last`` is a subset
            if len(added) == 1:
                (label,) = added
                if type(label) is str:
                    self._insert(label)
                    self.state = state
                    return self.text
        if not {*map(type, state)} <= _STR_ONLY:
            return None
        self.labels = sorted(state)
        texts = list(map(self.label_text, self.labels))
        self.lengths = list(map(len, texts))
        self.text = self.sep.join(texts)
        self.state = state
        return self.text

    def _insert(self, label: str) -> None:
        i = bisect.bisect(self.labels, label)
        piece = self.label_text(label)
        text, sep = self.text, self.sep
        if not self.labels:
            self.text = piece
        elif i == len(self.labels):
            self.text = "".join((text, sep, piece))
        else:
            at = sum(self.lengths[:i]) + i * len(sep)
            self.text = "".join((text[:at], piece, sep, text[at:]))
        self.labels.insert(i, label)
        self.lengths.insert(i, len(piece))


def trace_to_dict(trace: EpisodeTrace, digest: str = "") -> dict[str, Any]:
    return {
        "seed": trace.seed,
        "horizon": trace.horizon,
        "scenario_digest": digest,
        "theta": trace.theta,
        "tau": trace.tau,
        "tau_id": trace.tau_id,
        "rounds": [
            {
                "t": r.t,
                "z": r.emitted,
                "y": _parsed_to_json(r.parsed),
                "state": sorted(r.state),
                "belief": list(r.belief),
                "entropy_bits": r.entropy_bits,
                "capacity_bits": r.capacity_bits,
            }
            for r in trace.rounds
        ],
    }


_FLOAT_ONLY = {float}
_INT_OR_NONE = {int, type(None)}


def dump_traces(trace_or_traces: EpisodeTrace | Sequence[EpisodeTrace], digest: str = "") -> str:
    """One trace, or a sequence of them, as JSON text.

    The bytes and errors are those of ``dump_json(trace_to_dict(trace,
    digest))`` for one :class:`EpisodeTrace`, and of ``dump_json([...])``
    over the traces for a sequence.  When the digest and every field have
    the exact types :func:`run_episode` gives them, the fixed layout is
    written straight from the traces, its strings and floats spelled with
    ``dump_json``'s own pieces and its states by :class:`_StateText`.
    Otherwise, and on a parsed ``_null_``, the whole call goes through
    ``dump_json`` and ``trace_to_dict``, which raise what they raise.
    """
    single = isinstance(trace_or_traces, EpisodeTrace)
    traces = (trace_or_traces,) if single else trace_or_traces
    if type(digest) is str and type(traces) in (tuple, list):
        try:
            text = _traces_text(traces, digest, single)
        except ValueError:  # an int too long to spell; the general route raises in its own order
            text = None
        if text is not None:
            return text
    if single:
        return dump_json(trace_to_dict(trace_or_traces, digest))
    return dump_json([trace_to_dict(t, digest) for t in traces])


def _traces_text(traces: Sequence[EpisodeTrace], digest: str, single: bool) -> Optional[str]:
    """:func:`dump_traces`'s text for traces of exact types; None if any field's type differs."""
    i0 = "\n  " if single else "\n    "  # a trace's fields
    i1 = i0 + "  "  # its rounds
    i2 = i1 + "  "  # a round's fields
    i3 = i2 + "  "  # the entries of a round's state and belief
    float_text = _TextMemo(_float_text).__getitem__
    digest_text = _escape(digest)
    list_open, list_sep, list_close = "[" + i3, "," + i3, i2 + "]"
    first_head, next_head = i1 + "{" + i2 + '"t": ', "," + i1 + "{" + i2 + '"t": '
    z_head, y_head, state_head = "," + i2 + '"z": ', "," + i2 + '"y": ', "," + i2 + '"state": '
    belief_head, entropy_head = "," + i2 + '"belief": ', "," + i2 + '"entropy_bits": '
    capacity_head, round_close = "," + i2 + '"capacity_bits": ', i1 + "}"
    null_text = _escape(_NULL_TOKEN)
    out = [] if single else ["["]
    for n, trace in enumerate(traces):
        if type(trace) is not EpisodeTrace:
            return None
        tau, tau_id, rounds = trace.tau, trace.tau_id, trace.rounds
        if (
            type(trace.seed) is not int
            or type(trace.horizon) is not int
            or type(trace.theta) is not str
            or type(tau) not in _INT_OR_NONE
            or type(tau_id) not in _INT_OR_NONE
            or type(rounds) is not tuple
        ):
            return None
        if not single:
            out.append("\n  " if n == 0 else ",\n  ")
        out.append(
            "{" + i0 + '"seed": ' + int.__repr__(trace.seed)
            + "," + i0 + '"horizon": ' + int.__repr__(trace.horizon)
            + "," + i0 + '"scenario_digest": ' + digest_text
            + "," + i0 + '"theta": ' + _escape(trace.theta)
            + "," + i0 + '"tau": ' + ("null" if tau is None else int.__repr__(tau))
            + "," + i0 + '"tau_id": ' + ("null" if tau_id is None else int.__repr__(tau_id))
            + "," + i0 + '"rounds": ' + ("[" if rounds else "[]")
        )
        state_text = _StateText(_escape, list_sep)
        head = first_head
        for r in rounds:
            if type(r) is not Round:
                return None
            t, z, y, belief = r.t, r.emitted, r.parsed, r.belief
            entropy, capacity = r.entropy_bits, r.capacity_bits
            if (
                type(t) is not int
                or type(z) is not str
                or not (y is None or type(y) is str and y != _NULL_TOKEN)
                or type(belief) is not tuple
                or not {*map(type, belief)} <= _FLOAT_ONLY
                or type(entropy) is not float
                or type(capacity) is not float
            ):
                return None
            state = state_text(r.state)
            if state is None:
                return None
            out.append(
                head + int.__repr__(t) + z_head + _escape(z) + y_head + (null_text if y is None else _escape(y))
                + state_head + (list_open if state else "[]")
            )
            if state:
                out.append(state)
            out.append(
                (list_close if state else "") + belief_head
                + (list_open + list_sep.join(map(float_text, belief)) + list_close if belief else "[]")
                + entropy_head + float_text(entropy) + capacity_head + float_text(capacity) + round_close
            )
            head = next_head
        out.append((i1[:-2] + "]" if rounds else "") + i0[:-2] + "}")
    if not single:
        out.append("\n]" if traces else "]")
    out.append("\n")
    return "".join(out)


def _need_int(
    data: Mapping[str, Any], field: str, where: str, *, or_null: bool = False
) -> Optional[int]:
    value = _need(data, field, object, where)
    if value is None and or_null:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        kind = "an integer or null" if or_null else "an integer"
        raise FormatError(f"{where}: field {field!r} must be {kind}, got {value!r}")
    return value


def _round_from_dict(data: Any, where: str) -> Round:
    if not isinstance(data, dict):
        raise FormatError(f"{where} must be an object")
    return Round(
        t=_need_int(data, "t", where),
        emitted=_need(data, "z", str, where),
        parsed=_parsed_from_json(_need(data, "y", str, where)),
        state=frozenset(_need_strings(data, "state", where)),
        belief=tuple(_finite(p, "belief", where) for p in _need(data, "belief", list, where)),
        entropy_bits=_finite(_need(data, "entropy_bits", object, where), "entropy_bits", where),
        capacity_bits=_finite(_need(data, "capacity_bits", object, where), "capacity_bits", where),
    )


def trace_from_dict(data: Any, where: str = "trace") -> tuple[EpisodeTrace, str]:
    """An episode trace and its scenario digest; any malformed field is a :class:`FormatError`."""
    if not isinstance(data, dict):
        raise FormatError(f"{where}: top level must be an object")
    rounds = _need(data, "rounds", list, where)
    trace = EpisodeTrace(
        theta=_need(data, "theta", str, where),
        seed=_need_int(data, "seed", where),
        horizon=_need_int(data, "horizon", where),
        rounds=tuple(_round_from_dict(r, f"{where}: rounds[{i}]") for i, r in enumerate(rounds)),
        tau=_need_int(data, "tau", where, or_null=True),
        tau_id=_need_int(data, "tau_id", where, or_null=True),
    )
    digest = data.get("scenario_digest", "")
    if not isinstance(digest, str):
        raise FormatError(f"{where}: field 'scenario_digest' must be str")
    return trace, digest


def _refuse_bar_label(labels: Iterable[str]) -> None:
    """Raise :class:`FormatError` naming the first of ``labels`` that holds ``|``, if any.

    ``|`` joins a state's labels in a CSV cell, so with such a label two
    states could be written as the same cell.
    """
    label = next((label for label in labels if "|" in label), None)
    if label is not None:
        raise FormatError(f"label {label!r} holds '|', which joins a state's labels in CSV; use --format json")


def trace_to_csv(traces: Sequence[EpisodeTrace]) -> str:
    """Flat per-round export; one row per round, episodes tagged by seed.

    A state's labels are sorted and joined by ``|``; a row whose cell
    holds more bars than joins is refused after it is written, naming the
    least label of that state holding ``|``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "theta", "t", "z", "y", "state", "belief", "entropy_bits", "capacity_bits"])
    cell_text = _TextMemo(lambda p: f"{p:.12g}").__getitem__
    for trace in traces:
        for r in trace.rounds:
            writer.writerow(
                [
                    trace.seed,
                    trace.theta,
                    r.t,
                    r.emitted,
                    _parsed_to_json(r.parsed),
                    (cell := "|".join(sorted(r.state))),
                    "|".join(map(cell_text, r.belief)),
                    cell_text(r.entropy_bits),
                    cell_text(r.capacity_bits),
                ]
            )
            if cell.count("|") != len(r.state) - 1:
                _refuse_bar_label(sorted(r.state))
    return buf.getvalue()


def write_trace(trace: EpisodeTrace, path: str | Path, digest: str = "") -> None:
    Path(path).write_text(dump_traces(trace, digest))


def read_trace(path: str | Path) -> tuple[EpisodeTrace, str]:
    return trace_from_dict(_read_json(path), str(path))
