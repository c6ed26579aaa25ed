"""Record the reference outputs and the workload record from the current program.

    python3 bench/record.py reference     # bench/reference/<workload>.txt.gz
    python3 bench/record.py describe      # bench/record.json

``reference`` runs every op of every variant through the CLI, checks
the invariants of ``check.py``, and stores each output's skeleton digest
and numbers.  Record only at a commit whose outputs are trusted: the
benchmark counts any later difference as a failed op.

``describe`` measures the seed-0 inputs of each workload and the share of
each layer in a traced pass, for later changes to cite.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from collections import Counter

import check
import gen
import run
import workloads

RECORD = run.BENCH / "record.json"

KNOWN_GAPS = [
    "expand_mask and parse calls per op: only tracing inside the package can count them",
    "BFS visits in shortest_chain/structural_distance/direct_strategy: only in-program tracing can count them",
    "search ops of exact_value_tiny and broadcast_min_length: only in-program tracing can count them",
    "spans time public calls from outside, so time inside a call (e.g. the global bound inside "
    "audit_all) is not split further",
]


def record_reference(workload: str) -> int:
    bench = run.Bench(workload, 0)
    instances = list(workloads.all_instances(workload))
    workdir = run.WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    run.write_inputs(instances, workdir)
    entries, bad = {}, 0
    try:
        for inst in instances:
            for op in inst.ops:
                code, text, _ = bench.run(op)
                problems = [f"exit code {code}"] if code != 0 else check.invariant_errors(op, text)
                if problems:
                    bad += 1
                    print(f"{op.key}: {'; '.join(problems)}", file=sys.stderr)
                    continue
                entries[op.key] = check.canonical(text, op.fmt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check.save_reference(workload, entries)
    print(f"{workload}: {len(entries)} reference outputs, {bad} rejected")
    return bad


def _spread(values) -> dict:
    values = sorted(values)
    return {"min": values[0], "median": statistics.median(values), "max": values[-1]}


def _family_layer_share(spans_path) -> dict:
    """Per op family: its time in the last traced pass and each layer's share of it."""
    spans = json.loads(spans_path.read_text())["spans"]
    family_ms, layer_ms = Counter(), Counter()
    for span in spans:
        if span["parent"] is None:
            family_ms[span["name"][3:]] += span["self_ms"]
    for span in spans:
        if span["parent"] is not None:
            family = spans[span["parent"]]["name"][3:]
            family_ms[family] += span["self_ms"]
            layer_ms[family, span["name"]] += span["self_ms"]
    out = {}
    for family, total in family_ms.most_common():
        shares = {
            layer: round(ms / total, 4)
            for (fam, layer), ms in layer_ms.most_common()
            if fam == family and ms / total >= 0.01
        }
        out[family] = {"ms": round(total, 1), "layer_share": shares}
    return out


def describe(workload: str, why: str, seconds: float) -> dict:
    instances, ops = workloads.choose(workload, 0)
    groups: dict = {}
    for inst in instances:
        group = inst.name.rstrip("0123456789_x")
        doc = inst.files.get("mind") or inst.files.get("scenario")
        g = groups.setdefault(group, {"instances": 0, "concepts": [], "family_size": [], "horizon": []})
        g["instances"] += 1
        if doc:
            g["concepts"].append(len(doc["concepts"]))
            g["family_size"].append(gen.family_size(doc, 1 << 20))
        g["horizon"] += [op.params["horizon"] for op in inst.ops if "horizon" in op.params]
    properties = {
        "ops_per_pass": len(ops),
        "op_families": dict(sorted(Counter(op.family for op in ops).items())),
        "input_files": sum(len(inst.files) for inst in instances),
        "distinct_minds_per_op": round(sum(bool(inst.files) for inst in instances) / len(ops), 3),
        "instance_groups": {
            name: {"instances": g["instances"], **{k: _spread(v) for k, v in g.items() if k != "instances" and v}}
            for name, g in groups.items()
        },
    }
    bench = run.Bench(workload, 0)
    spans_path = run.OUT / f"spans-{workload}-record.json"
    metrics = run.per_layer(bench, seconds, spans_path)
    shutil.rmtree(run.WORK, ignore_errors=True)
    pass_ms = sum(metrics[f"{name}.ms"] for name in bench.layers.LAYERS) / metrics["trace.coverage"]
    properties["tree_nodes_per_depth"] = {
        k: v for k, v in metrics.items() if k.startswith("audit.tree_nodes.") and v
    }
    properties["reachable_states_per_pass"] = metrics["reachability.states"]
    properties["teaching_rounds_per_pass"] = metrics["teaching.rounds"]
    shares = {
        name: round(metrics[f"{name}.ms"] / pass_ms, 4)
        for name in bench.layers.LAYERS
        if metrics[f"{name}.ms"] / pass_ms >= 0.0005
    }
    shares["outside layer spans"] = round(1 - metrics["trace.coverage"], 4)
    return {
        "why": why,
        "family_layer_share": _family_layer_share(spans_path),
        "properties": properties,
        "traced_pass_ms": round(pass_ms, 1),
        "layer_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "failed_ops": bench.failed,
    }


def main(argv) -> int:
    what = argv[0] if argv else "reference"
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in manifest["workloads"]}
    names = list(workloads.SPECS)
    if what == "reference":
        return 1 if sum(record_reference(w) for w in names) else 0
    if what == "describe":
        out = {
            "seed": 0,
            "environment": run.environment(),
            "workloads": {w: describe(w, whys[w], manifest["run_seconds"]) for w in names},
            "known_gaps": KNOWN_GAPS,
        }
        RECORD.write_text(json.dumps(out, indent=2) + "\n")
        print(f"wrote {RECORD}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
