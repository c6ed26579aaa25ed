"""Benchmark of the noesis CLI and library on three seeded workloads.

    python3 bench/run.py --workload lattice --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload seed picks the inputs (see ``workloads.py``); setup writes
them as mind/scenario files, so the program only ever sees files and
argv.  One client runs the op list in a closed loop, in one process and
one thread, pass after pass for about ``--seconds`` (at least
``MIN_PASSES`` passes).  Every output is checked against the reference
and the invariants in ``check.py``; a failed op is one that raises,
exits non-zero, or prints a wrong answer.

Timings are scaled to a reference machine speed (``speed.py``), and
every op starts from a freshly collected heap, as a CLI process would,
so that garbage collection left over from earlier ops does not land in
it.

``--trace 0`` times each op as one in-process ``run_cli`` call.  Each
op's latency is its median over the passes, which keeps a slow stretch
of a shared machine out of the figures: ``wall_s`` is the sum of those
medians (the cost of one pass), ``op_p50_ms`` and ``op_p90_ms`` are
percentiles over them.  ``setup_s`` is the median of ``SETUPS`` setups.

``--trace 1`` runs every op twice in a row through ``run_cli``: once
plain, once with its layers' public functions wrapped in spans
(``layers.py``).  Back-to-back runs share the machine's state, so
``trace.overhead_frac`` (traced over untraced pass time, less one)
compares like with like.  Per-layer ``.ms`` is a layer's self time per
pass (median over passes).

Metric names and units come from ``BENCHMARK.json``.  The last line of
stdout is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import check
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / ".out"
SETUPS = 3
MIN_PASSES = 3


def import_package():
    """Put the checkout's ``src/`` first on the path; exit if the package is not there."""
    if not (SRC / "noesis" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'noesis'} not found; run from the root of a noesis checkout")
    sys.path.insert(0, str(SRC))
    import noesis

    if Path(noesis.__file__).resolve().parent != SRC / "noesis":
        sys.exit(f"error: imported noesis from {noesis.__file__}, not from {SRC}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu, "commit": _commit()}


def write_inputs(instances, workdir: Path) -> None:
    """Write each instance's files and point its ops at them."""
    workdir.mkdir(parents=True)
    for inst in instances:
        paths = {}
        for kind, doc in inst.files.items():
            path = workdir / f"{inst.name}-{inst.variant}.{kind}"
            path.write_text(json.dumps(doc, indent=1))
            paths["@" + kind] = str(path)
        for op in inst.ops:
            op.params = {k: paths.get(v, v) if isinstance(v, str) else v for k, v in op.params.items()}


class Bench:
    """One workload at one seed: setup, op execution, and the correctness tally."""

    def __init__(self, workload: str, seed: int, corrupt_every: int = 0):
        import_package()
        import layers
        from noesis.cli import run_cli

        self.layers = layers
        self.run_cli = run_cli
        self.workload = workload
        self.seed = seed
        self.reference = None
        self.corrupt_every = corrupt_every
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.instances: list = []
        self.ops: list = []

    def setup(self, workdir: Path) -> float:
        """Generate the inputs, write them, and warm up; returns the seconds it took.

        Loading the reference outputs is the harness's own work and is
        left out of the time.
        """
        start = perf_counter()
        self.instances, self.ops = workloads.choose(self.workload, self.seed)
        write_inputs(self.instances, workdir)
        elapsed = perf_counter() - start
        if self.reference is None:
            self.reference = check.load_reference(self.workload, {op.key for op in self.ops})
        start = perf_counter()
        warm = {}
        for inst in self.instances:
            for op in inst.ops:
                warm.setdefault(op.family, op)
        for op in warm.values():
            self.verify(op, *self.run(op)[:2])
        return elapsed + perf_counter() - start

    def run(self, op, spans=None) -> tuple:
        """Run one op through ``run_cli``; returns (exit code, stdout text, seconds).

        ``tree-audit`` has no CLI form and runs as its API sequence.  With
        ``spans`` the op's layers are traced, and the op is a root span.
        """
        out = io.StringIO()
        gc.collect()
        with self.layers.traced(spans) if spans is not None else contextlib.nullcontext():
            start = perf_counter()
            if spans is not None:
                spans.begin(f"op.{op.family}")
            try:
                if op.command == "tree-audit":
                    code, text = 0, self.layers.tree_audit(op)
                else:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = self.run_cli(op.argv())
                    text = out.getvalue()
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                code, text = None, f"{type(exc).__name__}: {exc}"
            finally:
                if spans is not None:
                    spans.end()
            return code, text, perf_counter() - start

    def verify(self, op, code, text) -> None:
        self.attempted += 1
        if self.corrupt_every and self.attempted % self.corrupt_every == 0:
            text = check.corrupt(text)
        if code != 0:
            problems = [f"exit code {code}: {text[:200]}"]
        else:
            try:
                want = self.reference.get(op.key)
                if want is None:
                    problems = ["no reference output"]
                elif not check.matches(check.canonical(text, op.fmt), want):
                    problems = ["output differs from the reference"]
                else:
                    problems = []
                problems += check.invariant_errors(op, text)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.key} ({' '.join(op.argv())}): {'; '.join(problems)}")


def _passes(seconds: float, one_pass) -> int:
    """Call ``one_pass`` at least MIN_PASSES times, then while another fits in ``seconds``."""
    start = perf_counter()
    done = 0
    last = 0.0
    while done < MIN_PASSES or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        one_pass()
        last = perf_counter() - t0
        done += 1
    return done


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup_times = []
    for i in range(SETUPS):
        workdir = WORK / f"{os.getpid()}-{i}"
        before = speed.calibrate()
        raw = bench.setup(workdir)
        setup_times.append(raw * speed.factor(before, speed.calibrate()))
        if i < SETUPS - 1:
            shutil.rmtree(workdir)
    gc.freeze()
    samples = [[] for _ in bench.ops]
    raw_passes, factors = [], []

    def one_pass():
        raw = []

        def run_one(op):
            code, text, seconds_taken = bench.run(op)
            raw.append(seconds_taken)
            bench.verify(op, code, text)

        scale = speed.run_calibrated(bench.ops, run_one)
        for lat, t, f in zip(samples, raw, scale):
            lat.append(t * f)
        raw_passes.append(sum(raw))
        factors.extend(scale)

    passes = _passes(seconds, one_pass)
    op_ms = [1000 * statistics.median(lat) for lat in samples]
    return {
        "wall_s": sum(op_ms) / 1000,
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        "success_rate": 1 - bench.failed / bench.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
        "_passes": passes,
        "_note": f"op_p50_ms and op_p90_ms are over {len(op_ms)} per-op medians "
                 f"({len(op_ms) // 10} beyond p90); unscaled median pass "
                 f"{statistics.median(raw_passes):.4f} s; median speed scale {statistics.median(factors):.3f}",
    }


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> dict:
    bench.setup(WORK / f"{os.getpid()}-0")
    gc.freeze()
    plain, traced = ([[] for _ in bench.ops] for _ in range(2))
    layer_ms: dict = {name: [] for name in bench.layers.LAYERS}
    layer_calls: dict = {}
    coverage = []
    last = {}

    def one_pass():
        spans = bench.layers.Spans()
        counts = Counter()
        raw = []

        def run_one(i):
            op = bench.ops[i]
            spans.op_id = i
            times = []
            for recorder in (None, spans):
                code, text, seconds_taken = bench.run(op, recorder)
                times.append(seconds_taken)
                bench.verify(op, code, text)
            raw.append(times)
            counts["fileio.bytes_out"] += len(text.encode())
            bench.layers.count_kept(spans, counts)

        scale = speed.run_calibrated(range(len(bench.ops)), run_one)
        for i, f in enumerate(scale):
            for kind, t in zip((plain, traced), raw[i]):
                kind[i].append(t * f)
        ms, calls, roots = Counter(), Counter(), 0.0
        for (name, start, end, parent, op_id), self_s in zip(spans.spans, spans.self_times()):
            if parent is None:
                roots += (end - start) * scale[op_id]
            else:
                ms[name] += 1000 * self_s * scale[op_id]
                calls[name] += 1
        for name in bench.layers.LAYERS:
            layer_ms[name].append(ms[name])
            layer_calls[name] = calls[name]
        coverage.append(sum(ms.values()) / (1000 * roots))
        last.update(spans=spans, counts=counts)

    passes = _passes(seconds, one_pass)
    counts = last["counts"]

    def total(kind):
        return sum(statistics.median(lat) for lat in kind)

    metrics = {}
    for name in bench.layers.LAYERS:
        metrics[f"{name}.ms"] = statistics.median(layer_ms[name])
        metrics[f"{name}.calls"] = layer_calls[name]
    for k in range(bench.layers.DEPTH_BUCKETS + 1):
        metrics[bench.layers.depth_bucket(k)] = counts[bench.layers.depth_bucket(k)]
    rounds = counts["teaching.rounds"]
    metrics.update({
        "reachability.states": counts["reachability.states"],
        "audit.tree_nodes": counts["audit.tree_nodes"],
        "teaching.rounds": rounds,
        "teaching.parsed_frac": counts["teaching.parsed"] / rounds if rounds else 0.0,
        "fileio.bytes_out": counts["fileio.bytes_out"],
        "bench.ops": len(bench.ops),
        "trace.coverage": statistics.median(coverage),
        "trace.overhead_frac": total(traced) / total(plain) - 1,
        "_passes": passes,
        "_note": f"traced pass {total(traced):.4f} s, untraced pass {total(plain):.4f} s (speed-scaled); "
                 f"layers not found in the program: {bench.layers.missing() or 'none'}",
    })
    spans = last["spans"]
    OUT.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({
        "environment": environment(),
        "ops": [op.key for op in bench.ops],
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "self_ms": 1000 * st}
            for (n, s, e, p, o), st in zip(spans.spans, spans.self_times())
        ],
    }))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=0, metavar="N",
                        help="self-test of the gate: corrupt every N-th output before checking it")
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.workload, args.seed, args.corrupt)
    print(f"noesis benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment()))
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}-{os.getpid()}.json"
            metrics = per_layer(bench, args.seconds, spans_path)
            print(f"spans of the last traced pass: {spans_path}")
        else:
            metrics = end_to_end(bench, args.seconds)
    finally:
        for path in WORK.glob(f"{os.getpid()}-*"):
            shutil.rmtree(path, ignore_errors=True)

    print(f"ops per pass: {len(bench.ops)}; passes: {metrics['_passes']}; "
          f"ops attempted: {bench.attempted}; failed: {bench.failed}; "
          f"error_rate: {bench.failed / bench.attempted:g} fraction")
    print(metrics["_note"])
    for line in bench.errors:
        print("FAILED " + line)
    result = {}
    for m in declared:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
