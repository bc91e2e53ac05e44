"""flowrag benchmark: seeded inputs, timed CLI paths, output checks.

    python3 perfbench/run.py --workload retrieval|ged|serve|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
``src/``. Each workload runs in its own process (``all`` starts one per
workload). A run imports the package, sets its inputs up three times (the
median is ``setup_s``), then repeats the workload's CLI path while another
pass fits in ``--seconds`` (at least one pass) and checks every output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
pass, in which the benchmark records a span around each of its calls into a
flowrag module, and prints the per-layer metrics. Spans go to
``.perfbench_out/`` once the run ends. Every metric is printed as
``metric <name> <value> <unit>``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed. ``metrics.json`` defines each metric
and the end-to-end metric each layer metric should move.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import Probe
from tracing import NullTracer, Tracer, busy_by_name, durations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("retrieval", "ged", "serve")
SETUP_REPS = 3
# Artifact fingerprints that must not change under a recorded seed; the
# others in fingerprints.json are reported as same or changed.
GATED_FINGERPRINTS = {("retrieval", "report_json"), ("ged", "exact_distances")}

# Per-layer busy time: self time of the spans whose names start with these.
BUSY_SPANS = {
    "synthgen.busy_s": ("synthgen.",),
    "graph_model.read_busy_s": ("graph_model.read_graphs_jsonl",),
    "graph_model.serialize_busy_s": ("graph_model.serialize_json", "graph_model.write_graphs_jsonl"),
    "mermaid.parse_busy_s": ("mermaid.parse_mermaid",),
    "mermaid.render_busy_s": ("mermaid.render_mermaid",),
    "chunker.busy_s": ("chunker.",),
    "embed.busy_s": ("embed.",),
    "vstore.upsert_busy_s": ("vstore.upsert",),
    "vstore.save_busy_s": ("vstore.save",),
    "vstore.load_busy_s": ("vstore.load",),
    "evalharness.judge_busy_s": ("evalharness.judge",),
    "evalharness.render_busy_s": ("evalharness.render_report",),
    "evalharness.trace_write_busy_s": ("evalharness.write_trace_jsonl",),
}
STRATEGIES = ("per-node", "all-nodes", "full-json")
COPIED_COUNTS = (
    "synthgen.graphs", "synthgen.qa_items", "mermaid.scripts", "chunker.empty_skipped",
    "embed.texts", "embed.requests", "embed.stub_busy_s", "vstore.rows", "vstore.queries",
    "vstore.snapshot_bytes", "evalharness.trace_bytes", "ged.exact_pairs", "ged.approx_pairs",
) + tuple(f"chunker.chunks.{s}" for s in STRATEGIES)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer numbers from the spans and counts of a traced run.

    A layer the workload never calls reads 0.
    """
    busy = busy_by_name(tracer.spans)
    counts = tracer.counts

    def busy_of(prefixes) -> float:
        return sum((t for name, t in busy.items() if name.startswith(prefixes)), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: busy_of(prefixes) for name, prefixes in BUSY_SPANS.items()}
    out.update({name: float(counts[name]) for name in COPIED_COUNTS})
    texts = counts["embed.texts"]
    out["embed.distinct_frac"] = ratio(len(tracer.sets.get("embed.texts", ())), texts)
    out["embed.us_per_text"] = ratio(out["embed.busy_s"] * 1e6, texts)
    out["embed.retries"] = float(counts["embed.requests"] - counts["embed.batches"]
                                 if counts["embed.requests"] else 0)
    for strategy in STRATEGIES:
        spans = durations(tracer.spans, f"vstore.query.{strategy}")
        out[f"vstore.query_busy_s.{strategy}"] = sum(spans)
        out[f"vstore.query_us.{strategy}"] = ratio(sum(spans) * 1e6, len(spans))
    out["vstore.kboundary_tie_frac"] = ratio(counts["vstore.kboundary_ties"], counts["oracle.queries"])
    exact = [d * 1e3 for d in durations(tracer.spans, "ged.ged_exact")]
    approx = [d * 1e3 for d in durations(tracer.spans, "ged.ged_approx")]
    out["ged.exact_ms.p50"] = percentile(exact, 50) if exact else 0.0
    out["ged.exact_ms.p99"] = percentile(exact, 99) if exact else 0.0
    out["ged.approx_ms.p50"] = percentile(approx, 50) if approx else 0.0
    out["ged.approx_excess_mean"] = ratio(counts["ged.approx_excess_sum"], counts["ged.exact_pairs"])
    out["ged.approx_tight_frac"] = ratio(counts["ged.approx_tight"], counts["ged.exact_pairs"])
    out["bench.trace_overhead_s"] = overhead_s
    return out


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    why = ""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        why = next((w["why"] for w in spec["workloads"] if w["name"] == workload), "")
    except (OSError, ValueError, KeyError):
        pass
    return {
        "workload": workload, "why": why, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu,
        "git_commit": commit,
    }


def compare_fingerprints(workload: str, seed: int, found: dict[str, str]) -> bool:
    """Print each artifact hash against the recorded one; False when a
    gated artifact changed."""
    recorded = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    expected = recorded.get(workload, {}).get(str(seed), {})
    ok = True
    for name, sha in sorted(found.items()):
        if name not in expected:
            status = "unrecorded"
        elif expected[name] == sha:
            status = "same"
        else:
            status = "CHANGED"
            ok = ok and (workload, name) not in GATED_FINGERPRINTS
        print(f"fingerprint {name} {sha} {status}")
    return ok


def run_one(args) -> int:
    started = time.perf_counter()
    import numpy  # noqa: F401  (imports are set-up, paid before timing)
    import scipy.optimize  # noqa: F401
    import flowrag  # noqa: F401

    module = __import__(f"wl_{args.workload}")
    import_s = time.perf_counter() - started
    print("env " + json.dumps(environment(args.workload, args.seed)), flush=True)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    workload = module.Workload(work, args.seed)
    null = NullTracer()
    probe = Probe()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            workload.setup(null)
            setups.append(time.perf_counter() - t)

        passes = []
        probe.start()
        begin = time.perf_counter()
        while True:
            started = time.perf_counter()
            passes.append(workload.run_pass(null))
            passes[-1]["probe_s"] = probe.loop_s(started, time.perf_counter())
            if len(passes) == 1:
                # Later passes repeat the work; what they add is the
                # benchmark keeping earlier results for the checks.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            spent = time.perf_counter() - begin
            if args.trace or spent + passes[-1]["command_s"] > args.seconds:
                break
        probe.stop()

        tracer = Tracer() if args.trace else null
        traced = None
        if args.trace:
            workload.setup(tracer)
            traced = workload.traced_pass(tracer)
        attempted, failed, fingerprints = workload.check(passes, tracer)
    finally:
        probe.stop()
        stop = getattr(workload, "stop", None)
        if stop:
            stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    consistent = all(p["output"] == passes[0]["output"] for p in passes)
    if traced is not None:
        same = traced["output"] == passes[0]["output"]
        print(f"traced pass reproduces untraced output: {same}")
        consistent = consistent and same
    consistent = compare_fingerprints(args.workload, args.seed, fingerprints) and consistent
    if not consistent:
        failed = attempted

    definitions = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    e2e = definitions["end_to_end"]
    values = {
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "command_s": statistics.median(p["command_s"] for p in passes),
        "command_rel": statistics.median(p["command_s"] / p["probe_s"] for p in passes),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    for phase in passes[0]["phases"]:
        values[phase] = statistics.median(p["phases"][phase] for p in passes)
    if "query_s" in passes[0]:
        latencies = [t * 1e3 for p in passes for t in p["query_s"]]
        values["query_ms.p50"] = percentile(latencies, 50)
        values["query_ms.p99"] = percentile(latencies, 99)
        print(f"queries timed: {len(latencies)}")
    probe_ms = statistics.median(p["probe_s"] for p in passes) * 1e3
    print(f"passes: {len(passes)}  setups: {SETUP_REPS}  import_s: {import_s:.4f}  "
          f"probe loop: {probe_ms:.4f} ms")
    for name, value in values.items():
        print(f"metric {name} {value!r} {e2e[name]['unit']}")

    if args.trace:
        overhead = traced["command_s"] - passes[0]["command_s"]
        layers = layer_metrics(tracer, overhead)
        units = definitions["per_layer"]
        for name in units:
            print(f"metric {name} {layers[name]!r} {units[name]['unit']}")
        reported = {name: {"value": layers[name], "unit": units[name]["unit"]} for name in units}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        reported = {
            name: {"value": values[name], "unit": spec["unit"]}
            for name, spec in e2e.items() if spec.get("gated")
        }
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": reported,
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            totals["correct"] = False
            continue
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(totals), flush=True)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="flowrag benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowrag" / "__init__.py").is_file():
        print(f"error: no flowrag sources under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
