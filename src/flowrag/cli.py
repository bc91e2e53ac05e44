"""Command line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 data errors, 2 usage errors. Diagnostics go to
stderr; data goes to the flagged files or stdout.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .chunker import ChunkStrategy, chunk_graphs, read_chunks_jsonl, write_chunks_jsonl
from .embed import ProviderConfig, embed_batch, embed_rows
from .errors import ConfigError, FlowragError
from .evalharness import (
    EvalAborted,
    EvalConfig,
    ReportFormat,
    EvalReport,
    render_report,
    run_eval,
    write_trace_jsonl,
)
from .graph_model import graph_from_doc, parse_json, read_graphs_jsonl, serialize_json
from .jsonio import create, decode, read_json, shown
from .mermaid import DIRECTIONS, parse_mermaid, render_mermaid
from .synthgen import (
    GenSpec,
    SplitConfig,
    generate_corpus,
    generate_qa,
    read_qa_jsonl,
    write_qa_jsonl,
)
from .vstore import VectorIndex


def _load_provider(path: str | None) -> ProviderConfig:
    data = read_json(path) if path else {"kind": "local-hashed"}
    return ProviderConfig.from_dict(_apply_env_overrides(data))


def _apply_env_overrides(data: dict) -> dict:
    """EMBED_ENDPOINT / EMBED_MODEL override a provider config dict."""
    endpoint = os.environ.get("EMBED_ENDPOINT")
    model = os.environ.get("EMBED_MODEL")
    if not isinstance(data, dict):
        return data  # ProviderConfig.from_dict rejects it
    if endpoint:
        data = {**data, "kind": "remote", "endpoint": endpoint}
    if model:
        data = {**data, "model_name": model}
    return data


def _cmd_gen(args) -> int:
    # Checked before the corpus is written, not after it by generate_qa.
    if args.qa_per_graph < 1:
        raise ConfigError(f"--qa-per-graph must be >= 1, got {args.qa_per_graph}")
    spec = GenSpec.from_file(args.spec) if args.spec else GenSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    split = SplitConfig.parse(args.split)
    out_dir = Path(args.out)
    manifest = generate_corpus(spec, args.count, split, out_dir)
    qa_items = []
    for graph in read_graphs_jsonl(out_dir / manifest.files["test"]):
        qa_items.extend(generate_qa(graph, args.qa_per_graph, spec.seed))
    write_qa_jsonl(qa_items, out_dir / "qa.jsonl")
    print(
        f"wrote {manifest.train}/{manifest.validation}/{manifest.test} graphs "
        f"and {len(qa_items)} QA items to {out_dir}",
        file=sys.stderr,
    )
    return 0


def _cmd_parse(args) -> int:
    with open(args.mermaid, "r", encoding="utf-8") as fh:
        script = fh.read()
    graph = parse_mermaid(script)
    payload = serialize_json(graph) + b"\n"
    if args.out:
        with create(args.out) as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def _cmd_render(args) -> int:
    try:
        graph = parse_json(Path(args.graph).read_bytes())
    except FlowragError as exc:
        raise FlowragError(f"{args.graph}: {exc}") from exc
    script = render_mermaid(graph, args.direction)
    if args.out:
        with create(args.out) as fh:
            fh.write(script.encode("utf-8"))
    else:
        sys.stdout.write(script)
    return 0


def _warn_ids(what: str, ids: list[str], consequence: str) -> None:
    """One warning for all offenders: their count and the first few ids."""
    if ids:
        distinct = list(dict.fromkeys(ids))
        first = ", ".join(map(shown, distinct[:5]))
        more = ", ..." if len(distinct) > 5 else ""
        print(f"warning: {len(ids)} {what} ({first}{more}); {consequence}", file=sys.stderr)


def _warn_first(what: str, messages: list[str], consequence: str) -> None:
    """One warning for all offenders: their count and the first one's message."""
    if messages:
        print(
            f"warning: {len(messages)} {what} (first: {messages[0]}); {consequence}",
            file=sys.stderr,
        )


def _read_predictions(path: str) -> dict[str, object]:
    """Prediction JSONL: {"graph_id": ..., "predicted": <graph document>}.
    Unparseable lines or graphs map to None so they score as full cost. When
    a graph_id repeats, the last line wins."""
    predictions: dict[str, object] = {}
    repeated: list[str] = []
    unreadable: list[str] = []
    unparsed: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = decode(line)
                graph_id = record["graph_id"]
                if not isinstance(graph_id, str):
                    raise TypeError(f"graph_id must be a string, got {shown(graph_id)}")
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                unreadable.append(f"{path}:{line_no}: unreadable prediction: {exc}")
                continue
            if graph_id in predictions:
                repeated.append(graph_id)
            try:
                predictions[graph_id] = graph_from_doc(record["predicted"])
            except (FlowragError, KeyError, TypeError) as exc:
                unparsed.append(
                    f"{path}:{line_no}: prediction for {shown(graph_id)} does not parse: {exc}"
                )
                predictions[graph_id] = None
    _warn_first("prediction lines are unreadable", unreadable, "they are skipped")
    _warn_first(
        "prediction lines do not parse", unparsed, "they score as full reconstruction of the truth"
    )
    _warn_ids(
        "prediction lines repeat an earlier graph_id", repeated, "the last line wins"
    )
    return predictions


def _cmd_ged(args) -> int:
    # Imported here, so scipy loads only for the command that uses it.
    from .ged import (
        CostModel,
        check_node_budget,
        evaluate_predictions,
        render_ged_report_csv,
        render_ged_report_markdown,
    )

    check_node_budget(args.budget)
    # Checked before any input is read, so a bad report path fails at once
    # rather than after every pair is scored.
    report_dir = Path(args.report).parent
    if not report_dir.is_dir():
        raise FlowragError(
            f"cannot write the report {shown(args.report)}: "
            f"{shown(str(report_dir))} is not a directory"
        )
    truths = read_graphs_jsonl(args.truth)
    if not truths:
        raise FlowragError(f"no truth graphs in {args.truth}")
    predictions = _read_predictions(args.pred)
    costs = CostModel.from_dict(read_json(args.costs)) if args.costs else CostModel()
    pairs = [(predictions.get(truth.graph_id), truth) for truth in truths]
    truth_ids: set[str] = set()
    repeated: list[str] = []
    for truth in truths:
        if truth.graph_id in truth_ids:
            repeated.append(truth.graph_id)
        truth_ids.add(truth.graph_id)
    _warn_ids("truths repeat an earlier graph_id", repeated, "each copy is scored")
    _warn_ids(
        "truths have no prediction for their graph_id",
        [truth.graph_id for truth in truths if truth.graph_id not in predictions],
        "they score as missing",
    )
    _warn_ids(
        "predictions have a graph_id not among the truths",
        [graph_id for graph_id in predictions if graph_id not in truth_ids],
        "they are ignored",
    )
    report = evaluate_predictions(pairs, costs=costs, node_budget=args.budget)
    if Path(args.report).suffix == ".csv":
        payload = render_ged_report_csv(report)
    else:
        payload = render_ged_report_markdown(report)
    with create(args.report) as fh:
        fh.write(payload.encode("utf-8"))
    approx = sum(not score.result.exact for score in report.pair_scores)
    print(
        f"scored {len(pairs)} pairs ({approx} above the node budget of "
        f"{args.budget}, by ged_approx); average edit distance "
        f"{report.avg_distance:.2f}",
        file=sys.stderr,
    )
    return 0


def _cmd_chunk(args) -> int:
    graphs = read_graphs_jsonl(args.graphs)
    strategy = ChunkStrategy(args.strategy)
    count = write_chunks_jsonl(chunk_graphs(graphs, strategy), args.out)
    print(f"wrote {count} chunks to {args.out}", file=sys.stderr)
    return 0


def _cmd_ingest(args) -> int:
    chunks = read_chunks_jsonl(args.chunks)
    if not chunks:
        raise FlowragError(f"no chunks in {args.chunks}")
    provider = _load_provider(args.provider_config)
    rows, row_of = embed_rows(provider, [c.text for c in chunks])
    index = VectorIndex()
    index.upsert_rows(chunks, rows, row_of)
    index.save(args.snapshot)
    print(f"indexed {len(chunks)} chunks into {args.snapshot}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    index = VectorIndex.load(args.snapshot)
    provider = _load_provider(args.provider_config)
    vector = embed_batch(provider, [args.text])[0]
    if not vector.as_array().any():
        print(
            f"warning: the query text {shown(args.text)} embeds to the zero vector; "
            "every hit scores 0 and hits come in chunk-id order",
            file=sys.stderr,
        )
    hits = index.query(vector, args.k)
    for hit in hits:
        sys.stdout.write(json.dumps(hit.to_dict(), ensure_ascii=False) + "\n")
    return 0


_REPORT_FILES = (
    (ReportFormat.MARKDOWN, "report.md"),
    (ReportFormat.CSV, "report.csv"),
    (ReportFormat.JSON, "report.json"),
)


def _cmd_eval(args) -> int:
    graphs = read_graphs_jsonl(args.graphs)
    qa = read_qa_jsonl(args.qa)
    data = read_json(args.config)
    if isinstance(data, dict):  # EvalConfig.from_dict rejects anything else
        data = {**data, "provider": _apply_env_overrides(data.get("provider", {}))}
    config = EvalConfig.from_dict(data, base_dir=Path(args.config).parent)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    partial_path = out_dir / "report.partial.json"
    try:
        report = run_eval(graphs, qa, config)
    except EvalAborted as exc:
        print(f"evaluation aborted: {exc}", file=sys.stderr)
        if exc.partial is not None:
            payload = render_report(exc.partial, ReportFormat.JSON)
            with create(partial_path) as fh:
                fh.write(payload.encode("utf-8"))
            print(f"partial progress saved to {partial_path}", file=sys.stderr)
        return 1
    for fmt, name in _REPORT_FILES:
        payload = render_report(report, fmt)
        with create(out_dir / name) as fh:
            fh.write(payload.encode("utf-8"))
    write_trace_jsonl(report, out_dir / "trace.jsonl")
    # A partial report left by an earlier aborted run no longer describes
    # this out-dir.
    partial_path.unlink(missing_ok=True)
    print(f"evaluation written to {out_dir}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    report = EvalReport.from_dict(read_json(args.infile))
    fmt = {"md": ReportFormat.MARKDOWN, "markdown": ReportFormat.MARKDOWN,
           "csv": ReportFormat.CSV, "json": ReportFormat.JSON}[args.format]
    sys.stdout.write(render_report(report, fmt))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowrag",
        description="Flowchart graph corpora, edit-distance scoring, and retrieval benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus plus QA items")
    p.add_argument("--count", type=int, required=True, help="number of graphs to generate")
    p.add_argument("--spec", help="generator spec JSON file (defaults built in)")
    p.add_argument("--split", default="64/16/20", help="train/validation/test split")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--qa-per-graph", type=int, default=5, help="QA items per test graph")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("parse", help="parse a Mermaid file into graph JSON")
    p.add_argument("--mermaid", required=True, help="input .mmd file")
    p.add_argument("--out", help="output JSON file (stdout when omitted)")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("render", help="render graph JSON as a Mermaid script")
    p.add_argument("--graph", required=True, help="input graph JSON file")
    p.add_argument("--direction", default="TD", choices=DIRECTIONS, help="layout direction")
    p.add_argument("--out", help="output .mmd file (stdout when omitted)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("ged", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="predictions JSONL")
    p.add_argument("--truth", required=True, help="ground-truth graphs JSONL")
    p.add_argument("--costs", help="cost model JSON file (unit costs by default)")
    p.add_argument("--budget", type=int, default=12, help="exact-solver node budget")
    p.add_argument("--report", required=True, help="report file (.md or .csv)")
    p.set_defaults(func=_cmd_ged)

    p = sub.add_parser("chunk", help="chunk graphs under one strategy")
    p.add_argument("--graphs", required=True, help="graphs JSONL")
    p.add_argument(
        "--strategy",
        required=True,
        choices=[s.value for s in ChunkStrategy],
        help="chunking strategy",
    )
    p.add_argument("--out", required=True, help="chunks JSONL output")
    p.set_defaults(func=_cmd_chunk)

    p = sub.add_parser("ingest", help="embed chunks and build a snapshot")
    p.add_argument("--chunks", required=True, help="chunks JSONL")
    p.add_argument("--provider-config", help="embedding provider JSON config")
    p.add_argument("--snapshot", required=True, help="snapshot output path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("query", help="query a snapshot with a text")
    p.add_argument("--snapshot", required=True, help="snapshot path")
    p.add_argument("--text", required=True, help="query text")
    p.add_argument("--k", type=int, default=5, help="number of hits")
    p.add_argument("--provider-config", help="embedding provider JSON config")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="run the retrieval evaluation")
    p.add_argument("--graphs", required=True, help="graphs JSONL")
    p.add_argument("--qa", required=True, help="QA JSONL")
    p.add_argument("--config", required=True, help="evaluation config JSON")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="re-render a JSON evaluation report")
    p.add_argument("--in", dest="infile", required=True, help="report.json path")
    p.add_argument(
        "--format", default="md", choices=["md", "markdown", "csv", "json"],
        help="output format",
    )
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FlowragError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
