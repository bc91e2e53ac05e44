import json
import os

import pytest

from flowrag.chunker import Chunk, SourceKind, read_chunks_jsonl, write_chunks_jsonl
from flowrag.embed import ProviderConfig
from flowrag.errors import ConfigError, FlowragError
from flowrag.evalharness import EvalConfig, EvalReport, Scenario, write_trace_jsonl
from flowrag.ged import CostModel
from flowrag.graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    read_graphs_jsonl,
    write_graphs_jsonl,
)
from flowrag.jsonio import create, decode, encode, member, read_jsonl, shown, write_jsonl
from flowrag.synthgen import GenSpec, QaCategory, QaItem, read_qa_jsonl, write_qa_jsonl
from flowrag.vstore import RetrievalHit

TEXT = "Prüfe Zelle → 信号"


def write_trace(records, path):
    report = EvalReport(
        scenario=Scenario.GRAPH_ONLY, ks=(1,), strategies=(), categories=(), trace=records
    )
    return write_trace_jsonl(report, path)


def read_trace(path):
    return read_jsonl(path, lambda record: record, "trace")


def read_hit_trace(path):
    return [
        {**record, "hits": [RetrievalHit(**hit) for hit in record["hits"]]}
        for record in read_trace(path)
    ]


HIT_TRACE = (
    {
        "question": TEXT,
        "hits": [
            RetrievalHit("g1:node:A", 0.75, 1, graph_id="g1", node_id="A"),
            RetrievalHit("doc000:text:00000", 1 / 3, 2),
        ],
        "judgments": {"1": True},
    },
    {"question": "q", "hits": [RetrievalHit("g2:json", 0.0, 1, graph_id="g2")], "judgments": {}},
)


WRITERS = {
    "graph": (
        write_graphs_jsonl,
        read_graphs_jsonl,
        [
            FlowGraph(
                nodes=(FlowNode("A", TEXT), FlowNode("B", "b")),
                edges=(FlowEdge("A", "B", "ja, weiter"),),
                graph_id="g1",
            ),
            FlowGraph(nodes=(FlowNode("A", "x"),), graph_id="g2"),
        ],
    ),
    "chunk": (
        write_chunks_jsonl,
        read_chunks_jsonl,
        [
            Chunk(chunk_id="c1", text=TEXT, source_kind=SourceKind.TEXT),
            Chunk(chunk_id="c2", text="a: b, c", source_kind=SourceKind.GRAPH, graph_id="g"),
        ],
    ),
    "qa": (
        write_qa_jsonl,
        read_qa_jsonl,
        [
            QaItem(TEXT, "g1", frozenset({"A", "B"}), QaCategory.NODE),
            QaItem("q", "g2", frozenset(), QaCategory.EDGE),
        ],
    ),
    "trace": (
        write_trace,
        read_trace,
        (
            {"question": TEXT, "hits": [{"chunk_id": "c1", "rank": 1}], "judgments": {"1": True}},
            {"question": "q", "hits": [], "judgments": {"1": False}},
        ),
    ),
    "trace-hits": (write_trace, read_hit_trace, HIT_TRACE),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_record_files_share_one_encoding(tmp_path, kind):
    write, read, records = WRITERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    assert write(records, path) == len(records)
    data = path.read_bytes()
    assert TEXT.encode("utf-8") in data and b"\\u" not in data
    lines = data.split(b"\n")
    assert lines[-1] == b"" and len(lines) == len(records) + 1
    for line in lines[:-1]:
        compact = json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":"))
        assert line == compact.encode("utf-8")
    assert read(path) == list(records)
    path.write_bytes(lines[0] + b"\n \n\n" + b"\n".join(lines[1:]))
    assert read(path) == list(records)


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_rewrite_creates_a_new_file(tmp_path, kind):
    write, _, records = WRITERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    write(records, path)
    with open(path, "rb") as old:
        before = old.read()
        write(records, path)
        assert path.read_bytes() == before
        assert os.stat(path).st_ino != os.fstat(old.fileno()).st_ino
        write(records[:1], path)
        assert path.read_bytes() != before
        old.seek(0)
        assert old.read() == before


def test_hit_objects_encode_as_their_dicts(tmp_path):
    as_dicts = [
        {**record, "hits": [hit.to_dict() for hit in record["hits"]]} for record in HIT_TRACE
    ]
    write_trace(HIT_TRACE, tmp_path / "objects.jsonl")
    write_trace(as_dicts, tmp_path / "dicts.jsonl")
    assert (tmp_path / "objects.jsonl").read_bytes() == (tmp_path / "dicts.jsonl").read_bytes()


def shared_value_trace():
    """Trace records whose values repeat in every way the trace writer caches."""
    hits = [
        RetrievalHit("g1:node:A", 0.75, 1, graph_id="g1", node_id="A"),
        RetrievalHit("doc000:text:00000", 1 / 3, 2),
    ]
    judgments = {"1": True, "3": False}
    return (
        {"question": TEXT, "strategy": "per-node", "hits": hits, "judgments": judgments},
        # A repeated question: a new list of the same hit objects.
        {"question": TEXT, "strategy": "per-node", "hits": list(hits), "judgments": judgments},
        # Equal hits and judgments in distinct objects.
        {
            "question": TEXT,
            "strategy": "per-node",
            "hits": [RetrievalHit("g1:node:A", 0.75, 1, graph_id="g1", node_id="A")],
            "judgments": {"1": True, "3": False},
        },
        {"question": "q", "strategy": "all-nodes", "hits": [h.to_dict() for h in hits]},
        {"question": "q", "strategy": "per-node", "hits": hits, "judgments": judgments},
        # No strategy; values and items that hash alike but encode apart.
        {"question": "q", "hits": [True], "n": True},
        {"question": "q", "hits": [1], "n": 1},
        {"question": "q", "hits": [1.0], "n": 1.0},
        {"question": "q", "hits": [], "n": None, "nested": {"a": [True, {"b": TEXT}]}},
        {},
        {1: "an integer key"},
        [TEXT, 1],
        TEXT,
    )


def test_trace_lines_are_the_one_encoding(tmp_path):
    records = shared_value_trace()
    assert write_trace(records, tmp_path / "trace.jsonl") == len(records)
    assert write_jsonl(tmp_path / "plain.jsonl", records) == len(records)
    assert (tmp_path / "trace.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


def test_trace_cache_holds_what_it_keys_by_identity(tmp_path):
    # Records built and dropped one at a time: without the cache holding
    # them, a new list or dict could reuse a dropped one's identity.
    def records():
        for i in range(200):
            yield {
                "question": "q",
                "hits": [{"chunk_id": f"c{i}", "rank": 1}],
                "judgments": {"1": i % 2 == 0},
            }

    write_trace(records(), tmp_path / "trace.jsonl")
    write_jsonl(tmp_path / "plain.jsonl", records())
    assert (tmp_path / "trace.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"], ids=["object", "set", "bytes"])
def test_encode_refuses_objects_without_to_dict(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        encode({"hits": [value]})


def test_create_refuses_a_directory(tmp_path):
    directory = tmp_path / "out"
    directory.mkdir()
    (directory / "kept").write_bytes(b"x")
    with pytest.raises(IsADirectoryError):
        create(directory)
    assert (directory / "kept").read_bytes() == b"x"


def test_create_needs_the_parent_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        create(tmp_path / "missing" / "out.jsonl")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard-link"])
def test_create_replaces_a_link_not_its_target(tmp_path, link):
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"old\n")
    path = tmp_path / "out.jsonl"
    link(target, path)
    assert write_jsonl(path, [1]) == 1
    assert not path.is_symlink() and path.read_bytes() == b"1\n"
    assert target.read_bytes() == b"old\n"


@pytest.mark.parametrize(
    "from_dict",
    [ProviderConfig.from_dict, EvalConfig.from_dict, GenSpec.from_dict, CostModel.from_dict],
    ids=["provider", "eval", "spec", "costs"],
)
def test_configs_reject_unknown_keys_and_non_objects(from_dict):
    with pytest.raises(FlowragError, match="unknown .* keys: \\['dimention'\\]"):
        from_dict({"dimention": 64})
    with pytest.raises(FlowragError, match="must be a JSON object, got list"):
        from_dict([1])


def test_eval_config_rejects_unknown_provider_key():
    with pytest.raises(FlowragError, match="unknown provider config keys"):
        EvalConfig.from_dict({"provider": {"kind": "local-hashed", "dimention": 64}})


@pytest.mark.parametrize(
    "deep", ["[" * 200_000 + "]" * 200_000, b'{"a":' * 200_000 + b"1" + b"}" * 200_000]
)
def test_decode_reports_deep_nesting_as_bad_json(deep):
    with pytest.raises(json.JSONDecodeError, match="value nested too deep"):
        decode(deep)


@pytest.mark.parametrize(
    "value",
    ["x" * 58, 12345, 2.5, None, True, ["per-node", "all-nodes"], [("Process", 1.0)], {"a": [1]}],
)
def test_shown_quotes_a_short_value_as_its_repr(value):
    assert shown(value) == repr(value)


@pytest.mark.parametrize(
    "value",
    [
        "x" * 100_000,
        10 ** 4000,
        ["y" * 60] * 100,
        {str(i): i for i in range(100)},
        # Six levels of six 60-character strings: 46 656 leaves, 2.9 MB of repr.
        [[[[[["z" * 60] * 6] * 6] * 6] * 6] * 6] * 6,
    ],
)
def test_shown_cuts_a_long_or_deep_value_to_60_characters(value):
    text = shown(value)
    assert len(text) == 60 and "..." in text
    assert text[0] == repr(value)[0] and text[-1] == repr(value)[-1]


def test_member_reads_an_enum_value():
    assert member("D", QaCategory, "category") is QaCategory.DECISION
    assert member(QaCategory.EDGE, QaCategory, "category") is QaCategory.EDGE


@pytest.mark.parametrize("value", ["X", "d", 1, None, ["D"], {"D": 1}, "x" * 100_000])
def test_member_names_the_allowed_values(value):
    with pytest.raises(ConfigError) as excinfo:
        member(value, QaCategory, "category")
    assert str(excinfo.value) == f"category must be one of D, N, E, got {shown(value)}"
    assert excinfo.value.__cause__ is None and excinfo.value.__suppress_context__
