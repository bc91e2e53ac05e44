"""Shared test helpers: random graph builders, independent oracles,
Counter-based references for the GED cost tables, and a loopback stub
embedding server."""
from __future__ import annotations

import json
import multiprocessing
import os
import random
import socket
import threading
from collections import Counter
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from flowrag.ged import _ID_TIE_EPS, GedResult, _Pair, _result_from_mapping
from flowrag.graph_model import FlowEdge, FlowGraph, FlowNode, LineStyle, NodeShape

# ``evaluate_predictions`` spreads pairs over processes only where both exist.
NEEDS_FORK = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity")
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork and sched_getaffinity",
)

VALUE_POOL = ["start", "check alarm", "send report", "stop", "retry", "wait"]
LABEL_POOL = [None, "yes", "no", "ok"]
SHAPES = list(NodeShape)
STYLES = list(LineStyle)


def random_graph(
    rng: random.Random,
    max_nodes: int = 5,
    min_nodes: int = 1,
    value_pool=VALUE_POOL,
    label_pool=LABEL_POOL,
    graph_id: str = "",
) -> FlowGraph:
    n = rng.randint(min_nodes, max_nodes)
    ids = [chr(ord("A") + i) for i in range(n)]
    nodes = [
        FlowNode(id=ids[i], value=rng.choice(value_pool), shape=rng.choice(SHAPES))
        for i in range(n)
    ]
    edges = []
    triples = set()
    for _ in range(rng.randint(0, 2 * n)):
        src, dst = rng.choice(ids), rng.choice(ids)
        value = rng.choice(label_pool)
        if (src, dst, value) in triples:
            continue
        triples.add((src, dst, value))
        edges.append(
            FlowEdge(
                src=src,
                dst=dst,
                value=value,
                bidirectional=rng.random() < 0.25,
                line_style=rng.choice(STYLES),
            )
        )
    return FlowGraph(nodes=tuple(nodes), edges=tuple(edges), graph_id=graph_id)


# ---------------------------------------------------------------------------
# Brute-force edit distance oracle, independent of the package's solvers:
# enumerate every injective partial node mapping; within each mapping, brute
# force the edge matching per endpoint group.
# ---------------------------------------------------------------------------


def _norm(value):
    return "" if value is None else " ".join(value.split()).casefold()


def _edge_groups(graph: FlowGraph, index: dict[str, int]) -> dict:
    groups: dict = {}
    for edge in graph.edges:
        si, di = index[edge.src], index[edge.dst]
        if edge.bidirectional:
            key = ("b", min(si, di), max(si, di))
        else:
            key = ("d", si, di)
        groups.setdefault(key, []).append(_norm(edge.value))
    return groups


def _group_min_cost(pred_values, truth_values, costs) -> float:
    best = [float("inf")]

    def recurse(i: int, used: frozenset, acc: float) -> None:
        if i == len(pred_values):
            total = acc + (len(truth_values) - len(used)) * costs.edge_insert
            if total < best[0]:
                best[0] = total
            return
        recurse(i + 1, used, acc + costs.edge_delete)
        for j, tv in enumerate(truth_values):
            if j in used:
                continue
            sub = 0.0 if pred_values[i] == tv else costs.edge_substitute
            recurse(i + 1, used | {j}, acc + sub)

    recurse(0, frozenset(), 0.0)
    return best[0]


def oracle_mappings(pred: FlowGraph, truth: FlowGraph, costs):
    """Every injective partial node mapping with its edit cost, as
    (assign, cost) pairs: assign[i] is the truth index of pred node i, or
    None for a deletion."""
    p_nodes, t_nodes = list(pred.nodes), list(truth.nodes)
    n1, n2 = len(p_nodes), len(t_nodes)
    p_index = {n.id: i for i, n in enumerate(p_nodes)}
    t_index = {n.id: i for i, n in enumerate(t_nodes)}
    p_groups = _edge_groups(pred, p_index)
    t_groups = _edge_groups(truth, t_index)

    def mapping_cost(assign: list) -> float:
        cost = 0.0
        used = [j for j in assign if j is not None]
        for i, j in enumerate(assign):
            if j is None:
                cost += costs.node_delete
            elif _norm(p_nodes[i].value) != _norm(t_nodes[j].value):
                cost += costs.node_substitute
        cost += (n2 - len(used)) * costs.node_insert
        handled = set()
        for (cls, a, b), p_values in p_groups.items():
            ja, jb = assign[a], assign[b]
            if ja is None or jb is None:
                cost += len(p_values) * costs.edge_delete
                continue
            tkey = ("b", min(ja, jb), max(ja, jb)) if cls == "b" else ("d", ja, jb)
            handled.add(tkey)
            cost += _group_min_cost(p_values, t_groups.get(tkey, []), costs)
        for tkey, t_values in t_groups.items():
            if tkey not in handled:
                cost += len(t_values) * costs.edge_insert
        return cost

    def enumerate_mappings(i: int, assign: list, used: frozenset):
        if i == n1:
            yield assign, mapping_cost(assign)
            return
        yield from enumerate_mappings(i + 1, assign + [None], used)
        for j in range(n2):
            if j not in used:
                yield from enumerate_mappings(i + 1, assign + [j], used | {j})

    return enumerate_mappings(0, [], frozenset())


def oracle_ged(pred: FlowGraph, truth: FlowGraph, costs) -> float:
    return min(cost for _assign, cost in oracle_mappings(pred, truth, costs))


def oracle_tie_break(pred: FlowGraph, truth: FlowGraph, costs) -> tuple:
    """The minimum-cost mapping whose truth ids, read in pred node order with
    deletion last, are lexicographically smallest; as (pred id, truth id)
    pairs. Costs compare exactly, so only costs that sum exactly in binary
    floating point give a meaningful reference."""
    t_ids = [n.id for n in truth.nodes]
    mappings = list(oracle_mappings(pred, truth, costs))
    best = min(cost for _assign, cost in mappings)
    assign = min(
        (assign for assign, cost in mappings if cost == best),
        key=lambda assign: [(1, "") if j is None else (0, t_ids[j]) for j in assign],
    )
    return tuple(
        (node.id, t_ids[j]) for node, j in zip(pred.nodes, assign) if j is not None
    )


def same_label_digraph(rng: random.Random, nodes: int, edges: int) -> FlowGraph:
    """A random digraph whose nodes all carry one value and whose edges carry
    none: every ordering of its nodes ties on label."""
    ids = [chr(ord("A") + i) for i in range(nodes)]
    links = rng.sample([(a, b) for a in ids for b in ids if a != b], edges)
    return FlowGraph(
        nodes=tuple(FlowNode(i, "check state") for i in ids),
        edges=tuple(FlowEdge(a, b) for a, b in links),
    )


def distinct_edge_graph(nodes: int, tag: str) -> FlowGraph:
    """``nodes`` nodes and as many edges, one from each node, each edge value
    its own: every edge value is a label column of its own, and two graphs
    of different ``tag`` share none."""
    ids = [f"N{i}" for i in range(nodes)]
    return FlowGraph(
        nodes=tuple(FlowNode(node_id, f"step {i % 7}") for i, node_id in enumerate(ids)),
        edges=tuple(
            FlowEdge(ids[i], ids[(7 * i + 3) % nodes], value=f"{tag} {i}") for i in range(nodes)
        ),
    )


def reference_multiset_cost(c1: np.ndarray, c2: np.ndarray, costs) -> np.ndarray:
    """``_multiset_cost`` as the solvers once computed it: the common counts
    from an (..., a, b, labels) array of ``np.minimum``, then the same
    arithmetic in the same order."""
    c1, c2 = c1[..., :, None, :], c2[..., None, :, :]
    common = np.minimum(c1, c2).sum(-1)
    m1 = c1.sum(-1) - common
    m2 = c2.sum(-1) - common
    paired = np.minimum(m1, m2)
    return (
        paired * costs.edge_substitute
        + (m1 - paired) * costs.edge_delete
        + (m2 - paired) * costs.edge_insert
    )


# ---------------------------------------------------------------------------
# References for the array-native cost tables: the exact solver's edge-cost
# table and the assignment matrix of ``ged_approx``, built pair by pair from
# Counters of edge values, the construction the arrays replaced. The three
# local terms of ``ged_approx`` add left to right, as the solver adds them.
# ---------------------------------------------------------------------------


def _counter_cost(c1: Counter, c2: Counter, costs) -> float:
    common = sum((c1 & c2).values())
    m1 = sum(c1.values()) - common
    m2 = sum(c2.values()) - common
    paired = min(m1, m2)
    return (
        paired * costs.edge_substitute
        + (m1 - paired) * costs.edge_delete
        + (m2 - paired) * costs.edge_insert
    )


def _node_signatures(graph: FlowGraph) -> list[tuple[Counter, Counter, Counter]]:
    """Per node: Counters of outgoing, incoming and bidirectional edge values."""
    index = {n.id: i for i, n in enumerate(graph.nodes)}
    sigs = [(Counter(), Counter(), Counter()) for _ in graph.nodes]
    for edge in graph.edges:
        si, di = index[edge.src], index[edge.dst]
        value = _norm(edge.value)
        if edge.bidirectional:
            sigs[si][2][value] += 1
            if di != si:
                sigs[di][2][value] += 1
        else:
            sigs[si][0][value] += 1
            sigs[di][1][value] += 1
    return sigs


def reference_anchor_costs(pred: FlowGraph, truth: FlowGraph, costs):
    """``_anchor_costs`` of the exact solver, each table cell priced pair by
    pair from Counters of the edge values in its two groups."""
    pair = _Pair(pred, truth, costs)
    pv, tv = pair.pred, pair.truth
    n1, n2 = len(pv.nodes), len(tv.nodes)

    def class_costs(pred_groups, truth_groups):
        p_counts = {key: Counter(map(_norm, (e.edge.value for e in edges)))
                    for key, edges in pred_groups.items()}
        t_counts = {key: Counter(map(_norm, (e.edge.value for e in edges)))
                    for key, edges in truth_groups.items()}
        deleted = np.zeros((n1, n1))
        inserted = np.zeros((n2, n2))
        for (u, a), values in p_counts.items():
            deleted[u, a] = costs.edge_delete * sum(values.values())
        for (t, j), values in t_counts.items():
            inserted[t, j] = costs.edge_insert * sum(values.values())
        table = deleted[:, :, None, None] + inserted[None, None, :, :]
        for (u, a), c1 in p_counts.items():
            for (t, j), c2 in t_counts.items():
                table[u, a, t, j] = _counter_cost(c1, c2, costs)
        return table, deleted, inserted

    def both_ways(groups):
        return {**groups, **{(b, a): edges for (a, b), edges in groups.items()}}

    directed, d_deleted, d_inserted = class_costs(pv.directed, tv.directed)
    bidir, b_deleted, b_inserted = class_costs(both_ways(pv.bidir), both_ways(tv.bidir))
    pair = directed + directed.transpose(1, 0, 3, 2) + bidir
    deleted = d_deleted + d_deleted.T + b_deleted
    inserted = d_inserted + d_inserted.T + b_inserted
    u, t = np.ix_(np.arange(n1), np.arange(n2))
    pair[u, u, t, t] = directed[u, u, t, t] + bidir[u, u, t, t]
    np.fill_diagonal(deleted, d_deleted.diagonal() + b_deleted.diagonal())
    np.fill_diagonal(inserted, d_inserted.diagonal() + b_inserted.diagonal())
    return pair, deleted, inserted


def reference_ged_approx(pred: FlowGraph, truth: FlowGraph, costs) -> GedResult:
    # Truth nodes in id order, as ``_Pair`` numbers them.
    truth = replace(truth, nodes=tuple(sorted(truth.nodes, key=lambda n: n.id)))
    p_nodes, t_nodes = list(pred.nodes), list(truth.nodes)
    n1, n2 = len(p_nodes), len(t_nodes)
    mapping: list = [None] * n1
    if n1 and n2:
        p_sigs, t_sigs = _node_signatures(pred), _node_signatures(truth)
        unmapped_pair = costs.node_delete + costs.node_insert
        base = np.empty((n1, n2))
        matrix = np.empty((n1, n2))
        for i in range(n1):
            for j in range(n2):
                same = _norm(p_nodes[i].value) == _norm(t_nodes[j].value)
                sub = 0.0 if same else costs.node_substitute
                t0, t1, t2 = (_counter_cost(p, t, costs) for p, t in zip(p_sigs[i], t_sigs[j]))
                base[i, j] = sub + (t0 + t1 + t2)
                entry = min(base[i, j], unmapped_pair)
                if p_nodes[i].id != t_nodes[j].id:
                    entry += _ID_TIE_EPS
                matrix[i, j] = entry
        for i, j in zip(*linear_sum_assignment(matrix)):
            if base[i, j] < unmapped_pair:
                mapping[i] = int(j)
    return _result_from_mapping(_Pair(pred, truth, costs), mapping, exact=False)


# ---------------------------------------------------------------------------
# Retrieval fixtures: corpora whose graphs share no vocabulary, with QA
# questions quoting node values verbatim.
# ---------------------------------------------------------------------------


def disjoint_corpus(count: int, nodes_per_graph: int = 4, tokens_per_value: int = 8):
    """Graphs with globally unique tokens in every node value and edge label,
    plus one node question per graph quoting a node value verbatim.

    Values carry several unique tokens so that an exact quote outweighs
    hash-bucket collision noise from unrelated chunks even at corpus scale."""
    from flowrag.synthgen import QaCategory, QaItem

    graphs = []
    qa_items = []
    for gi in range(count):
        ids = [f"N{ni + 1}" for ni in range(nodes_per_graph)]
        nodes = tuple(
            FlowNode(
                id=ids[ni],
                value=" ".join(
                    f"tok{gi}{letter}{ni}"
                    for letter in "abcdefghijklmnop"[:tokens_per_value]
                ),
                shape=NodeShape.TERMINATOR if ni == 0 else NodeShape.PROCESS,
            )
            for ni in range(nodes_per_graph)
        )
        edges = tuple(
            FlowEdge(ids[ni], ids[ni + 1], value=f"lbl{gi}x{ni}")
            for ni in range(nodes_per_graph - 1)
        )
        graph = FlowGraph(nodes=nodes, edges=edges, graph_id=f"g{gi:03d}")
        graphs.append(graph)
        target = nodes[gi % nodes_per_graph]
        qa_items.append(
            QaItem(
                question=f"What happens after {target.value}?",
                graph_id=graph.graph_id,
                gold_node_ids=frozenset({target.id}),
                category=QaCategory.NODE,
            )
        )
    return graphs, qa_items


def mismatch_qa(qa_items):
    """Negative control: every question claims the next graph as gold."""
    from flowrag.synthgen import QaItem

    rotated = []
    count = len(qa_items)
    for i, item in enumerate(qa_items):
        wrong = qa_items[(i + 1) % count]
        rotated.append(
            QaItem(
                question=item.question,
                graph_id=wrong.graph_id,
                gold_node_ids=wrong.gold_node_ids,
                category=item.category,
            )
        )
    return rotated


# ---------------------------------------------------------------------------
# Loopback stub embedding server implementing the /embed wire protocol.
# ---------------------------------------------------------------------------


def stub_vector(text: str, dimension: int) -> list[float]:
    """Deterministic per-text embedding the tests can recompute."""
    values = [0.0] * dimension
    for i, byte in enumerate(text.encode("utf-8")):
        values[i % dimension] += float(byte)
    norm = sum(v * v for v in values) ** 0.5 or 1.0
    return [v / norm for v in values]


class StubEmbedServer:
    """Serves POST /embed. ``status_plan`` is a list of statuses to emit for
    successive requests (200 means serve normally); once exhausted every
    request succeeds. ``error_body`` replaces the JSON error object sent with
    a planned non-200 status. ``truncate`` drops the last embedding of each
    response and ``ragged`` varies the dimension per row, for protocol-error
    tests. Records each request body for assertions.

    By default it answers in HTTP/1.0 and closes each connection after one
    response. ``keep_alive`` answers in HTTP/1.1 and keeps connections open;
    ``connections`` counts the TCP connections accepted, and
    ``drop_connections`` closes the open ones without a ``Connection: close``
    header, as a server does with connections left idle too long."""

    def __init__(
        self,
        dimension: int = 8,
        status_plan: list[int] | None = None,
        truncate: bool = False,
        ragged: bool = False,
        error_body: bytes | None = None,
        keep_alive: bool = False,
    ):
        self.dimension = dimension
        self.status_plan = list(status_plan or [])
        self.truncate = truncate
        self.ragged = ragged
        self.error_body = error_body
        self.requests: list[dict] = []
        self.connections = 0
        self._open: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closed = threading.Condition(self._lock)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            # Headers and body go out in two writes; on a kept-alive
            # connection Nagle's algorithm would hold the body back until
            # the client's delayed ACK of the headers.
            disable_nagle_algorithm = keep_alive

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1
                    outer._open.add(self.connection)

            def finish(self):
                with outer._lock:
                    outer._open.discard(self.connection)
                    outer._closed.notify_all()
                super().finish()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.requests.append(body)
                    status = outer.status_plan.pop(0) if outer.status_plan else 200
                if status != 200:
                    payload = outer.error_body
                    if payload is None:
                        payload = json.dumps({"error": f"injected {status}"}).encode()
                    self.send_response(status)
                else:
                    embeddings = [
                        stub_vector(
                            text,
                            outer.dimension + (i % 2 if outer.ragged else 0),
                        )
                        for i, text in enumerate(body["inputs"])
                    ]
                    if outer.truncate and embeddings:
                        embeddings = embeddings[:-1]
                    payload = json.dumps({"embeddings": embeddings}).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def drop_connections(self, timeout_s: float = 5.0) -> None:
        """Close every open connection and wait until its handler has ended."""
        with self._lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            if not self._closed.wait_for(lambda: not self._open, timeout_s):
                raise TimeoutError("stub server connections did not close")

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubEmbedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._server.shutdown()
        # Handler threads are joined on close; a kept-alive connection would
        # hold its handler open until the client let go.
        self.drop_connections()
        self._server.server_close()
