"""Attributed graph edit distance between flowchart graphs.

Two solvers over the same cost semantics, both reading one preparation of
each pair: every node and edge value normalized once, one edge-label
vocabulary for the two graphs, and one node substitution cost matrix. Truth
nodes are numbered in id order, so neither solver's result depends on the
order in which the truth lists its nodes.

* ``ged_exact`` runs an A* search over injective node assignments. Nodes are
  compared by value after normalization (case-fold, whitespace collapse);
  the edges induced by an assignment are compared by direction class and
  value. Bidirectional edges only ever match bidirectional edges, as an
  unordered endpoint pair. Node shapes and edge line styles never enter the
  cost. A state's cost rows, one (n1 + 1) x (n2 + 1) array (column n2
  deletes, row n1 inserts), price each open decision: the node costs plus,
  for each decided node, deletions included, a slice of a per-pair
  edge-cost table; they are the search's only record of decided costs, and
  a child adds one slice to its parent's. The admissible lower bound h is a
  linear assignment over the rows, which prices every edge with a decided
  endpoint exactly, plus a label-count bound on the edges with both
  endpoints open; once every predicted node is decided it is exact, so a
  complete state is priced by its bound like any other. Keys follow
  pathmax (Mérō, Artificial Intelligence 23, 1984): a child is queued
  under the larger of its parent's key and its path cost g, bounded only
  when popped, and queued again under the larger of that key and g + h.
  The parent's key bounds every completion through the child from below,
  so keys stay lower bounds; no key is queued below the one just popped,
  so popped keys never decrease and each bounds the distance from below.
  An unbounded key is never above the bounded one, so bounded states pop
  in the order they would if every child were bounded when made, and the
  first bounded complete state to pop is minimal, its key its cost. With
  truth nodes in id order, a state's decisions are its tie-break key: ties
  between minimum-cost solutions break toward the assignment vector that
  maps each node (in input order) to the lexicographically smallest truth
  id, deletion last. That tie-break is exact only when the costs sum
  exactly in binary floating point, as unit costs and halves or quarters
  do; otherwise rounding can make one of two equal-cost solutions look
  cheaper, and the search may return another mapping of the same distance.

* ``ged_approx`` solves one linear assignment over node-level costs (value
  substitution plus a local edge-label mismatch estimate, computed for all
  node pairs at once from two (3, nodes, labels) count arrays by the
  count-level products of ``_multiset_cost``, so its memory grows with
  nodes x labels and nodes x nodes, never with their product), then prices
  the edit script induced by that assignment. Among equal-cost assignments
  the solver prefers kept ids, then earlier truth columns, which are in id
  order. The result is always a feasible edit path, hence an upper bound on
  the exact distance.

Both report the edit path induced by their node assignment. It contains only
operations that change something: costed inserts, deletes, and
substitutions, plus zero-cost substitutions that rewrite an id, a raw value,
or a bidirectional edge's stored orientation. Its order is fixed: edge
deletes, node deletes, node substitutions, node inserts, edge substitutions,
edge inserts; node ops sort by predicted id (inserts by truth id), edge ops
by (src, dst, value, bidirectional) of the predicted edge, or of the truth
edge for inserts. Applying a path with ``apply_edit_path`` and comparing
``content_signature`` values checks a result end to end.
"""
from __future__ import annotations

import csv
import heapq
import io
import math
import multiprocessing
import operator
import os
import threading
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError, FlowragError
from .graph_model import FlowEdge, FlowGraph, FlowNode, NodeShape, collapse_whitespace
from .jsonio import NUMBER, config_kwargs, expect, shown

# Column headings for the aggregate report, in output order.
GED_REPORT_COLUMNS = (
    "Avg. #Nodes (Ground Truth)",
    "Avg. #Edges (Ground Truth)",
    "Avg. #Nodes Detected",
    "Avg. #Edges Detected",
    "Avg. Graph Edit Distance (GED)",
)

# Favor assignments that keep matching node ids when costs tie; small enough
# to never flip a real cost difference at unit scale.
_ID_TIE_EPS = 1e-9

# Edit-path phases, in path order.
_PATH_ORDER = (
    "delete-edge",
    "delete-node",
    "substitute-node",
    "insert-node",
    "substitute-edge",
    "insert-edge",
)


class GraphTooLargeError(FlowragError):
    def __init__(self, size: int, budget: int):
        super().__init__(
            f"graph with {size} nodes exceeds the exact-search budget of "
            f"{budget}; use ged_approx"
        )
        self.size = size
        self.budget = budget


def normalize_label(value: str | None) -> str:
    """Case-folded, whitespace-collapsed form used for cost comparisons."""
    return collapse_whitespace(value or "").casefold()


@dataclass(frozen=True)
class CostModel:
    """Non-negative edit costs; substitution applies only to unequal values."""

    node_insert: float = 1.0
    node_delete: float = 1.0
    node_substitute: float = 1.0
    edge_insert: float = 1.0
    edge_delete: float = 1.0
    edge_substitute: float = 1.0

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.node_substitute > self.node_insert + self.node_delete + 1e-12:
            raise ValueError("node_substitute must not exceed node_insert + node_delete")
        if self.edge_substitute > self.edge_insert + self.edge_delete + 1e-12:
            raise ValueError("edge_substitute must not exceed edge_insert + edge_delete")

    @classmethod
    def from_dict(cls, data: dict) -> "CostModel":
        kwargs = config_kwargs(cls, data, "cost model")
        costs = {}
        for key, value in kwargs.items():
            try:
                costs[key] = float(expect(value, NUMBER, key))
            except OverflowError:  # an integer too large for a float
                raise ConfigError(f"{key} must be finite, got {shown(value)}") from None
        return cls(**costs)


@dataclass(frozen=True)
class EditOp:
    """One edit operation. Node ops carry ids and the new value; edge ops
    carry the full edge records they remove, rewrite, or add."""

    kind: str  # {insert,delete,substitute}-{node,edge}
    cost: float
    pred_id: str | None = None
    truth_id: str | None = None
    value: str | None = None
    pred_edge: FlowEdge | None = None
    truth_edge: FlowEdge | None = None


@dataclass(frozen=True)
class GedResult:
    distance: float
    edit_path: tuple[EditOp, ...]
    exact: bool
    nodes_detected: int
    edges_detected: int
    mapping: tuple[tuple[str, str], ...] = ()  # (predicted id, truth id) pairs


class _Edge(NamedTuple):
    edge: FlowEdge
    norm: str  # the normalized value
    label: int  # its column in the pair's label-count arrays


class _View:
    """Index-based projection of a graph's nodes, in the order given, and its
    edges for the solvers. It normalizes every node and edge value once.
    ``columns`` maps each normalized edge value to its label column; the two
    views of a pair fill it in turn."""

    def __init__(
        self, nodes: Iterable[FlowNode], edges: Iterable[FlowEdge], columns: dict[str, int]
    ):
        self.nodes = list(nodes)
        self.ids = [n.id for n in self.nodes]
        self.index = {n.id: i for i, n in enumerate(self.nodes)}
        self.norm = [normalize_label(n.value) for n in self.nodes]
        self.directed: dict[tuple[int, int], list[_Edge]] = defaultdict(list)
        self.bidir: dict[tuple[int, int], list[_Edge]] = defaultdict(list)
        for edge in edges:
            norm = normalize_label(edge.value)
            entry = _Edge(edge, norm, columns.setdefault(norm, len(columns)))
            si, di = self.index[edge.src], self.index[edge.dst]
            if edge.bidirectional:
                self.bidir[(min(si, di), max(si, di))].append(entry)
            else:
                self.directed[(si, di)].append(entry)


class _Pair:
    """A (predicted, truth) pair as both solvers read it: the two views, the
    number of distinct normalized edge values, the cost model, and the value
    substitution cost of every pred node against every truth node. Pred
    nodes keep their input order; truth nodes are numbered in id order."""

    def __init__(self, predicted: FlowGraph, truth: FlowGraph, costs: CostModel):
        columns: dict[str, int] = {}
        self.pred = _View(predicted.nodes, predicted.edges, columns)
        self.truth = _View(sorted(truth.nodes, key=lambda n: n.id), truth.edges, columns)
        self.labels = len(columns)
        self.costs = costs
        self.node_costs = np.array(
            [[0.0 if pn == tn else costs.node_substitute for tn in self.truth.norm]
             for pn in self.pred.norm]
        ).reshape(len(self.pred.norm), len(self.truth.norm))


def _group_counts(groups: dict, labels: int) -> np.ndarray:
    """Counts of normalized edge values per edge group, in group order:
    shape (groups, labels)."""
    cells = [g * labels + edge.label for g, edges in enumerate(groups.values()) for edge in edges]
    return np.bincount(cells, minlength=len(groups) * labels).reshape(len(groups), labels)


def _signature_counts(view: _View, labels: int) -> np.ndarray:
    """Per node: counts of outgoing, incoming, and bidirectional edge values,
    shape (3, nodes, labels), for the local estimate of the approximate
    solver. A bidirectional loop counts once."""
    n = len(view.nodes)
    cells = [
        row * labels + edge.label
        for (si, di), edges in view.directed.items()
        for edge in edges
        for row in (si, n + di)
    ] + [
        row * labels + edge.label
        for (a, b), edges in view.bidir.items()
        for edge in edges
        for row in {2 * n + a, 2 * n + b}
    ]
    return np.bincount(cells, minlength=3 * n * labels).reshape(3, n, labels)


def _multiset_cost(c1: np.ndarray, c2: np.ndarray, costs: CostModel) -> np.ndarray:
    """Optimal matching costs of value multisets given as label counts, rows
    of shape (..., a, labels) against (..., b, labels), as (..., a, b): equal
    values pair for free, leftovers pair as substitutions, the remainder is
    deleted or inserted. This is exact for a {0, substitute} cost matrix
    because substitute <= delete + insert. The common counts, the sums of
    min(c1, c2) over labels, add one float64 product (c1 >= k) @ (c2 >= k)^T
    per count level k, exact for these integers, so no a x b x labels array
    is built; with no level they stay 0 and the sums broadcast to (a, b)."""
    common = 0.0
    for k in range(1, int(min(c1.max(initial=0), c2.max(initial=0))) + 1):
        common = common + (c1 >= k).astype(float) @ np.swapaxes(c2 >= k, -1, -2).astype(float)
    m1 = c1.sum(-1)[..., :, None] - common
    m2 = c2.sum(-1)[..., None, :] - common
    paired = np.minimum(m1, m2)
    return (
        paired * costs.edge_substitute
        + (m1 - paired) * costs.edge_delete
        + (m2 - paired) * costs.edge_insert
    )


def _count_cost(c1: list[int], c2: list[int], costs: CostModel) -> float:
    """``_multiset_cost`` of one pair of label-count lists in Python ints and
    floats: the same operations in the same order, hence the same float.
    When one side is empty nothing pairs, and the two products left are
    that float too."""
    total1, total2 = sum(c1), sum(c2)
    if not (total1 and total2):
        return total1 * costs.edge_delete + total2 * costs.edge_insert
    common = sum(map(min, c1, c2))
    m1 = total1 - common
    m2 = total2 - common
    paired = min(m1, m2)
    return (
        paired * costs.edge_substitute
        + (m1 - paired) * costs.edge_delete
        + (m2 - paired) * costs.edge_insert
    )


@lru_cache(maxsize=256)  # 169 shapes at the default node budget of 12
def _bound_layout(r: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The square assignment matrix of r open pred nodes and m open truth
    nodes, as indices into a state's cost rows (see ``_bound_index``): the
    template, every forbidden cell at the infinite cell (-2) and the last
    block at the zero cell (-1); the flat cell of each entry of an (r + 1) x
    (m + 1) cost block, row major, bar the unused corner ([u, t] maps u to t,
    [u, m] deletes u at [u, m + u], [r, t] inserts t at [r + t, t]); and the
    block's row numbers, as a column."""
    size = r + m
    template = np.full((size, size), -2, dtype=np.intp)
    template[r:, m:] = -1
    rows, cols = np.arange(r + 1)[:, None], np.arange(m + 1)
    cells = ((rows + (rows == r) * cols) * size + cols + (cols == m) * rows).ravel()[:-1]
    template.flags.writeable = cells.flags.writeable = rows.flags.writeable = False  # shared
    return template, cells, rows


# An entry is an (r + m) square intp matrix: at most 4.6 KB at the default
# node budget of 12, so a full cache holds under 10 MB. It lives as long as
# the process, and forked scoring workers inherit it.
@lru_cache(maxsize=2048)
def _bound_index(r: int, n2: int, used_mask: int) -> np.ndarray:
    """Where each cell of a state's square assignment matrix comes from.

    The state has r open pred nodes and uses the truth nodes of
    ``used_mask``; its cost rows from its depth on are read flat, n2 + 1
    cells a row (column n2 deletes, the last row inserts), and end with one
    infinite and one zero cell. The matrix is (r + m) square for m open
    truth nodes: [u, t] maps u to t, [u, m + u] deletes u, [r + t, t]
    inserts t, the other cells of those two blocks are forbidden (infinite,
    so no scale of costs lets the assignment take one) and the last block
    is zero. Shared by every pair with the same r, n2 and mask."""
    columns = [j for j in range(n2) if not used_mask >> j & 1] + [n2]
    template, cells, rows = _bound_layout(r, len(columns) - 1)
    index = template.copy()
    index.put(cells, (rows * (n2 + 1) + columns).ravel()[:-1])
    index.flags.writeable = False  # shared by every call
    return index


def _loops(table: np.ndarray) -> np.ndarray:
    """The [u, u, t, t] cells of an (n1, n1, n2, n2) table as a writable
    (n1, n2) view: the pairings of a pred node with a truth node."""
    n1, n2 = table.shape[1], table.shape[3]
    return table.reshape(n1 * n1, n2 * n2)[:: n1 + 1, :: n2 + 1]


def _anchor_costs(pair: _Pair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge costs of every pairing of a pred node pair with a truth node pair.

    ``anchored[u, a, t, j]`` is the cost of matching the edges between pred
    nodes u and a to the edges between truth nodes t and j: u->a against
    t->j, a->u against j->t, and bidirectional against bidirectional. The
    diagonal u == a, t == j prices the self-loops, directed loops counted
    once.
    ``deleted[u, a]`` and ``inserted[t, j]`` price deleting or inserting all
    edges between the two nodes. ``anchored`` holds n1**2 * n2**2 floats: at
    most 166 KB at the default node budget of 12.
    """
    pv, tv, costs = pair.pred, pair.truth, pair.costs
    n1, n2 = len(pv.nodes), len(tv.nodes)

    def class_costs(pred_groups, truth_groups):
        # One edge class keyed by ordered node pair: delete-all plus
        # insert-all by broadcasting, the multiset bound where both groups
        # hold edges.
        pred = _group_counts(pred_groups, pair.labels)
        truth = _group_counts(truth_groups, pair.labels)
        pu, pa = np.array(list(pred_groups), dtype=np.intp).reshape(-1, 2).T
        tt, tj = np.array(list(truth_groups), dtype=np.intp).reshape(-1, 2).T
        deleted = np.zeros((n1, n1))
        inserted = np.zeros((n2, n2))
        deleted[pu, pa] = costs.edge_delete * pred.sum(1)
        inserted[tt, tj] = costs.edge_insert * truth.sum(1)
        table = deleted[:, :, None, None] + inserted[None, None, :, :]
        table[pu[:, None], pa[:, None], tt, tj] = _multiset_cost(pred, truth, costs)
        return table, deleted, inserted

    def both_ways(groups):
        return {**groups, **{(b, a): edges for (a, b), edges in groups.items()}}

    directed, d_deleted, d_inserted = class_costs(pv.directed, tv.directed)
    anchored = directed + directed.transpose(1, 0, 3, 2)
    deleted = d_deleted + d_deleted.T
    inserted = d_inserted + d_inserted.T
    # The transposed terms count every directed self-loop twice.
    _loops(anchored)[...] = _loops(directed)
    deleted.ravel()[:: n1 + 1] = d_deleted.diagonal()
    inserted.ravel()[:: n2 + 1] = d_inserted.diagonal()
    if pv.bidir or tv.bidir:  # else every bidirectional cost is zero
        bidir, b_deleted, b_inserted = class_costs(both_ways(pv.bidir), both_ways(tv.bidir))
        anchored += bidir
        deleted += b_deleted
        inserted += b_inserted
    return anchored, deleted, inserted


def _edge_sort_key(entry: _Edge):
    edge = entry.edge
    return (entry.norm, edge.value is not None, edge.value or "", edge.src, edge.dst)


def _match_group(
    pred_edges: list[_Edge], truth_edges: list[_Edge]
) -> tuple[list[tuple[_Edge, _Edge]], list[_Edge], list[_Edge]]:
    """Deterministic pairing within one edge group: equal normalized values
    first, then leftovers in sorted order as substitutions."""
    if len(pred_edges) == 1 and len(truth_edges) <= 1:
        # One edge against at most one: they pair whatever their values.
        return list(zip(pred_edges, truth_edges)), pred_edges[len(truth_edges):], []
    pred_sorted = sorted(pred_edges, key=_edge_sort_key)
    truth_sorted = sorted(truth_edges, key=_edge_sort_key)
    remaining = defaultdict(list)
    for te in truth_sorted:
        remaining[te.norm].append(te)
    pairs: list[tuple[_Edge, _Edge]] = []
    leftover_pred: list[_Edge] = []
    for pe in pred_sorted:
        bucket = remaining.get(pe.norm)
        if bucket:
            pairs.append((pe, bucket.pop(0)))
        else:
            leftover_pred.append(pe)
    leftover_truth = [te for bucket in remaining.values() for te in bucket]
    leftover_truth.sort(key=_edge_sort_key)
    paired = min(len(leftover_pred), len(leftover_truth))
    pairs.extend(zip(leftover_pred[:paired], leftover_truth[:paired]))
    return pairs, leftover_pred[paired:], leftover_truth[paired:]


def _path_key(op: EditOp):
    """Place of an op in the canonical edit path: its phase, then its id or
    its edge."""
    edge = op.pred_edge or op.truth_edge
    if edge is None:
        return _PATH_ORDER.index(op.kind), op.truth_id if op.pred_id is None else op.pred_id
    return _PATH_ORDER.index(op.kind), (edge.src, edge.dst, edge.value or "", edge.bidirectional)


def _result_from_mapping(pair: _Pair, mapping: list[int | None], exact: bool) -> GedResult:
    """Price a node assignment and emit its canonical edit path."""
    pred_view, truth_view, costs = pair.pred, pair.truth, pair.costs
    ops: list[EditOp] = []
    nodes_detected = edges_detected = 0
    for i, j in enumerate(mapping):
        pn = pred_view.nodes[i]
        if j is None:
            ops.append(EditOp("delete-node", costs.node_delete, pred_id=pn.id))
            continue
        tn = truth_view.nodes[j]
        nodes_detected += 1
        cost = 0.0 if pred_view.norm[i] == truth_view.norm[j] else costs.node_substitute
        if cost > 0 or pn.id != tn.id or pn.value != tn.value:
            ops.append(
                EditOp("substitute-node", cost, pred_id=pn.id, truth_id=tn.id, value=tn.value)
            )
    used_truth = set(mapping)
    for j, tn in enumerate(truth_view.nodes):
        if j not in used_truth:
            ops.append(EditOp("insert-node", costs.node_insert, truth_id=tn.id, value=tn.value))

    # A directed group maps to its ordered truth key, a bidirectional group
    # to the (min, max) key it is stored under.
    for bidirectional in (False, True):
        pred_groups = pred_view.bidir if bidirectional else pred_view.directed
        truth_groups = truth_view.bidir if bidirectional else truth_view.directed
        unhandled = set(truth_groups)
        for a, b in sorted(pred_groups):
            ta, tb = mapping[a], mapping[b]
            truth_edges = []
            if ta is not None and tb is not None:
                tkey = (min(ta, tb), max(ta, tb)) if bidirectional else (ta, tb)
                truth_edges = truth_groups.get(tkey, [])
                unhandled.discard(tkey)
            pairs, deleted, inserted = _match_group(pred_groups[(a, b)], truth_edges)
            for (pe, pnorm, _), (te, tnorm, _) in pairs:
                edges_detected += 1
                cost = 0.0 if pnorm == tnorm else costs.edge_substitute
                mapped_src = truth_view.ids[mapping[pred_view.index[pe.src]]]
                mapped_dst = truth_view.ids[mapping[pred_view.index[pe.dst]]]
                if cost > 0 or pe.value != te.value or (mapped_src, mapped_dst) != (te.src, te.dst):
                    ops.append(EditOp("substitute-edge", cost, pred_edge=pe, truth_edge=te))
            for pe, _, _ in deleted:
                ops.append(EditOp("delete-edge", costs.edge_delete, pred_edge=pe))
            for te, _, _ in inserted:
                ops.append(EditOp("insert-edge", costs.edge_insert, truth_edge=te))
        for tkey in sorted(unhandled):
            for te, _, _ in sorted(truth_groups[tkey], key=_edge_sort_key):
                ops.append(EditOp("insert-edge", costs.edge_insert, truth_edge=te))

    # Summed in the order the ops were made, which fixes the float result;
    # ops left out of the path cost nothing.
    distance = 0.0
    for op in ops:
        distance += op.cost
    pairs = tuple(
        (pred_view.ids[i], truth_view.ids[j])
        for i, j in enumerate(mapping)
        if j is not None
    )
    return GedResult(
        distance=distance,
        edit_path=tuple(sorted(ops, key=_path_key)),
        exact=exact,
        nodes_detected=nodes_detected,
        edges_detected=edges_detected,
        mapping=pairs,
    )


def ged_exact(
    predicted: FlowGraph,
    truth: FlowGraph,
    costs: CostModel | None = None,
    node_budget: int = 12,
) -> GedResult:
    """Minimum-cost edit distance via A* over node assignments."""
    n1, n2 = len(predicted.nodes), len(truth.nodes)
    if max(n1, n2) > node_budget:
        raise GraphTooLargeError(max(n1, n2), node_budget)
    costs = costs or CostModel()
    pair = _Pair(predicted, truth, costs)
    pv, tv = pair.pred, pair.truth

    # free[k][c]: label counts of the class-c (directed, bidirectional) pred
    # edges with both endpoints undecided at depth k, loops excluded: the
    # part of the edge set the assignment bound cannot anchor.
    free = [[[0] * pair.labels, [0] * pair.labels] for _ in range(n1 + 1)]
    for c, groups in enumerate((pv.directed, pv.bidir)):
        for (a, b), edges in groups.items():
            if a != b:
                for edge in edges:
                    for counts in free[: min(a, b) + 1]:
                        counts[c][edge.label] += 1
    # The truth edges, loops excluded, as an endpoint bitmask, a class and a
    # label, for counting those whose endpoints are both unused.
    loose = [
        ((1 << a) | (1 << b), c, edge.label)
        for c, groups in enumerate((tv.directed, tv.bidir))
        for (a, b), edges in groups.items()
        if a != b
        for edge in edges
    ]
    # A class with no such edge on either side adds nothing to any bound.
    classes = [c for c in (0, 1) if any(free[0][c]) or any(c == e[1] for e in loose)]

    anchored, deleted, inserted = _anchor_costs(pair)
    # A state's cost rows: row u < n1 prices deciding pred node u as truth
    # node t, or deleting it at column n2, row n1 prices inserting t, each
    # with the edges to the state's decided nodes. Flat, with one infinite
    # and one zero cell after them for the assignment matrix to read (see
    # ``_bound_index``). The root's rows are the node costs plus self-loops.
    width = n2 + 1
    cells = (n1 + 1) * width
    root = np.zeros(cells + 2)
    root[cells] = np.inf
    base = root[:cells].reshape(n1 + 1, width)
    base[:n1, :n2] = pair.node_costs + _loops(anchored)
    base[:n1, n2] = costs.node_delete + deleted.diagonal()
    base[n1, :n2] = costs.node_insert + inserted.diagonal()
    # step[a, j] is what deciding pred node a as truth node j (j == n2 for a
    # deletion) adds to a state's cost rows: the edges between a and every
    # other node u priced by how u is decided. At [u, t] it is the cost of
    # matching the edges between u and a to those between t and j, at
    # [u, n2] deleting the edges between u and a, at [n1, t] inserting those
    # between t and j. A deletion deletes the edges between u and a however
    # u is decided, and anchors no truth edge. The two cells after the rows
    # stay zero. It holds n1 * (n2 + 1) * ((n1 + 1) * (n2 + 1) + 2) floats:
    # 213 KB at 12 nodes.
    step = np.zeros((n1, width, cells + 2))
    step_rows = step[:, :, :cells].reshape(n1, width, n1 + 1, width)
    step_rows[:, :n2, :n1, :n2] = anchored.transpose(1, 3, 0, 2)
    step_rows[:, :n2, :n1, n2] = deleted.T[:, None, :]
    step_rows[:, :n2, n1, :n2] = inserted.T[None, :, :]
    step_rows[:, n2, :n1, :] = deleted.T[:, :, None]
    # The used-mask bit of each decision; a deletion uses no truth node.
    bits = [1 << j for j in range(n2)] + [0]
    # Used mask -> per class, the label counts of the loose truth edges with
    # no endpoint used.
    pending_at: dict[int, list[list[int]]] = {}

    def lower_bound(k: int, used_mask: int, state: np.ndarray) -> float:
        """Assignment lower bound of a state with k decided pred nodes and
        cost rows ``state``. An edge with a decided endpoint resolves the
        moment its other endpoint is decided, so the rows price it exactly
        per candidate decision. Edges with both endpoints open fall back to
        the multiset relaxation of ``free[k]`` against the used mask's
        cached pending truth counts; the two parts cover disjoint edge sets,
        so the sum stays admissible. At depth n1 the bound is exact: the
        cost of the truth nodes and edges still to insert."""
        matrix = state[k * width:].take(_bound_index(n1 - k, n2, used_mask))
        rows, cols = linear_sum_assignment(matrix)
        bound = float(np.add.reduce(matrix[rows, cols]))
        if classes:
            pending = pending_at.get(used_mask)
            if pending is None:
                pending = pending_at[used_mask] = [[0] * pair.labels, [0] * pair.labels]
                for ends, c, label in loose:
                    if not ends & used_mask:
                        pending[c][label] += 1
            open_cost = 0.0
            for c in classes:
                open_cost += _count_cost(free[k][c], pending[c], costs)
            bound += open_cost
        return bound

    # Heap entries: (key, decisions, used mask, g, parent's cost rows,
    # bounded). Truth nodes are numbered in id order, deletion (n2) last, so
    # equal keys pop in truth-id order of decisions, the deterministic
    # tie-break; no two states share decisions, so entries never compare past
    # them. Keys follow pathmax: a child enters unbounded under the larger of
    # its parent's key and its g; popped, it gets its bound h and re-enters
    # under the larger of that key and g + h. The parent's key bounds every
    # completion through the child from below, so every key stays a lower
    # bound, and a bounded state at depth n1 is a complete edit path whose
    # key is its cost. No push is below the key just popped, so popped keys
    # never decrease. An unbounded key is never above the bounded one, so
    # bounded states pop in the order they would if every child were
    # bounded when made. Queued states hold only their parent's rows and add
    # their own step when bounded and again when expanded, so one array
    # serves all of a parent's children.
    heap: list = [(lower_bound(0, 0, root), (), 0, 0.0, root, True)]
    while heap:
        key, decisions, used_mask, g, parent_state, bounded = heapq.heappop(heap)
        k = len(decisions)
        if bounded and k == n1:
            mapping = [None if j == n2 else j for j in decisions]
            result = _result_from_mapping(pair, mapping, exact=True)
            assert abs(result.distance - key) < 1e-6, "internal cost mismatch"
            return result
        state = parent_state + step[k - 1, decisions[-1]] if decisions else parent_state
        if not bounded:
            key = max(key, g + lower_bound(k, used_mask, state))
            heapq.heappush(heap, (key, decisions, used_mask, g, parent_state, True))
            continue
        for j, cost in enumerate(state[k * width:(k + 1) * width].tolist()):
            if used_mask & bits[j]:
                continue
            new_g = g + cost
            heapq.heappush(
                heap, (max(key, new_g), decisions + (j,), used_mask | bits[j], new_g, state, False)
            )
    raise AssertionError("A* search exhausted without a terminal state")


def ged_approx(
    predicted: FlowGraph, truth: FlowGraph, costs: CostModel | None = None
) -> GedResult:
    """Upper-bound edit distance from one node-level linear assignment.

    The assignment matrix prices mapping node u to node v as the value
    substitution cost plus a local mismatch estimate over the edge-label
    multisets around u and v; unmapped nodes pay plain delete or insert.
    Pairs whose mapping is not strictly cheaper than delete plus insert are
    unmapped again, and the surviving assignment is priced exactly.
    """
    pair = _Pair(predicted, truth, costs or CostModel())
    return _result_from_mapping(pair, _approx_mapping(pair), exact=False)


def _approx_mapping(pair: _Pair) -> list[int | None]:
    """The node assignment of ``ged_approx``: truth index or None (deleted)
    for each pred node."""
    pv, tv, costs = pair.pred, pair.truth, pair.costs
    n1 = len(pv.nodes)
    if n1 == 0 or not tv.nodes:
        return [None] * n1
    outgoing, incoming, bidirectional = _multiset_cost(
        _signature_counts(pv, pair.labels), _signature_counts(tv, pair.labels), costs
    )
    base = pair.node_costs + (outgoing + incoming + bidirectional)
    unmapped_pair = costs.node_delete + costs.node_insert
    renamed = np.array([[pid != tid for tid in tv.ids] for pid in pv.ids])
    matrix = np.minimum(base, unmapped_pair) + np.where(renamed, _ID_TIE_EPS, 0.0)
    rows, cols = linear_sum_assignment(matrix)
    mapping: list[int | None] = [None] * n1
    for i, j in zip(rows, cols):
        # Keep the pair only when mapping strictly beats delete + insert.
        if base[i, j] < unmapped_pair:
            mapping[i] = int(j)
    return mapping


def _edited_node(node_id: str, value: str, shape: NodeShape) -> FlowNode:
    """A node as an edit leaves it. Shapes are outside the cost model, so a
    node whose value ends empty becomes a connector, the one shape that may
    hold an empty value."""
    return FlowNode(id=node_id, value=value, shape=shape if value else NodeShape.CONNECTOR)


def apply_edit_path(graph: FlowGraph, edit_path: tuple[EditOp, ...]) -> FlowGraph:
    """Apply an edit path returned by a solver to its predicted graph.

    Inserted nodes take shape Unspecified and substituted nodes keep theirs,
    except that a node whose new value is empty takes shape Connector."""
    nodes = list(graph.nodes)
    edges = list(graph.edges)
    for op in edit_path:
        if op.kind == "delete-edge":
            edges.remove(op.pred_edge)
    deleted_nodes = {op.pred_id for op in edit_path if op.kind == "delete-node"}
    nodes = [n for n in nodes if n.id not in deleted_nodes]
    renames = {
        op.pred_id: (op.truth_id, op.value)
        for op in edit_path
        if op.kind == "substitute-node"
    }
    nodes = [
        _edited_node(*renames[n.id], n.shape)
        if n.id in renames
        else n
        for n in nodes
    ]
    id_map = {pred_id: new_id for pred_id, (new_id, _value) in renames.items()}
    edges = [
        replace(e, src=id_map.get(e.src, e.src), dst=id_map.get(e.dst, e.dst))
        for e in edges
    ]
    for op in edit_path:
        if op.kind == "insert-node":
            nodes.append(_edited_node(op.truth_id, op.value, NodeShape.UNSPECIFIED))
    for op in edit_path:
        if op.kind == "substitute-edge":
            current = replace(
                op.pred_edge,
                src=id_map.get(op.pred_edge.src, op.pred_edge.src),
                dst=id_map.get(op.pred_edge.dst, op.pred_edge.dst),
            )
            edges[edges.index(current)] = op.truth_edge
    for op in edit_path:
        if op.kind == "insert-edge":
            edges.append(op.truth_edge)
    return FlowGraph(nodes=tuple(nodes), edges=tuple(edges), graph_id=graph.graph_id)


def content_signature(graph: FlowGraph):
    """The part of a graph that edit distance sees: ids and values of nodes,
    plus edge records without line styles. Shapes are decoration."""
    return (
        tuple(sorted((n.id, n.value) for n in graph.nodes)),
        tuple(
            sorted(
                (e.src, e.dst, e.value is not None, e.value or "", e.bidirectional)
                for e in graph.edges
            )
        ),
    )


@dataclass(frozen=True)
class PairScore:
    graph_id: str
    truth_nodes: int
    truth_edges: int
    predicted_parsed: bool
    result: GedResult


def _mean(attribute: str) -> property:
    """Read-only average of one ``PairScore`` attribute over a report."""
    value = operator.attrgetter(attribute)
    return property(lambda self: sum(map(value, self.pair_scores)) / len(self.pair_scores))


@dataclass(frozen=True)
class GedReport:
    label: str
    pair_scores: tuple[PairScore, ...]
    avg_truth_nodes = _mean("truth_nodes")
    avg_truth_edges = _mean("truth_edges")
    avg_nodes_detected = _mean("result.nodes_detected")
    avg_edges_detected = _mean("result.edges_detected")
    avg_distance = _mean("result.distance")

    def __post_init__(self):
        if not self.pair_scores:
            raise ValueError("a GED report needs at least one pair")

    def row(self) -> tuple[float, float, float, float, float]:
        return (
            self.avg_truth_nodes,
            self.avg_truth_edges,
            self.avg_nodes_detected,
            self.avg_edges_detected,
            self.avg_distance,
        )


# Fewest pairs per process, the caller's included, before scoring spreads
# over processes. On a 2-vCPU Xeon VM with scipy loaded, forking, using and
# stopping a one-worker pool costs about 13 ms, and the benchmark's ged
# workload pairs take 0.56 ms on average (median 0.38 ms), so two processes
# break even near 70 pairs: its first 64 seed-3 pairs took 31 ms forked
# against 30 ms in process, its first 96 took 44 against 46 ms.
_PAIRS_PER_PROCESS = 32

# What a forked worker scores: (pairs, costs, node_budget, counter), set
# once per worker by ``_start_worker`` and never in the calling process.
_worker_job: tuple | None = None


def _score_pair(
    predicted: FlowGraph | None, truth: FlowGraph, costs: CostModel, node_budget: int
) -> PairScore:
    parsed = predicted is not None
    pred_graph = predicted if predicted is not None else FlowGraph()
    if max(len(pred_graph.nodes), len(truth.nodes)) <= node_budget:
        result = ged_exact(pred_graph, truth, costs, node_budget)
    else:
        result = ged_approx(pred_graph, truth, costs)
    return PairScore(
        graph_id=truth.graph_id,
        truth_nodes=len(truth.nodes),
        truth_edges=len(truth.edges),
        predicted_parsed=parsed,
        result=result,
    )


def _start_worker(pairs, costs: CostModel, node_budget: int, counter) -> None:
    global _worker_job
    _worker_job = (pairs, costs, node_budget, counter)


def _claims(counter, count: int) -> Iterable[int]:
    """Pair indices claimed from the shared ``counter``, one at a time, until
    every one of the ``count`` pairs is claimed. A claim takes about a
    microsecond under the counter's lock."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= count:
            return
        yield i


def _score_claims() -> list[tuple[int, PairScore]]:
    """A worker's share: each pair it claims, scored, with its input index."""
    pairs, costs, node_budget, counter = _worker_job
    return [(i, _score_pair(*pairs[i], costs, node_budget)) for i in _claims(counter, len(pairs))]


def _worker_count(count: int) -> int:
    """Processes to score ``count`` pairs in, the caller's included: one per
    CPU this process may run on, with at least ``_PAIRS_PER_PROCESS`` pairs
    each. Forked workers inherit the pairs without pickling, but forking a
    process that runs other threads can deadlock the child, so without
    ``fork`` or with a second thread running the answer is 1."""
    if (
        not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), count // _PAIRS_PER_PROCESS)


def _score_in_processes(pairs, costs: CostModel, node_budget: int, workers: int) -> list:
    """Score the pairs in this process and ``workers - 1`` forked ones, in
    input order. Every side claims its next pairs from one counter made
    before the fork, so only the workers' scores are pickled, and the
    caller's caches outlive the call. A worker that dies or raises stops
    the caller's claims; a caller that raises takes every claim left, so
    each worker stops after its current pair. Every worker is gone when
    this returns or raises."""
    context = multiprocessing.get_context("fork")
    counter = context.Value("q", 0)
    pool = ProcessPoolExecutor(
        workers - 1,
        mp_context=context,
        initializer=_start_worker,
        initargs=(pairs, costs, node_budget, counter),
    )
    scores: list = [None] * len(pairs)
    try:
        try:
            shares = [pool.submit(_score_claims) for _ in range(workers - 1)]
            for i in _claims(counter, len(pairs)):
                scores[i] = _score_pair(*pairs[i], costs, node_budget)
                # A share is done once every pair is claimed or its worker
                # died or raised; either way the caller claims no more.
                if any(share.done() for share in shares):
                    break
        finally:
            # However the caller stopped, no worker claims another pair.
            with counter.get_lock():
                counter.value = len(pairs)
        for share in shares:
            for i, score in share.result():
                scores[i] = score
    except BrokenProcessPool as exc:
        raise FlowragError(f"a GED worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)
    return scores


def check_node_budget(node_budget: int) -> None:
    """Raise ValueError on a negative or bool ``node_budget``: a negative one
    would silently score every pair by ``ged_approx``."""
    if isinstance(node_budget, bool) or node_budget < 0:
        raise ValueError(f"node budget must be a non-negative integer, got {shown(node_budget)}")


def evaluate_predictions(
    pairs: list[tuple[FlowGraph | None, FlowGraph]],
    costs: CostModel | None = None,
    node_budget: int = 12,
    label: str = "predictions",
) -> GedReport:
    """Score (predicted, truth) pairs and aggregate the report row.

    A ``None`` prediction stands for an unparseable model output and is
    scored as the full reconstruction of the truth graph. Pairs that fit the
    budget use the exact solver, larger ones the approximation. With enough
    pairs and more than one usable CPU (see ``_worker_count``), the caller
    scores beside one forked worker per extra CPU, each side claiming its
    next pair from a shared counter; the scores are the same either way.
    The caller's solver caches fill as it scores and last across calls,
    and each later fork inherits them.
    """
    check_node_budget(node_budget)
    if not pairs:
        raise ValueError("pairs must be non-empty")
    costs = costs or CostModel()
    workers = _worker_count(len(pairs))
    if workers >= 2:
        scores = _score_in_processes(pairs, costs, node_budget, workers)
    else:
        scores = [_score_pair(predicted, truth, costs, node_budget) for predicted, truth in pairs]
    return GedReport(label=label, pair_scores=tuple(scores))


def render_ged_report_markdown(report: GedReport) -> str:
    header = "| Model | " + " | ".join(GED_REPORT_COLUMNS) + " |"
    divider = "|" + "---|" * (len(GED_REPORT_COLUMNS) + 1)
    values = " | ".join(f"{v:.2f}" for v in report.row())
    return "\n".join([header, divider, f"| {report.label} | {values} |"]) + "\n"


def render_ged_report_csv(report: GedReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("Model",) + GED_REPORT_COLUMNS)
    writer.writerow((report.label,) + tuple(f"{v:.2f}" for v in report.row()))
    return buffer.getvalue()
