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
  cost. A state's anchor sums, one (n1 + 1) x (n2 + 1) array (column n2
  deletes, row n1 inserts), add up the slices of a per-pair edge-cost table
  over its decided nodes, deletions included; they are the search's only
  record of decided costs, and a child adds one slice to its parent's. The
  admissible lower bound is a linear assignment over the sums, which prices
  every edge with a decided endpoint exactly, plus a label-count bound on
  the edges with both endpoints open; once every predicted node is decided
  it is exact, so a complete state is priced by its bound like any other.
  The bound is lazy: a child is queued under its path cost g, never above
  its f, and bounded only when popped, so bounded states pop in the order
  they would if every child were bounded when made, and the first bounded
  complete state to pop is minimal. With truth nodes in id order, a
  state's decisions are its tie-break key: ties between minimum-cost
  solutions break toward the assignment vector that maps each node (in
  input order) to the lexicographically smallest truth id, deletion last.
  That tie-break is exact only when the costs sum exactly in binary
  floating point, as unit costs and halves or quarters do; otherwise
  rounding can make one of two equal-cost solutions look cheaper, and the
  search may return another mapping of the same distance.

* ``ged_approx`` solves one linear assignment over node-level costs (value
  substitution plus a local edge-label mismatch estimate, computed for all
  node pairs at once from per-node label-count arrays), then prices the
  edit script induced by that assignment. Among equal-cost assignments the
  solver prefers kept ids, then earlier truth columns, which are in id
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
    counts = np.zeros((len(groups), labels), dtype=np.int64)
    for g, edges in enumerate(groups.values()):
        for edge in edges:
            counts[g, edge.label] += 1
    return counts


def _signature_counts(view: _View, labels: int) -> np.ndarray:
    """Per node: counts of outgoing, incoming, and bidirectional edge values,
    shape (3, nodes, labels), for the local estimate of the approximate
    solver."""
    counts = np.zeros((3, len(view.nodes), labels), dtype=np.int64)
    for (si, di), edges in view.directed.items():
        for edge in edges:
            counts[0, si, edge.label] += 1
            counts[1, di, edge.label] += 1
    for (a, b), edges in view.bidir.items():
        for edge in edges:
            counts[2, a, edge.label] += 1
            if b != a:
                counts[2, b, edge.label] += 1
    return counts


def _multiset_cost(c1: np.ndarray, c2: np.ndarray, costs: CostModel) -> np.ndarray:
    """Optimal matching cost of value multisets given as label counts (last
    axis; the other axes broadcast): equal values pair for free, leftovers
    pair as substitutions, the remainder is deleted or inserted. This is
    exact for a {0, substitute} cost matrix because substitute <= delete +
    insert."""
    common = np.minimum(c1, c2).sum(-1)
    m1 = c1.sum(-1) - common
    m2 = c2.sum(-1) - common
    paired = np.minimum(m1, m2)
    return (
        paired * costs.edge_substitute
        + (m1 - paired) * costs.edge_delete
        + (m2 - paired) * costs.edge_insert
    )


def _count_cost(c1: list[int], c2: list[int], costs: CostModel) -> float:
    """``_multiset_cost`` of one pair of label-count lists in Python ints and
    floats: the same operations in the same order, hence the same float."""
    common = sum(map(min, c1, c2))
    m1 = sum(c1) - common
    m2 = sum(c2) - common
    paired = min(m1, m2)
    return (
        paired * costs.edge_substitute
        + (m1 - paired) * costs.edge_delete
        + (m2 - paired) * costs.edge_insert
    )


@lru_cache(maxsize=256)  # 169 shapes at the default node budget of 12
def _assignment_layout(m1: int, m2: int) -> tuple[np.ndarray, np.ndarray]:
    """The square assignment matrix of m1 pred and m2 truth nodes before its
    costs (forbidden cells infinite, so no scale of costs lets the assignment
    take one) and the flat cell of each entry of an (m1 + 1) x (m2 + 1) cost
    block, row major, bar the unused corner: [u, t] maps u to t, [u, m2]
    deletes u at [u, m2 + u], [m1, t] inserts t at [m1 + t, t]."""
    size = m1 + m2
    template = np.full((size, size), np.inf)
    template[m1:, m2:] = 0.0
    rows, cols = np.ogrid[: m1 + 1, : m2 + 1]
    cells = ((rows + (rows == m1) * cols) * size + cols + (cols == m2) * rows).ravel()[:-1]
    template.flags.writeable = cells.flags.writeable = False  # shared by every call
    return template, cells


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
        table[pu[:, None], pa[:, None], tt, tj] = _multiset_cost(
            pred[:, None, :], truth[None, :, :], costs
        )
        return table, deleted, inserted

    def both_ways(groups):
        return {**groups, **{(b, a): edges for (a, b), edges in groups.items()}}

    directed, d_deleted, d_inserted = class_costs(pv.directed, tv.directed)
    bidir, b_deleted, b_inserted = class_costs(both_ways(pv.bidir), both_ways(tv.bidir))
    anchored = directed + directed.transpose(1, 0, 3, 2) + bidir
    deleted = d_deleted + d_deleted.T + b_deleted
    inserted = d_inserted + d_inserted.T + b_inserted
    # The transposed terms count every directed self-loop twice.
    u, t = np.ix_(np.arange(n1), np.arange(n2))
    anchored[u, u, t, t] = directed[u, u, t, t] + bidir[u, u, t, t]
    np.fill_diagonal(deleted, d_deleted.diagonal() + b_deleted.diagonal())
    np.fill_diagonal(inserted, d_inserted.diagonal() + b_inserted.diagonal())
    return anchored, deleted, inserted


def _edge_sort_key(entry: _Edge):
    edge = entry.edge
    return (entry.norm, edge.value is not None, edge.value or "", edge.src, edge.dst)


def _match_group(
    pred_edges: list[_Edge], truth_edges: list[_Edge]
) -> tuple[list[tuple[_Edge, _Edge]], list[_Edge], list[_Edge]]:
    """Deterministic pairing within one edge group: equal normalized values
    first, then leftovers in sorted order as substitutions."""
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
    free = np.zeros((n1 + 1, 2, pair.labels), dtype=np.int64)
    for c, groups in enumerate((pv.directed, pv.bidir)):
        for (a, b), edges in groups.items():
            if a != b:
                for edge in edges:
                    free[: min(a, b) + 1, c, edge.label] += 1
    free = free.tolist()
    # The truth edges, loops excluded, as an endpoint bitmask, a class and a
    # label, for counting those whose endpoints are both unused.
    loose = [
        ((1 << a) | (1 << b), c, edge.label)
        for c, groups in enumerate((tv.directed, tv.bidir))
        for (a, b), edges in groups.items()
        if a != b
        for edge in edges
    ]

    anchored, deleted, inserted = _anchor_costs(pair)
    # base[u, t] prices deciding pred node u as truth node t, self-loops
    # included; column n2 is deleting u, row n1 is inserting t.
    base = np.zeros((n1 + 1, n2 + 1))
    base[:n1, :n2] = pair.node_costs + np.einsum("uutt->ut", anchored)
    base[:n1, n2] = costs.node_delete + deleted.diagonal()
    base[n1, :n2] = costs.node_insert + inserted.diagonal()
    # step[a, j] is what deciding pred node a as truth node j (j == n2 for a
    # deletion) adds to a state's anchor sums: the edges between a and every
    # other node u priced by how u is decided. At [u, t] it is the cost of
    # matching the edges between u and a to those between t and j, at
    # [u, n2] deleting the edges between u and a, at [n1, t] inserting those
    # between t and j. A deletion deletes the edges between u and a however
    # u is decided, and anchors no truth edge. It holds
    # n1 * (n2 + 1) * (n1 + 1) * (n2 + 1) floats: 211 KB at 12 nodes.
    step = np.zeros((n1, n2 + 1, n1 + 1, n2 + 1))
    step[:, :n2, :n1, :n2] = anchored.transpose(1, 3, 0, 2)
    step[:, :n2, :n1, n2] = deleted.T[:, None, :]
    step[:, :n2, n1, :n2] = inserted.T[None, :, :]
    step[:, n2, :n1, :] = deleted.T[:, :, None]
    # The used-mask bit of each decision; a deletion uses no truth node.
    bits = [1 << j for j in range(n2)] + [0]
    # Used mask -> the open columns (unused truth nodes and deletion) and the
    # per-class label counts of the loose truth edges with no endpoint used.
    open_truth: dict[int, tuple[np.ndarray, list[list[int]]]] = {}

    def lower_bound(k: int, used_mask: int, sums: np.ndarray) -> float:
        """Assignment lower bound of a state with k decided pred nodes.
        ``sums`` is the state's anchor sums: ``step`` summed over its
        decisions in ascending order. An edge with a decided endpoint
        resolves the moment its other endpoint is decided, so the sums price
        it exactly per candidate decision, put into a copy of the cached
        matrix template of the state's shape. Edges with both endpoints open
        fall back to the multiset relaxation of ``free[k]`` against the used
        mask's cached pending truth counts; the two parts cover disjoint edge
        sets, so the sum stays admissible. At depth n1 the bound is exact:
        the cost of the truth nodes and edges still to insert."""
        opened = open_truth.get(used_mask)
        if opened is None:
            pending = [[0] * pair.labels, [0] * pair.labels]
            for ends, c, label in loose:
                if not ends & used_mask:
                    pending[c][label] += 1
            columns = np.array([j for j in range(n2 + 1) if not used_mask & bits[j]])
            opened = open_truth[used_mask] = columns, pending
        columns, (directed, bidirectional) = opened
        template, cells = _assignment_layout(n1 - k, len(columns) - 1)
        matrix = template.copy()
        matrix.put(cells, (base[k:] + sums[k:])[:, columns].ravel()[:-1])
        rows, cols = linear_sum_assignment(matrix)
        return float(matrix[rows, cols].sum()) + (
            _count_cost(free[k][0], directed, costs)
            + _count_cost(free[k][1], bidirectional, costs)
        )

    # Heap entries: (f, decisions, used mask, g, parent's anchor sums,
    # bounded). Truth nodes are numbered in id order, deletion (n2) last, so
    # equal f values pop in truth-id order of decisions, the deterministic
    # tie-break; no two states share decisions, so entries never compare past
    # them. A child enters unbounded under its g, which is never above its
    # f; popped, it gets its bound and re-enters under f = g + h. Bounded
    # states therefore pop in the order they would if every child were
    # bounded when made, and a bounded state at depth n1 is a complete edit
    # path of cost f. Queued states hold only their parent's sums and add
    # their own step when bounded and again when expanded, so one array
    # serves all of a parent's children.
    start_sums = np.zeros((n1 + 1, n2 + 1))
    heap: list = [(lower_bound(0, 0, start_sums), (), 0, 0.0, start_sums, True)]
    while heap:
        f, decisions, used_mask, g, parent_sums, bounded = heapq.heappop(heap)
        k = len(decisions)
        if bounded and k == n1:
            mapping = [None if j == n2 else j for j in decisions]
            result = _result_from_mapping(pair, mapping, exact=True)
            assert abs(result.distance - f) < 1e-6, "internal cost mismatch"
            return result
        sums = parent_sums + step[k - 1, decisions[-1]] if decisions else parent_sums
        if not bounded:
            f = g + lower_bound(k, used_mask, sums)
            heapq.heappush(heap, (f, decisions, used_mask, g, parent_sums, True))
            continue
        row = base[k] + sums[k]
        for j in range(n2 + 1):
            if used_mask & bits[j]:
                continue
            new_g = g + float(row[j])
            heapq.heappush(
                heap, (new_g, decisions + (j,), used_mask | bits[j], new_g, sums, False)
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
        _signature_counts(pv, pair.labels)[:, :, None, :],
        _signature_counts(tv, pair.labels)[:, None, :, :],
        costs,
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


# Fewest pairs per process before scoring spreads over processes: the
# median exact pair costs about 0.44 ms, so 32 pairs are about 14 ms of work
# against about 3 ms to start and stop a two-process pool.
_PAIRS_PER_PROCESS = 32
# Pairs per task a worker process takes: each task is one pickled round
# trip, which costs about as much as the median pair.
_PAIRS_PER_TASK = 12

# What a worker process scores: (pairs, costs, node_budget), set once per
# worker by ``_start_worker`` and never in the calling process.
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


def _start_worker(pairs, costs: CostModel, node_budget: int) -> None:
    global _worker_job
    _worker_job = (pairs, costs, node_budget)


def _score_at(index: int) -> PairScore:
    pairs, costs, node_budget = _worker_job
    predicted, truth = pairs[index]
    return _score_pair(predicted, truth, costs, node_budget)


def _worker_count(count: int) -> int:
    """Processes to score ``count`` pairs in: one per CPU this process may
    run on, with at least ``_PAIRS_PER_PROCESS`` pairs each. Forked workers
    inherit the pairs without pickling, but forking a process that runs
    other threads can deadlock the child, so without ``fork`` or with a
    second thread running the answer is 1."""
    if (
        not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), count // _PAIRS_PER_PROCESS)


def _score_in_processes(pairs, costs: CostModel, node_budget: int, workers: int) -> list:
    """Score the pairs on ``workers`` forked processes, in input order. Every
    worker is gone when this returns or raises."""
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(pairs, costs, node_budget),
    )
    try:
        return list(pool.map(_score_at, range(len(pairs)), chunksize=_PAIRS_PER_TASK))
    except BrokenProcessPool as exc:
        raise FlowragError(f"a GED worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def evaluate_predictions(
    pairs: list[tuple[FlowGraph | None, FlowGraph]],
    costs: CostModel | None = None,
    node_budget: int = 12,
    label: str = "predictions",
) -> GedReport:
    """Score (predicted, truth) pairs and aggregate the report row.

    A ``None`` prediction stands for an unparseable model output and is
    scored as the full reconstruction of the truth graph. Pairs that fit the
    budget use the exact solver, larger ones the approximation. Pairs are
    spread over one process per usable CPU when there are enough of them
    (see ``_worker_count``); the scores are the same either way.
    """
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
