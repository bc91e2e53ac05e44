"""Attributed graph edit distance between flowchart graphs.

Two solvers over the same cost semantics:

* ``ged_exact`` runs an A* search over injective node assignments. Nodes are
  compared by value after normalization (case-fold, whitespace collapse);
  the edges induced by an assignment are compared by direction class and
  value. Bidirectional edges only ever match bidirectional edges, as an
  unordered endpoint pair. Node shapes and edge line styles never enter the
  cost. One table, built once per pair, prices the edges between every
  pair of predicted nodes against the edges between every pair of truth
  nodes. Both the step cost of the search and its admissible lower bound
  read it; the bound is a linear assignment that prices edges anchored to
  already-decided nodes exactly. Branches are also pruned against the
  ``ged_approx`` upper bound. Neither the bound nor the pruning loses a
  minimum. Ties between minimum-cost solutions break toward the assignment
  vector that maps each node (in input order) to the lexicographically
  smallest truth id, with deletion ordered last. That tie-break is exact
  only when the costs sum exactly in binary floating point, as unit costs
  and halves or quarters do; otherwise rounding can make one of two
  equal-cost solutions look cheaper, and the search may return another
  mapping of the same distance.

* ``ged_approx`` solves one linear assignment over node-level costs (value
  substitution plus a local edge-label mismatch estimate), then prices the
  edit script induced by that assignment. The result is always a feasible
  edit path, hence an upper bound on the exact distance.

Edit paths contain only operations that change something: costed inserts,
deletes, and substitutions, plus zero-cost substitutions that rewrite an id,
a raw value, or a bidirectional edge's stored orientation. Applying a path
with ``apply_edit_path`` and comparing ``content_signature`` values checks a
result end to end.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import FlowragError
from .graph_model import FlowEdge, FlowGraph, FlowNode

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
    if value is None:
        return ""
    return " ".join(value.split()).casefold()


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
        for name in (
            "node_insert",
            "node_delete",
            "node_substitute",
            "edge_insert",
            "edge_delete",
            "edge_substitute",
        ):
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
        known = {
            "node_insert",
            "node_delete",
            "node_substitute",
            "edge_insert",
            "edge_delete",
            "edge_substitute",
        }
        if not isinstance(data, dict):
            raise ValueError(f"a cost model is a mapping, got {type(data).__name__}")
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown cost keys: {sorted(unknown)}")
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{key} must be a number, got {value!r}")
        return cls(**{k: float(v) for k, v in data.items()})


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


class _View:
    """Index-based projection of a graph for the solvers."""

    def __init__(self, graph: FlowGraph):
        self.graph = graph
        self.nodes = list(graph.nodes)
        self.ids = [n.id for n in self.nodes]
        self.index = {n.id: i for i, n in enumerate(self.nodes)}
        self.norm = [normalize_label(n.value) for n in self.nodes]
        self.directed: dict[tuple[int, int], list[FlowEdge]] = defaultdict(list)
        self.bidir: dict[tuple[int, int], list[FlowEdge]] = defaultdict(list)
        for edge in graph.edges:
            si, di = self.index[edge.src], self.index[edge.dst]
            if edge.bidirectional:
                self.bidir[(min(si, di), max(si, di))].append(edge)
            else:
                self.directed[(si, di)].append(edge)

    def node_signatures(self) -> list[tuple[Counter, Counter, Counter]]:
        """Per node: Counters of outgoing, incoming, and bidirectional edge
        values, for the local estimate used by the approximate solver."""
        out: list[Counter] = [Counter() for _ in self.nodes]
        inc: list[Counter] = [Counter() for _ in self.nodes]
        bi: list[Counter] = [Counter() for _ in self.nodes]
        for (si, di), edges in self.directed.items():
            for edge in edges:
                out[si][normalize_label(edge.value)] += 1
                inc[di][normalize_label(edge.value)] += 1
        for (a, b), edges in self.bidir.items():
            for edge in edges:
                bi[a][normalize_label(edge.value)] += 1
                if b != a:
                    bi[b][normalize_label(edge.value)] += 1
        return list(zip(out, inc, bi))


def _counter_bound(
    c1: Counter, c2: Counter, substitute: float, delete: float, insert: float
) -> float:
    """Optimal matching cost of two value multisets: equal values pair for
    free, leftovers pair as substitutions, the remainder is deleted or
    inserted. This is exact for a {0, substitute} cost matrix because
    substitute <= delete + insert."""
    common = sum((c1 & c2).values())
    m1 = sum(c1.values()) - common
    m2 = sum(c2.values()) - common
    paired = min(m1, m2)
    return paired * substitute + (m1 - paired) * delete + (m2 - paired) * insert


def _edge_counter(edges: list[FlowEdge]) -> Counter:
    return Counter(normalize_label(e.value) for e in edges)


def _anchor_costs(
    pv: _View, tv: _View, costs: CostModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge costs of every pairing of a pred node pair with a truth node pair.

    ``pair[u, a, t, j]`` is the cost of matching the edges between pred nodes
    u and a to the edges between truth nodes t and j: u->a against t->j,
    a->u against j->t, and bidirectional against bidirectional. The diagonal
    u == a, t == j prices the self-loops, directed loops counted once.
    ``deleted[u, a]`` and ``inserted[t, j]`` price deleting or inserting all
    edges between the two nodes. ``pair`` holds n1**2 * n2**2 floats: at
    most 166 KB at the default node budget of 12.
    """
    n1, n2 = len(pv.nodes), len(tv.nodes)

    def class_costs(pred_groups, truth_groups):
        # One edge class keyed by ordered node pair: delete-all plus
        # insert-all by broadcasting, the multiset bound where both groups
        # hold edges.
        pred = {key: _edge_counter(edges) for key, edges in pred_groups.items()}
        truth = {key: _edge_counter(edges) for key, edges in truth_groups.items()}
        deleted = np.zeros((n1, n1))
        inserted = np.zeros((n2, n2))
        for (u, a), values in pred.items():
            deleted[u, a] = costs.edge_delete * sum(values.values())
        for (t, j), values in truth.items():
            inserted[t, j] = costs.edge_insert * sum(values.values())
        table = deleted[:, :, None, None] + inserted[None, None, :, :]
        for (u, a), c1 in pred.items():
            for (t, j), c2 in truth.items():
                table[u, a, t, j] = _counter_bound(
                    c1, c2, costs.edge_substitute, costs.edge_delete, costs.edge_insert
                )
        return table, deleted, inserted

    def both_ways(groups):
        return {**groups, **{(b, a): edges for (a, b), edges in groups.items()}}

    directed, d_deleted, d_inserted = class_costs(pv.directed, tv.directed)
    bidir, b_deleted, b_inserted = class_costs(both_ways(pv.bidir), both_ways(tv.bidir))
    pair = directed + directed.transpose(1, 0, 3, 2) + bidir
    deleted = d_deleted + d_deleted.T + b_deleted
    inserted = d_inserted + d_inserted.T + b_inserted
    # The transposed terms count every directed self-loop twice.
    u, t = np.ix_(np.arange(n1), np.arange(n2))
    pair[u, u, t, t] = directed[u, u, t, t] + bidir[u, u, t, t]
    np.fill_diagonal(deleted, d_deleted.diagonal() + b_deleted.diagonal())
    np.fill_diagonal(inserted, d_inserted.diagonal() + b_inserted.diagonal())
    return pair, deleted, inserted


def _edge_sort_key(edge: FlowEdge):
    return (
        normalize_label(edge.value),
        edge.value is not None,
        edge.value or "",
        edge.src,
        edge.dst,
    )


def _match_group(
    pred_edges: list[FlowEdge], truth_edges: list[FlowEdge]
) -> tuple[list[tuple[FlowEdge, FlowEdge]], list[FlowEdge], list[FlowEdge]]:
    """Deterministic pairing within one edge group: equal normalized values
    first, then leftovers in sorted order as substitutions."""
    pred_sorted = sorted(pred_edges, key=_edge_sort_key)
    truth_sorted = sorted(truth_edges, key=_edge_sort_key)
    remaining = defaultdict(list)
    for te in truth_sorted:
        remaining[normalize_label(te.value)].append(te)
    pairs: list[tuple[FlowEdge, FlowEdge]] = []
    leftover_pred: list[FlowEdge] = []
    for pe in pred_sorted:
        bucket = remaining.get(normalize_label(pe.value))
        if bucket:
            pairs.append((pe, bucket.pop(0)))
        else:
            leftover_pred.append(pe)
    leftover_truth = [te for bucket in remaining.values() for te in bucket]
    leftover_truth.sort(key=_edge_sort_key)
    paired = min(len(leftover_pred), len(leftover_truth))
    pairs.extend(zip(leftover_pred[:paired], leftover_truth[:paired]))
    return pairs, leftover_pred[paired:], leftover_truth[paired:]


def _result_from_mapping(
    pred_view: _View,
    truth_view: _View,
    mapping: list[int | None],
    costs: CostModel,
    exact: bool,
) -> GedResult:
    """Price a node assignment and emit its canonical edit path."""
    distance = 0.0
    node_deletes: list[EditOp] = []
    node_subs: list[EditOp] = []
    node_inserts: list[EditOp] = []
    edge_deletes: list[EditOp] = []
    edge_subs: list[EditOp] = []
    edge_inserts: list[EditOp] = []
    nodes_detected = 0
    edges_detected = 0

    used_truth = {j for j in mapping if j is not None}
    for i, j in enumerate(mapping):
        pn = pred_view.nodes[i]
        if j is None:
            distance += costs.node_delete
            node_deletes.append(
                EditOp(kind="delete-node", cost=costs.node_delete, pred_id=pn.id)
            )
            continue
        tn = truth_view.nodes[j]
        nodes_detected += 1
        cost = 0.0 if pred_view.norm[i] == truth_view.norm[j] else costs.node_substitute
        distance += cost
        if cost > 0 or pn.id != tn.id or pn.value != tn.value:
            node_subs.append(
                EditOp(
                    kind="substitute-node",
                    cost=cost,
                    pred_id=pn.id,
                    truth_id=tn.id,
                    value=tn.value,
                )
            )
    for j, tn in enumerate(truth_view.nodes):
        if j not in used_truth:
            distance += costs.node_insert
            node_inserts.append(
                EditOp(
                    kind="insert-node",
                    cost=costs.node_insert,
                    truth_id=tn.id,
                    value=tn.value,
                )
            )

    def resolve_groups(pred_groups, truth_groups, truth_key):
        nonlocal distance, edges_detected
        handled_truth: set[tuple[int, int]] = set()
        for key in sorted(pred_groups.keys()):
            pred_edges = pred_groups[key]
            tkey = truth_key(key)
            truth_edges = truth_groups.get(tkey, []) if tkey is not None else []
            if tkey is not None:
                handled_truth.add(tkey)
            pairs, deleted, inserted = _match_group(pred_edges, truth_edges)
            for pe, te in pairs:
                edges_detected += 1
                cost = (
                    0.0
                    if normalize_label(pe.value) == normalize_label(te.value)
                    else costs.edge_substitute
                )
                distance += cost
                mapped_src = truth_view.ids[mapping[pred_view.index[pe.src]]]
                mapped_dst = truth_view.ids[mapping[pred_view.index[pe.dst]]]
                if cost > 0 or pe.value != te.value or (mapped_src, mapped_dst) != (
                    te.src,
                    te.dst,
                ):
                    edge_subs.append(
                        EditOp(
                            kind="substitute-edge",
                            cost=cost,
                            pred_edge=pe,
                            truth_edge=te,
                        )
                    )
            for pe in deleted:
                distance += costs.edge_delete
                edge_deletes.append(
                    EditOp(kind="delete-edge", cost=costs.edge_delete, pred_edge=pe)
                )
            for te in inserted:
                distance += costs.edge_insert
                edge_inserts.append(
                    EditOp(kind="insert-edge", cost=costs.edge_insert, truth_edge=te)
                )
        for tkey in sorted(truth_groups.keys()):
            if tkey in handled_truth:
                continue
            for te in sorted(truth_groups[tkey], key=_edge_sort_key):
                distance += costs.edge_insert
                edge_inserts.append(
                    EditOp(kind="insert-edge", cost=costs.edge_insert, truth_edge=te)
                )

    def directed_key(key: tuple[int, int]) -> tuple[int, int] | None:
        a, b = mapping[key[0]], mapping[key[1]]
        if a is None or b is None:
            return None
        return (a, b)

    def bidir_key(key: tuple[int, int]) -> tuple[int, int] | None:
        a, b = mapping[key[0]], mapping[key[1]]
        if a is None or b is None:
            return None
        return (min(a, b), max(a, b))

    resolve_groups(pred_view.directed, truth_view.directed, directed_key)
    resolve_groups(pred_view.bidir, truth_view.bidir, bidir_key)

    def edge_op_key(op: EditOp):
        edge = op.pred_edge or op.truth_edge
        return (edge.src, edge.dst, edge.value or "", edge.bidirectional)

    path = (
        sorted(edge_deletes, key=edge_op_key)
        + sorted(node_deletes, key=lambda op: op.pred_id)
        + sorted(node_subs, key=lambda op: op.pred_id)
        + sorted(node_inserts, key=lambda op: op.truth_id)
        + sorted(edge_subs, key=edge_op_key)
        + sorted(edge_inserts, key=edge_op_key)
    )
    pairs = tuple(
        (pred_view.ids[i], truth_view.ids[j])
        for i, j in enumerate(mapping)
        if j is not None
    )
    return GedResult(
        distance=distance,
        edit_path=tuple(path),
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
    costs = costs or CostModel()
    pv = _View(predicted)
    tv = _View(truth)
    n1, n2 = len(pv.nodes), len(tv.nodes)
    if max(n1, n2) > node_budget:
        raise GraphTooLargeError(max(n1, n2), node_budget)

    # Any feasible edit cost bounds the optimum; children whose lower bound
    # exceeds it can never be minimal and are never pushed.
    upper_bound = (
        ged_approx(predicted, truth, costs).distance + 1e-6 if n1 and n2 else None
    )

    # Pred edges with both endpoints undecided at depth k, loops excluded:
    # the part of the edge set the assignment bound cannot anchor.
    free_directed: list[Counter] = [Counter() for _ in range(n1 + 1)]
    free_bidir: list[Counter] = [Counter() for _ in range(n1 + 1)]
    for groups, free in ((pv.directed, free_directed), (pv.bidir, free_bidir)):
        for (a, b), edges in groups.items():
            if a == b:
                continue
            for edge in edges:
                value = normalize_label(edge.value)
                for k in range(min(a, b) + 1):
                    free[k][value] += 1

    truth_edge_items: list[tuple[int, int, str, bool]] = []
    for (a, b), edges in tv.directed.items():
        for edge in edges:
            truth_edge_items.append((a, b, normalize_label(edge.value), False))
    for (a, b), edges in tv.bidir.items():
        for edge in edges:
            truth_edge_items.append((a, b, normalize_label(edge.value), True))

    pair, deleted, inserted = _anchor_costs(pv, tv, costs)
    # Substituting pred node u by truth node t, self-loops included.
    node_cost = np.array(
        [[0.0 if pn == tn else costs.node_substitute for tn in tv.norm] for pn in pv.norm]
    ).reshape(n1, n2)
    base = node_cost + np.einsum("uutt->ut", pair)
    edge_costs = (costs.edge_substitute, costs.edge_delete, costs.edge_insert)
    big = 1e6

    def lower_bound(decisions: tuple[int | None, ...], used_mask: int) -> float:
        """Assignment lower bound. Edges between a remaining node and a
        mapped one resolve the moment the remaining node is decided, so the
        table prices them exactly per candidate pairing; edges to deleted
        nodes are a constant; edges with both endpoints open fall back to
        the multiset relaxation. The three parts cover disjoint edge sets,
        so the sum stays admissible."""
        k = len(decisions)
        unused = [j for j in range(n2) if not used_mask & (1 << j)]
        mapped = [a for a, j in enumerate(decisions) if j is not None]
        images = [decisions[a] for a in mapped]
        dropped = [a for a, j in enumerate(decisions) if j is None]
        m1, m2 = n1 - k, len(unused)
        matrix = np.full((m1 + m2, m1 + m2), big)
        matrix[m1:, m2:] = 0.0
        matrix[:m1, :m2] = (base[k:] + pair[k:, mapped, :, images].sum(0))[:, unused]
        rows, cols = np.arange(m1), np.arange(m2)
        matrix[rows, m2 + rows] = costs.node_delete + (
            deleted.diagonal() + deleted[:, mapped].sum(1)
        )[k:]
        matrix[m1 + cols, cols] = costs.node_insert + (
            inserted.diagonal() + inserted[:, images].sum(1)
        )[unused]
        rows, cols = linear_sum_assignment(matrix)
        lap = float(matrix[rows, cols].sum())
        pending_directed: Counter = Counter()
        pending_bidir: Counter = Counter()
        for a, b, value, is_bidir in truth_edge_items:
            if a != b and not used_mask & (1 << a) and not used_mask & (1 << b):
                (pending_bidir if is_bidir else pending_directed)[value] += 1
        free = _counter_bound(free_directed[k], pending_directed, *edge_costs)
        free += _counter_bound(free_bidir[k], pending_bidir, *edge_costs)
        return float(deleted[k:, dropped].sum()) + lap + free

    def extension_cost(decisions: tuple[int | None, ...], j: int | None) -> float:
        """Cost added by deciding pred node k = len(decisions) as j."""
        k = len(decisions)
        if j is None:
            return costs.node_delete + float(deleted[k, : k + 1].sum())
        cost = base[k, j]
        for a, phi_a in enumerate(decisions):
            cost += deleted[k, a] if phi_a is None else pair[k, a, j, phi_a]
        return float(cost)

    def completion_cost(decisions: tuple[int | None, ...]) -> float:
        used = {j for j in decisions if j is not None}
        cost = sum(costs.node_insert for j in range(n2) if j not in used)
        for a, b, _value, _is_bidir in truth_edge_items:
            if a not in used or b not in used:
                cost += costs.edge_insert
        return cost

    # Equal f values pop in order of these keys: the deterministic tie-break.
    def decision_key(j: int | None):
        return (1, "") if j is None else (0, tv.ids[j])

    counter = itertools.count()
    # Depth n1 states carry their completion cost; the empty-pred graph is
    # terminal immediately, so it gets the completion up front.
    start_g = completion_cost(()) if n1 == 0 else 0.0
    start_f = start_g + (0.0 if n1 == 0 else lower_bound((), 0))
    heap: list = [(start_f, (), next(counter), (), 0, start_g)]
    while heap:
        f, keys, _seq, decisions, used_mask, g = heapq.heappop(heap)
        k = len(decisions)
        if k == n1:
            result = _result_from_mapping(pv, tv, list(decisions), costs, exact=True)
            assert abs(result.distance - g) < 1e-6, "internal cost mismatch"
            return result
        candidates: list[int | None] = [j for j in range(n2) if not used_mask & (1 << j)]
        candidates.append(None)
        for j in candidates:
            new_decisions = decisions + (j,)
            new_mask = used_mask | (1 << j) if j is not None else used_mask
            new_g = g + extension_cost(decisions, j)
            if upper_bound is not None and new_g > upper_bound:
                continue
            if len(new_decisions) == n1:
                new_g += completion_cost(new_decisions)
                h = 0.0
            else:
                h = lower_bound(new_decisions, new_mask)
            if upper_bound is not None and new_g + h > upper_bound:
                continue
            heapq.heappush(
                heap,
                (
                    new_g + h,
                    keys + (decision_key(j),),
                    next(counter),
                    new_decisions,
                    new_mask,
                    new_g,
                ),
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
    costs = costs or CostModel()
    pv = _View(predicted)
    tv = _View(truth)
    n1, n2 = len(pv.nodes), len(tv.nodes)
    if n1 == 0 or n2 == 0:
        return _result_from_mapping(pv, tv, [None] * n1, costs, exact=False)

    pred_sigs = pv.node_signatures()
    truth_sigs = tv.node_signatures()
    unmapped_pair = costs.node_delete + costs.node_insert
    base = np.empty((n1, n2), dtype=np.float64)
    matrix = np.empty((n1, n2), dtype=np.float64)
    for i in range(n1):
        p_out, p_in, p_bi = pred_sigs[i]
        for j in range(n2):
            t_out, t_in, t_bi = truth_sigs[j]
            sub = 0.0 if pv.norm[i] == tv.norm[j] else costs.node_substitute
            local = (
                _counter_bound(p_out, t_out, costs.edge_substitute, costs.edge_delete, costs.edge_insert)
                + _counter_bound(p_in, t_in, costs.edge_substitute, costs.edge_delete, costs.edge_insert)
                + _counter_bound(p_bi, t_bi, costs.edge_substitute, costs.edge_delete, costs.edge_insert)
            )
            base[i, j] = sub + local
            entry = min(base[i, j], unmapped_pair)
            if pv.ids[i] != tv.ids[j]:
                entry += _ID_TIE_EPS
            matrix[i, j] = entry
    rows, cols = linear_sum_assignment(matrix)
    mapping: list[int | None] = [None] * n1
    for i, j in zip(rows, cols):
        # Keep the pair only when mapping strictly beats delete + insert.
        if base[i, j] < unmapped_pair:
            mapping[i] = int(j)
    return _result_from_mapping(pv, tv, mapping, costs, exact=False)


def apply_edit_path(graph: FlowGraph, edit_path: tuple[EditOp, ...]) -> FlowGraph:
    """Apply an edit path returned by a solver to its predicted graph."""
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
        FlowNode(id=renames[n.id][0], value=renames[n.id][1], shape=n.shape)
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
            nodes.append(FlowNode(id=op.truth_id, value=op.value))
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


@dataclass(frozen=True)
class GedReport:
    label: str
    pair_scores: tuple[PairScore, ...]
    avg_truth_nodes: float = field(init=False)
    avg_truth_edges: float = field(init=False)
    avg_nodes_detected: float = field(init=False)
    avg_edges_detected: float = field(init=False)
    avg_distance: float = field(init=False)

    def __post_init__(self):
        n = len(self.pair_scores)
        object.__setattr__(
            self, "avg_truth_nodes", sum(p.truth_nodes for p in self.pair_scores) / n
        )
        object.__setattr__(
            self, "avg_truth_edges", sum(p.truth_edges for p in self.pair_scores) / n
        )
        object.__setattr__(
            self,
            "avg_nodes_detected",
            sum(p.result.nodes_detected for p in self.pair_scores) / n,
        )
        object.__setattr__(
            self,
            "avg_edges_detected",
            sum(p.result.edges_detected for p in self.pair_scores) / n,
        )
        object.__setattr__(
            self, "avg_distance", sum(p.result.distance for p in self.pair_scores) / n
        )

    def row(self) -> tuple[float, float, float, float, float]:
        return (
            self.avg_truth_nodes,
            self.avg_truth_edges,
            self.avg_nodes_detected,
            self.avg_edges_detected,
            self.avg_distance,
        )


def evaluate_predictions(
    pairs: list[tuple[FlowGraph | None, FlowGraph]],
    costs: CostModel | None = None,
    node_budget: int = 12,
    label: str = "predictions",
) -> GedReport:
    """Score (predicted, truth) pairs and aggregate the report row.

    A ``None`` prediction stands for an unparseable model output and is
    scored as the full reconstruction of the truth graph. Pairs that fit the
    budget use the exact solver, larger ones the approximation.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    costs = costs or CostModel()
    scores = []
    for predicted, truth in pairs:
        parsed = predicted is not None
        pred_graph = predicted if predicted is not None else FlowGraph()
        if max(len(pred_graph.nodes), len(truth.nodes)) <= node_budget:
            result = ged_exact(pred_graph, truth, costs, node_budget)
        else:
            result = ged_approx(pred_graph, truth, costs)
        scores.append(
            PairScore(
                graph_id=truth.graph_id,
                truth_nodes=len(truth.nodes),
                truth_edges=len(truth.edges),
                predicted_parsed=parsed,
                result=result,
            )
        )
    return GedReport(label=label, pair_scores=tuple(scores))


def render_ged_report_markdown(report: GedReport) -> str:
    header = "| Model | " + " | ".join(GED_REPORT_COLUMNS) + " |"
    divider = "|" + "---|" * (len(GED_REPORT_COLUMNS) + 1)
    values = " | ".join(f"{v:.2f}" for v in report.row())
    return "\n".join([header, divider, f"| {report.label} | {values} |"]) + "\n"


def render_ged_report_csv(report: GedReport) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("Model",) + GED_REPORT_COLUMNS)
    writer.writerow((report.label,) + tuple(f"{v:.2f}" for v in report.row()))
    return buffer.getvalue()
