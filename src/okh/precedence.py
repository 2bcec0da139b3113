"""Precedence DAG construction and the canonical evidence ordering.

Four rule families induce a strict partial order over each group's
hyperedges: within-horizon phase ordering, cross-horizon evolution of the
same family toward landfall, within-horizon causal chains, and state-before-
transition edges into cross-horizon change hyperedges. Reachability questions
are answered from transitive-closure bitsets, computed on first use.

The contract: every precedence pair rises in (-lead time, family), the first
two fields of ``_sort_key``. Phase and causal pairs rise in family within one
horizon, evolution pairs fall in lead time within one family, and a change
edge sorts in the last family at the lead of the states it consumes. So no
set of pairs holds a cycle, and the canonical trajectory, a sort by
``_sort_key``, is a topological order. A snapshot pair that does not rise is
refused.
"""

from __future__ import annotations

from functools import cached_property
from enum import Enum
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from okh.errors import SchemaError
from okh.hypergraph import Hyperedge, KnowledgeHypergraph
from okh.relations import CAUSAL_RULES, CROSS_HORIZON_FAMILY, DEFAULT_VOCABULARY


class Order(Enum):
    """Tri-state outcome of a precedence query."""

    BEFORE = "before"
    AFTER = "after"
    UNRELATED = "unrelated"


def effective_lead(edge: Hyperedge) -> float:
    """Lead time used for ordering: own horizon, else the earliest anchor.

    Change edges span two horizons and sort at their origin (largest) lead.
    Edges with no temporal grounding are background context and sort first.
    """
    if edge.horizon is not None:
        return float(edge.horizon)
    anchors = edge.anchor_horizons()
    if anchors:
        return float(anchors[0])
    return float("inf")


def _sort_key(edge: Hyperedge) -> tuple[float, int, int, int, str]:
    canonical = DEFAULT_VOCABULARY.is_canonical(edge.relation)
    return (
        -effective_lead(edge),
        edge.family,
        DEFAULT_VOCABULARY.rank_in_family(edge.relation) if canonical else 0,
        edge.text_position,
        edge.id,
    )


def _direct_edges(edges: Sequence[Hyperedge]) -> set[tuple[str, str]]:
    # No rule pairs an edge with itself: phase pairs cross families,
    # evolution pairs cross horizons, causal rules have disjoint source and
    # target families, and only change pairs end at a change edge.
    pairs: set[tuple[str, str]] = set()

    # Ids of the horizon-grounded edges by horizon, then by family; and by
    # horizon, then by each state stem an edge carries.
    at: dict[int, dict[int, list[str]]] = {}
    stems_at: dict[int, dict[str, list[str]]] = {}
    for edge in edges:
        if edge.family == CROSS_HORIZON_FAMILY or edge.horizon is None:
            continue
        at.setdefault(edge.horizon, {}).setdefault(edge.family, []).append(edge.id)
        for stem in edge.state_stems():
            stems_at.setdefault(edge.horizon, {}).setdefault(stem, []).append(edge.id)

    # Phase: same horizon, ascending family; only consecutive present
    # families are materialized, transitivity supplies the rest.
    for by_family in at.values():
        families = sorted(by_family)
        for earlier, later in zip(families, families[1:]):
            pairs.update(product(by_family[earlier], by_family[later]))

    # Evolution: same family across horizons, in decreasing lead time.
    horizons = sorted(at, reverse=True)
    for family in {family for by_family in at.values() for family in by_family}:
        present = [horizon for horizon in horizons if family in at[horizon]]
        for earlier, later in zip(present, present[1:]):
            pairs.update(product(at[earlier][family], at[later][family]))

    # Causal: the within-horizon chains of CAUSAL_RULES.
    for by_family in at.values():
        for src_families, dst_families, _ in CAUSAL_RULES:
            srcs = [i for family, ids in by_family.items() if family in src_families for i in ids]
            dsts = [i for family, ids in by_family.items() if family in dst_families for i in ids]
            pairs.update(product(srcs, dsts))

    # Change: the before-state precedes the transition that consumes it. The
    # states are read at the change edge's own lead, so the pair rises even
    # where a snapshot gives the edge a horizon its anchors do not carry.
    for change in edges:
        if change.family != CROSS_HORIZON_FAMILY:
            continue
        by_stem = stems_at.get(effective_lead(change), {})
        for stem in change.state_stems():
            pairs.update((src, change.id) for src in by_stem.get(stem, ()))

    return pairs


class GroupPrecedence:
    """Precedence structure for one group's hyperedges: a DAG whose pairs
    rise in (-lead time, family), indexed by sorted edge id. The closure and
    the canonical order wait for their first reader."""

    def __init__(self, edges: Sequence[Hyperedge], successors: dict[str, set[str]]):
        self.edges = edges
        self.successors = successors
        self.edge_ids = sorted(edge.id for edge in edges)
        self.index_of = {edge_id: i for i, edge_id in enumerate(self.edge_ids)}

    @cached_property
    def closure(self) -> list[int]:
        """Each edge's transitive successors as bits ``1 << j`` over
        ``edge_ids``, computed on first use: `okh build` only writes the
        direct pairs, and pair mining only reads ``trajectory``.

        The bits are filled in reverse of a plain Kahn order: every
        topological order gives the same bits, so the sort waits for
        ``trajectory``.
        """
        index_of = self.index_of
        after: list[list[int]] = [[] for _ in self.edge_ids]
        indegree = [0] * len(self.edge_ids)
        for src, dsts in self.successors.items():
            targets = after[index_of[src]] = [index_of[dst] for dst in dsts]
            for j in targets:
                indegree[j] += 1
        order = [i for i, degree in enumerate(indegree) if not degree]
        for i in order:  # the list grows while it is walked
            for j in after[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
        closure = [0] * len(self.edge_ids)
        for i in reversed(order):
            mask = 0
            for j in after[i]:
                mask |= (1 << j) | closure[j]
            closure[i] = mask
        return closure

    @cached_property
    def trajectory(self) -> list[str]:
        """The canonical order of the group's edges, computed on first use.

        Every pair rises in ``_sort_key``, so the sort respects the DAG: ties
        between incomparable edges resolve by descending lead time, then
        family, then in-family relation rank, then text position, then id.
        """
        return [edge.id for edge in sorted(self.edges, key=_sort_key)]

    def reachable(self, src: str, dst: str) -> bool:
        i = self.index_of.get(src)
        j = self.index_of.get(dst)
        if i is None or j is None:
            return False
        return bool(self.closure[i] >> j & 1)

    def direct_pairs(self) -> list[tuple[str, str]]:
        return sorted(
            (src, dst) for src, dsts in self.successors.items() for dst in dsts
        )


def build_precedence(group_edges: Iterable[Hyperedge]) -> GroupPrecedence:
    """Apply the rule families to one group and index the resulting DAG."""
    edges = sorted(group_edges, key=lambda edge: edge.id)
    seen: dict[str, Hyperedge] = {}
    for edge in edges:
        if edge.id in seen:
            raise ValueError(f"duplicate hyperedge id {edge.id}")
        seen[edge.id] = edge
    pairs = _direct_edges(edges)
    successors: dict[str, set[str]] = {}
    for src, dst in pairs:
        successors.setdefault(src, set()).add(dst)
    return GroupPrecedence(edges, successors)


class PrecedenceIndex:
    """Precedence across all groups of a hypergraph."""

    def __init__(self, groups: dict[str, GroupPrecedence]):
        self.groups = groups
        self.group_of: dict[str, str] = {}
        for group, prec in groups.items():
            for edge_id in prec.edge_ids:
                self.group_of[edge_id] = group

    @classmethod
    def build(cls, hypergraph: KnowledgeHypergraph) -> "PrecedenceIndex":
        return cls(
            {
                group: build_precedence(hypergraph.group_edges(group))
                for group in sorted(hypergraph.groups)
            }
        )

    @classmethod
    def from_direct_edges(
        cls,
        hypergraph: KnowledgeHypergraph,
        direct: Mapping[str, Sequence[tuple[str, str]]],
    ) -> "PrecedenceIndex":
        """Index the persisted direct DAG edges.

        A malformed snapshot is refused with SchemaError: at
        ``precedence.<group>`` for a group the graph lacks or a group of the
        graph the block omits, and at ``precedence.<group>[i]`` for a pair
        naming an edge outside the group or a pair that does not rise in
        (-lead time, family), which every cycle holds.
        """
        for group in sorted(direct.keys() ^ hypergraph.groups.keys()):
            if group in direct:
                raise SchemaError(f"precedence.{group}", "no hyperedge belongs to this group")
            raise SchemaError(f"precedence.{group}", "the block omits this group of the graph")
        groups = {}
        for group in sorted(hypergraph.groups):
            edges = hypergraph.group_edges(group)
            rank = {edge.id: (-effective_lead(edge), edge.family) for edge in edges}
            successors: dict[str, set[str]] = {}
            for index, (src, dst) in enumerate(direct[group]):
                if src not in rank or dst not in rank:
                    stray = src if src not in rank else dst
                    raise SchemaError(f"precedence.{group}[{index}]", f"{stray!r} is not in this group")
                if rank[src] >= rank[dst]:
                    raise SchemaError(
                        f"precedence.{group}[{index}]",
                        f"{src!r} does not come before {dst!r} in lead time, then family",
                    )
                successors.setdefault(src, set()).add(dst)
            groups[group] = GroupPrecedence(edges, successors)
        return cls(groups)

    def precedes(self, first: str, second: str) -> Order:
        """Whether one edge must come before or after another, if comparable."""
        group = self.group_of.get(first)
        if group is None or group != self.group_of.get(second) or first == second:
            return Order.UNRELATED
        prec = self.groups[group]
        if prec.reachable(first, second):
            return Order.BEFORE
        if prec.reachable(second, first):
            return Order.AFTER
        return Order.UNRELATED

    def reach_matrix(self, edge_ids: Sequence[str]) -> np.ndarray:
        """Boolean R over a candidate list: R[i, j] iff edge i must precede edge j.

        Edges of different groups, and edges outside the index, never reach.
        """
        rows = self.closure_rows(edge_ids)
        return self.reach_between(rows, rows)

    def closure_rows(self, edge_ids: Sequence[str]) -> np.ndarray:
        """The closure-table row of each edge, for ``reach_between``.

        Edges outside the index get a row that reaches nothing.
        """
        row_of, table, _, _ = self._closure_table
        outside = len(table) - 1
        return np.array([row_of.get(edge_id, outside) for edge_id in edge_ids], dtype=np.intp)

    def reach_between(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Boolean R[i, j]: the edge of closure row ``sources[i]`` must precede
        the edge of closure row ``targets[j]``."""
        _, table, group_of, local_of = self._closure_table
        bits = np.unpackbits(table[sources], axis=1, bitorder="little")
        same_group = group_of[sources, None] == group_of[targets]
        return bits[:, local_of[targets]].view(bool) & same_group

    @cached_property
    def _closure_table(self) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
        """Each edge's closure bits as one row of a packed table, built on first use.

        Returns the table row of each edge id, the table, and the group number
        and in-group index of each row. Row r holds the bits ``1 << j`` of the
        edges its edge must precede, j indexing the same group. A last row of
        zero bits in group -1 stands for edges outside the index.
        """
        width = max(((len(prec.edge_ids) + 7) // 8 for prec in self.groups.values()), default=1)
        row_of: dict[str, int] = {}
        group_of: list[int] = []
        local_of: list[int] = []
        packed = bytearray()
        for code, prec in enumerate(self.groups.values()):
            for local, edge_id in enumerate(prec.edge_ids):
                row_of[edge_id] = len(row_of)
                group_of.append(code)
                local_of.append(local)
            packed += b"".join(mask.to_bytes(width, "little") for mask in prec.closure)
        packed += bytes(width)
        table = np.frombuffer(bytes(packed), dtype=np.uint8).reshape(len(row_of) + 1, width)
        return (
            row_of,
            table,
            np.array(group_of + [-1], dtype=np.intp),
            np.array(local_of + [0], dtype=np.intp),
        )

    def trajectory(self, group: str) -> list[str]:
        return list(self.groups[group].trajectory)

    def direct_edges(self) -> dict[str, list[tuple[str, str]]]:
        return {group: prec.direct_pairs() for group, prec in self.groups.items()}

