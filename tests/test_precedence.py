import dataclasses
import heapq
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from okh import precedence
from okh.corpus import generate_synthetic
from okh.errors import SchemaError
from okh.hypergraph import (
    Hyperedge,
    KnowledgeHypergraph,
    _change_drafts,
    _hashed,
    horizon_anchor_id,
    merge_facts,
)
from okh.precedence import (
    _sort_key,
    GroupPrecedence,
    Order,
    PrecedenceIndex,
    build_precedence,
    effective_lead,
)
from okh.relations import CROSS_HORIZON_FAMILY, FAMILY_OF


def make_edge(relation, stem, horizon, position, group="G:p", extra_ids=()):
    ids = {f"{stem}:T-{horizon}", horizon_anchor_id(horizon), *extra_ids}
    return Hyperedge.create(
        relation,
        ids,
        evidence=f"{relation} {stem} T-{horizon} p{position}",
        group_id=group,
        horizon=horizon,
        text_position=position,
    )


def test_effective_lead_prefers_horizon_then_anchors():
    grounded = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 0)
    assert effective_lead(grounded) == 48.0
    change = Hyperedge.create(
        "forecast_updates_to",
        {"wind:A:T-72", "wind:A:T-48", horizon_anchor_id(72), horizon_anchor_id(48)},
        evidence="span",
        group_id="G:p",
    )
    assert effective_lead(change) == 72.0
    bare = Hyperedge.create("has_attribute", {"a", "b"}, evidence="no time", group_id="G:p")
    assert effective_lead(bare) == float("inf")


def _sorted_pairs(*pairs):
    return sorted((src.id, dst.id) for src, dst in pairs)


def test_same_horizon_families_chain_in_phase_order():
    # Families 1, 5 and 12 at one horizon: no causal rule links them.
    state = make_edge("has_category_state", "cat:A", 48, 0)
    probability = make_edge("has_leadtime_probability", "prob:A", 48, 1)
    recovery = make_edge("has_recovery_status", "rec:A", 48, 2)
    prec = build_precedence([recovery, state, probability])
    # Phase links only consecutive present families.
    assert prec.direct_pairs() == _sorted_pairs((state, probability), (probability, recovery))
    index = PrecedenceIndex({"G:p": prec})
    assert index.precedes(state.id, recovery.id) is Order.BEFORE
    assert index.precedes(recovery.id, state.id) is Order.AFTER

    advisory = make_edge("has_watch_status", "adv:A", 48, 0)
    hazard = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 1)
    ops = make_edge("has_operation_status", "ops:A", 48, 2)
    prec = build_precedence([advisory, hazard, ops])
    assert prec.direct_pairs() == _sorted_pairs((advisory, hazard), (hazard, ops))
    index = PrecedenceIndex({"G:p": prec})
    assert index.precedes(advisory.id, hazard.id) is Order.BEFORE
    assert index.precedes(hazard.id, ops.id) is Order.BEFORE
    # Transitive through the chain even though only consecutive pairs are direct.
    assert index.precedes(advisory.id, ops.id) is Order.BEFORE
    assert index.precedes(ops.id, advisory.id) is Order.AFTER


def test_consecutive_horizons_chain_per_family():
    k1 = make_edge("forecasts_hazard_at_horizon", "wind:A", 96, 0)
    k2 = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 1)
    k3 = make_edge("forecasts_hazard_at_horizon", "wind:A", 12, 2)
    prec = build_precedence([k1, k2, k3])
    assert list(prec.trajectory) == [k1.id, k2.id, k3.id]
    index = PrecedenceIndex({"G:p": prec})
    assert index.precedes(k1.id, k3.id) is Order.BEFORE
    assert prec.direct_pairs() == _sorted_pairs((k1, k2), (k2, k3))


def test_causal_chain_orders_hazard_before_operation_and_impact():
    hazard = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 0)
    observed = make_edge("observes_hazard_at_horizon", "obs:A", 48, 1)
    ops = make_edge("has_operation_status", "ops:A", 48, 2)
    impact = make_edge("has_impact_prediction", "impact:A", 48, 3)
    recovery = make_edge("has_recovery_status", "rec:A", 48, 4)
    prec = build_precedence([hazard, observed, ops, impact, recovery])
    phase = [(hazard, observed), (observed, ops), (ops, impact), (impact, recovery)]
    # Causal adds hazard -> operation and hazard -> impact as direct pairs,
    # which phase alone reaches only through the families between.
    causal = [(hazard, ops), (observed, ops), (hazard, impact), (observed, impact)]
    assert prec.direct_pairs() == _sorted_pairs(*set(phase + causal))
    index = PrecedenceIndex({"G:p": prec})
    for upstream in (hazard, observed):
        assert index.precedes(upstream.id, ops.id) is Order.BEFORE
        assert index.precedes(upstream.id, impact.id) is Order.BEFORE
    assert index.precedes(impact.id, recovery.id) is Order.BEFORE


def test_change_edge_follows_its_from_horizon_sources():
    early = make_edge("forecasts_hazard_at_horizon", "wind:A", 72, 0)
    late = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 1)
    (change,) = _hashed(_change_drafts([early, late]))
    prec = build_precedence([early, late, change])
    assert prec.direct_pairs() == _sorted_pairs((early, late), (early, change))
    assert list(prec.trajectory) == [early.id, change.id, late.id]
    index = PrecedenceIndex({"G:p": prec})
    assert index.precedes(early.id, change.id) is Order.BEFORE
    assert index.precedes(change.id, late.id) is Order.UNRELATED


def test_precedes_is_unrelated_across_groups_and_self():
    a = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 0, group="A:p")
    b = make_edge("forecasts_hazard_at_horizon", "wind:B", 48, 0, group="B:p")
    index = PrecedenceIndex(
        {
            "A:p": build_precedence([a]),
            "B:p": build_precedence([b]),
        }
    )
    assert index.precedes(a.id, b.id) is Order.UNRELATED
    assert index.precedes(a.id, a.id) is Order.UNRELATED
    assert index.precedes("missing", a.id) is Order.UNRELATED


def test_no_rule_firing_reduces_to_pure_sort_order():
    # One edge per horizon, each of another family, and two ungrounded edges:
    # no rule relates any two of them.
    edges = [
        make_edge("has_operation_status", "ops:A", 48, 5),
        make_edge("forecasts_hazard_at_horizon", "wind:A", 96, 2),
        make_edge("has_watch_status", "adv:A", 24, 1),
        Hyperedge.create("has_warning_status", {"a", "b"}, evidence="x", group_id="G:p"),
        Hyperedge.create("has_motion", {"a", "c"}, evidence="y", group_id="G:p", text_position=9),
    ]
    prec = build_precedence(edges)
    assert prec.direct_pairs() == []
    # Lead desc, then family: the ungrounded edges (family 1, then 4) first,
    # then T-96, T-48 and T-24.
    assert list(prec.trajectory) == [edges[i].id for i in (4, 3, 1, 0, 2)]


def test_duplicate_edge_ids_rejected():
    edge = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 0)
    with pytest.raises(ValueError):
        build_precedence([edge, edge])


def test_positions_match_trajectory_indices():
    edges = [
        make_edge("has_watch_status", "adv:A", 48, 0),
        make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 1),
    ]
    index = PrecedenceIndex({"G:p": build_precedence(edges)})
    trajectory = index.trajectory("G:p")
    assert trajectory == [edge.id for edge in edges]
    position = {edge_id: i for i, edge_id in enumerate(trajectory)}
    for a in trajectory:
        for b in trajectory:
            if index.precedes(a, b) is Order.BEFORE:
                assert position[a] < position[b]


def _random_group(rng, group):
    relations = [
        "has_category_state",
        "has_watch_status",
        "has_leadtime_probability",
        "forecasts_hazard_at_horizon",
        "observes_hazard_at_horizon",
        "has_operation_status",
        "has_impact_prediction",
        "has_recovery_status",
    ]
    horizons = sorted(rng.sample([120, 96, 72, 48, 24, 12], k=rng.randint(2, 4)), reverse=True)
    edges = []
    position = 0
    for horizon in horizons:
        for relation in relations:
            if rng.random() < 0.6:
                stem = f"{relation}:{group}"
                edges.append(make_edge(relation, stem, horizon, position, group=group))
                position += 1
    edges.extend(_hashed(_change_drafts(edges)))
    return edges


def test_fuzzed_groups_are_acyclic_and_order_deterministic():
    rng = random.Random(7)
    for trial in range(30):
        group = f"G{trial}:p"
        edges = _random_group(rng, group)
        if not edges:
            continue
        prec = build_precedence(edges)
        trajectory = list(prec.trajectory)
        assert sorted(trajectory) == sorted(edge.id for edge in edges)
        # A valid topological order never places a successor before its source.
        position = {edge_id: i for i, edge_id in enumerate(trajectory)}
        for src, dst in prec.direct_pairs():
            assert position[src] < position[dst]
        # Input permutation must not change the result.
        shuffled = list(edges)
        rng.shuffle(shuffled)
        assert list(build_precedence(shuffled).trajectory) == trajectory


def test_reachability_is_transitive_on_fuzzed_groups():
    rng = random.Random(13)
    edges = _random_group(rng, "G:p")
    prec = build_precedence(edges)
    ids = list(prec.edge_ids)
    index = PrecedenceIndex({"G:p": prec})
    for a in ids:
        for b in ids:
            for c in ids:
                if (
                    index.precedes(a, b) is Order.BEFORE
                    and index.precedes(b, c) is Order.BEFORE
                ):
                    assert index.precedes(a, c) is Order.BEFORE


def test_from_direct_edges_rebuilds_equivalent_index():
    facts_edges = _random_group(random.Random(3), "G:p")
    graph = merge_facts(
        [
            [
                {
                    "relation": edge.relation,
                    "entities": [{"id": eid, "name": eid, "type": "other"} for eid in edge.entity_ids],
                    "evidence": edge.evidence,
                    "attributes": edge.attributes,
                    "confidence": 1.0,
                    "group": edge.group_id,
                    "horizon": edge.horizon,
                    "text_position": edge.text_position,
                }
                for edge in facts_edges
            ]
        ]
    )
    built = PrecedenceIndex.build(graph)
    rebuilt = PrecedenceIndex.from_direct_edges(graph, built.direct_edges())
    for group in graph.groups:
        assert rebuilt.trajectory(group) == built.trajectory(group)
    sample = graph.groups["G:p"][:6]
    for a in sample:
        for b in sample:
            assert rebuilt.precedes(a, b) is built.precedes(a, b)


def test_group_trajectory_runs_toward_landfall():
    early = make_edge("forecasts_hazard_at_horizon", "wind:A", 96, 1)
    late = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 0)
    prec = build_precedence([late, early])
    assert prec.trajectory == [early.id, late.id]


def test_reach_matrix_matches_pairwise_reachable():
    graph = merge_facts([generate_synthetic(seed=3, n_groups=2, horizons_per_group=3).facts])
    index = PrecedenceIndex.build(graph)
    ids = sorted(graph.hyperedges)
    random.Random(0).shuffle(ids)
    ids = ids[:50] + ["missing"]
    reach = index.reach_matrix(ids)
    assert reach.dtype == bool
    assert reach.tolist() == [
        [index.precedes(a, b) is Order.BEFORE for b in ids] for a in ids
    ]
    assert reach.any()
    assert index.reach_matrix([]).shape == (0, 0)


# --- The sort and the closure pass against the heap-ordered versions ------

# Verbatim copies of `_topological_order` and `_build_group` as they were when
# the canonical order was a heap-driven Kahn pass and the closure was filled
# in that order; the reference returns the fields of its GroupPrecedence
# instead of building one. Only its cycle branch is replaced by an assert:
# rising pairs hold no cycle.


def _reference_topological_order(edges, successors):
    indegree = {edge.id: 0 for edge in edges}
    for src in successors:
        for dst in successors[src]:
            indegree[dst] += 1
    key_of = {edge.id: _sort_key(edge) for edge in edges}
    ready = [key_of[edge_id] for edge_id, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        edge_id = heapq.heappop(ready)[-1]
        order.append(edge_id)
        for dst in successors.get(edge_id, ()):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                heapq.heappush(ready, key_of[dst])
    assert len(order) == len(edges), "the pairs hold a cycle"
    return order


def _reference_build_group(edges, successors):
    edge_ids = sorted(edge.id for edge in edges)
    index_of = {edge_id: i for i, edge_id in enumerate(edge_ids)}
    trajectory = _reference_topological_order(edges, successors)
    closure = [0] * len(edge_ids)
    for edge_id in reversed(trajectory):
        mask = 0
        for dst in successors.get(edge_id, ()):
            j = index_of[dst]
            mask |= (1 << j) | closure[j]
        closure[index_of[edge_id]] = mask
    return edge_ids, index_of, closure, trajectory


def _rank(edge):
    """The contract's key: a precedence pair rises in (-lead time, family)."""
    return (-effective_lead(edge), edge.family)


_RELATIONS = sorted(FAMILY_OF)
_LEADS = [12, 24, 48, 72]
_SHAPES = [(3, 1), (4, 2), (5, 3), (3, 4), (2, 6)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 39), st.sampled_from(_SHAPES), st.integers(0, 2**32 - 1))
def test_rule_pairs_rise_and_the_trajectory_is_the_heap_order(seed, shape, salt):
    corpus = generate_synthetic(seed=seed, n_groups=shape[0], horizons_per_group=shape[1])
    graph = merge_facts([corpus.facts])
    groups = [graph.group_edges(group) for group in sorted(graph.groups)]
    rng = random.Random(salt)
    fuzzed = _random_group(rng, "G:p")
    # A snapshot's horizon is not part of the content hash, so an edited file
    # can give a change edge a horizon its anchors do not carry.
    edited = [
        dataclasses.replace(edge, horizon=rng.choice([None, *_LEADS, 96, 120]))
        if edge.family == CROSS_HORIZON_FAMILY
        else edge
        for edge in fuzzed
    ]
    for edges in [*groups, fuzzed, edited]:
        prec = build_precedence(edges)
        by_id = {edge.id: edge for edge in edges}
        for src, dst in prec.direct_pairs():
            assert _rank(by_id[src]) < _rank(by_id[dst])
        assert prec.trajectory == _reference_topological_order(edges, prec.successors)


@st.composite
def _group_edges(draw):
    """Edges of one group; some without a horizon, some anchored only."""
    edges = []
    for position in range(draw(st.integers(0, 10))):
        horizon = draw(st.sampled_from([None, *_LEADS]))
        anchors = set() if horizon else draw(st.sets(st.sampled_from(_LEADS), max_size=2))
        edges.append(
            Hyperedge.create(
                draw(st.sampled_from(_RELATIONS)),
                {f"state{position}:T-{horizon}", f"port{position}", *map(horizon_anchor_id, anchors)},
                evidence=f"fact {position}",
                group_id="G:p",
                horizon=horizon,
                text_position=draw(st.integers(0, 3)),
            )
        )
    return edges


@st.composite
def _precedence_groups(draw):
    """Edges of one group, in any order, and successor sets over their ids.

    Every pair rises in (-lead time, family); some edges take part in no
    pair, and some ids map to an empty successor set.
    """
    edges = draw(_group_edges())
    successors = {}
    if edges:
        index = st.integers(0, len(edges) - 1)
        for i, j in draw(st.lists(st.tuples(index, index), max_size=2 * len(edges))):
            if _rank(edges[i]) > _rank(edges[j]):
                i, j = j, i
            if _rank(edges[i]) < _rank(edges[j]):
                successors.setdefault(edges[i].id, set()).add(edges[j].id)
        for i in draw(st.sets(index, max_size=len(edges))):
            successors.setdefault(edges[i].id, set())
    return draw(st.permutations(edges)), successors


@settings(max_examples=300, deadline=None)
@given(_precedence_groups())
def test_build_group_matches_the_canonical_order_version(group):
    edges, successors = group
    edge_ids, index_of, closure, trajectory = _reference_build_group(edges, successors)
    built = GroupPrecedence(edges, successors)
    assert built.edge_ids == edge_ids
    assert built.index_of == index_of
    assert built.closure == closure
    assert built.successors is successors
    assert built.trajectory == trajectory


@st.composite
def _snapshot_blocks(draw):
    """A group's edges and a block of pairs over them, some of which may not
    rise: a reversed pair, a pair of equal keys, or an edge with itself."""
    edges = draw(_group_edges())
    pairs = []
    if edges:
        every = [(a, b) for a in edges for b in edges]
        rising = [(a, b) for a, b in every if _rank(a) < _rank(b)]
        other = [(a, b) for a, b in every if _rank(a) >= _rank(b)]
        equal = [(a, b) for a, b in other if a is not b and _rank(a) == _rank(b)]
        kinds = [st.sampled_from(pairs) for pairs in (other, equal, rising, rising) if pairs]
        pairs = draw(st.lists(st.one_of(kinds), max_size=2 * len(edges)))
    return edges, [(a.id, b.id) for a, b in pairs]


@settings(max_examples=300, deadline=None)
@given(_snapshot_blocks())
def test_from_direct_edges_refuses_the_first_pair_that_does_not_rise(block):
    edges, pairs = block
    graph = KnowledgeHypergraph({}, {edge.id: edge for edge in edges})
    by_id = graph.hyperedges
    falling = [i for i, (a, b) in enumerate(pairs) if _rank(by_id[a]) >= _rank(by_id[b])]
    if falling:
        src, dst = pairs[falling[0]]
        with pytest.raises(SchemaError) as raised:
            PrecedenceIndex.from_direct_edges(graph, {"G:p": pairs})
        assert raised.value.path == f"precedence.G:p[{falling[0]}]"
        assert repr(src) in raised.value.message and repr(dst) in raised.value.message
        event("self" if src == dst else "reversed" if _rank(by_id[src]) > _rank(by_id[dst]) else "equal")
        return
    index = PrecedenceIndex.from_direct_edges(graph, {"G:p": pairs} if edges else {})
    successors = {}
    for src, dst in pairs:
        successors.setdefault(src, set()).add(dst)
    if edges:
        _, _, closure, trajectory = _reference_build_group(edges, successors)
        assert index.groups["G:p"].closure == closure
        assert index.trajectory("G:p") == trajectory
    event("rising")


def test_trajectory_is_computed_on_first_read_only(monkeypatch):
    edges = _random_group(random.Random(5), "G:p")
    calls = []
    real = precedence._sort_key

    def counted(edge):
        calls.append(edge)
        return real(edge)

    monkeypatch.setattr(precedence, "_sort_key", counted)
    prec = build_precedence(edges)
    assert calls == [] and prec.closure
    first = prec.trajectory
    assert prec.trajectory is first and len(calls) == len(edges)
    monkeypatch.undo()
    assert first == _reference_build_group(edges, prec.successors)[3]
