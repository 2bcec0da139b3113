import random

import pytest

from okh.corpus import generate_synthetic
from okh.hypergraph import Hyperedge, horizon_anchor_id, merge_facts, synthesize_cross_horizon
from okh.precedence import (
    ALL_RULES,
    RULE_CAUSAL,
    RULE_CHANGE,
    RULE_EVOLUTION,
    RULE_PHASE,
    Order,
    PrecedenceIndex,
    build_precedence,
    effective_lead,
)


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


def test_same_horizon_families_chain_in_phase_order():
    advisory = make_edge("has_watch_status", "adv:A", 48, 0)
    hazard = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 1)
    ops = make_edge("has_operation_status", "ops:A", 48, 2)
    index = PrecedenceIndex(
        {"G:p": build_precedence([advisory, hazard, ops], rules=frozenset({RULE_PHASE}))}
    )
    assert index.precedes(advisory.id, hazard.id) is Order.BEFORE
    assert index.precedes(hazard.id, ops.id) is Order.BEFORE
    # Transitive through the chain even though only consecutive pairs are direct.
    assert index.precedes(advisory.id, ops.id) is Order.BEFORE
    assert index.precedes(ops.id, advisory.id) is Order.AFTER


def test_consecutive_horizons_chain_per_family():
    k1 = make_edge("forecasts_hazard_at_horizon", "wind:A", 96, 0)
    k2 = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 1)
    k3 = make_edge("forecasts_hazard_at_horizon", "wind:A", 12, 2)
    prec = build_precedence([k1, k2, k3], rules=frozenset({RULE_EVOLUTION}))
    assert list(prec.trajectory) == [k1.id, k2.id, k3.id]
    index = PrecedenceIndex({"G:p": prec})
    assert index.precedes(k1.id, k3.id) is Order.BEFORE
    assert (k1.id, k2.id) in prec.direct_pairs()
    assert (k2.id, k3.id) in prec.direct_pairs()
    assert (k1.id, k3.id) not in prec.direct_pairs()


def test_causal_chain_orders_hazard_before_operation_and_impact():
    hazard = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 0)
    observed = make_edge("observes_hazard_at_horizon", "obs:A", 48, 1)
    ops = make_edge("has_operation_status", "ops:A", 48, 2)
    impact = make_edge("has_impact_prediction", "impact:A", 48, 3)
    recovery = make_edge("has_recovery_status", "rec:A", 48, 4)
    index = PrecedenceIndex(
        {
            "G:p": build_precedence(
                [hazard, observed, ops, impact, recovery], rules=frozenset({RULE_CAUSAL})
            )
        }
    )
    for upstream in (hazard, observed):
        assert index.precedes(upstream.id, ops.id) is Order.BEFORE
        assert index.precedes(upstream.id, impact.id) is Order.BEFORE
    assert index.precedes(impact.id, recovery.id) is Order.BEFORE
    # No phase rule here: advisory-family ordering is absent.
    assert index.precedes(hazard.id, observed.id) is Order.UNRELATED


def test_change_edge_follows_its_from_horizon_sources():
    early = make_edge("forecasts_hazard_at_horizon", "wind:A", 72, 0)
    late = make_edge("forecasts_hazard_at_horizon", "wind:A", 48, 1)
    change = synthesize_cross_horizon([early, late])[0]
    prec = build_precedence([early, late, change], rules=ALL_RULES)
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


def test_no_rules_reduce_to_pure_sort_order():
    edges = [
        make_edge("has_operation_status", "ops:A", 48, 5),
        make_edge("forecasts_hazard_at_horizon", "wind:A", 96, 2),
        make_edge("has_watch_status", "adv:A", 48, 1),
    ]
    prec = build_precedence(edges, rules=frozenset())
    assert prec.direct_pairs() == []
    # Lead desc, then family: T-96 hazard first, then T-48 advisory, then ops.
    assert list(prec.trajectory) == [edges[1].id, edges[2].id, edges[0].id]


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
    edges.extend(synthesize_cross_horizon(edges) if edges else [])
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
