import pytest

from okh.errors import UnknownEdge
from okh.evidence import build_evidence_steps, format_trajectory
from okh.hypergraph import merge_facts
from okh.retrieval import Trajectory


def _fact(relation, state_kind, state_type, horizon, position):
    return {
        "relation": relation,
        "entities": [
            {"id": "port:pa", "name": "Port Arthur", "type": "port"},
            {
                "id": f"{state_kind}:IRMA:pa:T-{horizon}",
                "name": f"{state_kind} {horizon}",
                "type": state_type,
            },
        ],
        "evidence": f"{state_kind} at T-{horizon}",
        "attributes": {},
        "confidence": 1.0,
        "group": "IRMA:pa",
        "horizon": horizon,
        "text_position": position,
    }


def _story_graph():
    # Two horizons of the same forecast stem produce a synthesized change
    # edge; the rest form a single-horizon causal chain.
    facts = [
        _fact("forecasts_hazard_at_horizon", "wind_fcst", "hazard_forecast", 96, 0),
        _fact("has_watch_status", "advisory", "advisory_status", 48, 1),
        _fact("forecasts_hazard_at_horizon", "wind_fcst", "hazard_forecast", 48, 2),
        _fact("has_operation_status", "ops", "operation_status", 48, 3),
        _fact("has_impact_prediction", "impact", "impact_prediction", 48, 4),
        _fact("has_recovery_status", "recovery", "recovery_status", 48, 5),
    ]
    return merge_facts([facts])


def _eid(graph, relation, horizon=None):
    matches = [
        e.id
        for e in graph.hyperedges.values()
        if e.relation == relation and (horizon is None or horizon in _anchors(e))
    ]
    assert len(matches) == 1, (relation, horizon, matches)
    return matches[0]


def _anchors(edge):
    return {edge.horizon} if edge.horizon is not None else set(edge.anchor_horizons())


def test_first_step_reasoning_is_none():
    graph = _story_graph()
    steps = build_evidence_steps([_eid(graph, "has_watch_status")], graph)
    assert steps[0].index == 1
    assert steps[0].reasoning == ("none",)


def test_within_horizon_causal_tags():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    ops = _eid(graph, "has_operation_status")
    imp = _eid(graph, "has_impact_prediction")
    rec = _eid(graph, "has_recovery_status")
    steps = build_evidence_steps([adv, fc48, ops, imp, rec], graph)
    assert steps[1].reasoning == ("within_horizon", "advisory_to_hazard")
    assert steps[2].reasoning == ("within_horizon", "hazard_to_operation")
    # No causal rule covers operations -> impact.
    assert steps[3].reasoning == ("within_horizon",)
    assert steps[4].reasoning == ("within_horizon", "impact_to_recovery")


def test_cross_horizon_and_change_tags():
    graph = _story_graph()
    fc96 = _eid(graph, "forecasts_hazard_at_horizon", 96)
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    change = _eid(graph, "forecast_updates_to")
    steps = build_evidence_steps([fc96, fc48], graph)
    assert steps[1].reasoning == ("cross_horizon",)
    steps = build_evidence_steps([fc96, change], graph)
    # The change edge spans both anchors, so the horizon set differs too.
    assert steps[1].reasoning == ("cross_horizon", "family_to_change")


def test_step_into_another_group_is_tagged_cross_group_only():
    # The same facts for a second storm: a step between the storms would
    # otherwise read within_horizon and advisory_to_hazard.
    facts = []
    for storm in ("IRMA", "KATRINA"):
        for fact in (
            _fact("has_watch_status", "advisory", "advisory_status", 48, 0),
            _fact("forecasts_hazard_at_horizon", "wind_fcst", "hazard_forecast", 48, 1),
        ):
            state = fact["entities"][1]
            state["id"] = state["id"].replace("IRMA", storm)
            fact["group"] = f"{storm}:pa"
            fact["evidence"] = f"{storm} {fact['evidence']}"
            facts.append(fact)
    graph = merge_facts([facts])
    group_of = {edge.id: edge.group_id for edge in graph.hyperedges.values()}
    adv = {group_of[e]: e for e in graph.hyperedges if graph.hyperedges[e].family == 4}
    fc = {group_of[e]: e for e in graph.hyperedges if graph.hyperedges[e].family == 6}
    steps = build_evidence_steps([adv["IRMA:pa"], fc["KATRINA:pa"], fc["IRMA:pa"]], graph)
    assert steps[1].reasoning == ("cross_group",)
    assert steps[2].reasoning == ("cross_group",)
    same = build_evidence_steps([adv["KATRINA:pa"], fc["KATRINA:pa"]], graph)
    assert same[1].reasoning == ("within_horizon", "advisory_to_hazard")


def test_hazard_to_impact_tag_requires_same_horizon():
    graph = _story_graph()
    fc96 = _eid(graph, "forecasts_hazard_at_horizon", 96)
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    imp = _eid(graph, "has_impact_prediction")
    assert build_evidence_steps([fc48, imp], graph)[1].reasoning == (
        "within_horizon",
        "hazard_to_impact",
    )
    assert build_evidence_steps([fc96, imp], graph)[1].reasoning == ("cross_horizon",)


def test_build_evidence_steps_rejects_unknown_ids():
    graph = _story_graph()
    with pytest.raises(UnknownEdge):
        build_evidence_steps(["not-a-real-id"], graph)


def test_evidence_entities_sorted_by_entity_id():
    graph = _story_graph()
    steps = build_evidence_steps([_eid(graph, "has_watch_status")], graph)
    # Entity ids sort advisory < horizon anchor < port.
    assert steps[0].entities == (
        ("advisory 48", "advisory_status"),
        ("T-48", "horizon_time"),
        ("Port Arthur", "port"),
    )


def test_format_trajectory_layout_and_score_header():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    trajectory = Trajectory(
        [adv, fc48],
        1.2345,
        {
            "relevance": 1.0,
            "coherence": -0.5,
            "precedence": 1.0,
            "continuity": 0.5,
            "coverage": 1 / 3,
        },
    )
    text = format_trajectory(trajectory, graph)
    lines = text.splitlines()
    assert lines[0] == (
        "[Trajectory] total=1.2345 relevance=1.0000 coherence=-0.5000"
        " precedence=1.0000 continuity=0.5000 coverage=0.3333"
    )
    assert lines[1] == "[Step 1] [T-48] [phase=advisory] [family=4]"
    assert lines[2] == "  Relation: has_watch_status"
    assert lines[3] == "  Evidence: advisory at T-48"
    assert lines[4] == "  Reasoning: none"
    assert lines[5] == (
        "  Entities: advisory 48 [advisory_status]; T-48 [horizon_time];"
        " Port Arthur [port]"
    )
    assert lines[6].startswith("[Step 2] [T-48] [phase=hazard_forecast]")
    assert len(lines) == 1 + 2 * 5


def test_format_trajectory_change_edge_has_no_single_horizon():
    graph = _story_graph()
    change = _eid(graph, "forecast_updates_to")
    text = format_trajectory(Trajectory([change], 0.0, {}), graph)
    assert text.splitlines()[0] == "[Step 1] [—] [phase=other] [family=13]"


def test_format_trajectory_depends_on_step_order():
    graph = _story_graph()
    adv = _eid(graph, "has_watch_status")
    fc48 = _eid(graph, "forecasts_hazard_at_horizon", 48)
    ops = _eid(graph, "has_operation_status")
    forward = format_trajectory(Trajectory([adv, fc48, ops], 0.0, {}), graph)
    swapped = format_trajectory(Trajectory([fc48, adv, ops], 0.0, {}), graph)
    assert forward != swapped
