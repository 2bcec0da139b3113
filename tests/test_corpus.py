import json

import pytest

from okh.corpus import (
    ALL_HORIZONS,
    GeneratedCorpus,
    QAItem,
    generate_synthetic,
    group_id_for,
)
from okh.hypergraph import merge_facts
from okh.relations import DEFAULT_VOCABULARY


def test_group_id_for_folds_names():
    assert group_id_for("Two Words", "Port of Houston") == "TWO_WORDS:port_of_houston"
    assert group_id_for(" idalia ", "Port Miami") == "IDALIA:port_miami"


def test_generate_synthetic_validates_shape_arguments():
    with pytest.raises(ValueError):
        generate_synthetic(horizons_per_group=0)
    with pytest.raises(ValueError):
        generate_synthetic(horizons_per_group=len(ALL_HORIZONS) + 1)
    with pytest.raises(ValueError):
        generate_synthetic(n_groups=0)


def test_generate_synthetic_fact_counts_for_two_horizons():
    corpus = generate_synthetic(seed=0, n_groups=1, horizons_per_group=2)
    # 12 facts per horizon plus one change fact per stem between the
    # consecutive horizon pair.
    assert len(corpus.facts) == 24 + 12
    change = [fact for fact in corpus.facts if fact["horizon"] is None]
    assert len(change) == 12
    for fact in change:
        assert set(fact["attributes"]) == {"from_horizon", "to_horizon"}
        assert DEFAULT_VOCABULARY.family(fact["relation"]) == 13
    assert len({fact["horizon"] for fact in corpus.facts} - {None}) == 2
    assert len(corpus.scenarios[0].ground_truth) == 36


def test_generate_synthetic_is_byte_reproducible():
    first = generate_synthetic(seed=5, n_groups=3, horizons_per_group=3)
    second = generate_synthetic(seed=5, n_groups=3, horizons_per_group=3)
    assert first.facts_jsonl() == second.facts_jsonl()
    assert first.qa_json() == second.qa_json()
    different = generate_synthetic(seed=6, n_groups=3, horizons_per_group=3)
    assert first.facts_jsonl() != different.facts_jsonl()


def test_generated_facts_round_trip_through_merge():
    corpus = generate_synthetic(seed=1, n_groups=2, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    for scenario in corpus.scenarios:
        group_edges = {edge.id for edge in graph.group_edges(scenario.group_id)}
        assert group_edges == set(scenario.ground_truth)
    # Serialized facts stay valid JSON lines.
    lines = corpus.facts_jsonl().splitlines()
    assert len(lines) == len(corpus.facts)
    for line in lines:
        assert isinstance(json.loads(line), dict)


def test_ground_truth_sorts_by_lead_then_family():
    corpus = generate_synthetic(seed=2, n_groups=1, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    scenario = corpus.scenarios[0]
    edges = {edge.id: edge for edge in graph.group_edges(scenario.group_id)}

    def lead(edge):
        if edge.horizon is not None:
            return float(edge.horizon)
        anchors = edge.anchor_horizons()
        return float(anchors[0]) if anchors else float("-inf")

    ordered = [edges[eid] for eid in scenario.ground_truth]
    leads = [lead(edge) for edge in ordered]
    assert leads == sorted(leads, reverse=True)
    for prev, cur in zip(ordered, ordered[1:]):
        if lead(prev) == lead(cur):
            assert prev.family <= cur.family


def test_schedule_values_escalate_with_shrinking_lead():
    corpus = generate_synthetic(seed=4, n_groups=1, horizons_per_group=3)
    by_horizon = {}
    for fact in corpus.facts:
        if fact["relation"] == "has_leadtime_probability":
            by_horizon[fact["horizon"]] = int(
                fact["attributes"]["gale_probability_pct"]
            )
    horizons = sorted(by_horizon, reverse=True)
    values = [by_horizon[h] for h in horizons]
    assert values == sorted(values)
    assert values[0] == 10
    assert values[-1] == 95


def test_qa_items_per_group_cover_all_kinds():
    corpus = generate_synthetic(seed=0, n_groups=2, horizons_per_group=2)
    for scenario in corpus.scenarios:
        items = [item for item in corpus.qa if item.group_id == scenario.group_id]
        horizons = {f["horizon"] for f in corpus.facts if f["group"] == scenario.group_id}
        assert len(items) == 6
        kinds = sorted(item.kind for item in items)
        assert kinds == [
            "at_horizon",
            "at_horizon",
            "escalation",
            "escalation",
            "final_value",
            "final_value",
        ]
        numeric = [item for item in items if item.numeric]
        assert len(numeric) == 1
        assert numeric[0].attribute == "peak_gust_kt"
        for item in items:
            if item.kind == "at_horizon":
                assert item.horizon in horizons - {None}
            else:
                assert item.horizon is None


def test_escalation_answers_depend_on_horizon_count():
    multi = generate_synthetic(seed=0, n_groups=1, horizons_per_group=3)
    single = generate_synthetic(seed=0, n_groups=1, horizons_per_group=1)

    def escalations(corpus):
        return {
            item.attribute: item.expected
            for item in corpus.qa
            if item.kind == "escalation"
        }

    assert escalations(multi) == {"category": "Yes", "gale_probability_pct": "Yes"}
    assert escalations(single) == {"category": "No", "gale_probability_pct": "No"}


def test_at_horizon_answers_match_the_facts():
    corpus = generate_synthetic(seed=7, n_groups=3, horizons_per_group=3)
    attribute_relation = {
        "operation_status": "has_operation_status",
        "peak_gust_kt": "forecasts_hazard_at_horizon",
    }
    checked = 0
    for item in corpus.qa:
        if item.kind != "at_horizon":
            continue
        matches = [
            fact
            for fact in corpus.facts
            if fact["group"] == item.group_id
            and fact["horizon"] == item.horizon
            and fact["relation"] == attribute_relation[item.attribute]
        ]
        assert len(matches) == 1
        assert matches[0]["attributes"][item.attribute] == item.expected
        checked += 1
    assert checked == 6


def test_final_value_answers_match_the_last_horizon_facts():
    corpus = generate_synthetic(seed=9, n_groups=1, horizons_per_group=3)
    last_horizon = min(fact["horizon"] for fact in corpus.facts if fact["horizon"] is not None)
    by_kind = {item.attribute: item for item in corpus.qa if item.kind == "final_value"}
    ops = [
        fact
        for fact in corpus.facts
        if fact["relation"] == "has_operation_status" and fact["horizon"] == last_horizon
    ]
    assert ops[0]["attributes"]["operation_status"] == by_kind["operation_status"].expected
    cat = [
        fact
        for fact in corpus.facts
        if fact["relation"] == "has_category_state" and fact["horizon"] == last_horizon
    ]
    assert cat[0]["attributes"]["category"] == by_kind["category"].expected


def test_group_ids_stay_unique_past_the_name_pool():
    corpus = generate_synthetic(seed=0, n_groups=21, horizons_per_group=1)
    group_ids = [scenario.group_id for scenario in corpus.scenarios]
    assert len(set(group_ids)) == 21


def test_qa_item_serialization_uses_group_key():
    item = QAItem(
        question="q",
        group_id="IRMA:pa",
        kind="final_value",
        order_sensitivity="order_sensitive",
        attribute="category",
        expected="5",
    )
    payload = item.to_dict()
    assert payload["group"] == "IRMA:pa"
    assert payload["horizon"] is None
    assert payload["numeric"] is False


def test_generated_corpus_serializers_end_with_newline():
    corpus = generate_synthetic(seed=0, n_groups=1, horizons_per_group=1)
    assert corpus.facts_jsonl().endswith("\n")
    assert corpus.qa_json().endswith("\n")
    assert isinstance(GeneratedCorpus().facts_jsonl(), str)
