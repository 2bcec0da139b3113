import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okh.corpus import (
    ALL_HORIZONS,
    PORT_NAMES,
    STORM_NAMES,
    GeneratedCorpus,
    GroupScenario,
    QAItem,
    _change_fact,
    _effective_lead,
    _group_facts,
    _group_qa,
    _reference_order,
    _unique_name,
    generate_synthetic,
    group_id_for,
)
from okh.hypergraph import merge_facts
from okh.relations import CROSS_HORIZON_FAMILY, DEFAULT_VOCABULARY


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


# --- The generator's bytes, pinned -----------------------------------------


def _reference_generate(seed, n_groups, horizons_per_group):
    """The per-group generator that merged each group's facts on its own."""
    rng = random.Random(seed)
    corpus = GeneratedCorpus()
    for i in range(n_groups):
        storm = _unique_name(STORM_NAMES, i)
        port = _unique_name(PORT_NAMES, i)
        group_id = group_id_for(storm, port)
        horizons = tuple(sorted(rng.sample(ALL_HORIZONS, k=horizons_per_group), reverse=True))

        facts = _group_facts(storm, port, group_id, horizons)
        graph = merge_facts([facts])
        group_edges = graph.group_edges(group_id)
        change_edges = sorted(
            (edge for edge in group_edges if edge.family == CROSS_HORIZON_FAMILY),
            key=lambda edge: (-_effective_lead(edge), edge.text_position, edge.id),
        )
        facts.extend(_change_fact(edge, graph) for edge in change_edges)

        corpus.facts.extend(facts)
        corpus.scenarios.append(
            GroupScenario(group_id=group_id, ground_truth=tuple(_reference_order(group_edges)))
        )
        corpus.qa.extend(_group_qa(rng, storm, port, group_id, horizons))
    return corpus


def _digests(corpus):
    truths = json.dumps([[s.group_id, list(s.ground_truth)] for s in corpus.scenarios])
    return tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (corpus.facts_jsonl(), corpus.qa_json(), truths)
    )


# sha256 of facts_jsonl(), qa_json() and the ground truths, as (group id,
# ordered edge ids) pairs, recorded with the per-group generator.
_PINNED = {
    (1, 44, 3): (
        "aa49e1d67d9fb06674036a47fd139c7bc15aa1b4cb5661fd5efaecdc0417cc00",
        "556fd68615f975bfef629fc6cd097a5c0cb6eb07a5f54e15c5187a01b636395d",
        "83cd5985074c9c6ce924f54ff0b62a61a6d5f83e3f9898c11a090593d0ebfd10",
    ),
    (91, 44, 3): (
        "651ac6351d33e2643d1ab05d99a02e947c1258c045d6c13edd53e81a492483d5",
        "2381eaa320d0725e067fb88382c54bd06510c647084b8529daf66f4703989f93",
        "48ff637fb37afa7db4659799e8a3099e3dc3241626cc413c04cbf78ee503b0d9",
    ),
    (92, 44, 3): (
        "5480aaef80d2e59559bd79ad0b92e615f579a5afad7c9bfd8f13d24ee45c363f",
        "532092b29faf9d2e022e8a21b07e2ab2bb16a861d34c0da0e5835f0e4945278e",
        "e1312fc2e5dc73da73741844eaedf4416a6de1f7cd57a50cbdd2f03c652c2106",
    ),
    (93, 44, 3): (
        "445b1f6c7d567f5e5fa9dae812da563d97884e1971a6431b1ae8382337b93ca5",
        "60ad4eb75305b59b8c5ae4e30056894dc034d0805f06e30caab09e8581fb142c",
        "87617e5d0506231bb5e33120d96a114dec0bfe764f4022f3ad217c86b0cf4558",
    ),
    (1, 44, 6): (
        "10798114064ce5fe4011000c48047a54f965cca5d031b5590c907a0c0d24a7be",
        "c5a4015a9b8c00f033b5cfa8ad8b09ddaa86d1b2f37d1c796c1da3c929a3a05c",
        "b089acd8b88d1b71c2c04e42d61b5074fc897c65a390a8c3fe47f5e9a3fdae8c",
    ),
    (1, 25, 4): (
        "f4b40e06176035d0be9c42d6b3d7d2080b6698b671a240de7e302e73ee56a652",
        "649e9d3ded865603a1021d055e7a107ee8185168801f6dc2d7bca6307dea8cc2",
        "b25482e7028a6f35f1492d26f676f4d9d570da14fd813f50c36a3763dae02f23",
    ),
}


@pytest.mark.parametrize("shape", sorted(_PINNED))
def test_generated_bytes_match_the_pinned_digests(shape):
    assert _digests(generate_synthetic(*shape)) == _PINNED[shape]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_groups=st.integers(1, 30),
    horizons=st.integers(1, len(ALL_HORIZONS)),
)
def test_generator_matches_the_per_group_reference(seed, n_groups, horizons):
    corpus = generate_synthetic(seed, n_groups, horizons)
    reference = _reference_generate(seed, n_groups, horizons)
    assert corpus.facts_jsonl() == reference.facts_jsonl()
    assert corpus.qa_json() == reference.qa_json()
    assert corpus.scenarios == reference.scenarios


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_groups=st.integers(1, 21),
    horizons=st.integers(1, len(ALL_HORIZONS)),
)
def test_a_corpus_is_a_prefix_of_the_corpus_with_one_more_group(seed, n_groups, horizons):
    # Each group's draws come before the next group's, so adding a group
    # appends to every output and changes nothing before it.
    shorter = generate_synthetic(seed, n_groups, horizons)
    longer = generate_synthetic(seed, n_groups + 1, horizons)
    assert longer.facts[: len(shorter.facts)] == shorter.facts
    assert len(longer.facts) > len(shorter.facts)
    assert longer.qa[: len(shorter.qa)] == shorter.qa
    assert longer.scenarios[:-1] == shorter.scenarios
