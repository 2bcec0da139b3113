import numpy as np
import pytest

from okh.corpus import QAItem, generate_synthetic
from okh.embedding import EmbeddingStore, LocalHashingEmbedder
from okh.errors import ElementMismatch
from okh.evaluation import (
    AblationReport,
    AblationVariant,
    _shuffled_steps,
    extract_answer,
    format_report_table,
    forward_margins,
    kendall_tau,
    run_ablation,
    variant_transition,
    variant_weights,
)
from okh.hypergraph import merge_facts
from okh.precedence import PrecedenceIndex
from okh.retrieval import RetrievalWeights, Retriever, ScopeConfig, SearchConfig
from okh.transition import TrainingConfig, TransitionModel, build_pairs, train


def test_kendall_tau_frozen_values():
    assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0
    assert kendall_tau(["a", "b", "c"], ["a", "c", "b"]) == pytest.approx(1 / 3)


def test_kendall_tau_short_orderings_are_perfect():
    assert kendall_tau([], []) == 1.0
    assert kendall_tau(["x"], ["x"]) == 1.0


def test_kendall_tau_rejects_mismatched_or_repeated_items():
    with pytest.raises(ElementMismatch):
        kendall_tau(["a", "a"], ["a", "a"])
    with pytest.raises(ElementMismatch):
        kendall_tau(["a", "b"], ["a", "c"])


def test_variant_weights_zero_only_their_terms():
    base = RetrievalWeights(1.2, 0.3, 0.2, 0.5)
    assert variant_weights(AblationVariant.FULL, base) == base
    assert variant_weights(AblationVariant.SHUFFLED, base) == base
    assert variant_weights(AblationVariant.HEURISTIC_ORDER, base) == base
    assert variant_weights(AblationVariant.NO_LAMBDA, base) == RetrievalWeights(
        0.0, 0.3, 0.2, 0.5
    )
    assert variant_weights(AblationVariant.NO_MU, base) == RetrievalWeights(
        1.2, 0.0, 0.2, 0.5
    )
    assert variant_weights(AblationVariant.NO_NU, base) == RetrievalWeights(
        1.2, 0.3, 0.0, 0.5
    )
    assert variant_weights(AblationVariant.NO_RHO, base) == RetrievalWeights(
        1.2, 0.3, 0.2, 0.0
    )
    assert variant_weights(AblationVariant.NO_ORDER, base) == RetrievalWeights(
        0.0, 0.0, 0.2, 0.5
    )


def test_variant_transition_kind():
    for variant in AblationVariant:
        expected = "heuristic" if variant is AblationVariant.HEURISTIC_ORDER else "learned"
        assert variant_transition(variant) == expected


def _answer_fixture():
    corpus = generate_synthetic(seed=0, n_groups=1, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    group = corpus.scenarios[0].group_id
    horizons = sorted({f["horizon"] for f in corpus.facts if f["horizon"] is not None}, reverse=True)

    def edge_id(relation, horizon):
        matches = [
            edge.id
            for edge in graph.group_edges(group)
            if edge.relation == relation and edge.horizon == horizon
        ]
        assert len(matches) == 1
        return matches[0]

    return corpus, graph, horizons, edge_id


def test_extract_final_value_reads_last_occurrence():
    corpus, graph, (early, late), edge_id = _answer_fixture()
    steps = [edge_id("has_category_state", early), edge_id("has_category_state", late)]
    qa = next(
        item
        for item in corpus.qa
        if item.kind == "final_value" and item.attribute == "category"
    )
    assert extract_answer(steps, graph, qa) == qa.expected
    # Reading the steps backwards lands on the stale early value.
    assert extract_answer(list(reversed(steps)), graph, qa) == "0"
    assert extract_answer([], graph, qa) is None


def test_extract_escalation_compares_first_and_last_readings():
    corpus, graph, (early, late), edge_id = _answer_fixture()
    steps = [
        edge_id("has_leadtime_probability", early),
        edge_id("has_leadtime_probability", late),
    ]
    qa = next(
        item
        for item in corpus.qa
        if item.kind == "escalation" and item.attribute == "gale_probability_pct"
    )
    assert extract_answer(steps, graph, qa) == "Yes"
    assert extract_answer(list(reversed(steps)), graph, qa) == "No"
    # A single reading cannot answer an escalation question.
    assert extract_answer(steps[:1], graph, qa) is None


def test_extract_at_horizon_needs_the_matching_lead_time():
    corpus, graph, horizons, edge_id = _answer_fixture()
    qa = next(
        item
        for item in corpus.qa
        if item.kind == "at_horizon" and item.attribute == "operation_status"
    )
    other = next(h for h in horizons if h != qa.horizon)
    good = edge_id("has_operation_status", qa.horizon)
    wrong_horizon = edge_id("has_operation_status", other)
    assert extract_answer([wrong_horizon, good], graph, qa) == qa.expected
    assert extract_answer([wrong_horizon], graph, qa) is None


def test_extract_answer_ignores_other_groups():
    corpus = generate_synthetic(seed=0, n_groups=2, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    first, second = corpus.scenarios
    foreign_steps = list(second.ground_truth)
    qa = next(item for item in corpus.qa if item.group_id == first.group_id)
    assert extract_answer(foreign_steps, graph, qa) is None


def test_extract_answer_rejects_unknown_kind():
    corpus, graph, _, _ = _answer_fixture()
    qa = QAItem(
        question="q",
        group_id=corpus.scenarios[0].group_id,
        kind="mystery",
        order_sensitivity="order_sensitive",
        attribute="category",
        expected="1",
    )
    with pytest.raises(ValueError):
        extract_answer([], graph, qa)


def test_shuffled_steps_are_deterministic_and_differ():
    steps = [f"edge-{i}" for i in range(6)]
    first = _shuffled_steps(steps, seed=3, query_index=7)
    second = _shuffled_steps(steps, seed=3, query_index=7)
    assert first == second
    assert first != steps
    assert sorted(first) == sorted(steps)
    assert _shuffled_steps(steps, seed=4, query_index=7) != first
    assert _shuffled_steps(["solo"], seed=3, query_index=7) == ["solo"]


def test_report_serialization_and_table():
    report = AblationReport(
        variant="full",
        n_queries=12,
        mean_score=1.5,
        mean_tau=0.42,
        tau_samples=10,
        mean_precedence=0.9,
        mean_continuity=0.5,
        mean_coverage=0.6,
        oracle_accuracy=0.75,
    )
    payload = report.to_json_dict()
    assert payload["variant"] == "full"
    assert payload["mean_tau"] == 0.42
    assert set(payload) == {
        "variant",
        "n_queries",
        "mean_score",
        "mean_tau",
        "tau_samples",
        "mean_precedence",
        "mean_continuity",
        "mean_coverage",
        "oracle_accuracy",
    }
    table = format_report_table([report])
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == [
        "variant",
        "queries",
        "score",
        "tau",
        "prec",
        "cont",
        "cov",
        "oracle",
    ]
    assert lines[2].startswith("full")
    assert "0.4200" in lines[2]


def _ablation_fixture():
    corpus = generate_synthetic(seed=0, n_groups=2, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(64))
    retriever = Retriever(
        graph,
        store,
        PrecedenceIndex.build(graph),
        TransitionModel.create(64, rank=8, seed=0),
    )
    search = SearchConfig(beam_width=4, trajectory_length=6, num_trajectories=2)
    scope = ScopeConfig(top_k=20, pool_cap=40)
    return corpus, retriever, search, scope


def test_run_ablation_reports_all_queries():
    corpus, retriever, search, scope = _ablation_fixture()
    report = run_ablation(
        retriever,
        corpus.qa,
        corpus.scenarios,
        AblationVariant.FULL,
        search=search,
        scope=scope,
    )
    assert report.variant == "full"
    assert report.n_queries == len(corpus.qa) == 12
    assert 0 <= report.tau_samples <= report.n_queries
    assert -1.0 <= report.mean_tau <= 1.0
    assert 0.0 <= report.mean_precedence <= 1.0
    assert 0.0 <= report.mean_continuity <= 1.0
    assert 0.0 <= report.mean_coverage <= 1.0
    assert 0.0 <= report.oracle_accuracy <= 1.0


def test_run_ablation_shuffled_degrades_ordering():
    corpus, retriever, search, scope = _ablation_fixture()
    full = run_ablation(
        retriever,
        corpus.qa,
        corpus.scenarios,
        AblationVariant.FULL,
        search=search,
        scope=scope,
        seed=0,
    )
    shuffled = run_ablation(
        retriever,
        corpus.qa,
        corpus.scenarios,
        AblationVariant.SHUFFLED,
        search=search,
        scope=scope,
        seed=0,
    )
    assert shuffled.mean_tau < full.mean_tau
    assert shuffled.n_queries == full.n_queries
    # Shuffling reorders retrieved steps; it does not change what was found.
    assert shuffled.mean_coverage == pytest.approx(full.mean_coverage)


def test_run_ablation_heuristic_has_rule_consistent_precedence():
    corpus, retriever, search, scope = _ablation_fixture()
    report = run_ablation(
        retriever,
        corpus.qa,
        corpus.scenarios,
        AblationVariant.HEURISTIC_ORDER,
        search=search,
        scope=scope,
    )
    assert report.variant == "heuristic_order"
    assert report.mean_precedence == pytest.approx(1.0)


def test_run_ablation_requires_known_scenarios():
    corpus, retriever, search, scope = _ablation_fixture()
    orphan = QAItem(
        question="q",
        group_id="GHOST:nowhere",
        kind="final_value",
        order_sensitivity="order_sensitive",
        attribute="category",
        expected="1",
    )
    with pytest.raises(ValueError):
        run_ablation(
            retriever,
            [orphan],
            corpus.scenarios,
            AblationVariant.FULL,
            search=search,
            scope=scope,
        )


def test_heldout_order_measurement_stays_above_its_floors():
    # Train on 8 groups, then score the 4 held-out groups' 24 questions and
    # their in-group text-order pairs. The floors are what the current model
    # passes; a model that carries order would raise no_mu's tau, and full's
    # oracle above no_lambda's.
    corpus = generate_synthetic(seed=1, n_groups=12, horizons_per_group=3)
    train_ids = {scenario.group_id for scenario in corpus.scenarios[:8]}
    held_out = corpus.scenarios[8:]
    train_graph = merge_facts([[fact for fact in corpus.facts if fact["group"] in train_ids]])
    embedder = LocalHashingEmbedder(256)
    model = TransitionModel.create(256, 32)
    pairs = build_pairs(train_graph, PrecedenceIndex.build(train_graph))
    train(model, pairs, EmbeddingStore.build(train_graph, embedder), TrainingConfig(epochs=5))

    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, embedder)
    retriever = Retriever(graph, store, PrecedenceIndex.build(graph), model)
    questions = [qa for qa in corpus.qa if qa.group_id not in train_ids]
    assert len(questions) == 24
    full, no_lambda, no_mu = (
        run_ablation(retriever, questions, held_out, variant)
        for variant in (AblationVariant.FULL, AblationVariant.NO_LAMBDA, AblationVariant.NO_MU)
    )
    margins = forward_margins(model, store, graph, [scenario.group_id for scenario in held_out])
    median = float(np.median(margins))
    print(
        f"held-out: no_mu tau {no_mu.mean_tau:.3f}, full - no_lambda oracle"
        f" {full.oracle_accuracy - no_lambda.oracle_accuracy:+.3f}, median margin"
        f" {median:.4f} nats, forward accuracy {(margins > 0).mean():.3f} of {margins.size}"
    )
    assert no_mu.mean_tau >= 0.25
    assert full.oracle_accuracy >= no_lambda.oracle_accuracy - 0.05
    assert median > 0
