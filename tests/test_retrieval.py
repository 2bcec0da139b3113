import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okh.corpus import generate_synthetic
from okh.embedding import EmbeddingStore, LocalHashingEmbedder
from okh.errors import EmptyCorpus
from okh.evaluation import AblationVariant, variant_transition, variant_weights
from okh.hypergraph import merge_facts
from okh.precedence import Order, PrecedenceIndex
from okh.relations import COVERAGE_PHASES, phase_of_family
from okh.retrieval import (
    DIVERSITY_OVERLAP_THRESHOLD,
    HEURISTIC_BACKWARD,
    HEURISTIC_FORWARD,
    HEURISTIC_UNRELATED,
    RetrievalWeights,
    Retriever,
    ScopeConfig,
    SearchConfig,
    Trajectory,
    beam_search,
    entity_continuity,
    jaccard,
    phase_coverage,
    precedence_consistency,
    scope_candidates,
    trajectory_score,
    viterbi,
)
from okh.retrieval import _CandidateContext, _fsum_rows, _select_diverse
from okh.transition import TrainingConfig, TransitionModel, build_pairs, log_softmax_rows, train


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


def _chain_graph():
    # One group, one horizon: the within-horizon rules give a clean phase
    # chain advisory -> forecast -> observation -> operations -> impact ->
    # recovery, and every edge shares the port plus the horizon anchor.
    facts = [
        _fact("has_watch_status", "advisory", "advisory_status", 48, 0),
        _fact("forecasts_hazard_at_horizon", "wind_fcst", "hazard_forecast", 48, 1),
        _fact("observes_hazard_at_horizon", "wind_obs", "hazard_observation", 48, 2),
        _fact("has_operation_status", "ops", "operation_status", 48, 3),
        _fact("affects_vessel_handling", "handling", "operation_status", 48, 4),
        _fact("has_impact_prediction", "impact", "impact_prediction", 48, 5),
        _fact("has_recovery_status", "recovery", "recovery_status", 48, 6),
        _fact("has_threshold_status", "threshold", "probability_state", 48, 7),
    ]
    graph = merge_facts([facts])
    return graph, PrecedenceIndex.build(graph)


def _eid(graph, relation):
    matches = [e.id for e in graph.hyperedges.values() if e.relation == relation]
    assert len(matches) == 1
    return matches[0]


def _basis_store(ids, dim=None):
    # Row i is the i-th basis vector, so a query vector listing per-candidate
    # relevance values reproduces them exactly under the dot product.
    dim = dim or max(8, len(ids))
    matrix = np.zeros((len(ids), dim))
    matrix[np.arange(len(ids)), np.arange(len(ids))] = 1.0
    return EmbeddingStore(list(ids), matrix, LocalHashingEmbedder(dim))


def _query_for(rel, dim=None):
    dim = dim or max(8, len(rel))
    vector = np.zeros(dim)
    vector[: len(rel)] = rel
    return vector


def test_jaccard_of_partially_overlapping_sets():
    assert jaccard(frozenset({"a", "b"}), frozenset({"b", "c"})) == pytest.approx(1 / 3)


def test_jaccard_handles_empty_and_disjoint_sets():
    assert jaccard(frozenset(), frozenset()) == 0.0
    assert jaccard(frozenset({"a"}), frozenset({"b"})) == 0.0
    assert jaccard(frozenset({"a"}), frozenset({"a"})) == 1.0


def test_precedence_consistency_on_forward_chain_is_one():
    graph, precedence = _chain_graph()
    steps = [
        _eid(graph, "has_watch_status"),
        _eid(graph, "forecasts_hazard_at_horizon"),
        _eid(graph, "has_operation_status"),
    ]
    assert precedence_consistency(steps, precedence) == 1.0
    assert precedence_consistency(list(reversed(steps)), precedence) == 0.0


def test_precedence_consistency_mixes_forward_and_backward():
    graph, precedence = _chain_graph()
    adv = _eid(graph, "has_watch_status")
    fc = _eid(graph, "forecasts_hazard_at_horizon")
    obs = _eid(graph, "observes_hazard_at_horizon")
    # adv -> obs is forward, obs -> fc is backward: one of two comparable.
    assert precedence_consistency([adv, obs, fc], precedence) == pytest.approx(0.5)


def test_precedence_consistency_without_comparable_pairs_is_zero():
    graph, precedence = _chain_graph()
    # Two operation-status edges share a family, so no rule orders them.
    ops = _eid(graph, "has_operation_status")
    handling = _eid(graph, "affects_vessel_handling")
    assert precedence_consistency([ops, handling], precedence) == 0.0
    assert precedence_consistency([ops], precedence) == 0.0


def test_entity_continuity_averages_consecutive_overlap():
    graph, _ = _chain_graph()
    steps = [
        _eid(graph, "has_watch_status"),
        _eid(graph, "forecasts_hazard_at_horizon"),
        _eid(graph, "has_operation_status"),
    ]
    # Consecutive edges share the port and the T-48 anchor out of four
    # distinct entities, so each overlap is 1/2.
    assert entity_continuity(steps, graph) == pytest.approx(0.5)
    assert entity_continuity(steps[:1], graph) == 0.0


def test_phase_coverage_of_three_phases_is_half():
    graph, _ = _chain_graph()
    steps = [
        _eid(graph, "has_watch_status"),
        _eid(graph, "forecasts_hazard_at_horizon"),
        _eid(graph, "has_operation_status"),
    ]
    assert phase_coverage(steps, graph) == pytest.approx(0.5)


def test_phase_coverage_ignores_non_coverage_families():
    graph, _ = _chain_graph()
    threshold = _eid(graph, "has_threshold_status")
    advisory = _eid(graph, "has_watch_status")
    assert phase_coverage([threshold], graph) == 0.0
    assert phase_coverage([threshold, advisory], graph) == pytest.approx(1 / 6)


def test_phase_coverage_counts_distinct_phases_once():
    graph, _ = _chain_graph()
    ops = _eid(graph, "has_operation_status")
    handling = _eid(graph, "affects_vessel_handling")
    assert phase_coverage([ops, handling], graph) == pytest.approx(1 / 6)


def test_trajectory_score_recomposes_weighted_terms():
    graph, precedence = _chain_graph()
    adv = _eid(graph, "has_watch_status")
    fc = _eid(graph, "forecasts_hazard_at_horizon")
    ops = _eid(graph, "has_operation_status")
    steps = [adv, fc, ops]
    relevance = {adv: 0.3, fc: 0.2, ops: 0.1}
    transition = {(adv, fc): -0.5, (fc, ops): -0.25}
    weights = RetrievalWeights(1.2, 0.3, 0.2, 0.5)
    total, breakdown = trajectory_score(
        steps,
        relevance.__getitem__,
        lambda a, b: transition[(a, b)],
        precedence,
        graph,
        weights,
    )
    assert breakdown["relevance"] == pytest.approx(0.6)
    assert breakdown["coherence"] == pytest.approx(-0.75)
    assert breakdown["precedence"] == pytest.approx(1.0)
    assert breakdown["continuity"] == pytest.approx(0.5)
    assert breakdown["coverage"] == pytest.approx(0.5)
    # 0.6 + 1.2*(-0.75) + 0.3*1.0 + 0.2*0.5 + 0.5*0.5
    assert total == pytest.approx(0.35)


def test_heuristic_transition_matrix_values():
    graph, precedence = _chain_graph()
    adv = _eid(graph, "has_watch_status")
    fc = _eid(graph, "forecasts_hazard_at_horizon")
    ops = _eid(graph, "has_operation_status")
    handling = _eid(graph, "affects_vessel_handling")
    store = _basis_store(sorted(graph.hyperedges))
    model = TransitionModel(np.zeros((1, store.dim)), np.zeros((1, store.dim)))
    retriever = Retriever(graph, store, precedence, model)
    matrix = retriever.transition_matrix([adv, fc, ops, handling], kind="heuristic")
    assert matrix[0, 1] == HEURISTIC_FORWARD
    assert matrix[1, 0] == HEURISTIC_BACKWARD
    # Transitive reachability counts as forward.
    assert matrix[0, 2] == HEURISTIC_FORWARD
    # Same-family edges are unrelated, as is the diagonal.
    assert matrix[2, 3] == HEURISTIC_UNRELATED
    assert matrix[3, 2] == HEURISTIC_UNRELATED
    assert matrix[0, 0] == HEURISTIC_UNRELATED
    assert set(np.unique(matrix)) <= {
        HEURISTIC_FORWARD,
        HEURISTIC_UNRELATED,
        HEURISTIC_BACKWARD,
    }


def test_scope_candidates_requires_a_corpus():
    graph = merge_facts([])
    store = _basis_store([])
    with pytest.raises(EmptyCorpus):
        scope_candidates(np.zeros(8), graph, store)


def test_scope_candidates_expands_from_seed_entities():
    facts = [
        _fact("forecasts_hazard_at_horizon", "wind_fcst", "hazard_forecast", 48, 0),
        {
            "relation": "has_operation_status",
            "entities": [
                {"id": "port:pa", "name": "Port Arthur", "type": "port"},
                {"id": "ops:ZETA:pa:T-24", "name": "ops 24", "type": "operation_status"},
            ],
            "evidence": "ops at T-24",
            "attributes": {},
            "confidence": 1.0,
            "group": "ZETA:pa",
            "horizon": 24,
            "text_position": 0,
        },
        {
            "relation": "has_recovery_status",
            "entities": [
                {"id": "port:elsewhere", "name": "Elsewhere", "type": "port"},
                {"id": "recovery:OLAF:el:T-24", "name": "rec 24", "type": "recovery_status"},
            ],
            "evidence": "recovery at T-24",
            "attributes": {},
            "confidence": 1.0,
            "group": "OLAF:elsewhere",
            "horizon": 24,
            "text_position": 0,
        },
    ]
    graph = merge_facts([facts])
    ids = sorted(graph.hyperedges)
    seed = _eid(graph, "forecasts_hazard_at_horizon")
    neighbor = _eid(graph, "has_operation_status")
    stranger = _eid(graph, "has_recovery_status")
    rel = [1.0 if eid == seed else 0.0 for eid in ids]
    store = _basis_store(ids)
    result = scope_candidates(
        _query_for(rel), graph, store, ScopeConfig(top_k=1, pool_cap=10)
    )
    # The port-sharing edge rides in on the seed's entities; the edge in an
    # unrelated group at a different horizon stays out.
    assert seed in result
    assert neighbor in result
    assert stranger not in result


def test_scope_candidates_reserves_pool_share_for_query_group():
    corpus = generate_synthetic(seed=3, n_groups=8, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(64))
    group = corpus.scenarios[0].group_id
    query = store.embed_query("gale probability and port operations")
    config = ScopeConfig(top_k=80, pool_cap=150, group_reserve_fraction=0.40)

    chosen = scope_candidates(query, graph, store, config, query_group=group)
    assert len(chosen) == 150
    in_group = [eid for eid in chosen if graph.hyperedges[eid].group_id == group]
    # ceil(0.4 * 150) = 60 slots reserved and the group owns exactly 60 edges.
    assert len(in_group) == 60
    assert len(graph.groups[group]) == 60

    # Deterministic, relevance-ranked output with id tie-breaks.
    relevance = store.relevance(query)
    rel_of = {eid: float(relevance[store.row_of[eid]]) for eid in store.ids}
    assert chosen == sorted(chosen, key=lambda eid: (-rel_of[eid], eid))
    assert chosen == scope_candidates(query, graph, store, config, query_group=group)


def test_scope_candidates_unknown_group_falls_back_to_plain_ranking():
    corpus = generate_synthetic(seed=3, n_groups=2, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(64))
    query = store.embed_query("surge forecast")
    config = ScopeConfig(top_k=10, pool_cap=20)
    assert scope_candidates(query, graph, store, config, query_group="NOBODY:nowhere") == scope_candidates(
        query, graph, store, config
    )


def test_beam_search_with_zero_weights_is_top_relevance_ranking():
    graph, precedence = _chain_graph()
    ids = sorted(graph.hyperedges)
    store = _basis_store(ids)
    rel = [0.31, 0.95, 0.07, 0.62, 0.18, 0.84, 0.41, 0.55]
    query = _query_for(rel)
    weights = RetrievalWeights(0.0, 0.0, 0.0, 0.0)
    config = SearchConfig(
        beam_width=8, trajectory_length=4, num_trajectories=1, diversity_penalty=0.0
    )
    expected = [eid for _, eid in sorted(zip([-r for r in rel], ids))][:4]

    zeros = np.zeros((len(ids), len(ids)))
    trajectories = beam_search(query, ids, graph, store, precedence, zeros, weights, config)
    assert trajectories[0].steps == expected
    assert trajectories[0].total_score == pytest.approx(sum(sorted(rel)[-4:]))

    # Permutation of the candidate list changes nothing.
    shuffled = list(reversed(ids))
    rel_shuffled = [rel[ids.index(eid)] for eid in shuffled]
    store_shuffled = EmbeddingStore(
        shuffled,
        np.stack([store.vector(eid) for eid in shuffled]),
        LocalHashingEmbedder(8),
    )
    again = beam_search(
        query, shuffled, graph, store_shuffled, precedence, zeros, weights, config
    )
    assert again[0].steps == expected


def test_beam_search_truncates_when_length_exceeds_candidates():
    graph, precedence = _chain_graph()
    ids = sorted(graph.hyperedges)[:3]
    store = _basis_store(ids)
    query = _query_for([0.5, 0.9, 0.1])
    config = SearchConfig(
        beam_width=4, trajectory_length=8, num_trajectories=1, diversity_penalty=0.0
    )
    trajectories = beam_search(
        query, ids, graph, store, precedence, np.zeros((3, 3)), RetrievalWeights(0, 0, 0, 0),
        config,
    )
    assert len(trajectories[0].steps) == 3


def test_beam_search_empty_candidates_returns_no_trajectories():
    graph, precedence = _chain_graph()
    store = _basis_store(sorted(graph.hyperedges))
    assert beam_search(np.zeros(8), [], graph, store, precedence, np.zeros((0, 0))) == []


def _random_instance(rng, graph_ids):
    n = int(rng.integers(2, 9))
    length = int(rng.integers(1, min(4, n) + 1))
    lam = float(rng.uniform(0.5, 2.0))
    ids = graph_ids[:n]
    rel = rng.uniform(0.0, 1.0, n)
    log_transition = log_softmax_rows(rng.normal(0.0, 1.0, (n, n)))
    return n, length, lam, ids, rel, log_transition


def test_beam_two_term_score_never_exceeds_viterbi():
    graph, precedence = _chain_graph()
    graph_ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(7)
    for _ in range(30):
        n, length, lam, ids, rel, log_transition = _random_instance(rng, graph_ids)
        store = _basis_store(ids)
        query = _query_for(rel)
        exact = viterbi(query, ids, store, log_transition, lam, length)
        config = SearchConfig(
            beam_width=8,
            trajectory_length=length,
            num_trajectories=1,
            diversity_penalty=0.0,
        )
        approx = beam_search(
            query,
            ids,
            graph,
            store,
            precedence,
            log_transition,
            RetrievalWeights(lam, 0.0, 0.0, 0.0),
            config,
        )
        assert approx[0].total_score <= exact.total_score + 1e-9


def test_wide_beam_matches_no_repeat_viterbi():
    graph, precedence = _chain_graph()
    graph_ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, length, lam, ids, rel, log_transition = _random_instance(rng, graph_ids)
        store = _basis_store(ids)
        query = _query_for(rel)
        oracle = viterbi(
            query,
            ids,
            store,
            log_transition,
            lam,
            length,
            no_repeat=True,
        )
        config = SearchConfig(
            beam_width=n * length,
            trajectory_length=length,
            num_trajectories=1,
            diversity_penalty=0.0,
        )
        approx = beam_search(
            query,
            ids,
            graph,
            store,
            precedence,
            log_transition,
            RetrievalWeights(lam, 0.0, 0.0, 0.0),
            config,
        )
        assert approx[0].total_score == pytest.approx(oracle.total_score, abs=1e-9)


def _diversity_instance():
    graph, precedence = _chain_graph()
    ids = sorted(graph.hyperedges)
    rel = np.array([1.0, 0.95, 0.9, 0.88, 0.5, 0.45, 0.4, 0.1])
    log_transition = np.full((8, 8), -3.0)
    # Strong chain 0 -> 1 -> {2 or 3} plus a disjoint chain 4 -> 5 -> 6.
    log_transition[0, 1] = log_transition[1, 2] = log_transition[1, 3] = 0.0
    log_transition[4, 5] = log_transition[5, 6] = 0.0
    store = _basis_store(ids)
    return graph, precedence, ids, store, _query_for(rel), log_transition


def test_diversity_penalty_trades_score_for_distinct_steps():
    graph, precedence, ids, store, query, log_transition = _diversity_instance()
    weights = RetrievalWeights(1.0, 0.0, 0.0, 0.0)

    def run(penalty):
        config = SearchConfig(
            beam_width=8,
            trajectory_length=3,
            num_trajectories=2,
            diversity_penalty=penalty,
        )
        trajectories = beam_search(
            query, ids, graph, store, precedence, log_transition, weights, config,
        )
        return [[ids.index(step) for step in t.steps] for t in trajectories]

    assert run(5.0) == [[0, 1, 2], [4, 5, 6]]
    # Without the penalty the near-duplicate tail swap ranks second.
    assert run(0.0) == [[0, 1, 2], [0, 1, 3]]


def test_diversity_penalty_does_not_change_reported_totals():
    graph, precedence, ids, store, query, log_transition = _diversity_instance()
    config = SearchConfig(
        beam_width=8,
        trajectory_length=3,
        num_trajectories=2,
        diversity_penalty=5.0,
    )
    trajectories = beam_search(
        query, ids, graph, store, precedence, log_transition,
        RetrievalWeights(1.0, 0.0, 0.0, 0.0), config,
    )
    # Totals are the exact objective values, not the penalized ranks.
    assert trajectories[0].total_score == pytest.approx(2.85)
    assert trajectories[1].total_score == pytest.approx(1.35)


def test_beam_breakdown_matches_exact_rescoring():
    graph, precedence = _chain_graph()
    ids = sorted(graph.hyperedges)
    store = _basis_store(ids)
    rng = np.random.default_rng(23)
    query = _query_for(rng.uniform(0.0, 1.0, len(ids)))
    weights = RetrievalWeights(1.2, 0.3, 0.2, 0.5)
    config = SearchConfig(beam_width=4, trajectory_length=5, num_trajectories=3)
    model = TransitionModel.create(store.dim, rank=4, seed=0)
    rows = np.stack([store.vector(eid) for eid in ids])
    log_transition = model.log_transition_matrix(rows)
    trajectories = beam_search(
        query, ids, graph, store, precedence, log_transition, weights, config
    )
    index_of = {eid: i for i, eid in enumerate(ids)}
    relevance = rows @ query
    for trajectory in trajectories:
        total, breakdown = trajectory_score(
            trajectory.steps,
            lambda eid: float(relevance[index_of[eid]]),
            lambda a, b: float(log_transition[index_of[a], index_of[b]]),
            precedence,
            graph,
            weights,
        )
        assert trajectory.total_score == pytest.approx(total, abs=1e-12)
        assert trajectory.breakdown == pytest.approx(breakdown)
        for term in ("precedence", "continuity", "coverage"):
            assert 0.0 <= trajectory.breakdown[term] <= 1.0


def test_viterbi_with_zero_lambda_repeats_the_best_candidate():
    graph, _ = _chain_graph()
    ids = sorted(graph.hyperedges)[:4]
    store = _basis_store(ids)
    query = _query_for([0.2, 0.9, 0.5, 0.1])
    result = viterbi(query, ids, store, np.zeros((4, 4)), 0.0, 3)
    assert result.steps == [ids[1]] * 3
    assert result.total_score == pytest.approx(2.7)


def test_viterbi_breaks_score_ties_toward_smaller_id_sequence():
    graph, _ = _chain_graph()
    ids = sorted(graph.hyperedges)[:3]
    store = _basis_store(ids)
    query = _query_for([0.4, 0.4, 0.4])
    result = viterbi(query, ids, store, np.zeros((3, 3)), 0.0, 2)
    assert result.steps == [ids[0], ids[0]]


def test_viterbi_length_one_picks_the_argmax():
    graph, _ = _chain_graph()
    ids = sorted(graph.hyperedges)[:5]
    store = _basis_store(ids)
    query = _query_for([0.1, 0.2, 0.8, 0.3, 0.4])
    result = viterbi(query, ids, store, np.zeros((5, 5)), 1.7, 1)
    assert result.steps == [ids[2]]
    assert result.breakdown["coherence"] == 0.0


def test_viterbi_matches_brute_force_on_random_instances():
    graph, _ = _chain_graph()
    graph_ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(13)
    for trial in range(50):
        n, length, lam, ids, rel, log_transition = _random_instance(rng, graph_ids)
        if trial % 2:
            # A coarse grid makes score ties common, so the id tie-break decides.
            rel = np.round(rel * 4) / 4
            log_transition = np.round(log_transition)
            lam = 1.0
        store = _basis_store(ids)
        query = _query_for(rel)
        runs = [(False, length), (True, length)]
        if n <= 6:
            # Past the candidate count, where no_repeat caps the length.
            runs.append((True, n + 1))
        for no_repeat, run_length in runs:
            result = viterbi(query, ids, store, log_transition, lam, run_length, no_repeat=no_repeat)
            if no_repeat:
                sequences = itertools.permutations(range(n), min(run_length, n))
            else:
                sequences = itertools.product(range(n), repeat=run_length)
            best = None
            for seq in sequences:
                score = float(rel[seq[0]])
                for i, j in zip(seq, seq[1:]):
                    score = (score + float(rel[j])) + lam * float(log_transition[i, j])
                key = (-score, tuple(ids[k] for k in seq))
                if best is None or key < best:
                    best = key
            assert result.total_score == pytest.approx(-best[0], abs=1e-9)
            assert tuple(result.steps) == best[1]


def test_viterbi_no_repeat_never_revisits_and_truncates():
    graph, _ = _chain_graph()
    ids = sorted(graph.hyperedges)[:3]
    store = _basis_store(ids)
    query = _query_for([0.9, 0.5, 0.2])
    result = viterbi(query, ids, store, np.zeros((3, 3)), 0.0, 5, no_repeat=True)
    assert sorted(result.steps) == sorted(ids)
    assert len(set(result.steps)) == 3


def test_viterbi_rejects_empty_and_oversized_no_repeat_inputs():
    graph, _ = _chain_graph()
    store = _basis_store(sorted(graph.hyperedges))
    with pytest.raises(EmptyCorpus):
        viterbi(np.zeros(8), [], store, np.zeros((0, 0)), 1.0, 3)
    many = [f"edge-{i:02d}" for i in range(23)]
    wide = EmbeddingStore(many, np.eye(23), LocalHashingEmbedder(23))
    with pytest.raises(ValueError):
        viterbi(np.zeros(23), many, wide, np.zeros((23, 23)), 1.0, 3, no_repeat=True)


def test_retrieval_weights_and_configs_reject_bad_values():
    with pytest.raises(ValueError):
        RetrievalWeights(lambda_coherence=-0.1)
    with pytest.raises(ValueError):
        SearchConfig(beam_width=0)
    with pytest.raises(ValueError):
        SearchConfig(diversity_penalty=-1.0)
    with pytest.raises(ValueError):
        ScopeConfig(pool_cap=0)
    with pytest.raises(ValueError):
        ScopeConfig(group_reserve_fraction=1.2)


@pytest.mark.parametrize("penalty", [math.nan, math.inf, -math.inf])
def test_search_config_refuses_a_non_finite_diversity_penalty(penalty):
    message = f"^diversity_penalty must be finite and non-negative, got {penalty}$"
    with pytest.raises(ValueError, match=message):
        SearchConfig(diversity_penalty=penalty)


def test_trajectory_to_dict_sorts_breakdown_keys():
    trajectory = Trajectory(["b", "a"], 1.5, {"coverage": 0.5, "coherence": -1.0})
    payload = trajectory.to_dict()
    assert payload == {
        "steps": ["b", "a"],
        "total": 1.5,
        "breakdown": {"coherence": -1.0, "coverage": 0.5},
    }
    assert list(payload["breakdown"]) == ["coherence", "coverage"]


def _small_retriever(seed=0):
    corpus = generate_synthetic(seed=seed, n_groups=2, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(64))
    precedence = PrecedenceIndex.build(graph)
    model = TransitionModel.create(store.dim, rank=8, seed=seed)
    return corpus, Retriever(graph, store, precedence, model)


def test_retriever_returns_scored_trajectories():
    corpus, retriever = _small_retriever()
    group = corpus.scenarios[0].group_id
    trajectories = retriever.retrieve(
        "What is the gale probability?",
        search=SearchConfig(beam_width=4, trajectory_length=4, num_trajectories=2),
        scope=ScopeConfig(top_k=20, pool_cap=40),
        query_group=group,
    )
    assert 1 <= len(trajectories) <= 2
    for trajectory in trajectories:
        assert trajectory.steps
        for step in trajectory.steps:
            assert step in retriever.hypergraph.hyperedges
        assert set(trajectory.breakdown) == {
            "relevance",
            "coherence",
            "precedence",
            "continuity",
            "coverage",
        }

    payload = retriever.result_dict("q", trajectories)
    assert payload["query"] == "q"
    assert len(payload["trajectories"]) == len(trajectories)
    assert payload["trajectories"][0]["steps"] == trajectories[0].steps


def test_retriever_heuristic_transitions_use_rule_values():
    corpus, retriever = _small_retriever()
    ids = sorted(retriever.hypergraph.hyperedges)[:12]
    heuristic = retriever.transition_matrix(ids, kind="heuristic")
    learned = retriever.transition_matrix(ids, kind="learned")
    assert set(np.unique(heuristic)) <= {
        HEURISTIC_FORWARD,
        HEURISTIC_UNRELATED,
        HEURISTIC_BACKWARD,
    }
    # Learned rows are normalized distributions; the heuristic is not.
    assert np.exp(learned).sum(axis=1) == pytest.approx(np.ones(len(ids)), abs=1e-9)
    assert not np.allclose(heuristic, learned)


def test_retriever_heuristic_matrix_matches_pairwise_precedes():
    corpus, retriever = _small_retriever()
    # Both groups, out of id order, so cross-group pairs and row order count.
    ids = sorted(retriever.hypergraph.hyperedges, key=lambda eid: eid[::-1])[:40]
    value_of = {
        Order.BEFORE: HEURISTIC_FORWARD,
        Order.AFTER: HEURISTIC_BACKWARD,
        Order.UNRELATED: HEURISTIC_UNRELATED,
    }
    expected = np.array(
        [[value_of[retriever.precedence.precedes(a, b)] for b in ids] for a in ids]
    )
    matrix = retriever.transition_matrix(ids, kind="heuristic")
    assert matrix.dtype == np.float64
    assert np.array_equal(matrix, expected)
    assert (matrix == HEURISTIC_FORWARD).any() and (matrix == HEURISTIC_BACKWARD).any()


def test_retriever_rejects_unknown_transition_kind():
    corpus, retriever = _small_retriever()
    ids = sorted(retriever.hypergraph.hyperedges)[:4]
    with pytest.raises(ValueError, match="'bogus'"):
        retriever.transition_matrix(ids, kind="bogus")
    with pytest.raises(ValueError, match="'heuristc'"):
        retriever.retrieve(corpus.qa[0].question, transition="heuristc")


def test_score_gives_every_retrieved_trajectory_its_own_score():
    corpus, retriever = _small_retriever()
    scope = ScopeConfig(top_k=20, pool_cap=40)
    checked = 0
    for variant in AblationVariant:
        weights, transition = variant_weights(variant), variant_transition(variant)
        for qa in corpus.qa:
            for trajectory in retriever.retrieve(
                qa.question, weights, SearchConfig(), scope, qa.group_id, transition
            ):
                scored = retriever.score(
                    qa.question, trajectory.steps, weights, scope, qa.group_id, transition
                )
                assert scored.steps == trajectory.steps
                assert scored.total_score == trajectory.total_score, (variant, qa.question)
                assert scored.breakdown == trajectory.breakdown
                checked += 1
    assert checked > len(AblationVariant) * len(corpus.qa)


def test_a_trajectory_count_beyond_the_beam_keeps_the_beams_results():
    # At most beam_width finals exist; a lane table sized by the count asked
    # for would need 8 TB.
    corpus, retriever = _small_retriever()
    qa = corpus.qa[0]
    query = retriever.store.embed_query(qa.question)
    pool = scope_candidates(query, retriever.hypergraph, retriever.store, ScopeConfig(), qa.group_id)
    matrix = retriever.transition_matrix(pool)

    def search(count):
        return beam_search(
            query, pool, retriever.hypergraph, retriever.store, retriever.precedence, matrix,
            config=SearchConfig(beam_width=8, num_trajectories=count),
        )

    assert _bits(search(2**40)) == _bits(search(8))


# -- Reference beam search ---------------------------------------------------
# The per-extension loop and full-sort selection that beam_search replaced
# with one (beams x candidates) score array and a provable shortlist. Kept
# here, unchanged, as the reference the vectorized rounds must reproduce bit
# for bit.

_REF_PHASE_INDEX = {phase: i for i, phase in enumerate(COVERAGE_PHASES)}
_REF_N_PHASES = len(COVERAGE_PHASES)


def _reference_select(entries, limit, threshold, penalty):
    entries.sort(key=lambda item: (-item[0], item[1]))
    selected = []
    for score, tie, beam in entries:
        if selected and len(selected) == limit:
            worst_penalized = min(kept for kept, _, _ in selected)
            if score < worst_penalized:
                break
        length = len(beam["steps"])
        penalized = score
        if penalty > 0:
            for _, _, kept in selected:
                shared = (beam["used"] & kept["used"]).bit_count() / max(length, 1)
                if shared > threshold:
                    penalized = score - penalty
                    break
        if len(selected) < limit:
            selected.append((penalized, tie, beam))
        else:
            worst = max(range(len(selected)), key=lambda k: (-selected[k][0], selected[k][1]))
            if (-penalized, tie) < (-selected[worst][0], selected[worst][1]):
                selected[worst] = (penalized, tie, beam)
    selected.sort(key=lambda item: (-item[0], item[1]))
    return [(score, beam) for score, _, beam in selected]


def _reference_beam_search(
    query, candidate_ids, graph, store, precedence, log_transition, weights, config
):
    ids = list(candidate_ids)
    n = len(ids)
    if n == 0:
        return []
    relevance = np.stack([store.vector(eid) for eid in ids]) @ np.asarray(query, dtype=np.float64)
    edges = [graph.hyperedges[eid] for eid in ids]
    universe = {}
    masks = []
    for edge in edges:
        mask = 0
        for entity_id in edge.entity_ids:
            mask |= 1 << universe.setdefault(entity_id, len(universe))
        masks.append(mask)
    phase_index = np.array(
        [_REF_PHASE_INDEX.get(phase_of_family(edge.family), -1) for edge in edges],
        dtype=np.int64,
    )
    reach = precedence.reach_matrix(ids).astype(np.float64)
    tie_piece = [(-float(relevance[i]), ids[i]) for i in range(n)]

    def jaccard_row(i):
        return np.array(
            [(masks[i] & m).bit_count() / (masks[i] | m).bit_count() for m in masks],
            dtype=np.float64,
        )

    def singleton(i):
        phase = int(phase_index[i])
        gain = weights.rho_coverage / _REF_N_PHASES if phase >= 0 else 0.0
        piece = float(relevance[i]) + gain
        return {
            "tie": (tie_piece[i],),
            "steps": (i,),
            "used": 1 << i,
            "covered": 1 << phase if phase >= 0 else 0,
            "last": i,
            "pieces": (piece,),
        }

    by_relevance = sorted(range(n), key=lambda i: tie_piece[i])
    beams = [singleton(i) for i in by_relevance[: 2 * config.beam_width]]
    for _ in range(config.trajectory_length - 1):
        extensions = []
        for beam in beams:
            if beam["used"].bit_count() == n:
                continue
            scores = (
                relevance
                + weights.lambda_coherence * log_transition[beam["last"]]
                + weights.mu_precedence * reach[beam["last"]]
                + weights.nu_continuity * jaccard_row(beam["last"])
            )
            if weights.rho_coverage:
                new_phase = (phase_index >= 0) & (
                    (beam["covered"] >> np.maximum(phase_index, 0)) & 1 == 0
                )
                scores = scores + weights.rho_coverage * new_phase / _REF_N_PHASES
            for j in range(n):
                if beam["used"] >> j & 1:
                    continue
                phase = int(phase_index[j])
                pieces = beam["pieces"] + (float(scores[j]),)
                tie = beam["tie"] + (tie_piece[j],)
                extensions.append(
                    (
                        math.fsum(pieces),
                        tie,
                        {
                            "tie": tie,
                            "steps": beam["steps"] + (j,),
                            "used": beam["used"] | 1 << j,
                            "covered": beam["covered"] | (1 << phase if phase >= 0 else 0),
                            "last": j,
                            "pieces": pieces,
                        },
                    )
                )
        if not extensions:
            break
        beams = [
            beam
            for _, beam in _reference_select(
                extensions,
                config.beam_width,
                DIVERSITY_OVERLAP_THRESHOLD,
                config.diversity_penalty,
            )
        ]

    index_of = {eid: i for i, eid in enumerate(ids)}

    def rescored(beam):
        steps = [ids[i] for i in beam["steps"]]
        return trajectory_score(
            steps,
            lambda eid: float(relevance[index_of[eid]]),
            lambda a, b: float(log_transition[index_of[a], index_of[b]]),
            precedence,
            graph,
            weights,
        )

    finals = [(rescored(beam)[0], beam["tie"], beam) for beam in beams]
    chosen = _reference_select(
        finals, config.num_trajectories, DIVERSITY_OVERLAP_THRESHOLD, config.diversity_penalty
    )
    return [
        Trajectory([ids[i] for i in beam["steps"]], *rescored(beam)) for _, beam in chosen
    ]


def _bits(trajectories):
    return [
        (t.steps, t.total_score.hex(), sorted((k, v.hex()) for k, v in t.breakdown.items()))
        for t in trajectories
    ]


def _assert_matches_reference(query, ids, graph, store, precedence, matrix, weights, config):
    args = (query, ids, graph, store, precedence, matrix, weights, config)
    expected = _reference_beam_search(*args)
    assert expected, "the reference found no trajectory"
    assert _bits(beam_search(*args)) == _bits(expected), (weights, config)


def test_vectorized_beam_matches_reference_loop_on_tied_pools():
    corpus = generate_synthetic(seed=4, n_groups=2, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    precedence = PrecedenceIndex.build(graph)
    all_ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(5)
    dim = 16
    weight_choices = [
        RetrievalWeights(),
        RetrievalWeights(0.0, 0.0, 0.0, 0.0),
        RetrievalWeights(2.0, 0.0, 0.7, 0.0),
        RetrievalWeights(0.5, 1.0, 0.0, 1.5),
    ]
    cases = 0
    for penalty in (0.0, 0.5, 3.0):
        for _ in range(12):
            n = int(rng.integers(2, 40))
            ids = [all_ids[i] for i in rng.choice(len(all_ids), n, replace=False)]
            # Rows drawn from three vectors: relevance ties broken only by id.
            basis = rng.normal(size=(3, dim))
            matrix = basis[rng.integers(0, 3, n)]
            store = EmbeddingStore(ids, matrix, LocalHashingEmbedder(dim))
            query = rng.normal(size=dim)
            # Transition values on a half-step grid: many exactly tied sums.
            log_transition = rng.integers(-4, 1, (n, n)) * 0.5
            config = SearchConfig(
                beam_width=int(rng.integers(1, 12)),
                trajectory_length=int(rng.integers(1, 7)),
                num_trajectories=int(rng.integers(1, 5)),
                diversity_penalty=penalty,
            )
            weights = weight_choices[int(rng.integers(len(weight_choices)))]
            _assert_matches_reference(
                query, ids, graph, store, precedence, log_transition, weights, config
            )
            cases += 1
        # A beam wider than the pool, and trajectories longer than it.
        ids = all_ids[:5]
        store = EmbeddingStore(ids, rng.normal(size=(5, dim)), LocalHashingEmbedder(dim))
        query = rng.normal(size=dim)
        log_transition = log_softmax_rows(rng.normal(size=(5, 5)))
        for width, length in ((12, 3), (2, 8), (9, 9)):
            config = SearchConfig(
                beam_width=width,
                trajectory_length=length,
                num_trajectories=3,
                diversity_penalty=penalty,
            )
            _assert_matches_reference(
                query, ids, graph, store, precedence, log_transition, RetrievalWeights(), config
            )
    assert cases == 36


def test_vectorized_beam_matches_reference_loop_at_bench_scale():
    # 44 groups and the default pool of 150: the shortlist prunes most of
    # each round's extensions here, unlike in the small golden fixtures.
    corpus = generate_synthetic(seed=1, n_groups=44, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(256))
    retriever = Retriever(
        graph, store, PrecedenceIndex.build(graph), TransitionModel.create(256, rank=32, seed=3)
    )
    for qa in corpus.qa[::40]:
        query = store.embed_query(qa.question)
        pool = scope_candidates(query, graph, store, ScopeConfig(), qa.group_id)
        assert len(pool) == 150
        for kind in ("learned", "heuristic"):
            _assert_matches_reference(
                query,
                pool,
                graph,
                store,
                retriever.precedence,
                retriever.transition_matrix(pool, kind),
                RetrievalWeights(),
                SearchConfig(),
            )


def _reference_scope(query, graph, store, config, query_group):
    # Full sorts of every id, as scope_candidates did before its partial
    # selection; the reference for the test below.
    relevance = store.relevance(query)
    rel_of = {eid: float(relevance[row]) for eid, row in store.row_of.items()}

    def ranked(ids):
        return sorted(ids, key=lambda eid: (-rel_of[eid], eid))

    edges_by_entity = {}
    for edge_id in sorted(graph.hyperedges):
        for entity_id in graph.hyperedges[edge_id].entity_ids:
            edges_by_entity.setdefault(entity_id, []).append(edge_id)

    seeds = ranked(store.ids)[: config.top_k]
    pool = set(seeds)
    for group in {graph.hyperedges[seed].group_id for seed in seeds}:
        pool.update(graph.groups.get(group, ()))
    for seed in seeds:
        for entity_id in graph.hyperedges[seed].entity_ids:
            pool.update(edges_by_entity.get(entity_id, ()))
    if query_group is not None and query_group in graph.groups:
        reserve = math.ceil(config.group_reserve_fraction * config.pool_cap)
        chosen = set(ranked(graph.groups[query_group])[:reserve])
        chosen.update(ranked(pool - chosen)[: max(config.pool_cap - len(chosen), 0)])
        return ranked(chosen)
    return ranked(pool)[: config.pool_cap]


def test_scope_candidates_matches_full_sort_reference_on_tied_relevance():
    corpus = generate_synthetic(seed=6, n_groups=4, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(9)
    dim = 8
    # Rows drawn from four vectors, so the k-th relevance value is shared by
    # many ids and only the id breaks the tie.
    store = EmbeddingStore(
        ids, rng.normal(size=(4, dim))[rng.integers(0, 4, len(ids))], LocalHashingEmbedder(dim)
    )
    groups = sorted(graph.groups) + [None]
    for _ in range(40):
        config = ScopeConfig(
            top_k=int(rng.integers(1, len(ids) + 10)),
            pool_cap=int(rng.integers(1, len(ids) + 10)),
            group_reserve_fraction=float(rng.choice([0.0, 0.4, 1.0])),
        )
        query = rng.normal(size=dim)
        group = groups[int(rng.integers(len(groups)))]
        assert scope_candidates(query, graph, store, config, group) == _reference_scope(
            query, graph, store, config, group
        ), (config, group)


def test_scope_candidates_matches_reference_on_every_bench_question():
    # The 44-group corpus the benchmark queries: every question, with its
    # group reserve and without one.
    corpus = generate_synthetic(seed=1, n_groups=44, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(256))
    config = ScopeConfig()
    for qa in corpus.qa:
        query = store.embed_query(qa.question)
        for group in (qa.group_id, None):
            assert scope_candidates(query, graph, store, config, group) == _reference_scope(
                query, graph, store, config, group
            ), (qa.question, group)


def test_scope_candidates_reads_a_store_in_another_row_order():
    corpus = generate_synthetic(seed=2, n_groups=3, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(32))
    order = np.random.default_rng(0).permutation(len(store.ids))
    shuffled = EmbeddingStore(
        [store.ids[i] for i in order], store.matrix[order], store.embedder
    )
    query = store.embed_query("wind forecast and port status")
    config = ScopeConfig(top_k=5, pool_cap=40)
    group = corpus.scenarios[1].group_id
    for hint in (group, None):
        assert scope_candidates(query, graph, shuffled, config, hint) == scope_candidates(
            query, graph, store, config, hint
        )


@st.composite
def _selection_cases(draw):
    n = draw(st.integers(2, 9))
    length = draw(st.integers(1, min(4, n)))
    count = draw(st.integers(0, 30))
    steps = [
        draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length, unique=True))
        for _ in range(count)
    ]
    # Scores on a coarse grid, so many entries tie and only the tie key
    # orders them; the tie keys are distinct, as beam search's are.
    scores = [draw(st.integers(-4, 4)) * 0.5 for _ in range(count)]
    ties = draw(st.permutations(range(count)))
    limit = draw(st.integers(1, 8))
    return n, steps, scores, ties, limit


@settings(deadline=None, max_examples=150)
@given(
    _selection_cases(),
    st.sampled_from([0.0, 0.5, 3.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
)
# The second entry repeats the first and drops to 0.5 after its penalty;
# the third scores 0.5 unpenalized and replaces it on the smaller tie key.
@example((4, [[0, 1], [0, 1], [2, 3]], [2.0, 1.0, 0.5], [0, 2, 1], 2), 0.5, 0.5)
def test_event_driven_selection_matches_reference_select(case, penalty, threshold):
    n, steps, scores, ties, limit = case
    entries = [
        (score, tie, {"steps": tuple(step), "used": sum(1 << i for i in step)})
        for score, tie, step in zip(scores, ties, steps)
    ]
    expected = _reference_select(list(entries), limit, threshold, penalty)

    order = sorted(range(len(entries)), key=lambda k: (-scores[k], ties[k]))
    length = len(steps[0]) if steps else 1
    kept = _select_diverse(
        np.array([scores[k] for k in order], dtype=np.float64),
        np.array([ties[k] for k in order], dtype=np.int64),
        np.array([steps[k] for k in order], dtype=np.intp).reshape(len(order), length),
        n,
        limit,
        threshold,
        penalty,
    )
    assert [entries[order[k]][2] for k in kept.tolist()] == [beam for _, beam in expected]


def test_retrieve_builds_no_whole_store_index():
    # A fresh store's column slices after one question are that question's
    # buckets only.
    corpus = generate_synthetic(seed=2, n_groups=3, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(256))
    retriever = Retriever(graph, store, PrecedenceIndex.build(graph), TransitionModel.create(256, 8))
    qa = corpus.qa[0]
    assert retriever.retrieve(qa.question, query_group=qa.group_id)
    assert set(store.columns) == set(np.flatnonzero(store.embed_query(qa.question)).tolist())
    with pytest.raises(ValueError):
        store.matrix[0, 0] = 1.0


def test_import_and_retrieve_load_no_optional_packages():
    # scipy is installed alongside but is no dependency; requests is only
    # for the remote embedding client; numpy.ma, which numpy loads on first
    # use, holds several MB.
    script = (
        "import sys, okh\n"
        "corpus = okh.generate_synthetic(seed=0, n_groups=2, horizons_per_group=2)\n"
        "graph = okh.merge_facts([corpus.facts])\n"
        "store = okh.EmbeddingStore.build(graph, okh.LocalHashingEmbedder(32))\n"
        "retriever = okh.Retriever(graph, store, okh.PrecedenceIndex.build(graph),\n"
        "                          okh.TransitionModel.create(32, rank=4, seed=0))\n"
        "assert retriever.retrieve(corpus.qa[0].question)\n"
        "print(sorted(name for name in ('scipy', 'requests', 'numpy.ma') if name in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_heuristic_retrieval_builds_the_reach_matrix_once():
    corpus, retriever = _small_retriever()
    precedence = retriever.precedence
    seen = []
    build = precedence.reach_matrix

    def spy(edge_ids):
        reach = build(edge_ids)
        seen.append(reach)
        return reach

    precedence.reach_matrix = spy
    retriever.retrieve(corpus.qa[0].question, transition="heuristic")
    # Only the transition matrix asks for the whole pool; the search reads
    # the rows of the steps it extends.
    assert len(seen) == 1


# -- Context arrays and exact sums ---------------------------------------------


def test_context_links_match_the_pairwise_definitions_on_tied_pools():
    corpus = generate_synthetic(seed=4, n_groups=3, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    precedence = PrecedenceIndex.build(graph)
    all_ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(8)
    dim = 16
    for _ in range(12):
        n = int(rng.integers(2, 60))
        ids = [all_ids[i] for i in rng.choice(len(all_ids), n, replace=False)]
        # Rows drawn from three vectors, and transitions on a half-step grid:
        # relevance and step scores tie everywhere.
        store = EmbeddingStore(ids, rng.normal(size=(3, dim))[rng.integers(0, 3, n)],
                               LocalHashingEmbedder(dim))
        query = rng.normal(size=dim)
        log_transition = rng.integers(-4, 1, (n, n)) * 0.5
        ctx = _CandidateContext(query, ids, graph, store, precedence, log_transition)
        sources = rng.integers(0, n, int(rng.integers(1, 2 * n)))
        reach, overlap = ctx.links(sources)
        for row, i in enumerate(sources.tolist()):
            first = graph.hyperedges[ids[i]].entity_ids
            for j, eid in enumerate(ids):
                assert reach[row, j] == (precedence.precedes(ids[i], eid) is Order.BEFORE)
                expected = jaccard(first, graph.hyperedges[eid].entity_ids)
                assert overlap[row, j].hex() == expected.hex(), (ids[i], eid)

        # Every returned trajectory is scored as trajectory_score scores it.
        weights = RetrievalWeights(*rng.choice([0.0, 0.5, 1.2], 4))
        config = SearchConfig(beam_width=int(rng.integers(1, 9)),
                              trajectory_length=int(rng.integers(1, 6)))
        relevance = np.stack([store.vector(eid) for eid in ids]) @ query
        index_of = {eid: i for i, eid in enumerate(ids)}
        for trajectory in beam_search(
            query, ids, graph, store, precedence, log_transition, weights, config
        ):
            total, breakdown = trajectory_score(
                trajectory.steps,
                lambda eid: float(relevance[index_of[eid]]),
                lambda a, b: float(log_transition[index_of[a], index_of[b]]),
                precedence,
                graph,
                weights,
            )
            assert trajectory.total_score.hex() == total.hex()
            assert {k: v.hex() for k, v in trajectory.breakdown.items()} == {
                k: v.hex() for k, v in breakdown.items()
            }


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _summands(draw):
    # Rows of finite floats whose sums cancel, tie at half an ulp, or mix
    # magnitudes; or any floats at all.
    width = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["any", "cancel", "halfway", "grid"]))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if kind == "any":
            row = draw(st.lists(st.floats(), min_size=width, max_size=width))
        elif kind == "grid":
            row = [k * 2.0 ** draw(st.integers(-60, 60))
                   for k in draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width))]
        else:
            head = draw(st.lists(_FINITE.filter(lambda x: abs(x) < 1e300),
                                 min_size=width - 1, max_size=width - 1))
            base = math.fsum(head)
            tail = -base if kind == "cancel" else math.ulp(base) / 2
            row = head + [tail * draw(st.sampled_from([1.0, -1.0, 0.5, 1.5]))]
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


@settings(deadline=None, max_examples=300)
@given(_summands())
@example(np.array([[1.0, 2.0**-53, 2.0**-105], [-0.0, -0.0, -0.0], [1e308, 1e308, -1e308]]))
def test_row_sums_match_fsum_bit_for_bit(parts):
    expected = []
    for row in parts.tolist():
        try:
            expected.append(math.fsum(row).hex())
        except (OverflowError, ValueError) as exc:
            expected.append(type(exc))
    try:
        got = [value.hex() for value in _fsum_rows(parts.copy()).tolist()]
    except (OverflowError, ValueError) as exc:
        # fsum's own error, raised by the first row it is asked for.
        assert type(exc) in expected
        return
    assert got == expected


# -- Bench-scale outputs -------------------------------------------------------
# sha256 of the JSON of every retrieve(...).to_dict() list, recorded before
# the search was rewritten around arrays: the bench's query-wide corpus and
# model (seed 1, 44 groups, one epoch on the first three groups), every
# question under `full` and `heuristic_order`, and the first group's
# questions, as `okh eval` asks them, under all eight variants.
_BENCH_DIGESTS = {
    "full": "4d249c7ee6b7a3476c0c52efb3f0ebcae1d242da490d7f9a3b2d48930dc91a45",
    "heuristic_order": "2817e044880a66affe2f0ac38a1d0739089dc76359db175d921e846174780d10",
    "eval": "34c78f0a4a8ddeda057ff72f4f4aa5ca3f839ded6ca2108b03c120c155416c7a",
}


def test_retrieval_outputs_match_digests_recorded_at_bench_scale():
    corpus = generate_synthetic(seed=1, n_groups=44, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    embedder = LocalHashingEmbedder(256)
    train_ids = {scenario.group_id for scenario in corpus.scenarios[:3]}
    train_graph = merge_facts([[f for f in corpus.facts if f["group"] in train_ids]])
    model = TransitionModel.create(256, 32)
    train(
        model,
        build_pairs(train_graph, PrecedenceIndex.build(train_graph)),
        EmbeddingStore.build(train_graph, embedder),
        TrainingConfig(epochs=1),
    )
    retriever = Retriever(
        graph, EmbeddingStore.build(graph, embedder), PrecedenceIndex.build(graph), model
    )

    def digest(variants, questions):
        sha = hashlib.sha256()
        for variant in variants:
            for qa in questions:
                trajectories = retriever.retrieve(
                    qa.question,
                    variant_weights(variant),
                    query_group=qa.group_id,
                    transition=variant_transition(variant),
                )
                sha.update(json.dumps([t.to_dict() for t in trajectories]).encode())
        return sha.hexdigest()

    first = [qa for qa in corpus.qa if qa.group_id == corpus.scenarios[0].group_id]
    assert len(corpus.qa) == 264 and len(first) == 6
    assert {
        "full": digest([AblationVariant.FULL], corpus.qa),
        "heuristic_order": digest([AblationVariant.HEURISTIC_ORDER], corpus.qa),
        "eval": digest(list(AblationVariant), first),
    } == _BENCH_DIGESTS
