import itertools

import numpy as np
import pytest

from okh.corpus import generate_synthetic
from okh.embedding import EmbeddingStore, LocalHashingEmbedder
from okh.errors import EmptyCorpus
from okh.hypergraph import merge_facts
from okh.precedence import Order, PrecedenceIndex
from okh.retrieval import (
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
from okh.transition import TransitionModel, log_softmax_rows


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
    retriever = Retriever(graph, store, precedence, TransitionModel.zeros(store.dim, 1))
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
            diversity_overlap_threshold=0.5,
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
        diversity_overlap_threshold=0.5,
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
    for _ in range(25):
        n, length, lam, ids, rel, log_transition = _random_instance(rng, graph_ids)
        store = _basis_store(ids)
        query = _query_for(rel)
        result = viterbi(query, ids, store, log_transition, lam, length)
        best = None
        for seq in itertools.product(range(n), repeat=length):
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
        SearchConfig(diversity_overlap_threshold=1.5)
    with pytest.raises(ValueError):
        SearchConfig(diversity_penalty=-1.0)
    with pytest.raises(ValueError):
        ScopeConfig(pool_cap=0)
    with pytest.raises(ValueError):
        ScopeConfig(group_reserve_fraction=1.2)


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
