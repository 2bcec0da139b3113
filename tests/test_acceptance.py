"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The
checks are intentionally end-to-end: exact oracles (brute-force enumeration,
finite differences, dense re-computation) guard the numeric kernels, and the
synthetic corpus drives the directional retrieval-quality comparisons.
"""

import itertools
import json
import random

import numpy as np

from okh.cli import main
from okh.corpus import generate_synthetic
from okh.embedding import EmbeddingStore, LocalHashingEmbedder
from okh.evaluation import AblationVariant, forward_margins, run_ablation
from okh.evidence import format_trajectory
from okh.hypergraph import KnowledgeHypergraph, merge_facts
from okh.precedence import PrecedenceIndex
from okh.retrieval import (
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
    trajectory_score,
    viterbi,
)
from okh.transition import (
    TrainingConfig,
    TransitionModel,
    build_pairs,
    contrastive_loss,
    log_softmax_rows,
    train,
)


def _report(number: int, label: str, ok: bool) -> bool:
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'} {label}")
    return ok


# --- shared fixtures -------------------------------------------------------


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


def _basis_store(ids, dim=None):
    # Row i is the i-th basis vector, so a query vector holding per-candidate
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


def _random_instance(rng, graph_ids):
    n = int(rng.integers(2, 9))
    # Keep length within the candidate count: beams never repeat a step, so
    # longer lengths would compare against a different search space.
    length = int(rng.integers(1, min(4, n) + 1))
    lam = float(rng.uniform(0.5, 2.0))
    ids = graph_ids[:n]
    rel = rng.uniform(0.0, 1.0, n)
    log_transition = log_softmax_rows(rng.normal(0.0, 1.0, (n, n)))
    return n, length, lam, ids, rel, log_transition


def _brute_force(rel, log_transition, length, lam, no_repeat=False):
    """Exhaustive optimum with the same float grouping the recurrence uses."""
    n = len(rel)
    best = None
    for seq in itertools.product(range(n), repeat=length):
        if no_repeat and len(set(seq)) != length:
            continue
        score = float(rel[seq[0]])
        for a, b in zip(seq, seq[1:]):
            score = (score + float(rel[b])) + lam * float(log_transition[a, b])
        key = (-score, seq)
        if best is None or key < best:
            best = key
    return -best[0], list(best[1])


# --- 1 & 2: exact search kernels ------------------------------------------


def test_viterbi_matches_brute_force_on_random_instances():
    graph, _ = _chain_graph()
    graph_ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(20260814)
    score_fails = 0
    path_fails = 0
    for _ in range(100):
        n, length, lam, ids, rel, log_transition = _random_instance(rng, graph_ids)
        store = _basis_store(ids)
        query = _query_for(rel)
        expected_score, expected_path = _brute_force(rel, log_transition, length, lam)
        got = viterbi(query, ids, store, log_transition, lam, length)
        if abs(got.total_score - expected_score) > 1e-9:
            score_fails += 1
        if list(got.steps) != [ids[i] for i in expected_path]:
            path_fails += 1
    ok = _report(
        1,
        f"viterbi equals brute force on 100 instances "
        f"(score mismatches: {score_fails}, tie-break mismatches: {path_fails})",
        score_fails == 0 and path_fails == 0,
    )
    assert ok


def test_beam_is_bounded_by_viterbi_and_exact_when_wide():
    graph, precedence = _chain_graph()
    graph_ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(20260814)
    bound_fails = 0
    equality_fails = 0
    for _ in range(100):
        n, length, lam, ids, rel, log_transition = _random_instance(rng, graph_ids)
        store = _basis_store(ids)
        query = _query_for(rel)
        weights = RetrievalWeights(lam, 0.0, 0.0, 0.0)
        exact = viterbi(query, ids, store, log_transition, lam, length)

        narrow = beam_search(
            query, ids, graph, store, precedence, log_transition, weights,
            SearchConfig(beam_width=8, trajectory_length=length,
                         num_trajectories=1, diversity_penalty=0.0),
        )
        if narrow[0].total_score > exact.total_score + 1e-9:
            bound_fails += 1

        # A beam wide enough to retain every (candidate, length) state is
        # exhaustive over repeat-free sequences, the space it searches.
        wide = beam_search(
            query, ids, graph, store, precedence, log_transition, weights,
            SearchConfig(beam_width=n * length, trajectory_length=length,
                         num_trajectories=1, diversity_penalty=0.0),
        )
        distinct_best = viterbi(
            query, ids, store, log_transition, lam, length, no_repeat=True,
        )
        if abs(wide[0].total_score - distinct_best.total_score) > 1e-9:
            equality_fails += 1
    ok = _report(
        2,
        f"two-term beam <= viterbi on all instances and equals the "
        f"repeat-free optimum at full width (bound violations: {bound_fails}, "
        f"equality misses: {equality_fails})",
        bound_fails == 0 and equality_fails == 0,
    )
    assert ok


# --- 3: gradient correctness -----------------------------------------------


def test_analytic_gradients_match_central_finite_differences():
    worst = 0.0
    h = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(4, 17))
        rank = int(rng.integers(2, 5))
        n_edges = int(rng.integers(6, 12))
        embeddings = rng.normal(0.0, 1.0, (n_edges, dim))
        embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True)
        model = TransitionModel.create(dim, rank, seed=seed)
        model.u = model.u.astype(np.float64)
        model.v = model.v.astype(np.float64)

        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        pos = rng.integers(0, n_edges, size=(m, 2))
        pos_samples = rng.integers(0, n_edges, size=(m, k))
        use_negatives = seed % 2 == 0
        neg = rng.integers(0, n_edges, size=(m, 2)) if use_negatives else None
        neg_samples = rng.integers(0, n_edges, size=(m, k)) if use_negatives else None
        alpha = 0.7 if use_negatives else 0.0

        def loss_of(u, v):
            probe = TransitionModel(u=u, v=v)
            value, _, _ = contrastive_loss(
                probe, embeddings, pos, pos_samples, neg, neg_samples, alpha
            )
            return value

        _, grad_u, grad_v = contrastive_loss(
            model, embeddings, pos, pos_samples, neg, neg_samples, alpha
        )
        for grad, param in ((grad_u, "u"), (grad_v, "v")):
            base = getattr(model, param)
            flat = rng.choice(base.size, size=6, replace=False)
            for idx in flat:
                bumped = base.copy().reshape(-1)
                bumped[idx] += h
                plus = loss_of(
                    bumped.reshape(base.shape) if param == "u" else model.u,
                    bumped.reshape(base.shape) if param == "v" else model.v,
                )
                bumped[idx] -= 2 * h
                minus = loss_of(
                    bumped.reshape(base.shape) if param == "u" else model.u,
                    bumped.reshape(base.shape) if param == "v" else model.v,
                )
                numeric = (plus - minus) / (2 * h)
                analytic = float(grad.reshape(-1)[idx])
                scale = max(abs(numeric), abs(analytic), 1e-12)
                worst = max(worst, abs(numeric - analytic) / scale)
    ok = _report(
        3,
        f"analytic gradients match central differences "
        f"(max relative error {worst:.3e} <= 1e-4)",
        worst <= 1e-4,
    )
    assert ok


# --- 4: order learning on held-out groups ----------------------------------


def test_transition_model_prefers_forward_order_on_heldout_groups():
    corpus = generate_synthetic(seed=41, n_groups=20, horizons_per_group=3)
    held_out = {s.group_id for s in corpus.scenarios[16:]}
    train_facts = [f for f in corpus.facts if f["group"] not in held_out]
    train_graph = merge_facts([train_facts])
    full_graph = merge_facts([corpus.facts])
    embedder = LocalHashingEmbedder(256)
    train_store = EmbeddingStore.build(train_graph, embedder)
    full_store = EmbeddingStore.build(full_graph, embedder)
    pairs = build_pairs(train_graph, PrecedenceIndex.build(train_graph))
    model = TransitionModel.create(256, 32, seed=7)
    train(model, pairs, train_store, TrainingConfig())

    margins = forward_margins(model, full_store, full_graph, sorted(held_out))
    wins, total = int((margins > 0).sum()), margins.size
    preference = wins / total

    sample = np.stack(
        [full_store.vector(eid) for eid in sorted(full_graph.hyperedges)[:40]]
    )
    rows = model.log_transition_matrix(sample)
    row_err = float(np.abs(np.exp(rows).sum(axis=1) - 1.0).max())

    ok = _report(
        4,
        f"held-out forward pairs preferred in {preference:.1%} of {total} cases "
        f"(>= 80%); softmax row-sum error {row_err:.2e} <= 1e-9",
        preference >= 0.80 and row_err <= 1e-9,
    )
    assert ok


# --- 5: low-rank equivalence ------------------------------------------------


def test_low_rank_logits_match_dense_form_and_parameter_count():
    model = TransitionModel.create(1536, 64, seed=3)
    rng = np.random.default_rng(3)
    vectors = rng.normal(0.0, 1.0, (6, 1536))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    factored = model.logits(vectors)
    dense = model.u.astype(np.float64).T @ model.v.astype(np.float64)
    oracle = vectors @ dense @ vectors.T
    gap = float(np.abs(factored - oracle).max())
    ok = _report(
        5,
        f"factored logits match the dense bilinear form (max gap {gap:.2e} "
        f"<= 1e-9) and parameter count is {model.param_count} == 196608",
        gap <= 1e-9 and model.param_count == 2 * 64 * 1536 == 196608,
    )
    assert ok


# --- 6: precedence validity over many synthetic groups ----------------------


def test_precedence_is_acyclic_deterministic_and_matches_ground_truth():
    corpus = generate_synthetic(seed=6, n_groups=100, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    index = PrecedenceIndex.build(graph)
    direct = index.direct_edges()

    topo_ok = True
    truth_ok = True
    for scenario in corpus.scenarios:
        trajectory = index.trajectory(scenario.group_id)
        position = {eid: i for i, eid in enumerate(trajectory)}
        group_ids = {e.id for e in graph.group_edges(scenario.group_id)}
        # Completeness of the linearization certifies acyclicity.
        if set(trajectory) != group_ids:
            topo_ok = False
        for src, dst in direct[scenario.group_id]:
            if position[src] >= position[dst]:
                topo_ok = False
        if list(scenario.ground_truth) != trajectory:
            truth_ok = False

    shuffled = list(corpus.facts)
    random.Random(99).shuffle(shuffled)
    reindex = PrecedenceIndex.build(merge_facts([shuffled]))
    permutation_ok = all(
        reindex.trajectory(s.group_id) == index.trajectory(s.group_id)
        for s in corpus.scenarios
    )
    ok = _report(
        6,
        "100 synthetic groups: acyclic topological trajectories "
        f"({topo_ok}), permutation-invariant ({permutation_ok}), "
        f"ground truth equals canonical order ({truth_ok})",
        topo_ok and permutation_ok and truth_ok,
    )
    assert ok


# --- 7: zero weights reduce to plain relevance ranking ----------------------


def test_zero_weights_reduce_to_relevance_ranking():
    graph, precedence = _chain_graph()
    graph_ids = sorted(graph.hyperedges)
    rng = np.random.default_rng(77)
    zero = RetrievalWeights(0.0, 0.0, 0.0, 0.0)
    failures = 0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        length = int(rng.integers(1, min(4, n) + 1))
        ids = graph_ids[:n]
        rel = np.round(rng.uniform(0.0, 1.0, n), 2)  # rounding forces ties
        store = _basis_store(ids)
        query = _query_for(rel)
        expected = [
            eid for _, eid in sorted(zip(-rel, ids), key=lambda t: (t[0], t[1]))
        ][:length]
        for permutation_seed in range(3):
            order = list(range(n))
            random.Random(permutation_seed).shuffle(order)
            shuffled_ids = [ids[i] for i in order]
            result = beam_search(
                query, shuffled_ids, graph, store, precedence, np.zeros((n, n)), zero,
                SearchConfig(beam_width=8, trajectory_length=length,
                             num_trajectories=1, diversity_penalty=0.0),
            )
            if list(result[0].steps) != expected:
                failures += 1
    ok = _report(
        7,
        f"zero-weight search returns the top-L relevance ranking under every "
        f"candidate permutation (failures: {failures})",
        failures == 0,
    )
    assert ok


# --- 8: score-term ranges and identities ------------------------------------


def test_score_terms_stay_in_range_and_satisfy_frozen_identities():
    graph, precedence = _chain_graph()
    corpus = generate_synthetic(seed=8, n_groups=2, horizons_per_group=3)
    big_graph = merge_facts([corpus.facts])
    big_precedence = PrecedenceIndex.build(big_graph)
    big_ids = sorted(big_graph.hyperedges)

    rng = random.Random(8)
    range_ok = True
    telescope_ok = True
    for _ in range(1000):
        steps = rng.sample(big_ids, rng.randint(1, 8))
        prec = precedence_consistency(steps, big_precedence)
        ovlp = entity_continuity(steps, big_graph)
        cov = phase_coverage(steps, big_graph)
        if not (0.0 <= prec <= 1.0 and 0.0 <= ovlp <= 1.0 and 0.0 <= cov <= 1.0):
            range_ok = False
        # Coverage gains per step telescope to the whole-trajectory value.
        gains = [
            phase_coverage(steps[: i + 1], big_graph)
            - phase_coverage(steps[:i], big_graph)
            for i in range(len(steps))
        ]
        if abs(sum(gains) - cov) > 1e-12:
            telescope_ok = False

    jaccard_third = jaccard(frozenset({"a", "b"}), frozenset({"b", "c"}))
    by_relation = {e.relation: e.id for e in graph.hyperedges.values()}
    three_phases = [
        by_relation["has_watch_status"],        # advisory
        by_relation["forecasts_hazard_at_horizon"],  # hazard forecast
        by_relation["has_operation_status"],    # operations
    ]
    cov_half = phase_coverage(three_phases, graph)

    ok = _report(
        8,
        f"1000 fuzzed trajectories keep Prec/Ovlp/Cov in [0,1] ({range_ok}) "
        f"with telescoping coverage ({telescope_ok}); "
        f"J(ab,bc)={jaccard_third:.4f}==1/3; Cov(3 phases)={cov_half}==0.5",
        range_ok
        and telescope_ok
        and abs(jaccard_third - 1 / 3) < 1e-12
        and cov_half == 0.5,
    )
    assert ok


# --- 9: ablation hierarchy ---------------------------------------------------


def test_ablation_hierarchy_orders_variants_directionally():
    variants = [
        AblationVariant.FULL,
        AblationVariant.NO_ORDER,
        AblationVariant.HEURISTIC_ORDER,
        AblationVariant.SHUFFLED,
    ]
    tau_sums = {v: 0.0 for v in variants}
    oracle_sums = {v: 0.0 for v in variants}
    n_seeds = 10
    n_queries = 0
    for seed in range(n_seeds):
        corpus = generate_synthetic(seed=900 + seed, n_groups=3, horizons_per_group=3)
        graph = merge_facts([corpus.facts])
        store = EmbeddingStore.build(graph, LocalHashingEmbedder(256))
        precedence = PrecedenceIndex.build(graph)
        model = TransitionModel.create(256, 32, seed=seed)
        train(model, build_pairs(graph, precedence), store, TrainingConfig())
        retriever = Retriever(graph, store, precedence, model)
        questions = [
            q for q in corpus.qa if q.order_sensitivity == "order_sensitive"
        ]
        n_queries += len(questions)
        for variant in variants:
            report = run_ablation(
                retriever, questions, corpus.scenarios, variant, seed=seed
            )
            tau_sums[variant] += report.mean_tau
            oracle_sums[variant] += report.oracle_accuracy

    tau = {v: tau_sums[v] / n_seeds for v in variants}
    oracle = {v: oracle_sums[v] / n_seeds for v in variants}
    full, no_order = AblationVariant.FULL, AblationVariant.NO_ORDER
    heuristic, shuffled = AblationVariant.HEURISTIC_ORDER, AblationVariant.SHUFFLED
    chain_ok = (
        tau[full] > tau[no_order]
        and tau[full] >= tau[heuristic]
        and tau[heuristic] >= tau[no_order]
    )
    shuffle_ok = oracle[shuffled] < oracle[full]
    ok = _report(
        9,
        f"{n_queries} order-sensitive queries over {n_seeds} seeds: "
        f"tau full={tau[full]:.4f} >= heuristic={tau[heuristic]:.4f} "
        f"> no_order={tau[no_order]:.4f}; shuffled oracle "
        f"{oracle[shuffled]:.4f} < full oracle {oracle[full]:.4f}",
        chain_ok and shuffle_ok and n_queries >= 50,
    )
    assert ok


# --- 10: determinism and persistence -----------------------------------------


def _run_pipeline(root):
    data = root / "data"
    snapshot = root / "graph.snap"
    checkpoint = root / "model.okht"
    result = root / "result.json"
    assert main(["synth", "--seed", "5", "--groups", "2", "--horizons", "2",
                 "--out", str(data)]) == 0
    assert main(["build", "--corpus", str(data / "facts.jsonl"),
                 "--snapshot", str(snapshot)]) == 0
    assert main(["train", "--snapshot", str(snapshot),
                 "--checkpoint", str(checkpoint),
                 "--dim", "32", "--rank", "4", "--epochs", "2"]) == 0
    assert main(["retrieve", "--snapshot", str(snapshot),
                 "--checkpoint", str(checkpoint), "--dim", "32",
                 "--query", "Did the operation status escalate?",
                 "--out", str(result)]) == 0
    return {
        "facts": data / "facts.jsonl",
        "qa": data / "qa.json",
        "snapshot": snapshot,
        "checkpoint": checkpoint,
        "result": result,
    }


def test_fixed_seed_runs_are_byte_identical_and_roundtrip_exactly(tmp_path):
    first = _run_pipeline(tmp_path / "one")
    second = _run_pipeline(tmp_path / "two")
    identical = {
        name: first[name].read_bytes() == second[name].read_bytes()
        for name in first
    }

    graph, precedence_edges = KnowledgeHypergraph.load_snapshot(str(first["snapshot"]))
    resaved = tmp_path / "resaved.snap"
    graph.save_snapshot(str(resaved), precedence_edges)
    snapshot_roundtrip = resaved.read_bytes() == first["snapshot"].read_bytes()

    model = TransitionModel.load(str(first["checkpoint"]))
    recheck = tmp_path / "resaved.okht"
    model.save(str(recheck))
    checkpoint_roundtrip = recheck.read_bytes() == first["checkpoint"].read_bytes()

    ok = _report(
        10,
        f"two seeded runs byte-identical ({identical}); snapshot roundtrip "
        f"({snapshot_roundtrip}); checkpoint roundtrip ({checkpoint_roundtrip})",
        all(identical.values()) and snapshot_roundtrip and checkpoint_roundtrip,
    )
    assert ok


# --- 11: order fidelity of rendered evidence ---------------------------------


def test_rendered_evidence_changes_under_every_reordering():
    graph, precedence = _chain_graph()
    ids = sorted(graph.hyperedges)[:4]
    total, breakdown = trajectory_score(
        ids,
        lambda _eid: 0.5,
        lambda _a, _b: -1.0,
        precedence,
        graph,
        RetrievalWeights(),
    )
    base = format_trajectory(Trajectory(list(ids), total, breakdown), graph)

    unchanged = 0
    checked = 0
    for permutation in itertools.permutations(range(4)):
        if list(permutation) == [0, 1, 2, 3]:
            continue
        checked += 1
        shuffled = [ids[i] for i in permutation]
        text = format_trajectory(Trajectory(shuffled, total, breakdown), graph)
        if text == base:
            unchanged += 1
    ok = _report(
        11,
        f"rendered evidence differs under all {checked} order-changing "
        f"shuffles (unchanged renderings: {unchanged})",
        checked == 23 and unchanged == 0,
    )
    assert ok
