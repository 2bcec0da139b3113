import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okh.corpus import generate_synthetic
from okh.embedding import EmbeddingStore, LocalHashingEmbedder
from okh.errors import DimensionMismatch, EmptyBatch, NonFiniteLoss, SchemaError
from okh.hypergraph import Hyperedge, KnowledgeHypergraph, merge_facts
from okh.precedence import PrecedenceIndex
from okh.transition import (
    NEGATIVE_LOG_CLAMP,
    SIGNALS,
    PairList,
    TrainingConfig,
    TrainingPairs,
    TransitionModel,
    build_pairs,
    contrastive_loss,
    log_softmax_rows,
    train,
)


def _rng_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def test_param_count_is_twice_rank_times_dim():
    model = TransitionModel.zeros(dim=1536, rank=64)
    assert model.param_count == 196_608
    small = TransitionModel.zeros(dim=256, rank=32)
    assert small.param_count == 2 * 32 * 256


def test_create_is_seeded_and_f32_quantized():
    a = TransitionModel.create(dim=32, rank=4, seed=9)
    b = TransitionModel.create(dim=32, rank=4, seed=9)
    c = TransitionModel.create(dim=32, rank=4, seed=10)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert not np.array_equal(a.u, c.u)
    assert np.array_equal(a.u, a.u.astype(np.float32).astype(np.float64))
    scale = 1.0 / math.sqrt(32)
    assert np.all(np.abs(a.u) <= scale) and np.all(np.abs(a.v) <= scale)


def test_mismatched_factor_shapes_rejected():
    with pytest.raises(DimensionMismatch):
        TransitionModel(np.zeros((4, 8)), np.zeros((4, 9)))


def test_factored_logits_match_dense_bilinear_oracle():
    rng = np.random.default_rng(0)
    model = TransitionModel.create(dim=16, rank=4, seed=1)
    rows = _rng_rows(rng, 6, 16)
    dense_w = model.u.T @ model.v
    expected = rows @ dense_w @ rows.T
    assert model.logits(rows) == pytest.approx(expected, abs=1e-9)
    assert model.logits(rows[:1], rows[1:2])[0, 0] == pytest.approx(
        float(rows[0] @ dense_w @ rows[1]), abs=1e-12
    )


def test_log_softmax_rows_are_normalized_and_stable():
    rows = np.array([[0.0, 0.0], [1000.0, 999.0], [-1000.0, -1001.0]])
    logp = log_softmax_rows(rows)
    assert np.exp(logp).sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)
    assert logp[0, 0] == pytest.approx(math.log(0.5))
    assert np.all(np.isfinite(logp))


def test_log_transition_matrix_matches_manual_softmax():
    rng = np.random.default_rng(3)
    model = TransitionModel.create(dim=8, rank=2, seed=3)
    candidates = _rng_rows(rng, 5, 8)
    dense_w = model.u.T @ model.v
    log_probs = model.log_transition_matrix(candidates)
    for source, row in zip(candidates, log_probs):
        logits = np.array([float(source @ dense_w @ target) for target in candidates])
        manual = (logits - logits.max()) - math.log(np.exp(logits - logits.max()).sum())
        assert row == pytest.approx(manual, abs=1e-9)
    assert np.exp(log_probs).sum(axis=1) == pytest.approx(np.ones(5), abs=1e-12)


def test_zero_model_positive_loss_is_log_k_plus_one():
    rng = np.random.default_rng(0)
    model = TransitionModel.zeros(dim=8, rank=2)
    rows = _rng_rows(rng, 10, 8)
    pairs = np.array([[0, 1], [2, 3], [4, 5]])
    samples = np.array([[2, 4, 6], [0, 6, 8], [1, 2, 3]])
    loss, grad_u, grad_v = contrastive_loss(model, rows, pairs, samples)
    assert loss == pytest.approx(math.log(4), abs=1e-12)
    # Zero parameters give zero gradient for U only when V is zero too; the
    # chain rule kills both factors.
    assert grad_u == pytest.approx(np.zeros_like(model.u))
    assert grad_v == pytest.approx(np.zeros_like(model.v))


def test_contrastive_loss_requires_positives():
    model = TransitionModel.zeros(dim=8, rank=2)
    with pytest.raises(EmptyBatch):
        contrastive_loss(model, np.zeros((4, 8)), np.zeros((0, 2), dtype=int), np.zeros((0, 3), dtype=int))


def _finite_difference_check(alpha, with_negatives, seed):
    rng = np.random.default_rng(seed)
    dim, rank = 10, 3
    model = TransitionModel.create(dim=dim, rank=rank, seed=seed)
    rows = _rng_rows(rng, 12, dim)
    pos = np.array([[0, 1], [2, 3], [4, 5], [6, 7]])
    pos_samples = rng.integers(0, 12, size=(4, 5))
    neg = np.array([[1, 0], [8, 9]]) if with_negatives else None
    neg_samples = rng.integers(0, 12, size=(2, 5)) if with_negatives else None

    loss, grad_u, grad_v = contrastive_loss(
        model, rows, pos, pos_samples, neg, neg_samples, alpha=alpha
    )
    h = 1e-6
    for grad, param in ((grad_u, model.u), (grad_v, model.v)):
        flat_grad = grad.ravel()
        for slot in rng.choice(param.size, size=6, replace=False):
            original = param.ravel()[slot]
            param.ravel()[slot] = original + h
            up, _, _ = contrastive_loss(model, rows, pos, pos_samples, neg, neg_samples, alpha=alpha)
            param.ravel()[slot] = original - h
            down, _, _ = contrastive_loss(model, rows, pos, pos_samples, neg, neg_samples, alpha=alpha)
            param.ravel()[slot] = original
            numeric = (up - down) / (2 * h)
            denominator = max(abs(numeric), abs(flat_grad[slot]), 1e-8)
            assert abs(numeric - flat_grad[slot]) / denominator < 1e-4


def test_gradients_match_finite_differences_positive_only():
    _finite_difference_check(alpha=0.0, with_negatives=False, seed=5)


def test_gradients_match_finite_differences_with_negative_term():
    _finite_difference_check(alpha=0.7, with_negatives=True, seed=6)


def _gather_reference_loss(model, embeddings, pos_pairs, pos_samples, neg_pairs, neg_samples, alpha):
    """The d-space formulation: gather (m, k+1, dim) candidate rows per term."""
    grad_u = np.zeros_like(model.u)
    grad_v = np.zeros_like(model.v)
    loss = 0.0
    for pairs, samples, positive in ((pos_pairs, pos_samples, True), (neg_pairs, neg_samples, False)):
        sources = embeddings[pairs[:, 0]]
        candidates = embeddings[np.concatenate([pairs[:, 1:2], samples], axis=1)]
        projected_src = sources @ model.u.T
        projected_cand = candidates @ model.v.T
        logits = np.einsum("mr,mkr->mk", projected_src, projected_cand)
        shifted = logits - logits.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        weights /= weights.sum(axis=1, keepdims=True)
        log_target = shifted[:, 0] - np.log(np.exp(shifted).sum(axis=1))
        m = pairs.shape[0]
        if positive:
            loss += float(-log_target.mean())
            dz = weights.copy()
            dz[:, 0] -= 1.0
            dz /= m
        else:
            loss += alpha * float(np.maximum(log_target, NEGATIVE_LOG_CLAMP).mean())
            active = (log_target > NEGATIVE_LOG_CLAMP).astype(np.float64)
            dz = -weights
            dz[:, 0] += 1.0
            dz *= (alpha / m) * active[:, None]
        grad_u += np.einsum("mk,mkr->mr", dz, projected_cand).T @ sources
        grad_v += projected_src.T @ np.einsum("mk,mkd->md", dz, candidates)
    return loss, grad_u, grad_v


def test_rank_space_batch_matches_gather_reference():
    rng = np.random.default_rng(21)
    dim, rank, store_rows, m, k = 256, 32, 2000, 24, 16
    model = TransitionModel.create(dim=dim, rank=rank, seed=21)
    rows = _rng_rows(rng, store_rows, dim)
    pos = rng.integers(0, store_rows, size=(m, 2))
    neg = rng.integers(0, store_rows, size=(m, 2))
    pos_samples = rng.integers(0, store_rows, size=(m, k))
    neg_samples = rng.integers(0, store_rows, size=(m, k))
    # Repeat candidates within a row, including the target itself, so the
    # scatter must add every occurrence.
    pos_samples[:, 1] = pos_samples[:, 0]
    pos_samples[:, 2] = pos[:, 1]
    neg_samples[:, 3:6] = neg_samples[:, 2:3]
    neg[0, 0] = pos[0, 0]

    loss, grad_u, grad_v = contrastive_loss(model, rows, pos, pos_samples, neg, neg_samples, 0.7)
    ref_loss, ref_u, ref_v = _gather_reference_loss(
        model, rows, pos, pos_samples, neg, neg_samples, 0.7
    )
    assert loss == ref_loss
    for grad, ref in ((grad_u, ref_u), (grad_v, ref_v)):
        assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()


def test_rank_space_batch_matches_gather_reference_on_every_row():
    rng = np.random.default_rng(300)
    dim, rank, store_rows, m, k = 256, 32, 300, 64, 16
    model = TransitionModel.create(dim=dim, rank=rank, seed=store_rows)
    rows = _rng_rows(rng, store_rows, dim)
    pos = rng.integers(0, store_rows, size=(m, 2))
    neg = rng.integers(0, store_rows, size=(m, 2))
    pos_samples = rng.integers(0, store_rows, size=(m, k))
    neg_samples = rng.integers(0, store_rows, size=(m, k))
    # Every store row is a candidate somewhere, and some rows repeat.
    half = store_rows // 2
    pos_samples.ravel()[:half] = np.arange(half)
    neg_samples.ravel()[: store_rows - half] = np.arange(half, store_rows)
    pos_samples[-8:, 0] = pos[-8:, 1]
    neg_samples[-8:, 1] = neg_samples[-8:, 2]
    candidates = np.concatenate([pos[:, 1], pos_samples.ravel(), neg[:, 1], neg_samples.ravel()])
    assert len(np.unique(candidates)) == store_rows

    loss, grad_u, grad_v = contrastive_loss(model, rows, pos, pos_samples, neg, neg_samples, 0.7)
    ref_loss, ref_u, ref_v = _gather_reference_loss(
        model, rows, pos, pos_samples, neg, neg_samples, 0.7
    )
    assert loss == ref_loss
    for grad, ref in ((grad_u, ref_u), (grad_v, ref_v)):
        assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()


def _reference_pairs(hypergraph, precedence, retrieval_traces=None, seed=0):
    """The tuple-at-a-time miner that ``build_pairs`` vectorizes."""
    rng = random.Random(seed)
    positives, negatives = [], []
    all_ids = sorted(hypergraph.hyperedges)
    for group in sorted(hypergraph.groups):
        edges = hypergraph.group_edges(group)
        outside = [edge_id for edge_id in all_ids if hypergraph.hyperedges[edge_id].group_id != group]
        by_text = sorted(edges, key=lambda edge: (edge.text_position, edge.id))
        for i, src in enumerate(by_text):
            for dst in by_text[i + 1 :]:
                if src.text_position == dst.text_position:
                    continue
                positives.append((src.id, dst.id, "doc_order"))
                negatives.append((dst.id, src.id, "doc_order"))
            if outside:
                negatives.append((src.id, outside[rng.randrange(len(outside))], "cross_group"))
        canonical = precedence.trajectory(group)
        edge_of = {edge.id: edge for edge in edges}
        for i, src_id in enumerate(canonical):
            src = edge_of[src_id]
            for dst_id in canonical[i + 1 :]:
                if src.entity_ids & edge_of[dst_id].entity_ids:
                    positives.append((src_id, dst_id, "entity_overlap"))
    for trace in retrieval_traces or ():
        for src_id, dst_id in zip(trace, trace[1:]):
            if src_id in hypergraph.hyperedges and dst_id in hypergraph.hyperedges:
                positives.append((src_id, dst_id, "retrieval_induced"))
    forward = {(src, dst) for src, dst, _ in positives}
    return positives, [item for item in negatives if (item[0], item[1]) not in forward]


class _FixedOrder:
    """A stand-in precedence index whose canonical orders are given."""

    def __init__(self, orders):
        self.orders = orders

    def trajectory(self, group):
        return list(self.orders[group])


@st.composite
def _small_graphs(draw):
    """Few groups, tied text positions, shared entities, and traces with strays."""
    groups = draw(st.integers(1, 3))
    entities = [f"entity:{i}" for i in range(5)]
    edges = {}
    for i in range(draw(st.integers(1, 12))):
        edge = Hyperedge.create(
            "has_watch_status",
            draw(st.sets(st.sampled_from(entities), min_size=2, max_size=3)),
            f"fact {i}",
            group_id=f"g{draw(st.integers(0, groups - 1))}",
            text_position=draw(st.integers(0, 3)),
        )
        edges[edge.id] = edge
    graph = KnowledgeHypergraph({}, edges)
    orders = {group: draw(st.permutations(ids)) for group, ids in sorted(graph.groups.items())}
    steps = st.sampled_from(sorted(edges) + ["ghost"])
    traces = draw(st.lists(st.lists(steps, max_size=5), max_size=3))
    return graph, _FixedOrder(orders), traces, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(_small_graphs())
def test_build_pairs_matches_the_tuple_miner(case):
    graph, order, traces, seed = case
    positives, negatives = _reference_pairs(graph, order, traces, seed)
    pairs = build_pairs(graph, order, traces, seed)
    for mined, expected in ((pairs.positives, positives), (pairs.negatives, negatives)):
        assert list(mined) == expected
        assert len(mined) == len(expected)
        assert list(mined[1::2]) == expected[1::2]
        assert [mined[i] for i in range(-len(expected), len(expected))] == expected + expected
        for item in expected[:3]:
            assert item in mined
    if len(graph.groups) == 1:
        assert not [item for item in pairs.negatives if item[2] == "cross_group"]


def test_build_pairs_matches_the_tuple_miner_on_a_generated_corpus():
    graph = merge_facts([generate_synthetic(seed=3, n_groups=4, horizons_per_group=3).facts])
    precedence = PrecedenceIndex.build(graph)
    ids = sorted(graph.hyperedges)
    traces = [ids[:6], ids[9:2:-1], ["ghost", ids[0], ids[1]]]
    positives, negatives = _reference_pairs(graph, precedence, traces, seed=5)
    pairs = build_pairs(graph, precedence, traces, seed=5)
    assert list(pairs.positives) == positives
    assert list(pairs.negatives) == negatives


def test_training_pairs_read_as_tuples():
    items = [("a", "b", "doc_order"), ("b", "c", "cross_group"), ("a", "c", "doc_order")]
    pairs = TrainingPairs(positives=items)
    positives = pairs.positives
    assert isinstance(positives, PairList)
    assert len(positives) == 3 and positives
    assert list(positives) == items and positives == items
    assert positives[1] == items[1] and positives[-1] == items[-1]
    assert list(positives[1:]) == items[1:] and list(positives[::-1]) == items[::-1]
    assert ("b", "c", "cross_group") in positives
    assert ("c", "b", "cross_group") not in positives
    with pytest.raises(IndexError):
        positives[3]
    assert len(pairs.negatives) == 0 and not pairs.negatives
    assert TrainingPairs(items, ()) == pairs


def _pair_corpus():
    facts = []
    for group, port in (("A:pa", "pa"), ("B:pb", "pb")):
        storm = group.split(":")[0]
        for position, (relation, horizon) in enumerate(
            [
                ("has_watch_status", 48),
                ("forecasts_hazard_at_horizon", 48),
                ("has_operation_status", 48),
                ("forecasts_hazard_at_horizon", 24),
            ]
        ):
            stem = f"{relation}:{storm}:{port}"
            facts.append(
                {
                    "relation": relation,
                    "entities": [
                        {"id": f"port:{port}", "name": port, "type": "port"},
                        {"id": f"{stem}:T-{horizon}", "name": stem, "type": "other"},
                    ],
                    "evidence": f"{relation} for {storm} at T-{horizon}",
                    "attributes": {},
                    "confidence": 1.0,
                    "group": group,
                    "horizon": horizon,
                    "text_position": position,
                }
            )
    return merge_facts([facts])


def test_build_pairs_mines_doc_order_and_reversals():
    graph = _pair_corpus()
    precedence = PrecedenceIndex.build(graph)
    pairs = build_pairs(graph, precedence, seed=0)

    doc_pos = [(s, d) for s, d, signal in pairs.positives if signal == "doc_order"]
    doc_neg = [(s, d) for s, d, signal in pairs.negatives if signal == "doc_order"]
    assert doc_pos, "expected document-order positives"
    assert set(doc_neg) == {(d, s) for s, d in doc_pos}

    by_position = {
        edge.id: (edge.group_id, edge.text_position) for edge in graph.hyperedges.values()
    }
    for src, dst in doc_pos:
        src_group, src_pos = by_position[src]
        dst_group, dst_pos = by_position[dst]
        assert src_group == dst_group
        assert src_pos < dst_pos


def test_build_pairs_cross_group_negatives_leave_the_group():
    graph = _pair_corpus()
    pairs = build_pairs(graph, PrecedenceIndex.build(graph), seed=0)
    cross = [(s, d) for s, d, signal in pairs.negatives if signal == "cross_group"]
    assert cross
    group_of = {edge.id: edge.group_id for edge in graph.hyperedges.values()}
    for src, dst in cross:
        assert group_of[src] != group_of[dst]


def test_build_pairs_entity_overlap_follows_canonical_order():
    graph = _pair_corpus()
    precedence = PrecedenceIndex.build(graph)
    pairs = build_pairs(graph, precedence, seed=0)
    overlap = [(s, d) for s, d, signal in pairs.positives if signal == "entity_overlap"]
    assert overlap
    position = {
        edge_id: i
        for group in graph.groups
        for i, edge_id in enumerate(precedence.trajectory(group))
    }
    for src, dst in overlap:
        assert position[src] < position[dst]
        shared = (
            graph.hyperedges[src].entity_ids & graph.hyperedges[dst].entity_ids
        )
        assert shared


def test_build_pairs_accepts_retrieval_traces_and_scrubs_conflicts():
    graph = _pair_corpus()
    precedence = PrecedenceIndex.build(graph)
    ids = sorted(graph.hyperedges)
    trace = [ids[2], ids[0]]
    pairs = build_pairs(graph, precedence, retrieval_traces=[trace], seed=0)
    assert (ids[2], ids[0], "retrieval_induced") in pairs.positives
    forward = {(s, d) for s, d, _ in pairs.positives}
    for src, dst, _ in pairs.negatives:
        assert (src, dst) not in forward


def _store_for(graph):
    return EmbeddingStore.build(graph, LocalHashingEmbedder(dim=32))


def test_train_is_deterministic_and_quantized():
    graph = _pair_corpus()
    precedence = PrecedenceIndex.build(graph)
    pairs = build_pairs(graph, precedence, seed=0)
    store = _store_for(graph)
    config = TrainingConfig(epochs=3, batch_size=16, negatives_per_example=8, seed=4)

    model_a = TransitionModel.create(store.dim, 4, seed=4)
    history_a = train(model_a, pairs, store, config)
    model_b = TransitionModel.create(store.dim, 4, seed=4)
    history_b = train(model_b, pairs, store, config)

    assert history_a == history_b
    assert len(history_a) == 3
    assert np.array_equal(model_a.u, model_b.u)
    assert np.array_equal(model_a.v, model_b.v)
    assert np.array_equal(model_a.u, model_a.u.astype(np.float32).astype(np.float64))


def test_train_zero_epochs_keeps_parameters():
    graph = _pair_corpus()
    pairs = build_pairs(graph, PrecedenceIndex.build(graph), seed=0)
    store = _store_for(graph)
    model = TransitionModel.create(store.dim, 4, seed=1)
    before = (model.u.copy(), model.v.copy())
    history = train(model, pairs, store, TrainingConfig(epochs=0))
    assert history == []
    assert np.array_equal(model.u, before[0])
    assert np.array_equal(model.v, before[1])


def test_train_without_positives_raises():
    graph = _pair_corpus()
    store = _store_for(graph)
    from okh.transition import TrainingPairs

    with pytest.raises(EmptyBatch):
        train(TransitionModel.zeros(store.dim, 4), TrainingPairs(), store, TrainingConfig())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_rolls_back_on_non_finite_loss():
    graph = _pair_corpus()
    pairs = build_pairs(graph, PrecedenceIndex.build(graph), seed=0)
    store = _store_for(graph)
    model = TransitionModel.create(store.dim, 4, seed=2)
    config = TrainingConfig(epochs=4, step_size=1e18, batch_size=8)
    with pytest.raises(NonFiniteLoss):
        train(model, pairs, store, config)
    assert np.all(np.isfinite(model.u))
    assert np.all(np.isfinite(model.v))


def test_training_pairs_with_unknown_edge_fail_loudly():
    graph = _pair_corpus()
    store = _store_for(graph)
    from okh.transition import TrainingPairs

    pairs = TrainingPairs(positives=[("ghost", sorted(graph.hyperedges)[0], "doc_order")])
    with pytest.raises(ValueError) as err:
        train(TransitionModel.zeros(store.dim, 4), pairs, store, TrainingConfig(epochs=1))
    assert "ghost" in str(err.value)


def test_only_an_unknown_edge_that_a_pair_uses_fails():
    graph = _pair_corpus()
    store = _store_for(graph)
    ids = sorted(graph.hyperedges) + ["ghost", "phantom"]
    known = np.array([[0, 1, 0], [2, 3, 0], [1, 2, 0]])
    pairs = TrainingPairs(PairList(ids, SIGNALS, known))
    train(TransitionModel.zeros(store.dim, 4), pairs, store, TrainingConfig(epochs=1))

    # The first unknown edge in pair order is named: positives before
    # negatives, a pair's source before its target.
    ghost, phantom = len(ids) - 2, len(ids) - 1
    pairs = TrainingPairs(
        PairList(ids, SIGNALS, np.vstack([known, [[ghost, phantom, 0], [phantom, 0, 0]]])),
        PairList(ids, SIGNALS, np.array([[phantom, 0, 3]])),
    )
    with pytest.raises(ValueError) as err:
        train(TransitionModel.zeros(store.dim, 4), pairs, store, TrainingConfig(epochs=1))
    assert "'ghost'" in str(err.value)


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model = TransitionModel.create(dim=24, rank=3, seed=11)
    path = tmp_path / "model.okht"
    model.save(str(path))
    loaded = TransitionModel.load(str(path))
    assert np.array_equal(loaded.u, model.u)
    assert np.array_equal(loaded.v, model.v)
    assert loaded.seed == model.seed

    loaded.save(str(tmp_path / "again.okht"))
    assert (tmp_path / "again.okht").read_bytes() == path.read_bytes()


def test_one_epoch_checkpoint_bytes_are_pinned(tmp_path):
    # The benchmark's training shape: 3 groups x 3 horizons (180 edges), dim
    # 256, rank 32, default config. The hash was recorded from the d-space
    # training step, so a faster formulation must keep every byte.
    corpus = generate_synthetic(seed=1, n_groups=3, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(dim=256))
    pairs = build_pairs(graph, PrecedenceIndex.build(graph))
    model = TransitionModel.create(dim=256, rank=32)
    train(model, pairs, store, TrainingConfig(epochs=1))
    path = tmp_path / "model.okht"
    model.save(str(path))
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "f6083b098796147c55ff08bf522fc00a4cb2a5a5451082196d043f8d191055e9"
    )


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.okht"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(SchemaError) as err:
        TransitionModel.load(str(path))
    assert err.value.path == "checkpoint" and str(path) in err.value.message


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    model = TransitionModel.create(dim=24, rank=3, seed=11)
    clean = tmp_path / "model.okht"
    model.save(str(clean))
    blob = clean.read_bytes()
    header = 16
    # 0xffffffff is a float32 NaN; 0x7f800000 and 0xff800000 are +inf and -inf.
    for name, offset, word in [
        ("u", header, b"\xff\xff\xff\xff"),
        ("u", header + 4 * 24 * 3 - 4, b"\x00\x00\x80\x7f"),
        ("v", header + 4 * 24 * 3, b"\x00\x00\x80\xff"),
        ("v", len(blob) - 12, b"\xff\xff\xff\xff"),
    ]:
        path = tmp_path / "broken.okht"
        path.write_bytes(blob[:offset] + word + blob[offset + 4 :])
        with pytest.raises(SchemaError) as err:
            TransitionModel.load(str(path))
        assert str(path) in str(err.value)
        assert f"non-finite value in {name}" in str(err.value)


def test_training_reduces_loss_on_learnable_order():
    graph = _pair_corpus()
    precedence = PrecedenceIndex.build(graph)
    pairs = build_pairs(graph, precedence, seed=0)
    store = _store_for(graph)
    model = TransitionModel.create(store.dim, 8, seed=0)
    history = train(
        model,
        pairs,
        store,
        TrainingConfig(epochs=6, step_size=0.05, batch_size=32, negatives_per_example=8, seed=0),
    )
    assert history[-1] < history[0]
