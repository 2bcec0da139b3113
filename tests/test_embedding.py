import json
import math
import os
import struct
import random
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import okh
from okh.corpus import generate_synthetic
from okh.embedding import (
    CACHE_BLOCK,
    CACHE_MAGIC,
    CACHE_VERSION,
    EmbeddingCache,
    EmbeddingStore,
    LocalHashingEmbedder,
    RemoteEmbeddingClient,
    _compose,
    _entity_label,
    post_json_with_retries,
    quantize_f32,
)
from okh.errors import DimensionMismatch, ProviderError, SchemaError
from okh.hashutil import content_key, fnv1a64
from okh.hypergraph import Entity, Hyperedge, merge_facts
from okh.relations import EntityType


def test_compose_text_layout_is_frozen():
    edge = Hyperedge.create(
        "forecasts_hazard_at_horizon",
        {"port:p", "wind_fcst:IRMA:p:T-48"},
        evidence="gusts expected",
        attributes={"peak_gust_kt": "70", "basis": "model"},
    )
    entities = {
        "port:p": Entity("port:p", "Port P", EntityType.PORT),
        "wind_fcst:IRMA:p:T-48": Entity(
            "wind_fcst:IRMA:p:T-48", "Irma wind fcst", EntityType.HAZARD_FORECAST
        ),
    }
    labels = {entity_id: _entity_label(entity) for entity_id, entity in entities.items()}
    assert _compose(edge, labels) == (
        "forecasts_hazard_at_horizon | gusts expected | "
        "Port P [port]; Irma wind fcst [hazard_forecast] | "
        "basis=model; peak_gust_kt=70"
    )


def test_compose_text_handles_missing_entity_and_empty_attributes():
    edge = Hyperedge.create("has_attribute", {"a", "b"}, evidence="ev")
    assert _compose(edge, {}) == "has_attribute | ev | a [other]; b [other] | "


def test_local_embedder_is_deterministic_unit_norm_f32():
    embedder = LocalHashingEmbedder(dim=64)
    first = embedder.embed_one("the storm approaches the port")
    second = embedder.embed_one("the storm approaches the port")
    assert np.array_equal(first, second)
    assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-7)
    assert np.array_equal(first, first.astype(np.float32).astype(np.float64))


def test_local_embedder_is_a_bag_of_tokens():
    embedder = LocalHashingEmbedder(dim=64)
    assert np.array_equal(embedder.embed_one("alpha beta"), embedder.embed_one("beta alpha"))
    assert not np.array_equal(embedder.embed_one("alpha beta"), embedder.embed_one("alpha gamma"))


def test_local_embedder_shared_tokens_raise_cosine():
    embedder = LocalHashingEmbedder(dim=256)
    query = embedder.embed_one("storm surge at port arthur")
    near = embedder.embed_one("storm surge flooding port arthur docks")
    far = embedder.embed_one("quarterly earnings call transcript summary")
    # Embeddings are unit vectors, so the dot product is the cosine.
    assert float(query @ near) > float(query @ far)


def test_local_embedder_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        LocalHashingEmbedder(dim=4)


def test_local_embedder_empty_text_hits_fallback_basis():
    vector = LocalHashingEmbedder(dim=16).embed_one("")
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.array_equal(vector, expected)


def _reference_embedding(text: str, dim: int) -> np.ndarray:
    # One hash per token occurrence, accumulated in token order.
    accum = np.zeros(dim)
    for token in text.split():
        digest = fnv1a64(token.encode("utf-8"))
        accum[digest % dim] += 1.0 if digest >> 63 == 0 else -1.0
    norm = float(np.linalg.norm(accum))
    if norm == 0.0:
        accum[0] = 1.0
        norm = 1.0
    return (accum / norm).astype(np.float32).astype(np.float64)


def test_local_embedder_matches_per_token_reference_loop():
    texts = ["", "storm storm surge", "pörtø  Ärthur\tdocks", "a b a b a b c", "x " * 300]
    for dim in (8, 37, 256):
        matrix = LocalHashingEmbedder(dim=dim).embed(texts)
        for row, text in zip(matrix, texts):
            assert np.array_equal(row, _reference_embedding(text, dim)), (dim, text)


def test_embed_stacks_rows():
    embedder = LocalHashingEmbedder(dim=32)
    matrix = embedder.embed(["a", "b", "c"])
    assert matrix.shape == (3, 32)
    assert np.array_equal(matrix[1], embedder.embed_one("b"))


def test_cache_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "cache.okhe"
    cache = EmbeddingCache(str(path), dim=16)
    vector = LocalHashingEmbedder(dim=16).embed_one("hello world")
    cache.store("hello world", vector)
    cache.save()

    reloaded = EmbeddingCache(str(path), dim=16)
    hit = reloaded.lookup("hello world")
    assert hit is not None
    assert np.array_equal(hit, vector)
    assert reloaded.lookup("other text") is None


def test_cache_tolerates_missing_and_mismatched_files(tmp_path):
    missing = EmbeddingCache(str(tmp_path / "absent.okhe"), dim=8)
    assert missing.lookup("x") is None

    path = tmp_path / "cache.okhe"
    cache = EmbeddingCache(str(path), dim=16)
    cache.store("x", LocalHashingEmbedder(dim=16).embed_one("x"))
    cache.save()
    other_dim = EmbeddingCache(str(path), dim=32)
    assert other_dim.lookup("x") is None

    path.write_bytes(b"not a cache file")
    garbage = EmbeddingCache(str(path), dim=16)
    assert garbage.lookup("x") is None


def test_cache_of_another_embedder_or_version_is_not_reused(tmp_path):
    path = tmp_path / "cache.okhe"
    remote = RemoteEmbeddingClient("http://127.0.0.1:9", "text-embed-x", dim=16)
    remote_cache = EmbeddingCache(str(path), 16, remote.identity)
    remote_cache.store("x", LocalHashingEmbedder(dim=16).embed_one("y"))
    remote_cache.save()
    assert EmbeddingCache(str(path), 16, remote.identity).lookup("x") is not None
    other_model = RemoteEmbeddingClient("http://127.0.0.1:9", "text-embed-z", dim=16)
    assert EmbeddingCache(str(path), 16, other_model.identity).lookup("x") is None

    # Same dimension, other provider: the local embedder rebuilds and saves.
    graph = _tiny_graph()
    local = LocalHashingEmbedder(dim=16)
    cache = EmbeddingCache(str(path), 16)
    assert len(cache) == 0
    store = EmbeddingStore.build(graph, local, cache)
    assert np.array_equal(store.matrix, EmbeddingStore.build(graph, local).matrix)
    cache.save()
    assert len(EmbeddingCache(str(path), 16, local.identity)) == 2
    assert len(EmbeddingCache(str(path), 16, remote.identity)) == 0

    # A version-1 file (no identity in its header) is ignored too.
    vector = local.embed_one("x")
    key = content_key("x")
    path.write_bytes(
        struct.pack("<4sII", CACHE_MAGIC, 1, 16) + key + vector.astype("<f4").tobytes()
    )
    assert EmbeddingCache(str(path), 16).lookup("x") is None


class _ScriptedHandler(BaseHTTPRequestHandler):
    script: list[tuple[int, dict]] = []
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        status, payload = self.script.pop(0) if self.script else (500, {})
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(payload).encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    # shutdown() waits out one poll interval; the 0.5 s default dominates teardown.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _ScriptedHandler.script = []
    _ScriptedHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}", _ScriptedHandler
    server.shutdown()
    thread.join()


def test_post_json_success_sends_bearer_key(http_server):
    url, handler = http_server
    handler.script.append((200, {"ok": True}))
    body = post_json_with_retries(f"{url}/x", {"a": 1}, api_key="secret")
    assert body == {"ok": True}
    assert handler.requests_seen[0]["auth"] == "Bearer secret"
    assert handler.requests_seen[0]["body"] == {"a": 1}


def test_post_json_retries_server_errors_then_succeeds(http_server):
    url, handler = http_server
    handler.script.extend([(500, {}), (429, {}), (200, {"ok": 1})])
    body = post_json_with_retries(f"{url}/x", {}, api_key=None, max_attempts=3, backoff=0.001)
    assert body == {"ok": 1}
    assert len(handler.requests_seen) == 3


def test_post_json_client_error_fails_without_retry(http_server):
    url, handler = http_server
    handler.script.append((400, {"error": "bad"}))
    with pytest.raises(ProviderError) as err:
        post_json_with_retries(f"{url}/x", {}, api_key=None, max_attempts=3, backoff=0.001)
    assert err.value.status == 400
    assert len(handler.requests_seen) == 1


def test_post_json_exhausts_attempts(http_server):
    url, handler = http_server
    handler.script.extend([(503, {}), (503, {}), (503, {})])
    with pytest.raises(ProviderError) as err:
        post_json_with_retries(f"{url}/x", {}, api_key=None, max_attempts=3, backoff=0.001)
    assert err.value.status == 503
    assert len(handler.requests_seen) == 3


def test_importing_okh_leaves_requests_unloaded():
    # Only the remote provider needs requests; the offline pipeline must not load it.
    src = os.path.dirname(os.path.dirname(okh.__file__))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, okh; print('requests' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def _embedding_payload(vectors, order=None):
    indices = order if order is not None else range(len(vectors))
    return {
        "data": [
            {"index": i, "embedding": list(map(float, vec))}
            for i, vec in zip(indices, vectors)
        ]
    }


def test_remote_client_normalizes_and_respects_index_field(http_server):
    url, handler = http_server
    # Response deliberately lists the second text first; index must win.
    handler.script.append(
        (200, _embedding_payload([[0.0, 2.0, 0.0], [4.0, 0.0, 0.0]], order=[1, 0]))
    )
    client = RemoteEmbeddingClient(url, "m", dim=3, api_key="k", backoff=0.001)
    matrix = client.embed(["first", "second"])
    assert matrix.shape == (2, 3)
    assert matrix[0] == pytest.approx([1.0, 0.0, 0.0])
    assert matrix[1] == pytest.approx([0.0, 1.0, 0.0])
    assert handler.requests_seen[0]["body"] == {"model": "m", "input": ["first", "second"]}


def test_remote_client_rejects_dimension_drift(http_server):
    url, handler = http_server
    handler.script.append((200, _embedding_payload([[1.0, 0.0], [1.0, 0.0, 0.0]])))
    client = RemoteEmbeddingClient(url, "m", dim=2, api_key="k", backoff=0.001)
    with pytest.raises(DimensionMismatch):
        client.embed(["a", "b"])


def test_remote_client_rejects_wrong_count(http_server):
    url, handler = http_server
    handler.script.append((200, _embedding_payload([[1.0, 0.0]])))
    client = RemoteEmbeddingClient(url, "m", dim=2, api_key="k", backoff=0.001)
    with pytest.raises(ProviderError):
        client.embed(["a", "b"])


@pytest.mark.parametrize(
    "second, field",
    [
        pytest.param({"index": 5, "embedding": [0.0, 1.0]}, "data[1].index 5 ", id="past-end"),
        pytest.param({"index": -1, "embedding": [0.0, 1.0]}, "data[1].index -1 ", id="negative"),
        pytest.param({"index": True, "embedding": [0.0, 1.0]}, "data[1].index True ", id="bool"),
        pytest.param({"embedding": [0.0, 1.0]}, "data[1].index None ", id="no-index"),
        pytest.param({"index": 1, "embedding": "ab"}, "data[1].embedding is not", id="string"),
        pytest.param({"index": 1, "embedding": [0.0, "1"]}, "data[1].embedding is not", id="text-value"),
        pytest.param({"index": 1, "embedding": [0.0, math.nan]}, "data[1].embedding has", id="nan"),
        pytest.param({"index": 1, "embedding": [0.0, 10**400]}, "data[1].embedding has", id="overflow"),
        pytest.param([1, [0.0, 1.0]], "data[1].index None ", id="not-an-object"),
    ],
)
def test_remote_client_refuses_a_malformed_item(http_server, second, field):
    url, handler = http_server
    handler.script.append((200, {"data": [{"index": 0, "embedding": [1.0, 0.0]}, second]}))
    client = RemoteEmbeddingClient(url, "m", dim=2, api_key="k", backoff=0.001)
    with pytest.raises(ProviderError) as err:
        client.embed(["a", "b"])
    assert err.value.status == 200 and err.value.body.startswith(field)


class _CountingEmbedder:
    def __init__(self, dim=16):
        self.inner = LocalHashingEmbedder(dim)
        self.dim = dim
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return self.inner.embed(texts)


def _tiny_graph():
    from okh.hypergraph import merge_facts

    facts = [
        {
            "relation": "forecasts_hazard_at_horizon",
            "entities": [
                {"id": "port:p", "name": "P", "type": "port"},
                {"id": f"wind_fcst:{storm}:p:T-{h}", "name": f"w{h}", "type": "hazard_forecast"},
            ],
            "evidence": f"wind at T-{h}",
            "attributes": {},
            "confidence": 1.0,
            "group": "A:p",
            "horizon": h,
            "text_position": i,
        }
        # Two storms' states, so that no change edge links them.
        for i, (storm, h) in enumerate([("A", 72), ("B", 48)])
    ]
    return merge_facts([facts])


def test_store_build_uses_cache_on_second_pass(tmp_path):
    graph = _tiny_graph()
    cache_path = tmp_path / "cache.okhe"

    first_embedder = _CountingEmbedder()
    cache = EmbeddingCache(str(cache_path), dim=16)
    store = EmbeddingStore.build(graph, first_embedder, cache)
    cache.save()
    assert first_embedder.calls == 1
    assert store.matrix.shape == (2, 16)

    second_embedder = _CountingEmbedder()
    warm_cache = EmbeddingCache(str(cache_path), dim=16)
    warm_store = EmbeddingStore.build(graph, second_embedder, warm_cache)
    assert second_embedder.calls == 0
    assert np.array_equal(warm_store.matrix, store.matrix)


def test_store_rows_follow_sorted_edge_ids():
    graph = _tiny_graph()
    embedder = LocalHashingEmbedder(dim=16)
    store = EmbeddingStore.build(graph, embedder)
    assert store.ids == sorted(graph.hyperedges)
    for edge_id in store.ids:
        assert np.array_equal(store.vector(edge_id), store.matrix[store.row_of[edge_id]])


def test_embed_query_caches_and_relevance_checks_dimension(tmp_path):
    graph = _tiny_graph()
    embedder = _CountingEmbedder()
    cache = EmbeddingCache(str(tmp_path / "c.okhe"), dim=16)
    store = EmbeddingStore.build(graph, embedder, cache)
    calls_after_build = embedder.calls
    first = store.embed_query("what happened")
    again = store.embed_query("what happened")
    assert np.array_equal(first, again)
    assert embedder.calls == calls_after_build + 1

    scores = store.relevance(first)
    assert scores.shape == (2,)
    with pytest.raises(DimensionMismatch):
        store.relevance(np.zeros(8))


def test_embed_query_refuses_a_non_finite_cached_vector(tmp_path):
    path = tmp_path / "c.okhe"
    cache = EmbeddingCache(str(path), dim=16)
    cache.store("what happened", np.full(16, np.inf))
    store = EmbeddingStore.build(_tiny_graph(), LocalHashingEmbedder(16), cache)
    with pytest.raises(SchemaError) as info:
        store.embed_query("what happened")
    assert info.value.path == "cache"
    assert info.value.message == (
        f"{path}: the vector recorded for text {content_key('what happened').hex()} is not finite"
    )


def _corpus_texts(graph, corpus):
    labels = {entity_id: _entity_label(entity) for entity_id, entity in graph.entities.items()}
    texts = [_compose(edge, labels) for edge in graph.hyperedges.values()]
    return texts + [qa.question for qa in corpus.qa]


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**16),
    dim=st.sampled_from([8, 16, 32, 64, 256]),
    cached=st.booleans(),
    data=st.data(),
)
def test_relevance_is_the_dense_product_bit_for_bit(seed, dim, cached, data):
    # Stores over generated corpora, built without a cache or from a saved
    # one; queries from the corpus vocabulary with repeated tokens, and the
    # empty text, asked in random order so that column slices are read both
    # cold and cached.
    corpus = generate_synthetic(seed=seed, n_groups=2, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    embedder = LocalHashingEmbedder(dim)
    if cached:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.okhe")
            cold = EmbeddingCache(path, dim)
            EmbeddingStore.build(graph, embedder, cold)
            cold.save()
            store = EmbeddingStore.build(graph, embedder, EmbeddingCache(path, dim))
    else:
        store = EmbeddingStore.build(graph, embedder)
    texts = _corpus_texts(graph, corpus)
    vocabulary = sorted({token for text in texts for token in text.split()})
    tokens = st.lists(st.sampled_from(vocabulary), max_size=24)
    queries = data.draw(st.lists(tokens.map(" ".join), min_size=1, max_size=12))
    queries += ["", " ".join([vocabulary[0]] * 5 + [vocabulary[-1]] * 3)]
    queries += data.draw(st.lists(st.sampled_from(texts), max_size=6))
    random.Random(data.draw(st.integers(0, 2**16))).shuffle(queries)
    for text in queries:
        query = store.embed_query(text)
        assert store.relevance(query).tobytes() == (store.matrix @ query).tobytes(), text
    assert set(store.columns) <= set(range(dim))


@settings(deadline=None, max_examples=60)
@given(
    dim=st.sampled_from([8, 16, 32, 64, 256]),
    words=st.lists(st.sampled_from(["storm", "port", "T-48", "|", "surge", "", "é"]), max_size=30),
    other=st.text(max_size=20),
)
def test_single_text_embedding_is_the_batch_row_bit_for_bit(dim, words, other):
    embedder = LocalHashingEmbedder(dim)
    text = " ".join(words)
    batch = LocalHashingEmbedder(dim).embed([text, other])
    single = embedder.embed_one(text)
    assert single.tobytes() == batch[0].tobytes()
    assert embedder.embed([text])[0].tobytes() == batch[0].tobytes()


def test_relevance_reads_only_the_query_buckets_and_the_matrix_is_read_only():
    graph = _tiny_graph()
    store = EmbeddingStore.build(graph, LocalHashingEmbedder(dim=64))
    first = store.embed_query("port status")
    query = store.embed_query("wind at T-48")
    assert store.relevance(first).tobytes() == (store.matrix @ first).tobytes()
    assert set(store.columns) == set(np.flatnonzero(first).tolist())
    assert store.relevance(query).tobytes() == (store.matrix @ query).tobytes()
    assert set(store.columns) == set(np.flatnonzero(first).tolist() + np.flatnonzero(query).tolist())
    with pytest.raises(ValueError):
        store.matrix[0, 0] = 1.0
    # A non-finite query reaches every row, as the dense product does.
    query = np.zeros(64)
    query[3] = np.nan
    assert np.isnan(store.relevance(query)).all()
    assert not store.relevance(np.zeros(64)).any()


def test_dense_store_and_queries_build_no_column_slices():
    # A remote embedder's vectors are dense f32 numbers; their queries read
    # the dense product, however many are asked.
    rng = np.random.default_rng(4)
    dim = 64

    def units(count):
        vectors = rng.standard_normal((count, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        return vectors.astype(np.float32).astype(np.float64)

    store = EmbeddingStore([f"e{i}" for i in range(300)], units(300), LocalHashingEmbedder(dim))
    for query in units(6):
        assert store.relevance(query).tobytes() == (store.matrix @ query).tobytes()
    assert store.columns == {}


def test_sparse_query_over_wide_ranging_values_is_the_dense_product():
    # Products whose exponents span 40 bits need more than 53 bits to add
    # exactly, so the bucket-order sums differ from the dense product's in
    # some rows; relevance must see that and return the dense product.
    rng = np.random.default_rng(7)
    dim = 32
    matrix = np.zeros((2000, dim))
    matrix[:, :4] = rng.standard_normal((2000, 4)) * 2.0 ** rng.integers(-40, 1, (2000, 4))
    matrix = matrix.astype(np.float32).astype(np.float64)
    store = EmbeddingStore([f"e{i}" for i in range(2000)], matrix, LocalHashingEmbedder(dim))
    for _ in range(5):
        query = np.zeros(dim)
        query[:4] = (rng.standard_normal(4) * 2.0 ** rng.integers(-40, 1, 4)).astype(np.float32)
        assert store.relevance(query).tobytes() == (store.matrix @ query).tobytes()
    assert set(store.columns) == {0, 1, 2, 3}


# --- Store build with a cache: one key per text, misses stored at once -----


def _synthetic_graph_texts():
    graph = merge_facts([generate_synthetic(seed=4, n_groups=2, horizons_per_group=2).facts])
    labels = {entity_id: _entity_label(entity) for entity_id, entity in graph.entities.items()}
    texts = [_compose(graph.hyperedges[edge_id], labels) for edge_id in sorted(graph.hyperedges)]
    return graph, texts


@pytest.mark.parametrize("state", ["empty", "partly warm", "warm from file", "warm in memory"])
def test_cached_store_matrix_is_the_uncached_build_bit_for_bit(tmp_path, state):
    graph, texts = _synthetic_graph_texts()
    embedder = LocalHashingEmbedder(16)
    expected = EmbeddingStore.build(graph, embedder).matrix
    path = tmp_path / "c.okhe"
    cache = EmbeddingCache(str(path), 16)
    if state == "partly warm":
        for text in texts[::3]:
            cache.store(text, embedder.embed_one(text))
    elif state.startswith("warm"):
        EmbeddingStore.build(graph, embedder, cache)
        if state == "warm from file":
            cache.save()
            cache = EmbeddingCache(str(path), 16)
    counting = _CountingEmbedder(16)
    store = EmbeddingStore.build(graph, counting, cache)
    assert store.matrix.dtype == np.float64 and not store.matrix.flags.writeable
    assert store.matrix.tobytes() == expected.tobytes()
    assert counting.calls == (0 if state.startswith("warm") else 1)
    assert all(cache.lookup(text).tobytes() == row.tobytes() for text, row in zip(texts, expected))


@pytest.mark.parametrize("warm_share", [0, 2, 1])
def test_cached_store_build_saves_the_bytes_of_a_per_text_store_loop(tmp_path, warm_share):
    graph, texts = _synthetic_graph_texts()
    embedder = LocalHashingEmbedder(16)
    built = EmbeddingCache(str(tmp_path / "built.okhe"), 16)
    looped = EmbeddingCache(str(tmp_path / "looped.okhe"), 16)
    if warm_share:
        for text in texts[::warm_share]:
            built.store(text, embedder.embed_one(text))
    EmbeddingStore.build(graph, embedder, built)
    for text, row in zip(texts, embedder.embed(texts)):
        looped.store(text, row)
    built.save()
    looped.save()
    assert (tmp_path / "built.okhe").read_bytes() == (tmp_path / "looped.okhe").read_bytes()
    assert len(EmbeddingCache(str(tmp_path / "built.okhe"), 16)) == len(set(texts))


@pytest.mark.parametrize("warm", [False, True])
def test_cached_store_build_refuses_an_embedder_of_another_width(tmp_path, warm):
    graph, texts = _synthetic_graph_texts()
    cache = EmbeddingCache(str(tmp_path / "c.okhe"), 16)
    if warm:
        cache.store(texts[0], LocalHashingEmbedder(16).embed_one(texts[0]))
    with pytest.raises(DimensionMismatch) as info:
        EmbeddingStore.build(graph, LocalHashingEmbedder(8), cache)
    assert str(info.value) == "cache holds 16-d vectors, got (8,)"
    assert len(cache) == int(warm)


def test_cached_store_build_refuses_a_non_finite_cached_row_before_embedding(tmp_path):
    graph, texts = _synthetic_graph_texts()
    path = tmp_path / "c.okhe"
    cache = EmbeddingCache(str(path), 16)
    embedder = LocalHashingEmbedder(16)
    for text in texts[:4]:
        cache.store(text, embedder.embed_one(text))
    cache.store(texts[2], np.full(16, np.nan))
    counting = _CountingEmbedder(16)
    with pytest.raises(SchemaError) as info:
        EmbeddingStore.build(graph, counting, cache)
    assert info.value.path == "cache"
    assert info.value.message == (
        f"{path}: the vector recorded for text {content_key(texts[2]).hex()} is not finite"
    )
    assert counting.calls == 0 and len(cache) == 4


def _traced_peak(call):
    """What ``call()`` returns, and the peak bytes it held while running."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_cold_cached_store_build_holds_one_matrix(tmp_path):
    # Every text misses, so the embedder's rows are the matrix: no zeroed
    # block of the matrix's size is made and thrown away on the way.
    graph = merge_facts([generate_synthetic(seed=2, n_groups=10, horizons_per_group=3).facts])
    embedder = LocalHashingEmbedder(256)
    rows = len(graph.hyperedges) * 256 * 8
    uncached, uncached_peak = _traced_peak(lambda: EmbeddingStore.build(graph, embedder))
    cache = EmbeddingCache(str(tmp_path / "cold.okhe"), 256)
    cold, cold_peak = _traced_peak(lambda: EmbeddingStore.build(graph, embedder, cache))
    assert cold.matrix.tobytes() == uncached.matrix.tobytes()
    assert cold_peak < uncached_peak + rows / 2


def test_a_cache_of_several_save_blocks_round_trips_every_record(tmp_path):
    dim, count, later = 4, 2 * CACHE_BLOCK + 300, 500
    texts = [f"record {i}" for i in range(count + later)]
    vectors = quantize_f32(np.random.default_rng(7).standard_normal((count + later, dim)))
    path = tmp_path / "big.okhe"
    cache = EmbeddingCache(str(path), dim)
    for text, vector in zip(texts[:count], vectors):
        cache.store(text, vector)
    cache.save()
    loaded = EmbeddingCache(str(path), dim)
    assert len(loaded) == count
    # Loaded records and records stored after the load share save blocks.
    for text, vector in zip(texts[count:], vectors[count:]):
        loaded.store(text, vector)
    loaded.save()
    identity = LocalHashingEmbedder.identity.encode("utf-8")
    expected = struct.pack("<4sIII", CACHE_MAGIC, CACHE_VERSION, dim, len(identity)) + identity
    records = sorted(zip([content_key(text) for text in texts], vectors.astype("<f4")), key=lambda r: r[0])
    expected += b"".join(key + vector.tobytes() for key, vector in records)
    assert path.read_bytes() == expected

    reloaded = EmbeddingCache(str(path), dim)
    assert len(reloaded) == len(texts)
    for text, vector in zip(texts, vectors):
        found = reloaded.lookup(text)
        assert found.dtype == np.float64 and found.tobytes() == vector.tobytes()
    found, misses = reloaded.lookup_many([*texts, "never stored", "nor this"])
    assert found[: len(texts)].tobytes() == vectors.tobytes()
    assert misses == [len(texts), len(texts) + 1] and not found[len(texts) :].any()
    reloaded.save()
    assert path.read_bytes() == expected


def test_remote_client_dimension_is_bounded():
    for dim in (1, 1536, 3072, 4096):
        assert RemoteEmbeddingClient("http://127.0.0.1:9", "m", dim=dim).dim == dim
    for dim in (0, -1, 4097, 2**40):
        with pytest.raises(ValueError) as info:
            RemoteEmbeddingClient("http://127.0.0.1:9", "m", dim=dim)
        assert str(info.value) == f"remote embedder dim must be in [1, 4096], got {dim}"
