"""Hyperedge text composition, embedding providers, and the vector cache.

Two providers share one contract: a deterministic local feature-hashing
embedder for offline and test use, and an HTTP client for hosted embedding
endpoints. Every vector is unit-normalized and then quantized through f32
so that freshly computed and cache-loaded vectors are bit-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import time
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from okh.errors import DimensionMismatch, ProviderError, SchemaError
from okh.hashutil import content_key, fnv1a64, fnv1a64_many
from okh.hypergraph import Entity, Hyperedge, KnowledgeHypergraph
from okh.relations import EntityType

API_KEY_ENV = "OKH_EMBED_API_KEY"
CACHE_MAGIC = b"OKHE"
CACHE_VERSION = 2
DEFAULT_LOCAL_DIM = 256
# A transition model holds two rank x dim factors, so either embedder's
# dimension is bounded before anything is allocated for it. The bound admits
# the hosted models' 1,536 and 3,072.
MAX_DIM = 4096
# A query reads column slices (`EmbeddingStore.relevance`) only when at most
# this share of its buckets are nonzero, as a feature-hashed text's are; a
# denser one, such as a remote embedder's, reads the dense product.
SPARSE_QUERY_SHARE = 1 / 8
# The embedding cache widens and writes its records this many at a time.
CACHE_BLOCK = 1024


def _entity_label(entity: Entity) -> str:
    return f"{entity.name} [{entity.entity_type.value}]"


def _compose(edge: Hyperedge, labels: Mapping[str, str]) -> str:
    """Render a hyperedge as the flat text that gets embedded.

    Layout: relation, evidence, entities sorted by id, and attributes as
    "key=value" sorted by key, joined by " | ". An entity reads as its label
    in ``labels`` ("name [type]"), else as "id [other]". The attribute
    segment is present but empty when the edge has no attributes.
    """
    entity_part = "; ".join(
        [
            labels.get(entity_id) or f"{entity_id} [{EntityType.OTHER.value}]"
            for entity_id in sorted(edge.entity_ids)
        ]
    )
    attr_part = "; ".join([f"{key}={value}" for key, value in sorted(edge.attributes.items())])
    return f"{edge.relation} | {edge.evidence} | {entity_part} | {attr_part}"


def quantize_f32(array: np.ndarray) -> np.ndarray:
    """The array rounded to float32 and widened back to float64."""
    return np.asarray(array, dtype=np.float32).astype(np.float64)


def _unit(vector: np.ndarray, dim: int) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        basis = np.zeros(dim, dtype=np.float64)
        basis[0] = 1.0
        return basis
    return vector / norm


class _Slots(dict):
    """Token -> slot number, a new token taking the next number."""

    def __missing__(self, token: str) -> int:
        slot = self[token] = len(self)
        return slot


class LocalHashingEmbedder:
    """Deterministic bag-of-tokens feature hashing into a fixed dimension.

    Each whitespace token hashes to one bucket with a sign bit; the
    accumulated vector is L2-normalized. Empty or fully cancelling text maps
    to the first basis vector so downstream math never sees a zero vector.
    """

    # Cache files record which embedder wrote them (see EmbeddingCache).
    identity = json.dumps(["local"])

    def __init__(self, dim: int = DEFAULT_LOCAL_DIM):
        if not 8 <= dim <= MAX_DIM:
            raise ValueError(f"local embedder dimension must be in [8, {MAX_DIM}], got {dim}")
        self.dim = dim

    def embed_one(self, text: str) -> np.ndarray:
        """The row ``embed`` gives ``text`` in a batch, without the batch hash.

        Each token is hashed with the scalar `fnv1a64`. The bucket sums and
        the squared norm are small integers, exact in any order, and the
        division and f32 rounding are the batch's elementwise ones, so the
        bits are the batch row's.
        """
        counts: dict[int, float] = {}
        for token in text.split():
            digest = fnv1a64(token.encode("utf-8"))
            bucket = digest % self.dim
            counts[bucket] = counts.get(bucket, 0.0) + (1.0 if digest >> 63 == 0 else -1.0)
        vector = np.zeros(self.dim, dtype=np.float64)
        norm = math.sqrt(sum(count * count for count in counts.values()))
        if norm == 0.0:
            vector[0] = 1.0
            return vector
        vector[list(counts)] = np.array(list(counts.values())) / norm
        vector[...] = vector.astype(np.float32)  # `quantize_f32`, in place
        return vector

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        if len(texts) == 1:
            return self.embed_one(texts[0])[None, :]
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float64)
        # Each distinct token is hashed once. The bucket sums are small
        # integers, so accumulating them in any order gives the same floats.
        slot_of = _Slots()
        slots = [list(map(slot_of.__getitem__, text.split())) for text in texts]
        sizes = [len(row) for row in slots]
        tokens = np.fromiter(chain.from_iterable(slots), dtype=np.intp, count=sum(sizes))
        digests = fnv1a64_many([token.encode("utf-8") for token in slot_of])
        buckets = np.array([digest % self.dim for digest in digests], dtype=np.intp)
        signs = np.array([1.0 if digest >> 63 == 0 else -1.0 for digest in digests])
        # One bincount over (text, bucket) cells fills every row at once. The
        # squared norms are sums of squared small integers, exact in any
        # order, so each row is the one `_unit` would give.
        cells = np.repeat(np.arange(len(texts), dtype=np.intp) * self.dim, sizes) + buckets[tokens]
        accum = np.bincount(cells, weights=signs[tokens], minlength=len(texts) * self.dim)
        # (bincount returns integers when no text has a token.)
        accum = accum.reshape(len(texts), self.dim).astype(np.float64, copy=False)
        norms = np.sqrt(np.einsum("ij,ij->i", accum, accum))
        empty = norms == 0.0
        accum[empty, 0] = 1.0
        norms[empty] = 1.0
        accum /= norms[:, None]
        accum[...] = accum.astype(np.float32)  # `quantize_f32`, in place
        return accum


def post_json_with_retries(
    url: str,
    payload: dict,
    api_key: str | None,
    max_attempts: int = 3,
    backoff: float = 0.5,
    timeout: float = 30.0,
) -> dict:
    """POST JSON with bearer auth, exponential backoff, and bounded retries."""
    # Imported here so that the offline pipeline runs without ``requests``.
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_status: int | None = None
    last_body = ""
    for attempt in range(max_attempts):
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=timeout)
            last_status = response.status_code
            last_body = response.text[:200]
            if response.status_code == 200:
                return response.json()
            if response.status_code not in (429,) and response.status_code < 500:
                break
        except requests.RequestException as exc:
            last_status = None
            last_body = str(exc)[:200]
        if attempt + 1 < max_attempts:
            time.sleep(backoff * 2**attempt)
    raise ProviderError(last_status, last_body)


class RemoteEmbeddingClient:
    """Client for a hosted embedding endpoint speaking the common JSON shape."""

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        dim: int,
        api_key: str | None = None,
        batch_size: int = 64,
        max_attempts: int = 3,
        backoff: float = 0.5,
        timeout: float = 30.0,
    ):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"remote embedder dim must be in [1, {MAX_DIM}], got {dim}")
        self.endpoint = endpoint.rstrip("/")
        self.model_name = model_name
        self.dim = dim
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.batch_size = batch_size
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.timeout = timeout

    @property
    def identity(self) -> str:
        return json.dumps(["remote", self.endpoint, self.model_name])

    def _embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        body = post_json_with_retries(
            f"{self.endpoint}/embeddings",
            {"model": self.model_name, "input": list(texts)},
            self.api_key,
            self.max_attempts,
            self.backoff,
            self.timeout,
        )
        data = body.get("data") if isinstance(body, dict) else None
        if not isinstance(data, list) or len(data) != len(texts):
            raise ProviderError(200, f"expected {len(texts)} embeddings, got {data!r:.200}")
        rows: list[np.ndarray | None] = [None] * len(texts)
        for position, item in enumerate(data):
            index = item.get("index") if isinstance(item, dict) else None
            if index.__class__ is not int or not 0 <= index < len(texts):
                raise ProviderError(200, f"data[{position}].index {index!r:.40} is not a valid index")
            embedding = item.get("embedding")
            if not isinstance(embedding, list) or not {type(v) for v in embedding} <= {int, float}:
                raise ProviderError(200, f"data[{position}].embedding is not a list of numbers")
            try:
                row = np.array(embedding, dtype=np.float64)
            except OverflowError:  # an integer beyond the float64 range
                row = np.array([math.inf])
            if not np.isfinite(row).all():
                raise ProviderError(200, f"data[{position}].embedding has a non-finite value")
            rows[index] = row
        vectors = []
        for row in rows:
            if row is None:
                raise ProviderError(200, "response is missing an embedding index")
            if row.shape[0] != self.dim:
                raise DimensionMismatch(
                    f"provider returned dimension {row.shape[0]}, expected {self.dim}"
                )
            vectors.append(quantize_f32(_unit(row, self.dim)))
        return vectors

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        vectors: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            vectors.extend(self._embed_batch(texts[start : start + self.batch_size]))
        if not vectors:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.stack(vectors)


class EmbeddingCache:
    """Binary on-disk map from text digests to f32 vectors.

    File layout: magic "OKHE", u32 version, u32 dimension, u32 byte length
    of the embedder identity, the identity in UTF-8, then records of a
    16-byte digest followed by dimension little-endian f32 values. The
    identity names the provider, plus the endpoint and model for a remote
    one, so vectors of another embedder with the same dimension are never
    reused. The records are held as they load, as f32 rows read in place
    from the file's bytes, and a row is widened to float64 when it is
    looked up; a digest recorded twice reads as its later record. Reads are
    lock-free once loaded; writes are serialized.
    """

    def __init__(self, path: str, dim: int, identity: str = LocalHashingEmbedder.identity):
        self.path = path
        self.dim = dim
        self.identity = identity
        self._record = np.dtype([("key", "V16"), ("vector", "<f4", (dim,))])
        # The loaded records, as a key -> row index into one read-only f32
        # matrix, and the float64 vectors stored since, which win over a
        # loaded row of the same key.
        self._row_of: dict[bytes, int] = {}
        self._rows = np.zeros((0, dim), dtype="<f4")
        self._stored: dict[bytes, np.ndarray] = {}
        self._lock = threading.Lock()
        self._load()

    def _header(self) -> bytes:
        identity = self.identity.encode("utf-8")
        return struct.pack("<4sIII", CACHE_MAGIC, CACHE_VERSION, self.dim, len(identity)) + identity

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return
        header = self._header()
        if not blob.startswith(header):
            # A cache of another version, dimension or embedder is ignored
            # and rebuilt on save.
            return
        size = self._record.itemsize
        count = (len(blob) - len(header)) // size
        records = np.frombuffer(blob, dtype=self._record, count=count, offset=len(header))
        # A view of the file's bytes, which it keeps alive: no second copy.
        self._rows = records["vector"]
        starts = range(len(header), len(header) + count * size, size)
        keys = [blob[start : start + 16] for start in starts]
        self._row_of = dict(zip(keys, range(count)))

    def _widened(self, rows: Sequence[int]) -> np.ndarray:
        """The loaded records at ``rows`` as float64 rows, gathered in blocks
        so that the f32 rows gathered on the way stay few."""
        out = np.empty((len(rows), self.dim), dtype=np.float64)
        for start in range(0, len(rows), CACHE_BLOCK):
            out[start : start + CACHE_BLOCK] = self._rows[rows[start : start + CACHE_BLOCK]]
        return out

    def __len__(self) -> int:
        return len(self._row_of.keys() | self._stored.keys())

    def lookup(self, text: str) -> np.ndarray | None:
        found, misses = self._lookup_keys([content_key(text)])
        return None if misses else found[0]

    def lookup_many(self, texts: Sequence[str]) -> tuple[np.ndarray, list[int]]:
        """The vectors of ``texts`` as the rows of one matrix, and the positions
        of the texts that have no record, whose rows are zero."""
        found, misses = self._lookup_keys([content_key(text) for text in texts])
        if found is None:
            found = np.zeros((len(texts), self.dim), dtype=np.float64)
        return found, misses

    def _lookup_keys(self, keys: Sequence[bytes]) -> tuple[np.ndarray | None, list[int]]:
        """`lookup_many` of the texts with these content keys, except that the
        matrix is None when every key misses."""
        get = self._row_of.get
        rows = [get(key, -1) for key in keys]
        unloaded = [i for i, row in enumerate(rows) if row < 0]
        stored = self._stored
        misses = [i for i in unloaded if keys[i] not in stored] if stored else unloaded
        if len(misses) == len(keys):
            return None, misses
        if len(unloaded) == len(keys):
            found = np.zeros((len(keys), self.dim), dtype=np.float64)
        else:
            found = self._widened(rows)
            found[unloaded] = 0.0
        if stored:
            for i, key in enumerate(keys):
                vector = stored.get(key)
                if vector is not None:
                    found[i] = vector
        return found, misses

    def store(self, text: str, vector: np.ndarray) -> None:
        self._store_keys([content_key(text)], np.asarray(vector, dtype=np.float64)[None])

    def _store_keys(self, keys: Sequence[bytes], vectors: np.ndarray) -> None:
        """Store each float64 row of ``vectors`` under the content key at its
        position, under one lock acquisition."""
        if vectors.shape[1:] != (self.dim,):
            raise DimensionMismatch(f"cache holds {self.dim}-d vectors, got {vectors.shape[1:]}")
        with self._lock:
            self._stored.update(zip(keys, vectors))

    def save(self) -> None:
        """Write the records in key order, ``CACHE_BLOCK`` records at a time.

        A loaded row goes through float64 on its way back to f32, as a
        looked-up one does, so a signalling NaN is written quieted. Refuses
        (SchemaError at ``cache``) to replace a non-empty file that does not
        start with the cache magic, since that file is not a cache.
        """
        with self._lock:
            try:
                with open(self.path, "rb") as handle:
                    head = handle.read(len(CACHE_MAGIC))
            except FileNotFoundError:
                head = b""
            if head and head != CACHE_MAGIC:
                raise SchemaError(
                    "cache", f"{self.path} is not an embedding cache; refusing to overwrite it"
                )
            keys = sorted(self._row_of.keys() | self._stored.keys())
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(self._header())
                for start in range(0, len(keys), CACHE_BLOCK):
                    handle.write(self._block(keys[start : start + CACHE_BLOCK]))
            os.replace(tmp, self.path)

    def _block(self, keys: list[bytes]) -> np.ndarray:
        """The file records of ``keys``, each of which is loaded or stored."""
        records = np.empty(len(keys), dtype=self._record)
        records["key"] = np.frombuffer(b"".join(keys), dtype="V16")
        vectors, stored = records["vector"], self._stored
        loaded = [i for i, key in enumerate(keys) if key not in stored]
        fresh = [i for i, key in enumerate(keys) if key in stored]
        if loaded:
            vectors[loaded] = self._widened([self._row_of[keys[i]] for i in loaded])
        if fresh:
            vectors[fresh] = np.stack([stored[keys[i]] for i in fresh])
        return records


def _non_finite(cache: EmbeddingCache, text: str) -> SchemaError:
    """The error for a cached vector of ``text`` that holds NaN or infinity."""
    return SchemaError(
        "cache", f"{cache.path}: the vector recorded for text {content_key(text).hex()} is not finite"
    )


class EmbeddingStore:
    """Edge embeddings for one hypergraph plus query embedding support.

    ``matrix`` is made read-only, since relevance reads it through cached
    column slices. A non-finite vector read from the cache is refused with
    SchemaError at ``cache``; the cache itself stores and saves any float.
    """

    def __init__(
        self,
        ids: list[str],
        matrix: np.ndarray,
        embedder,
        cache: EmbeddingCache | None = None,
    ):
        self.ids = ids
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.matrix.flags.writeable = False
        self.row_of = {edge_id: row for row, edge_id in enumerate(ids)}
        self.embedder = embedder
        self.cache = cache
        # Bucket -> (rows where that column is nonzero, their values), each
        # built the first time a sparse query reads the bucket.
        self.columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    @classmethod
    def build(
        cls,
        hypergraph: KnowledgeHypergraph,
        embedder,
        cache: EmbeddingCache | None = None,
    ) -> "EmbeddingStore":
        ids = sorted(hypergraph.hyperedges)
        labels = {
            entity_id: _entity_label(entity) for entity_id, entity in hypergraph.entities.items()
        }
        texts = [_compose(hypergraph.hyperedges[edge_id], labels) for edge_id in ids]
        if cache is None:
            matrix = np.asarray(embedder.embed(texts), dtype=np.float64)
        else:
            keys = [content_key(text) for text in texts]
            matrix, misses = cache._lookup_keys(keys)
            if matrix is not None:
                bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
                if bad.size:
                    raise _non_finite(cache, texts[bad[0]])
            if misses:
                fresh = np.asarray(embedder.embed([texts[i] for i in misses]), dtype=np.float64)
                cache._store_keys([keys[i] for i in misses], fresh)
                # With every text missed, the fresh rows are the matrix.
                if matrix is None:
                    matrix = fresh
                else:
                    matrix[misses] = fresh
        return cls(ids, matrix, embedder, cache)

    def vector(self, edge_id: str) -> np.ndarray:
        return self.matrix[self.row_of[edge_id]]

    def embed_query(self, text: str) -> np.ndarray:
        if self.cache is not None:
            hit = self.cache.lookup(text)
            if hit is not None:
                if not np.isfinite(hit).all():
                    raise _non_finite(self.cache, text)
                return hit
        vector = self.embedder.embed([text])[0]
        if self.cache is not None:
            self.cache.store(text, vector)
        return vector

    def relevance(self, query_vector: np.ndarray) -> np.ndarray:
        """Cosine of every edge against a unit query vector (plain dot).

        The result has the bits of the dense product ``matrix @ q``. A sparse
        query (see ``SPARSE_QUERY_SHARE``) reads only its nonzero buckets,
        each as a column slice (see ``columns``), and adds each row's
        products in bucket order; any other query reads the dense product and
        builds nothing. The bucket-order sums give the dense product's bits
        wherever every partial sum is exact, in any order; otherwise the
        dense product itself is returned. The sums are exact when the values
        are f32 numbers, as every embedder's are: a product of two then has a
        48-bit significand, so all products are multiples of 2 ** (e - 48), e
        being the frexp exponent of the smallest, and a row whose absolute
        products sum below 2 ** (e + 5) has every partial sum within 53 bits.
        """
        query_vector = np.asarray(query_vector, dtype=np.float64)
        if query_vector.shape != (self.dim,):
            raise DimensionMismatch(
                f"query vector has shape {query_vector.shape}, store is {self.dim}-d"
            )
        buckets = np.flatnonzero(query_vector)
        if not buckets.size or len(buckets) > SPARSE_QUERY_SHARE * self.dim:
            return self.matrix @ query_vector
        columns = self.columns
        keys = buckets.tolist()
        missing = [bucket for bucket in keys if bucket not in columns]
        if missing:
            # One gather of the missing columns reads the rows in order,
            # where a column at a time would stride across all of them.
            block = np.take(self.matrix, missing, axis=1).T.ravel()
            found = np.flatnonzero(block != 0.0)
            values = block[found]
            rows = (found % len(self.ids)).astype(np.int32)
            ends = np.searchsorted(found, np.arange(1, len(missing) + 1) * len(self.ids)).tolist()
            for bucket, start, end in zip(missing, [0] + ends, ends):
                columns[bucket] = (rows[start:end], values[start:end])
        slices = [columns[bucket] for bucket in keys]
        rows = np.concatenate([rows for rows, _ in slices])
        values = np.concatenate([values for _, values in slices])
        weights = query_vector[buckets]
        if rows.size and _f32(values) and _f32(weights):
            products = values * np.repeat(weights, [len(rows) for rows, _ in slices])
            size = np.abs(products)
            limit = 2.0 ** (math.frexp(float(size.min()))[1] + 5)
            if np.bincount(rows, weights=size, minlength=len(self.ids)).max() < limit:
                return np.bincount(rows, weights=products, minlength=len(self.ids))
        return self.matrix @ query_vector


def _f32(values: np.ndarray) -> bool:
    """Whether every value is an f32 number (NaN is not)."""
    return bool((values.astype(np.float32) == values).all())
