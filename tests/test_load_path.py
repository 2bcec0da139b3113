"""The retrieve load path against reference copies of its earlier, simpler code.

The snapshot parser and the embedding cache read their artifacts with fast
paths. The references below are the straightforward versions they replaced,
kept verbatim: on any document or cache file, the new code must give the
same graph, the same vectors and the same bytes, or the same error.
"""

import copy
import math
import os
import struct
import threading
from collections.abc import Mapping
from typing import Any

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from okh.corpus import generate_synthetic
from okh.embedding import (
    CACHE_MAGIC,
    CACHE_VERSION,
    EmbeddingCache,
    EmbeddingStore,
    LocalHashingEmbedder,
    RemoteEmbeddingClient,
)
from okh.errors import DimensionMismatch, SchemaError
from okh.hashutil import content_key
from okh.hypergraph import (
    HORIZON_ANCHOR_RE,
    SNAPSHOT_VERSION,
    Entity,
    Hyperedge,
    KnowledgeHypergraph,
    _dedup_ids,
    _optional_horizon,
    _precedence_from_dict,
    _require,
    merge_facts,
)
from okh.precedence import PrecedenceIndex
from okh.relations import DEFAULT_VOCABULARY, FAMILY_OF, EntityType


# --- Reference snapshot parser -------------------------------------------


def _reference_from_snapshot(snapshot: Any):
    if not isinstance(snapshot, Mapping):
        raise SchemaError("snapshot", "expected an object")
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise SchemaError("version", f"unsupported snapshot version {version!r}")
    for key in ("entities", "hyperedges"):
        if not isinstance(snapshot.get(key, []), list):
            raise SchemaError(key, "expected a list")
    entities: dict[str, Entity] = {}
    for index, raw in enumerate(snapshot.get("entities", [])):
        entity = _reference_entity_from_dict(raw, f"entities[{index}]")
        entities[entity.id] = entity
    parsed: list[Hyperedge] = []
    malformed: SchemaError | ValueError | None = None
    for index, raw in enumerate(snapshot.get("hyperedges", [])):
        try:
            parsed.append(_reference_edge_from_dict(raw, f"hyperedges[{index}]"))
        except (SchemaError, ValueError) as exc:
            # Raised after the edges before it are checked, so the first
            # bad edge in index order is the one reported.
            malformed = exc
            break
    expected_ids = _dedup_ids((edge.relation, edge.entity_ids, edge.evidence) for edge in parsed)
    hyperedges: dict[str, Hyperedge] = {}
    for index, (edge, expected) in enumerate(zip(parsed, expected_ids)):
        if edge.id != expected:
            raise SchemaError(f"hyperedges[{index}].id", "content hash does not match edge content")
        if not entities.keys() >= edge.entity_ids:
            missing = min(edge.entity_ids - entities.keys())
            raise SchemaError(f"hyperedges[{index}].entities", f"unknown entity {missing!r}")
        hyperedges[edge.id] = edge
    if malformed is not None:
        raise malformed
    precedence = _precedence_from_dict(snapshot.get("precedence", {}), hyperedges)
    return KnowledgeHypergraph(entities, hyperedges), precedence


def _reference_entity_from_dict(raw: Any, path: str) -> Entity:
    if not isinstance(raw, Mapping):
        raise SchemaError(path, "entity must be an object")
    entity_id = _require(raw, "id", str, path)
    if not entity_id:
        raise SchemaError(f"{path}.id", "entity id must be non-empty")
    name = _require(raw, "name", str, path)
    type_raw = _require(raw, "type", str, path)
    entity_type = EntityType.parse(type_raw)
    if HORIZON_ANCHOR_RE.match(entity_id):
        entity_type = EntityType.HORIZON_TIME
    elif entity_type is EntityType.HORIZON_TIME:
        raise SchemaError(f"{path}.id", "horizon_time entity id must match horizon:T-<int>")
    description = raw.get("description", "")
    if not isinstance(description, str):
        raise SchemaError(f"{path}.description", "expected str")
    confidence = raw.get("confidence", 1.0)
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise SchemaError(f"{path}.confidence", "expected number")
    if not 0.0 < float(confidence) <= 1.0:
        raise SchemaError(f"{path}.confidence", f"must be in (0, 1], got {confidence}")
    return Entity(entity_id, name, entity_type, description, float(confidence))


def _reference_edge_from_dict(raw: Any, path: str) -> Hyperedge:
    if not isinstance(raw, Mapping):
        raise SchemaError(path, "hyperedge must be an object")
    entity_ids = _require(raw, "entities", list, path)
    if not all(isinstance(entity_id, str) for entity_id in entity_ids):
        raise SchemaError(f"{path}.entities", "entity ids must be strings")
    attributes = raw.get("attributes", {})
    if not isinstance(attributes, Mapping):
        raise SchemaError(f"{path}.attributes", "expected object")
    relation = _require(raw, "relation", str, path)
    if not DEFAULT_VOCABULARY.is_canonical(relation):
        raise SchemaError(f"{path}.relation", f"{relation!r} is not a canonical relation")
    family = _require(raw, "family", int, path)
    expected_family = DEFAULT_VOCABULARY.family(relation)
    if isinstance(family, bool) or family != expected_family:
        raise SchemaError(
            f"{path}.family", f"relation {relation!r} is in family {expected_family}, got {family!r}"
        )
    return Hyperedge(
        id=_require(raw, "id", str, path),
        relation=relation,
        family=family,
        entity_ids=frozenset(entity_ids),
        evidence=_require(raw, "evidence", str, path),
        attributes={str(k): str(v) for k, v in attributes.items()},
        confidence=float(_require(raw, "confidence", (int, float), path)),
        group_id=_require(raw, "group", str, path),
        horizon=_optional_horizon(raw, path),
        text_position=int(_require(raw, "text_position", int, path)),
    )


# --- Reference embedding cache --------------------------------------------


class _ReferenceCache:
    def __init__(self, path: str, dim: int, identity: str = LocalHashingEmbedder.identity):
        self.path = path
        self.dim = dim
        self.identity = identity
        self._records: dict[bytes, np.ndarray] = {}
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
        dim = self.dim
        record = 16 + 4 * dim
        offset = len(header)
        while offset + record <= len(blob):
            key = blob[offset : offset + 16]
            vector = np.frombuffer(blob, dtype="<f4", count=dim, offset=offset + 16)
            self._records[key] = vector.astype(np.float64)
            offset += record

    def __len__(self) -> int:
        return len(self._records)

    def lookup(self, text: str) -> np.ndarray | None:
        vector = self._records.get(content_key(text))
        return None if vector is None else vector.copy()

    def store(self, text: str, vector: np.ndarray) -> None:
        if vector.shape != (self.dim,):
            raise DimensionMismatch(f"cache holds {self.dim}-d vectors, got {vector.shape}")
        with self._lock:
            self._records[content_key(text)] = np.asarray(vector, dtype=np.float64)

    def save(self) -> None:
        with self._lock:
            blob = bytearray(self._header())
            for key in sorted(self._records):
                blob += key
                blob += self._records[key].astype("<f4").tobytes()
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(bytes(blob))
            os.replace(tmp, self.path)


# --- Snapshot property test ------------------------------------------------


def _base_snapshot() -> dict:
    corpus = generate_synthetic(seed=3, n_groups=1, horizons_per_group=2)
    graph = merge_facts([corpus.facts])
    return graph.to_snapshot(PrecedenceIndex.build(graph).direct_edges())


_BASE = _base_snapshot()
_ODD = [
    True, False, None, 0, 1, -1, 2, 48, 10**400, 0.0, 0.5, 1.0, 1.5, -0.5, 48.0, 1e-320,
    math.nan, math.inf, -math.inf, "", "x", "48", [], ["x"], {}, {"a": 1},
]
_OUT_OF_RANGE = [0, 0.0, -1, -0.5, 1.0000001, 2, 10**400, math.nan, math.inf, -math.inf]
_TYPES = ["PORT", " Port ", "port", "horizon_time", "HORIZON_TIME", "other", "bogus", ""]
_RELATIONS = [*sorted(FAMILY_OF), "closes_port", "Has_Motion", "bogus"]


def _entry(draw, doc, section):
    entries = doc[section]
    return entries[draw(st.integers(0, len(entries) - 1))] if entries else None


def _corrupt(draw, doc: dict) -> str:
    """Apply one corruption to ``doc`` in place and name its kind."""
    kind = draw(st.sampled_from([
        "delete", "retype", "range", "drop_entity", "entity_id", "evidence",
        "relation", "type", "attribute", "entry", "duplicate", "precedence",
    ]))
    section = draw(st.sampled_from(["entities", "hyperedges"]))
    entry = _entry(draw, doc, section)
    if not isinstance(entry, dict) or not doc["entities"]:
        return "none"
    if kind == "delete" and entry:
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif kind == "retype":
        entry[draw(st.sampled_from(sorted(entry)))] = copy.deepcopy(draw(st.sampled_from(_ODD)))
    elif kind == "range":
        keys = ["confidence"] if section == "entities" else ["confidence", "horizon", "text_position"]
        entry[draw(st.sampled_from(keys))] = draw(st.sampled_from(_OUT_OF_RANGE))
    elif kind == "drop_entity":
        del doc["entities"][draw(st.integers(0, len(doc["entities"]) - 1))]
    elif kind == "entity_id":
        value = draw(st.sampled_from([5, None, ["x"], "", "horizon:T-7", "unknown:id"]))
        if section == "entities":
            entry["id"] = value
        elif isinstance(entry.get("entities"), list) and entry["entities"]:
            ids = entry["entities"]
            if draw(st.booleans()):
                ids[draw(st.integers(0, len(ids) - 1))] = value
            else:  # one distinct id left
                entry["entities"] = ids[:1] * draw(st.integers(1, 2))
    elif kind == "evidence" and isinstance(entry.get("evidence"), str):
        entry["evidence"] += draw(st.sampled_from([" ", "x", "\u2028"]))
    elif kind == "relation":
        entry["relation"] = draw(st.sampled_from(_RELATIONS))
    elif kind == "type":
        entry["type"] = draw(st.sampled_from(_TYPES))
    elif kind == "attribute":
        attributes = entry.setdefault("attributes", {})
        if isinstance(attributes, dict):
            attributes[draw(st.sampled_from(["k", "from_horizon"]))] = draw(st.sampled_from(_ODD))
    elif kind == "entry":
        doc[section][doc[section].index(entry)] = draw(st.sampled_from([5, None, [], "x"]))
    elif kind == "duplicate":
        doc[section].insert(draw(st.integers(0, len(doc[section]))), copy.deepcopy(entry))
    elif kind == "precedence" and isinstance(doc.get("precedence"), dict) and doc["precedence"]:
        group = draw(st.sampled_from(sorted(doc["precedence"])))
        pairs = doc["precedence"][group]
        # An earlier corruption may have replaced a pair with a non-list.
        whole = [pair for pair in pairs if isinstance(pair, list) and pair]
        if whole:
            first = whole[0][0]
            pairs[draw(st.integers(0, len(pairs) - 1))] = draw(st.sampled_from(
                [[first], [first, first, first], [first, 7], ["no-such-edge", first], 5]
            ))
    return kind


@st.composite
def _corrupted_snapshots(draw):
    doc = copy.deepcopy(_BASE)
    kinds = [_corrupt(draw, doc) for _ in range(draw(st.integers(1, 3)))]
    return doc, kinds


def _edited(section: str, field: str, value: Any, which=lambda entry: True):
    """The base document with ``field`` of the first matching entry set to ``value``."""
    doc = copy.deepcopy(_BASE)
    next(entry for entry in doc[section] if which(entry))[field] = value
    return doc, [f"{section}.{field}"]


def _anchor(entity):
    return entity["id"].startswith("horizon:")


# Each test the fast path makes, failed once on purpose: a number of another
# JSON type with the same value, an out-of-range number, a lone entity id.
_EDGE_FIELD_CASES = [
    ("confidence", 1), ("confidence", True), ("confidence", 0.0), ("confidence", math.nan),
    ("horizon", 0), ("horizon", -24), ("horizon", True), ("horizon", 48.0),
    ("text_position", -1), ("text_position", 2.0), ("text_position", True),
    ("family", 4.0), ("family", True), ("attributes", {"k": 1}), ("attributes", []),
    ("entities", ["horizon:T-48"]), ("entities", ["horizon:T-48", "horizon:T-48"]),
]
_ENTITY_FIELD_CASES = [
    ("confidence", 1, lambda entity: True),
    ("confidence", 0, lambda entity: True),
    ("confidence", True, lambda entity: True),
    ("description", None, lambda entity: True),
    ("type", "port", _anchor),
    ("type", "horizon_time", lambda entity: not _anchor(entity)),
    ("type", "Port", lambda entity: not _anchor(entity)),
]


def _outcome(parse, doc):
    try:
        graph, precedence = parse(copy.deepcopy(doc))
    except Exception as exc:  # the two parsers must fail alike, whatever the type
        return "error", type(exc), getattr(exc, "path", None), str(exc)
    # repr tells 1 from 1.0 and True, which equality does not.
    return (
        "graph",
        {key: repr(entity.to_dict()) for key, entity in graph.entities.items()},
        {key: repr(edge.to_dict()) for key, edge in graph.hyperedges.items()},
        graph.groups,
        precedence,
    )


def _with_examples(test):
    for field, value in _EDGE_FIELD_CASES:
        test = example(_edited("hyperedges", field, value))(test)
    for field, value, which in _ENTITY_FIELD_CASES:
        test = example(_edited("entities", field, value, which))(test)
    return test


@settings(deadline=None, max_examples=300)
@given(_corrupted_snapshots())
@_with_examples
def test_snapshot_parser_agrees_with_the_reference_on_corrupted_documents(case):
    doc, kinds = case
    expected = _outcome(_reference_from_snapshot, doc)
    event(f"{expected[0]}: {expected[1].__name__}" if expected[0] == "error" else "parsed")
    for kind in kinds:
        event(kind)
    assert _outcome(KnowledgeHypergraph.from_snapshot, doc) == expected


def test_snapshot_parser_builds_equal_objects_on_a_clean_document():
    graph, precedence = KnowledgeHypergraph.from_snapshot(copy.deepcopy(_BASE))
    expected, expected_precedence = _reference_from_snapshot(copy.deepcopy(_BASE))
    assert graph.entities == expected.entities
    assert graph.hyperedges == expected.hyperedges
    assert precedence == expected_precedence and precedence
    # Instances built without __init__ hold the same attributes, in field order.
    for built, reference in [
        *zip(graph.entities.values(), expected.entities.values()),
        *zip(graph.hyperedges.values(), expected.hyperedges.values()),
    ]:
        assert list(vars(built).items()) == list(vars(reference).items())


# --- Cache property test ----------------------------------------------------

_DIM = 4
_TEXTS = [f"text {i}" for i in range(6)]
_LOCAL = LocalHashingEmbedder.identity
_REMOTE = RemoteEmbeddingClient("http://127.0.0.1:9", "m", dim=_DIM).identity


def _header(version=CACHE_VERSION, dim=_DIM, identity=_LOCAL) -> bytes:
    raw = identity.encode("utf-8")
    return struct.pack("<4sIII", CACHE_MAGIC, version, dim, len(raw)) + raw


_HEADERS = st.sampled_from([
    _header(),
    _header(),
    _header(dim=_DIM + 1),
    _header(identity=_REMOTE),
    _header(version=1),
    _header()[:7],
    b"",
])
_KEYS = st.sampled_from([content_key(text) for text in _TEXTS]) | st.binary(min_size=16, max_size=16)
# Raw f32 bit patterns too: a signalling NaN comes back from f32 -> f64 -> f32
# quieted, so a file holding one is saved with other bytes.
_F32 = st.floats(width=32).map(lambda value: np.array([value], dtype="<f4").tobytes()) | st.sampled_from(
    [b"\x01\x00\x80\x7f", b"\x01\x00\xc0\xff", b"\x00\x00\x00\x80", b"\x01\x00\x00\x00"]
)
_VECTORS = st.lists(_F32, min_size=_DIM, max_size=_DIM).map(b"".join)


@st.composite
def _cache_files(draw):
    records = draw(st.lists(st.tuples(_KEYS, _VECTORS), max_size=8))
    if draw(st.booleans()):
        records.sort()
    blob = draw(_HEADERS) + b"".join(key + vector for key, vector in records)
    return blob + draw(st.binary(max_size=16 + 4 * _DIM - 1))


def _cache_blob(*records, tail=b""):
    """A cache file of (text index, f32 bit pattern) records, in the order given."""
    return _header() + b"".join(content_key(_TEXTS[i]) + bits * _DIM for i, bits in records) + tail


_ONE, _TWO, _SNAN = b"\x00\x00\x80\x3f", b"\x00\x00\x00\x40", b"\x01\x00\x80\x7f"
_KEY_ORDER = sorted(range(len(_TEXTS)), key=lambda i: content_key(_TEXTS[i]))
_FIRST, _SECOND = _KEY_ORDER[:2]


@settings(deadline=None, max_examples=200)
@given(
    _cache_files(),
    st.lists(st.tuples(st.sampled_from(_TEXTS), st.lists(st.floats(), min_size=_DIM, max_size=_DIM)),
             max_size=3),
)
# Sorted, unsorted, duplicate and partial records, a signalling NaN and a
# stored vector, once each.
@example(_cache_blob((_FIRST, _ONE), (_SECOND, _TWO)), [])
@example(_cache_blob((_SECOND, _TWO), (_FIRST, _ONE)), [])
@example(_cache_blob((_FIRST, _ONE), (_FIRST, _TWO)), [])
@example(_cache_blob((_FIRST, _ONE), (_SECOND, _TWO), tail=b"\x00" * 5), [])
@example(_cache_blob((_FIRST, _SNAN), (_SECOND, _TWO)), [])
@example(_cache_blob((_FIRST, _ONE), (_SECOND, _TWO)), [(_TEXTS[_FIRST], [3.0] * _DIM)])
def test_cache_agrees_with_the_reference_on_any_cache_file(tmp_path_factory, blob, stores):
    folder = tmp_path_factory.mktemp("cache")
    reference_path, path = folder / "reference.okhe", folder / "cache.okhe"
    reference_path.write_bytes(blob)
    path.write_bytes(blob)
    reference = _ReferenceCache(str(reference_path), _DIM)
    cache = EmbeddingCache(str(path), _DIM)
    assert len(cache) == len(reference)
    for text, values in stores:
        reference.store(text, np.array(values))
        cache.store(text, np.array(values))
    texts = [*_TEXTS, "never stored"]
    matrix, misses = cache.lookup_many(texts)
    for i, text in enumerate(texts):
        expected, found = reference.lookup(text), cache.lookup(text)
        assert (found is None) == (expected is None) == (i in misses)
        if expected is None:
            assert not matrix[i].any()
        else:
            assert found.dtype == np.float64 and found.tobytes() == expected.tobytes()
            assert matrix[i].tobytes() == expected.tobytes()
    if blob and not blob.startswith(CACHE_MAGIC):
        # Not a cache: the reference replaced such a file, the cache refuses.
        with pytest.raises(SchemaError):
            cache.save()
        assert path.read_bytes() == blob
        event("refused")
        return
    reference.save()
    cache.save()
    assert path.read_bytes() == reference_path.read_bytes()
    event("bytes changed" if path.read_bytes() != blob else "bytes kept")


def test_cache_refuses_to_overwrite_a_file_without_the_magic(tmp_path):
    path = tmp_path / "qa.json"
    for blob in [b'[{"question": "q"}]', b"OK", b"OKH", b"\x00" * 64]:
        path.write_bytes(blob)
        cache = EmbeddingCache(str(path), _DIM)
        cache.store("x", np.ones(_DIM))
        with pytest.raises(SchemaError) as err:
            cache.save()
        assert err.value.path == "cache" and str(path) in err.value.message
        assert path.read_bytes() == blob
    empty = tmp_path / "empty.okhe"
    empty.write_bytes(b"")
    EmbeddingCache(str(empty), _DIM).save()
    assert empty.read_bytes() == _header()


def test_all_hit_store_build_rewrites_the_cache_bytes_unchanged(tmp_path):
    graph = merge_facts([generate_synthetic(seed=5, n_groups=1, horizons_per_group=2).facts])
    embedder = LocalHashingEmbedder(16)
    path = tmp_path / "cache.okhe"
    cold_cache = EmbeddingCache(str(path), 16)
    cold = EmbeddingStore.build(graph, embedder, cold_cache)
    cold_cache.save()
    saved = path.read_bytes()

    warm_cache = EmbeddingCache(str(path), 16)
    warm = EmbeddingStore.build(graph, embedder, warm_cache)
    warm_cache.save()
    assert path.read_bytes() == saved
    assert warm.matrix.tobytes() == cold.matrix.tobytes()
    assert warm.matrix.tobytes() == EmbeddingStore.build(graph, embedder).matrix.tobytes()

    warm_cache.store("query text", embedder.embed_one("query text"))
    warm_cache.save()
    assert len(EmbeddingCache(str(path), 16)) == len(graph.hyperedges) + 1
