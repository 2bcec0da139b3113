"""Hypergraph types, fact ingestion, and the normalization pipeline.

Raw extracted facts become clean hyperedges through five steps: relation
normalization, entity id canonicalization, temporal anchor injection,
cross-horizon change synthesis, and content-hash deduplication. The result
is a `KnowledgeHypergraph` that can be persisted to a sorted-key JSON
snapshot and reloaded byte-for-byte.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import attrgetter
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from okh.errors import ConflictingHorizon, SchemaError
from okh.hashutil import fnv1a64, fnv1a64_many
from okh.relations import (
    COVERAGE_PHASE_INDEX,
    CROSS_HORIZON_FAMILY,
    DEFAULT_VOCABULARY,
    FAMILY_OF,
    EntityType,
    change_relation_for_family,
    phase_of_family,
)

HORIZON_ANCHOR_RE = re.compile(r"^horizon:T-(\d+)$")
SNAPSHOT_VERSION = 1
# A snapshot load checks its edges' content ids this many at a time.
_HASH_BLOCK = 1024
# A snapshot save encodes this many items of a list at a time.
_SAVE_BLOCK = 256


def _id_payload(relation: str, entity_ids: Iterable[str], evidence: str) -> bytes:
    return f"{relation}|{','.join(sorted(entity_ids))}|{evidence}".encode("utf-8")


def dedup_id(relation: str, entity_ids: Iterable[str], evidence: str) -> str:
    """Content hash identifying a hyperedge: 16 lowercase hex chars of FNV-1a."""
    return f"{fnv1a64(_id_payload(relation, entity_ids, evidence)):016x}"


def _dedup_ids(contents: Iterable[tuple[str, Iterable[str], str]]) -> list[str]:
    """`dedup_id` of every (relation, entity ids, evidence), hashed in one batch."""
    hashes = fnv1a64_many([_id_payload(*content) for content in contents])
    return [f"{value:016x}" for value in hashes]


def _fold_segment(text: str, upper: bool = False) -> str:
    folded = "_".join(str(text).strip().split())
    return folded.upper() if upper else folded.lower()


def canonical_entity_id(
    kind: str,
    storm: str | None = None,
    port: str | None = None,
    horizon: int | None = None,
) -> str:
    """Deterministic entity id of the form kind:STORM:port:T-h.

    Absent segments are omitted. Storm names fold to upper case following
    tropical cyclone naming convention; kind and port fold to lower case
    with whitespace collapsed to underscores.
    """
    if not str(kind).strip():
        raise ValueError("entity kind must be non-empty")
    segments = [_fold_segment(kind)]
    if storm:
        segments.append(_fold_segment(storm, upper=True))
    if port:
        segments.append(_fold_segment(port))
    if horizon is not None:
        segments.append(f"T-{int(horizon)}")
    return ":".join(segments)


def horizon_anchor_id(horizon: int) -> str:
    return f"horizon:T-{int(horizon)}"


@lru_cache(maxsize=1 << 16)
def _id_parts(entity_id: str) -> tuple[int | None, str | None]:
    """An entity id's anchor lead time if it is a temporal anchor, else None,
    and its `entity_stem` if it is not an anchor, else None.

    Parsed once per distinct id: a graph's edges share few entities.
    """
    match = HORIZON_ANCHOR_RE.match(entity_id)
    if match:
        return int(match.group(1)), None
    return None, entity_stem(entity_id)


def _anchor_leads(entity_ids: Iterable[str]) -> list[int]:
    """Lead times of the temporal anchors among entity ids, descending."""
    leads = [lead for lead, _ in map(_id_parts, entity_ids) if lead is not None]
    leads.sort(reverse=True)
    return leads


def entity_stem(entity_id: str) -> str | None:
    """Horizon-free prefix of a horizon-suffixed entity id, else None."""
    cut = entity_id.rfind(":T-")
    if cut <= 0:
        return None
    if not entity_id[cut + 3 :].isdigit():
        return None
    return entity_id[:cut]


@dataclass(frozen=True, init=False)
class Entity:
    """A node of the hypergraph."""

    id: str
    name: str
    entity_type: EntityType
    description: str = ""
    confidence: float = 1.0

    def __init__(
        self,
        id: str,
        name: str,
        entity_type: EntityType,
        description: str = "",
        confidence: float = 1.0,
    ) -> None:
        # One step, as `Hyperedge.__init__`: a merge parses thousands.
        if not id:
            raise ValueError("entity id must be non-empty")
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"entity confidence must be in (0, 1], got {confidence}")
        if entity_type is EntityType.HORIZON_TIME and not HORIZON_ANCHOR_RE.match(id):
            raise ValueError(f"horizon_time entity id {id!r} must match horizon:T-<int>")
        self.__dict__.update(
            id=id,
            name=name,
            entity_type=entity_type,
            description=description,
            confidence=confidence,
        )

    def to_dict(self) -> dict[str, Any]:
        # Keys in sorted order, as the snapshot writes them.
        return {
            "confidence": self.confidence,
            "description": self.description,
            "id": self.id,
            "name": self.name,
            "type": self.entity_type.value,
        }


def _horizon_anchor_entity(horizon: int) -> Entity:
    return Entity(
        id=horizon_anchor_id(horizon),
        name=f"T-{int(horizon)}",
        entity_type=EntityType.HORIZON_TIME,
        description=f"temporal anchor {int(horizon)} hours before expected landfall",
        confidence=1.0,
    )


@dataclass(frozen=True, init=False)
class Hyperedge:
    """An n-ary relation over two or more entities with provenance text."""

    id: str
    relation: str
    family: int
    entity_ids: frozenset[str]
    evidence: str
    attributes: dict[str, str] = field(default_factory=dict)
    confidence: float = 1.0
    group_id: str = ""
    horizon: int | None = None
    text_position: int = 0

    def __init__(
        self,
        id: str,
        relation: str,
        family: int,
        entity_ids: frozenset[str],
        evidence: str,
        attributes: dict[str, str] | None = None,
        confidence: float = 1.0,
        group_id: str = "",
        horizon: int | None = None,
        text_position: int = 0,
    ) -> None:
        # The generated init would set each field through the frozen
        # `object.__setattr__`; a merge builds thousands of edges, so the
        # fields are stored in one step.
        if len(entity_ids) < 2:
            raise ValueError(f"hyperedge {relation!r} needs at least two entities")
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"hyperedge confidence must be in (0, 1], got {confidence}")
        if text_position < 0:
            raise ValueError("text_position must be >= 0")
        if horizon is not None and horizon <= 0:
            raise ValueError("horizon must be a positive lead time in hours")
        self.__dict__.update(
            id=id,
            relation=relation,
            family=family,
            entity_ids=entity_ids,
            evidence=evidence,
            attributes={} if attributes is None else attributes,
            confidence=confidence,
            group_id=group_id,
            horizon=horizon,
            text_position=text_position,
        )

    def __hash__(self) -> int:
        # Equal edges have equal ids; the attributes dict has no hash.
        return hash(self.id)

    @classmethod
    def create(
        cls,
        relation: str,
        entity_ids: Iterable[str],
        evidence: str,
        attributes: Mapping[str, str] | None = None,
        confidence: float = 1.0,
        group_id: str = "",
        horizon: int | None = None,
        text_position: int = 0,
    ) -> "Hyperedge":
        """Build an edge with a normalized relation and a content-hash id."""
        canonical, family = DEFAULT_VOCABULARY.normalize(relation)
        ids = frozenset(entity_ids)
        return cls(
            id=dedup_id(canonical, ids, evidence),
            relation=canonical,
            family=family,
            entity_ids=ids,
            evidence=evidence,
            attributes=dict(attributes or {}),
            confidence=confidence,
            group_id=group_id,
            horizon=horizon,
            text_position=text_position,
        )

    def anchor_horizons(self) -> list[int]:
        """Lead times of all temporal anchors on this edge, descending."""
        return _anchor_leads(self.entity_ids)

    def state_stems(self) -> frozenset[str]:
        """Stems of the horizon-suffixed non-anchor entities on this edge."""
        return frozenset(stem for _, stem in map(_id_parts, self.entity_ids) if stem is not None)

    def to_dict(self) -> dict[str, Any]:
        # Keys in sorted order, as the snapshot writes them.
        return {
            "attributes": dict(sorted(self.attributes.items())),
            "confidence": self.confidence,
            "entities": sorted(self.entity_ids),
            "evidence": self.evidence,
            "family": self.family,
            "group": self.group_id,
            "horizon": self.horizon,
            "id": self.id,
            "relation": self.relation,
            "text_position": self.text_position,
        }


def _hashed(drafts: Sequence[tuple]) -> list[Hyperedge]:
    """Hyperedges from their drafts, content-hashed in one batch.

    A draft holds a hyperedge's fields after its id, in field order:
    relation, family, entity ids, evidence, attributes, confidence, group,
    horizon and text position.
    """
    ids = _dedup_ids((draft[0], draft[2], draft[3]) for draft in drafts)
    return [Hyperedge(edge_id, *draft) for edge_id, draft in zip(ids, drafts)]


_draft_fields = attrgetter(
    "relation", "family", "entity_ids", "evidence", "attributes",
    "confidence", "group_id", "horizon", "text_position",
)  # an edge's fields after its id, as a draft holds them


def _change_drafts(edges: list[Hyperedge]) -> list[tuple]:
    """Drafts (see `_hashed`) of the family-13 change edges of one group.

    ``edges`` are the group's edges, at least one, in any order. For each
    (family, entity stem) present at two or more lead times, one change edge
    is drafted per consecutive horizon pair in decreasing lead order, linking
    both horizon-specific state entities and both temporal anchors.
    """
    group_id = edges[0].group_id

    observed: dict[tuple[int, str], set[int]] = {}
    last_position: dict[int, int] = {}
    for edge in edges:
        if edge.family == CROSS_HORIZON_FAMILY or edge.horizon is None:
            continue
        last_position[edge.horizon] = max(
            last_position.get(edge.horizon, 0), edge.text_position
        )
        suffix = f":T-{edge.horizon}"
        for entity_id in edge.entity_ids:
            stem = _id_parts(entity_id)[1]
            if stem is not None and entity_id.endswith(suffix):
                observed.setdefault((edge.family, stem), set()).add(edge.horizon)

    synthesized = []
    for (family, stem), horizons in sorted(observed.items()):
        if len(horizons) < 2:
            continue
        relation, change_family = DEFAULT_VOCABULARY.normalize(change_relation_for_family(family))
        ordered = sorted(horizons, reverse=True)
        for earlier, later in zip(ordered, ordered[1:]):
            synthesized.append(
                (
                    relation,
                    change_family,
                    frozenset(
                        {
                            f"{stem}:T-{earlier}",
                            f"{stem}:T-{later}",
                            horizon_anchor_id(earlier),
                            horizon_anchor_id(later),
                        }
                    ),
                    f"{stem} evolves from T-{earlier} to T-{later}",
                    {"from_horizon": str(earlier), "to_horizon": str(later)},
                    1.0,
                    group_id,
                    None,
                    last_position.get(earlier, 0),
                )
            )
    return synthesized


@dataclass(frozen=True)
class EdgeIndex:
    """A graph's edges as rows in id order, with their groups and entities as arrays.

    Row ``r`` is edge ``ids[r]``, so a row number is also the edge's rank in
    id order. Groups and entities get integer codes. The rows of group ``g``
    are ``group_rows[group_ptr[g]:group_ptr[g + 1]]``, the entity codes of
    row ``r`` are ``entity_of[entity_ptr[r]:entity_ptr[r + 1]]``, and the rows
    of entity ``e`` are ``member_rows[member_ptr[e]:member_ptr[e + 1]]``;
    ``spans`` gathers several such slices at once.
    """

    ids: list[str]
    row_of: dict[str, int]
    group_code: dict[str, int]
    group_of: np.ndarray
    group_ptr: np.ndarray
    group_rows: np.ndarray
    entity_ptr: np.ndarray
    entity_of: np.ndarray
    member_ptr: np.ndarray
    member_rows: np.ndarray
    # Position of each row's phase in COVERAGE_PHASES, -1 outside them.
    phase: np.ndarray

    @classmethod
    def build(
        cls, hyperedges: Mapping[str, Hyperedge], groups: Mapping[str, list[str]]
    ) -> "EdgeIndex":
        ids = sorted(hyperedges)
        row_of = {edge_id: row for row, edge_id in enumerate(ids)}
        group_code = {group: code for code, group in enumerate(groups)}
        sizes = [len(members) for members in groups.values()]
        group_rows = np.array(
            [row_of[edge_id] for members in groups.values() for edge_id in members],
            dtype=np.intp,
        )
        group_of = np.zeros(len(ids), dtype=np.intp)
        group_of[group_rows] = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)

        edges = [hyperedges[edge_id] for edge_id in ids]
        entity_sets = [edge.entity_ids for edge in edges]
        # Entities are coded in order of first appearance.
        incident = list(chain.from_iterable(entity_sets))
        code_of = {entity: code for code, entity in enumerate(dict.fromkeys(incident))}
        entities = np.fromiter(map(code_of.__getitem__, incident), dtype=np.intp, count=len(incident))
        degree = list(map(len, entity_sets))
        phase = [COVERAGE_PHASE_INDEX.get(phase_of_family(edge.family), -1) for edge in edges]
        # A stable sort keeps each entity's rows in id order.
        by_entity = np.argsort(entities, kind="stable")
        incident_rows = np.repeat(np.arange(len(ids), dtype=np.intp), degree)
        return cls(
            ids=ids,
            row_of=row_of,
            group_code=group_code,
            group_of=group_of,
            group_ptr=_offsets(sizes),
            group_rows=group_rows,
            entity_ptr=_offsets(degree),
            entity_of=entities,
            member_ptr=_offsets(np.bincount(entities, minlength=len(code_of))),
            member_rows=incident_rows[by_entity],
            phase=np.array(phase, dtype=np.intp),
        )


def _offsets(sizes: Sequence[int] | np.ndarray) -> np.ndarray:
    """CSR pointers for consecutive slices of the given sizes."""
    ptr = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


def spans(ptr: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions ``ptr[k]:ptr[k + 1]`` for every k in ``keys``, concatenated."""
    starts = ptr[keys]
    counts = ptr[keys + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.intp) + np.repeat(starts - ends + counts, counts)


class KnowledgeHypergraph:
    """Entities, hyperedges, and a per-group index."""

    def __init__(
        self,
        entities: dict[str, Entity],
        hyperedges: dict[str, Hyperedge],
    ):
        self.entities = entities
        self.hyperedges = hyperedges
        self.groups: dict[str, list[str]] = {}
        for edge_id in sorted(hyperedges):
            self.groups.setdefault(hyperedges[edge_id].group_id, []).append(edge_id)

    def group_edges(self, group_id: str) -> list[Hyperedge]:
        return [self.hyperedges[edge_id] for edge_id in self.groups.get(group_id, [])]

    @cached_property
    def edge_index(self) -> EdgeIndex:
        """Row-aligned arrays over the edges, built on first use."""
        return EdgeIndex.build(self.hyperedges, self.groups)

    def to_snapshot(self, precedence_edges: dict[str, list[tuple[str, str]]] | None = None) -> dict:
        """The snapshot document; every object's keys are in sorted order."""
        snapshot: dict[str, Any] = {
            "entities": [self.entities[eid].to_dict() for eid in sorted(self.entities)],
            "hyperedges": [self.hyperedges[eid].to_dict() for eid in sorted(self.hyperedges)],
        }
        if precedence_edges is not None:
            snapshot["precedence"] = {
                group: [list(pair) for pair in sorted(precedence_edges[group])]
                for group in sorted(precedence_edges)
            }
        snapshot["version"] = SNAPSHOT_VERSION
        return snapshot

    def save_snapshot(
        self,
        path: str,
        precedence_edges: dict[str, list[tuple[str, str]]] | None = None,
    ) -> None:
        """Write ``json.dumps(to_snapshot(...))`` in the compact layout, then a newline.

        Each list of the document is encoded `_SAVE_BLOCK` items at a time,
        and each block is dropped from the document once it is written, so
        neither the whole text nor the whole document outlives its part of
        the write. The blocks go to a temporary file that replaces ``path``
        once all are written, so a value the encoder refuses leaves ``path``
        as it was. `to_snapshot` builds its objects key-sorted, so the
        encoder need not sort them.
        """
        document = self.to_snapshot(precedence_edges)
        encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False).encode
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                _write_blocks(handle.write, document, encode)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def from_snapshot(cls, snapshot: Any) -> tuple["KnowledgeHypergraph", dict[str, list[tuple[str, str]]]]:
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
            try:
                entity = _entity_from_dict(raw, "")
            except (SchemaError, ValueError) as exc:
                raise _refused_at(exc, f"entities[{index}]") from None
            entities[entity.id] = entity
        # The graph holds one string object per distinct value: an edge's
        # entity ids are the entity table's keys, and its group and attribute
        # values are shared through ``strings``.
        entity_ids = dict(zip(entities, entities))
        strings: dict[str, str] = {}
        parsed: list[Hyperedge] = []
        malformed: SchemaError | ValueError | None = None
        for index, raw in enumerate(snapshot.get("hyperedges", [])):
            try:
                parsed.append(_edge_from_dict(raw, "", entity_ids, strings))
            except (SchemaError, ValueError) as exc:
                # Raised after the edges before it are checked, so the first
                # bad edge in index order is the one reported.
                malformed = _refused_at(exc, f"hyperedges[{index}]")
                break
        # Hashed in blocks, so that the padded payloads stay few while the
        # document and the parsed edges are both held.
        expected_ids = [
            edge_id
            for start in range(0, len(parsed), _HASH_BLOCK)
            for edge_id in _dedup_ids(
                (edge.relation, edge.entity_ids, edge.evidence)
                for edge in parsed[start : start + _HASH_BLOCK]
            )
        ]
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
        return cls(entities, hyperedges), precedence

    @classmethod
    def load_snapshot(cls, path: str) -> tuple["KnowledgeHypergraph", dict[str, list[tuple[str, str]]]]:
        return cls.from_snapshot(_read_snapshot(path))

    def check_horizons(self) -> None:
        """Refuse (SchemaError at ``hyperedges[i].horizon``) the first edge
        whose horizon breaks the rules `merge_facts` builds by.

        A set horizon must be the lead time of every temporal anchor on the
        edge, and there must be one. A null horizon goes with any number of
        anchors but one, which would have implied it. ``i`` counts the
        distinct edges in the order they were added, which for a loaded
        snapshot is the file's order, and the file's index wherever no edge
        is listed twice.
        """
        lead_of = {
            entity_id: _id_parts(entity_id)[0]
            for entity_id, entity in self.entities.items()
            if entity.entity_type is _ANCHOR_TYPE
        }
        anchor_ids = set(lead_of)
        for index, edge in enumerate(self.hyperedges.values()):
            horizon = edge.horizon
            anchors = edge.entity_ids & anchor_ids
            if len(anchors) == 1:
                (anchor,) = anchors
                if lead_of[anchor] == horizon:
                    continue
            elif horizon is None or {lead_of[anchor] for anchor in anchors} == {horizon}:
                continue
            problem = (
                f"null, but the edge's one anchor {min(anchors)!r} sets it"
                if horizon is None
                else f"{horizon} is not the lead time of the edge's anchors {sorted(anchors)}"
            )
            raise SchemaError(f"hyperedges[{index}].horizon", problem)


def _write_blocks(write: Callable[[str], Any], value: Any, encode: Callable[[Any], str]) -> None:
    """Write ``encode(value)`` for a document of dicts, lists and scalars.

    A dict's entries and a list's blocks of `_SAVE_BLOCK` items are removed
    as they are written. With compact separators an item's text does not
    depend on its neighbours, so a list's text is its blocks' texts, each
    without its brackets, joined by commas.
    """
    if value.__class__ is dict:
        separator = "{"
        for key in list(value):
            write(f"{separator}{encode(key)}:")
            _write_blocks(write, value.pop(key), encode)
            separator = ","
        write("{}" if separator == "{" else "}")
    elif value.__class__ is list:
        separator = "["
        while value:
            block = encode(value[:_SAVE_BLOCK])
            del value[:_SAVE_BLOCK]
            write(separator)
            write(block[1:-1])
            separator = ","
        write("[]" if separator == "[" else "]")
    else:
        write(encode(value))


def _read_snapshot(path: str) -> Any:
    """The JSON document in a snapshot file, or SchemaError at ``snapshot``
    naming the file, line and column where it cannot be decoded."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise SchemaError("snapshot", f"{path} line {line} column {column}: not valid UTF-8") from None
    del data  # neither copy of the file outlives the parse
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("snapshot", f"{path} line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _require(fact: Mapping[str, Any], key: str, kind: type | tuple, path: str) -> Any:
    if key not in fact:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = fact[key]
    if value.__class__ is not kind and not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise SchemaError(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    return value


_TYPE_OF_VALUE = {member.value: member for member in EntityType}


def _refused_at(exc: SchemaError | ValueError, path: str) -> SchemaError | ValueError:
    """The error a parse given ``path`` raises, from the one it raised given ``""``.

    Entries are parsed without their path, which every entry would format
    and only a refused one reads. Every parser names a field as ``path`` or
    ``f"{path}..."``, and no ValueError names one.
    """
    if isinstance(exc, SchemaError):
        return SchemaError(path + exc.path, exc.message)
    return exc


# The snapshot parsers. Each field is first tested for the exact type the
# writer puts there; any other value goes to `_require`, which accepts a
# subclass or names the bad field. The fields are checked in one fixed order,
# so an entry with several bad fields always reports the same one.
def _entity_from_dict(raw: Any, path: str) -> Entity:
    if raw.__class__ is not dict and not isinstance(raw, Mapping):
        raise SchemaError(path, "entity must be an object")
    entity_id = raw.get("id")
    if entity_id.__class__ is not str:
        entity_id = _require(raw, "id", str, path)
    if not entity_id:
        raise SchemaError(f"{path}.id", "entity id must be non-empty")
    name, type_raw = raw.get("name"), raw.get("type")
    if name.__class__ is not str or type_raw.__class__ is not str:
        name, type_raw = _require(raw, "name", str, path), _require(raw, "type", str, path)
    entity_type = _TYPE_OF_VALUE.get(type_raw) or EntityType.parse(type_raw)
    if entity_id.startswith("horizon:T-") and HORIZON_ANCHOR_RE.match(entity_id):
        entity_type = EntityType.HORIZON_TIME
    elif entity_type is EntityType.HORIZON_TIME:
        raise SchemaError(f"{path}.id", "horizon_time entity id must match horizon:T-<int>")
    description = raw.get("description", "")
    if description.__class__ is not str and not isinstance(description, str):
        raise SchemaError(f"{path}.description", "expected str")
    confidence = raw.get("confidence", 1.0)
    if confidence.__class__ is not float and (
        not isinstance(confidence, (int, float)) or isinstance(confidence, bool)
    ):
        raise SchemaError(f"{path}.confidence", "expected number")
    number = float(confidence)
    if not 0.0 < number <= 1.0:
        # The value as written: `got 0`, not `got 0.0`.
        raise SchemaError(f"{path}.confidence", f"must be in (0, 1], got {confidence}")
    return Entity(entity_id, name, entity_type, description, number)


def _optional_horizon(raw: Mapping[str, Any], path: str) -> int | None:
    horizon = raw.get("horizon")
    if horizon is not None and (not isinstance(horizon, int) or isinstance(horizon, bool) or horizon <= 0):
        raise SchemaError(f"{path}.horizon", "horizon must be a positive integer or null")
    return horizon


# Each canonical relation and its family, looked up once per edge.
_RELATION_FAMILY = {relation: (relation, family) for relation, family in FAMILY_OF.items()}


def _edge_from_dict(
    raw: Any, path: str, entity_ids: Mapping[str, str], strings: dict[str, str]
) -> Hyperedge:
    """The edge ``raw`` holds, with its entity ids taken from ``entity_ids``
    where it has them, its relation from the vocabulary, and its group and
    attribute values from ``strings``, which gains those it lacks."""
    if raw.__class__ is not dict and not isinstance(raw, Mapping):
        raise SchemaError(path, "hyperedge must be an object")
    listed = raw.get("entities")
    if listed.__class__ is not list:
        listed = _require(raw, "entities", list, path)
    try:
        members = frozenset(map(entity_ids.__getitem__, listed))
    except (KeyError, TypeError):
        if not all(map(isinstance, listed, repeat(str))):
            raise SchemaError(f"{path}.entities", "entity ids must be strings") from None
        # An id that names no listed entity is kept as it is; the load
        # names it once the edges before it are checked.
        members = frozenset(map(entity_ids.get, listed, listed))
    attributes = raw.get("attributes", {})
    if attributes.__class__ is not dict and not isinstance(attributes, Mapping):
        raise SchemaError(f"{path}.attributes", "expected object")
    relation = raw.get("relation")
    if relation.__class__ is not str:
        relation = _require(raw, "relation", str, path)
    known = _RELATION_FAMILY.get(relation)
    if known is None:
        raise SchemaError(f"{path}.relation", f"{relation!r} is not a canonical relation")
    relation, expected_family = known
    family = raw.get("family")
    if family.__class__ is not int:
        family = _require(raw, "family", int, path)
    if isinstance(family, bool) or family != expected_family:
        raise SchemaError(
            f"{path}.family", f"relation {relation!r} is in family {expected_family}, got {family!r}"
        )
    edge_id, evidence = raw.get("id"), raw.get("evidence")
    if edge_id.__class__ is not str or evidence.__class__ is not str:
        edge_id, evidence = _require(raw, "id", str, path), _require(raw, "evidence", str, path)
    # The keys need no table: json's decoder makes one object per distinct
    # key of a document.
    intern = strings.setdefault
    converted = {}  # a loop: a comprehension would build a function per edge
    for key, value in attributes.items():
        value = str(value)
        converted[str(key)] = intern(value, value)
    confidence = raw.get("confidence")
    if confidence.__class__ is not float:
        confidence = float(_require(raw, "confidence", (int, float), path))
    group = raw.get("group")
    if group.__class__ is not str:
        group = _require(raw, "group", str, path)
    horizon = raw.get("horizon")
    if horizon.__class__ is not int or horizon <= 0:
        horizon = _optional_horizon(raw, path)
    position = raw.get("text_position")
    if position.__class__ is not int:
        position = int(_require(raw, "text_position", int, path))
    return Hyperedge(
        edge_id, relation, family, members, evidence, converted,
        confidence, intern(group, group), horizon, position,
    )


def _precedence_from_dict(
    raw: Any, hyperedges: Mapping[str, Hyperedge]
) -> dict[str, list[tuple[str, str]]]:
    """Direct precedence pairs per group; every id must name a snapshot edge.

    Each stored id is the object that keys its edge in ``hyperedges``.
    """
    if not isinstance(raw, Mapping):
        raise SchemaError("precedence", "expected an object mapping each group to [src, dst] pairs")
    key_of = dict(zip(hyperedges, hyperedges))
    precedence = {}
    for group, pairs in raw.items():
        if not isinstance(pairs, list):
            raise SchemaError(f"precedence.{group}", "expected a list of [src, dst] pairs")
        checked = []
        for index, pair in enumerate(pairs):
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], str)
            ):
                raise SchemaError(f"precedence.{group}[{index}]", "expected a [src, dst] pair of edge ids")
            src, dst = pair
            src_id, dst_id = key_of.get(src), key_of.get(dst)
            if src_id is None or dst_id is None:
                missing = src if src_id is None else dst
                raise SchemaError(f"precedence.{group}[{index}]", f"unknown edge {missing!r}")
            checked.append((src_id, dst_id))
        precedence[group] = checked
    return precedence


def validate_fact(
    fact: Any, path: str, *, parse_entity: Callable[[Any, str], Entity] = _entity_from_dict
) -> list[Entity]:
    """Raise SchemaError with a field path for any malformed fact.

    Returns the fact's entities, parsed in order by ``parse_entity``.
    """
    # Each field is first tested for the exact type JSON gives it; any other
    # value takes the general test, which names the field it refuses.
    if fact.__class__ is not dict and not isinstance(fact, Mapping):
        raise SchemaError(path, "fact must be an object")
    relation = fact.get("relation")
    if relation.__class__ is not str:
        relation = _require(fact, "relation", str, path)
    if not relation.strip():
        raise SchemaError(f"{path}.relation", "relation must be non-empty")
    if fact.get("evidence").__class__ is not str:
        _require(fact, "evidence", str, path)
    group = fact.get("group")
    if group.__class__ is not str:
        group = _require(fact, "group", str, path)
    if not group:
        raise SchemaError(f"{path}.group", "group must be non-empty")
    entities = fact.get("entities")
    if entities.__class__ is not list:
        entities = _require(fact, "entities", list, path)
    if len(entities) < 2:
        raise SchemaError(f"{path}.entities", "a hyperedge needs at least two entities")
    parsed = []
    for raw in entities:
        try:
            parsed.append(parse_entity(raw, ""))
        except (SchemaError, ValueError) as exc:
            raise _refused_at(exc, f"{path}.entities[{len(parsed)}]") from None
    if len(set(map(_entity_id, parsed))) < 2:
        raise SchemaError(f"{path}.entities", "entity ids must name at least two distinct entities")
    attributes = fact.get("attributes", {})
    if attributes.__class__ is not dict and not isinstance(attributes, Mapping):
        raise SchemaError(f"{path}.attributes", "expected object")
    for key, value in attributes.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError(f"{path}.attributes[{key!r}]", "attribute keys and values must be strings")
    confidence = fact.get("confidence", 1.0)
    if confidence.__class__ is not float and (
        not isinstance(confidence, (int, float)) or isinstance(confidence, bool)
    ):
        raise SchemaError(f"{path}.confidence", "expected number")
    if not 0.0 < float(confidence) <= 1.0:
        raise SchemaError(f"{path}.confidence", f"must be in (0, 1], got {confidence}")
    horizon = fact.get("horizon")
    if horizon is not None and (horizon.__class__ is not int or horizon <= 0):
        _optional_horizon(fact, path)
    position = fact.get("text_position", 0)
    if position.__class__ is not int or position < 0:
        if not isinstance(position, int) or isinstance(position, bool) or position < 0:
            raise SchemaError(f"{path}.text_position", "text_position must be a non-negative integer")
    return parsed


_entity_id = attrgetter("id")
_ANCHOR_TYPE = EntityType.HORIZON_TIME


def _memo_entity_parser() -> Callable[[Any, str], Entity]:
    """`_entity_from_dict`, parsing each distinct entity dict once.

    The memo key is one flat tuple of the dict's keys, its values and the
    type of each value, so ``true``, ``1`` and ``1.0`` never share a parse,
    nor do a missing field and a null one. A failed parse raises with its
    own path and is not remembered.
    """
    memo: dict[tuple, Entity] = {}

    def parse(raw: Any, path: str) -> Entity:
        if raw.__class__ is not dict:
            return _entity_from_dict(raw, path)
        key = (*raw, *raw.values(), *map(type, raw.values()))
        try:
            return memo[key]
        except KeyError:
            entity = memo[key] = _entity_from_dict(raw, path)
            return entity
        except TypeError:  # an unhashable value, perhaps in a field the parse ignores
            return _entity_from_dict(raw, path)

    return parse


def _better_entity(current: Entity, incoming: Entity) -> Entity:
    """Deterministic, order-insensitive winner for duplicate entity ids."""
    if incoming.confidence != current.confidence:
        return incoming if incoming.confidence > current.confidence else current
    current_key = (current.name, current.entity_type.value, current.description)
    incoming_key = (incoming.name, incoming.entity_type.value, incoming.description)
    return incoming if incoming_key < current_key else current


def _better_edge(current: Hyperedge, incoming: Hyperedge) -> Hyperedge:
    """Deterministic winner for duplicate edge ids: earliest mention, then content."""
    if incoming.text_position != current.text_position:
        return incoming if incoming.text_position < current.text_position else current
    current_key = json.dumps(current.to_dict(), sort_keys=True)
    incoming_key = json.dumps(incoming.to_dict(), sort_keys=True)
    return incoming if incoming_key < current_key else current


def merge_facts(fact_batches: Iterable[Iterable[Mapping[str, Any]]]) -> KnowledgeHypergraph:
    """Aggregate validated fact batches into one deduplicated hypergraph.

    Runs the full normalization pipeline and adds each group's cross-horizon
    change edges. Duplicate edges collapse onto their content hash; duplicate
    entities resolve by confidence. Merging is idempotent: feeding a graph's
    own facts back in changes nothing.
    """
    entities: dict[str, Entity] = {}
    edges: dict[str, Hyperedge] = {}
    parse_entity = _memo_entity_parser()
    anchor_ids: dict[int, str] = {}

    # An equal duplicate keeps the existing object, as the tie-breaks would.
    def add_entity(entity: Entity) -> None:
        existing = entities.setdefault(entity.id, entity)
        if existing is not entity and existing != entity:
            entities[entity.id] = _better_entity(existing, entity)

    def add_edge(edge: Hyperedge) -> None:
        existing = edges.setdefault(edge.id, edge)
        if existing is not edge and existing != edge:
            edges[edge.id] = _better_edge(existing, edge)

    def add_anchor(lead: int) -> str:
        """Add the canonical anchor entity for a lead time; return its id."""
        # The tie-break picks the same winner whatever the order or number
        # of candidates, so one canonical anchor per lead is enough.
        anchor_id = anchor_ids.get(lead)
        if anchor_id is None:
            anchor = _horizon_anchor_entity(lead)
            add_entity(anchor)
            anchor_id = anchor_ids[lead] = anchor.id
        return anchor_id

    # Each edge's entities and horizon are resolved first; the content ids
    # are then hashed in one batch for the facts and one for the change
    # edges that no fact holds.
    drafts: list[tuple] = []
    for batch_index, batch in enumerate(fact_batches):
        for fact_index, fact in enumerate(batch):
            try:
                fact_entities = validate_fact(fact, "", parse_entity=parse_entity)
            except (SchemaError, ValueError) as exc:
                raise _refused_at(exc, f"batch[{batch_index}].fact[{fact_index}]") from None
            for entity in fact_entities:
                if entities.get(entity.id) is not entity:  # most are the memo's own
                    add_entity(entity)
            relation, family = DEFAULT_VOCABULARY.normalize(fact["relation"])
            evidence = fact["evidence"]
            horizon = fact.get("horizon")
            # The entity parse types an id HORIZON_TIME exactly when it is a
            # temporal anchor, so most facts need no id parsed for anchors.
            anchors = [entity.id for entity in fact_entities if entity.entity_type is _ANCHOR_TYPE]
            if horizon is not None and not anchors:
                # Grounded: the canonical anchor joins the entities.
                entity_ids = frozenset([*map(_entity_id, fact_entities), add_anchor(horizon)])
            else:
                entity_ids = frozenset(map(_entity_id, fact_entities))
            if anchors:
                leads = _anchor_leads(set(anchors))
                if horizon is not None and set(leads) != {horizon}:
                    # A within-horizon statement belongs to exactly one block.
                    raise ConflictingHorizon(
                        f"edge {dedup_id(relation, entity_ids, evidence)} already anchored at"
                        f" {leads}, cannot inject T-{horizon}"
                    )
                if horizon is None and len(leads) == 1:
                    # A lone anchor entity implies the horizon even when the
                    # field was left null.
                    horizon = leads[0]
                for lead in leads:
                    add_anchor(lead)
            drafts.append(
                (
                    relation,
                    family,
                    entity_ids,
                    evidence,
                    dict(fact.get("attributes", {})),
                    float(fact.get("confidence", 1.0)),
                    fact["group"],
                    horizon,
                    int(fact.get("text_position", 0)),
                )
            )
    for edge in _hashed(drafts):
        add_edge(edge)

    by_group: dict[str, list[Hyperedge]] = {}
    for edge in edges.values():
        by_group.setdefault(edge.group_id, []).append(edge)
    changes = []
    for group in sorted(by_group):
        changes.extend(_change_drafts(by_group[group]))
    # A change edge that the facts already hold (a merged graph's facts fed
    # back in) takes the id its fact was hashed to, and is not built at all
    # where its fields equal the draft's, since `add_edge` would keep the
    # held one; the rest are hashed.
    held = {
        (edge.relation, edge.entity_ids, edge.evidence): edge
        for edge in edges.values()
        if edge.family == CROSS_HORIZON_FAMILY
    }
    unseen = []
    for change in changes:
        edge = held.get((change[0], change[2], change[3]))
        if edge is None:
            unseen.append(change)
        elif _draft_fields(edge) != change:
            add_edge(Hyperedge(edge.id, *change))
    for edge in _hashed(unseen):
        add_edge(edge)

    return KnowledgeHypergraph(entities, edges)
