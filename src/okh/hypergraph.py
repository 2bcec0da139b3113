"""Hypergraph types, fact ingestion, and the normalization pipeline.

Raw extracted facts become clean hyperedges through five steps: relation
normalization, entity id canonicalization, temporal anchor injection,
cross-horizon change synthesis, and content-hash deduplication. The result
is a `KnowledgeHypergraph` that can be persisted to a sorted-key JSON
snapshot and reloaded byte-for-byte.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from collections.abc import Iterable, Mapping
from typing import Any

from okh.errors import ConflictingHorizon, SchemaError
from okh.hashutil import fnv1a64
from okh.relations import (
    CROSS_HORIZON_FAMILY,
    DEFAULT_VOCABULARY,
    EntityType,
    change_relation_for_family,
)

HORIZON_ANCHOR_RE = re.compile(r"^horizon:T-(\d+)$")
SNAPSHOT_VERSION = 1


def dedup_id(relation: str, entity_ids: Iterable[str], evidence: str) -> str:
    """Content hash identifying a hyperedge: 16 lowercase hex chars of FNV-1a."""
    payload = relation + "|" + ",".join(sorted(entity_ids)) + "|" + evidence
    return f"{fnv1a64(payload.encode('utf-8')):016x}"


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


def entity_stem(entity_id: str) -> str | None:
    """Horizon-free prefix of a horizon-suffixed entity id, else None."""
    cut = entity_id.rfind(":T-")
    if cut <= 0:
        return None
    if not entity_id[cut + 3 :].isdigit():
        return None
    return entity_id[:cut]


@dataclass(frozen=True)
class Entity:
    """A node of the hypergraph."""

    id: str
    name: str
    entity_type: EntityType
    description: str = ""
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("entity id must be non-empty")
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"entity confidence must be in (0, 1], got {self.confidence}")
        is_anchor_id = HORIZON_ANCHOR_RE.match(self.id) is not None
        if self.entity_type is EntityType.HORIZON_TIME and not is_anchor_id:
            raise ValueError(f"horizon_time entity id {self.id!r} must match horizon:T-<int>")

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "type": self.entity_type.value,
            "description": self.description,
            "confidence": self.confidence,
        }


def _horizon_anchor_entity(horizon: int) -> Entity:
    return Entity(
        id=horizon_anchor_id(horizon),
        name=f"T-{int(horizon)}",
        entity_type=EntityType.HORIZON_TIME,
        description=f"temporal anchor {int(horizon)} hours before expected landfall",
        confidence=1.0,
    )


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if len(self.entity_ids) < 2:
            raise ValueError(f"hyperedge {self.relation!r} needs at least two entities")
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"hyperedge confidence must be in (0, 1], got {self.confidence}")
        if self.text_position < 0:
            raise ValueError("text_position must be >= 0")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be a positive lead time in hours")

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
        leads = []
        for entity_id in self.entity_ids:
            match = HORIZON_ANCHOR_RE.match(entity_id)
            if match:
                leads.append(int(match.group(1)))
        return sorted(leads, reverse=True)

    def state_stems(self) -> frozenset[str]:
        """Stems of the horizon-suffixed non-anchor entities on this edge."""
        stems = set()
        for entity_id in self.entity_ids:
            if HORIZON_ANCHOR_RE.match(entity_id):
                continue
            stem = entity_stem(entity_id)
            if stem is not None:
                stems.add(stem)
        return frozenset(stems)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "relation": self.relation,
            "family": self.family,
            "entities": sorted(self.entity_ids),
            "evidence": self.evidence,
            "attributes": dict(sorted(self.attributes.items())),
            "confidence": self.confidence,
            "group": self.group_id,
            "horizon": self.horizon,
            "text_position": self.text_position,
        }


def inject_horizon(edge: Hyperedge, horizon: int) -> Hyperedge:
    """Ground an edge at a horizon by attaching the canonical temporal anchor.

    Idempotent when the matching anchor is already present. Raises
    ConflictingHorizon if the edge carries an anchor for a different lead
    time, since a within-horizon statement belongs to exactly one block.
    """
    horizon = int(horizon)
    if horizon <= 0:
        raise ValueError("horizon must be a positive lead time in hours")
    anchors = edge.anchor_horizons()
    if anchors and set(anchors) != {horizon}:
        raise ConflictingHorizon(
            f"edge {edge.id} already anchored at {anchors}, cannot inject T-{horizon}"
        )
    if anchors:
        if edge.horizon == horizon:
            return edge
        return replace(edge, horizon=horizon)
    ids = edge.entity_ids | {horizon_anchor_id(horizon)}
    return replace(
        edge,
        id=dedup_id(edge.relation, ids, edge.evidence),
        entity_ids=ids,
        horizon=horizon,
    )


def synthesize_cross_horizon(group_edges: Iterable[Hyperedge]) -> list[Hyperedge]:
    """Create family-13 change edges for entities observed at several horizons.

    For each (family, entity stem) present at two or more lead times, one
    change edge is emitted per consecutive horizon pair in decreasing lead
    order, linking both horizon-specific state entities and both temporal
    anchors.
    """
    edges = list(group_edges)
    if not edges:
        return []
    groups = {edge.group_id for edge in edges}
    if len(groups) != 1:
        raise ValueError(f"cross-horizon synthesis expects one group, got {sorted(groups)}")
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
            if HORIZON_ANCHOR_RE.match(entity_id) or not entity_id.endswith(suffix):
                continue
            stem = entity_stem(entity_id)
            if stem is not None:
                observed.setdefault((edge.family, stem), set()).add(edge.horizon)

    synthesized = []
    for (family, stem), horizons in sorted(observed.items()):
        if len(horizons) < 2:
            continue
        ordered = sorted(horizons, reverse=True)
        for earlier, later in zip(ordered, ordered[1:]):
            synthesized.append(
                Hyperedge.create(
                    relation=change_relation_for_family(family),
                    entity_ids={
                        f"{stem}:T-{earlier}",
                        f"{stem}:T-{later}",
                        horizon_anchor_id(earlier),
                        horizon_anchor_id(later),
                    },
                    evidence=f"{stem} evolves from T-{earlier} to T-{later}",
                    attributes={"from_horizon": str(earlier), "to_horizon": str(later)},
                    confidence=1.0,
                    group_id=group_id,
                    horizon=None,
                    text_position=last_position.get(earlier, 0),
                )
            )
    return synthesized


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

    def __len__(self) -> int:
        return len(self.hyperedges)

    def group_edges(self, group_id: str) -> list[Hyperedge]:
        return [self.hyperedges[edge_id] for edge_id in self.groups.get(group_id, [])]

    @cached_property
    def edges_by_entity(self) -> dict[str, list[str]]:
        index: dict[str, list[str]] = {}
        for edge_id in sorted(self.hyperedges):
            for entity_id in self.hyperedges[edge_id].entity_ids:
                index.setdefault(entity_id, []).append(edge_id)
        return index

    def to_snapshot(self, precedence_edges: dict[str, list[tuple[str, str]]] | None = None) -> dict:
        snapshot: dict[str, Any] = {
            "version": SNAPSHOT_VERSION,
            "entities": [self.entities[eid].to_dict() for eid in sorted(self.entities)],
            "hyperedges": [self.hyperedges[eid].to_dict() for eid in sorted(self.hyperedges)],
            "groups": {group: list(ids) for group, ids in self.groups.items()},
        }
        if precedence_edges is not None:
            snapshot["precedence"] = {
                group: [list(pair) for pair in sorted(pairs)]
                for group, pairs in precedence_edges.items()
            }
        return snapshot

    def save_snapshot(
        self,
        path: str,
        precedence_edges: dict[str, list[tuple[str, str]]] | None = None,
    ) -> None:
        payload = json.dumps(
            self.to_snapshot(precedence_edges), sort_keys=True, ensure_ascii=False, indent=2
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")

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
            entity = _entity_from_dict(raw, f"entities[{index}]")
            entities[entity.id] = entity
        hyperedges: dict[str, Hyperedge] = {}
        for index, raw in enumerate(snapshot.get("hyperedges", [])):
            edge = _edge_from_dict(raw, f"hyperedges[{index}]")
            expected = dedup_id(edge.relation, edge.entity_ids, edge.evidence)
            if edge.id != expected:
                raise SchemaError(f"hyperedges[{index}].id", "content hash does not match edge content")
            if not entities.keys() >= edge.entity_ids:
                missing = min(edge.entity_ids - entities.keys())
                raise SchemaError(f"hyperedges[{index}].entities", f"unknown entity {missing!r}")
            hyperedges[edge.id] = edge
        precedence = _precedence_from_dict(snapshot.get("precedence", {}), hyperedges)
        return cls(entities, hyperedges), precedence

    @classmethod
    def load_snapshot(cls, path: str) -> tuple["KnowledgeHypergraph", dict[str, list[tuple[str, str]]]]:
        with open(path, encoding="utf-8") as handle:
            return cls.from_snapshot(json.load(handle))


def _require(fact: Mapping[str, Any], key: str, kind: type | tuple, path: str) -> Any:
    if key not in fact:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = fact[key]
    if not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise SchemaError(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    return value


def _entity_from_dict(raw: Any, path: str) -> Entity:
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


def _optional_horizon(raw: Mapping[str, Any], path: str) -> int | None:
    horizon = raw.get("horizon")
    if horizon is not None and (not isinstance(horizon, int) or isinstance(horizon, bool) or horizon <= 0):
        raise SchemaError(f"{path}.horizon", "horizon must be a positive integer or null")
    return horizon


def _edge_from_dict(raw: Any, path: str) -> Hyperedge:
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


def _precedence_from_dict(
    raw: Any, hyperedges: Mapping[str, Hyperedge]
) -> dict[str, list[tuple[str, str]]]:
    """Direct precedence pairs per group; every id must name a snapshot edge."""
    if not isinstance(raw, Mapping):
        raise SchemaError("precedence", "expected an object mapping each group to [src, dst] pairs")
    precedence = {}
    for group, pairs in raw.items():
        if not isinstance(pairs, list):
            raise SchemaError(f"precedence.{group}", "expected a list of [src, dst] pairs")
        checked = []
        for index, pair in enumerate(pairs):
            path = f"precedence.{group}[{index}]"
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], str)
            ):
                raise SchemaError(path, "expected a [src, dst] pair of edge ids")
            src, dst = pair
            if src not in hyperedges or dst not in hyperedges:
                raise SchemaError(path, f"unknown edge {src if src not in hyperedges else dst!r}")
            checked.append((src, dst))
        precedence[group] = checked
    return precedence


def validate_fact(fact: Any, path: str) -> None:
    """Raise SchemaError with a field path for any malformed fact."""
    if not isinstance(fact, Mapping):
        raise SchemaError(path, "fact must be an object")
    relation = _require(fact, "relation", str, path)
    if not relation.strip():
        raise SchemaError(f"{path}.relation", "relation must be non-empty")
    _require(fact, "evidence", str, path)
    group = _require(fact, "group", str, path)
    if not group:
        raise SchemaError(f"{path}.group", "group must be non-empty")
    entities = _require(fact, "entities", list, path)
    if len(entities) < 2:
        raise SchemaError(f"{path}.entities", "a hyperedge needs at least two entities")
    seen: set[str] = set()
    for index, raw in enumerate(entities):
        entity = _entity_from_dict(raw, f"{path}.entities[{index}]")
        seen.add(entity.id)
    if len(seen) < 2:
        raise SchemaError(f"{path}.entities", "entity ids must name at least two distinct entities")
    attributes = fact.get("attributes", {})
    if not isinstance(attributes, Mapping):
        raise SchemaError(f"{path}.attributes", "expected object")
    for key, value in attributes.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError(f"{path}.attributes[{key!r}]", "attribute keys and values must be strings")
    confidence = fact.get("confidence", 1.0)
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise SchemaError(f"{path}.confidence", "expected number")
    if not 0.0 < float(confidence) <= 1.0:
        raise SchemaError(f"{path}.confidence", f"must be in (0, 1], got {confidence}")
    _optional_horizon(fact, path)
    position = fact.get("text_position", 0)
    if not isinstance(position, int) or isinstance(position, bool) or position < 0:
        raise SchemaError(f"{path}.text_position", "text_position must be a non-negative integer")


def _better_entity(current: Entity, incoming: Entity) -> Entity:
    """Deterministic, order-insensitive winner for duplicate entity ids."""
    if incoming.confidence != current.confidence:
        return incoming if incoming.confidence > current.confidence else current
    current_key = (current.name, current.entity_type.value, current.description)
    incoming_key = (incoming.name, incoming.entity_type.value, incoming.description)
    return incoming if incoming_key < current_key else current


def _better_edge(current: Hyperedge, incoming: Hyperedge) -> Hyperedge:
    """Deterministic winner for duplicate edge ids: earliest mention, then content."""
    current_key = (current.text_position, json.dumps(current.to_dict(), sort_keys=True))
    incoming_key = (incoming.text_position, json.dumps(incoming.to_dict(), sort_keys=True))
    return incoming if incoming_key < current_key else current


def merge_facts(
    fact_batches: Iterable[Iterable[Mapping[str, Any]]],
    synthesize: bool = True,
) -> KnowledgeHypergraph:
    """Aggregate validated fact batches into one deduplicated hypergraph.

    Runs the full normalization pipeline. Duplicate edges collapse onto
    their content hash; duplicate entities resolve by confidence. Merging is
    idempotent: feeding a graph's own facts back in changes nothing.
    """
    entities: dict[str, Entity] = {}
    edges: dict[str, Hyperedge] = {}

    def add_entity(entity: Entity) -> None:
        existing = entities.get(entity.id)
        entities[entity.id] = entity if existing is None else _better_entity(existing, entity)

    def add_edge(edge: Hyperedge) -> None:
        existing = edges.get(edge.id)
        edges[edge.id] = edge if existing is None else _better_edge(existing, edge)

    for batch_index, batch in enumerate(fact_batches):
        for fact_index, fact in enumerate(batch):
            path = f"batch[{batch_index}].fact[{fact_index}]"
            validate_fact(fact, path)
            for index, raw in enumerate(fact["entities"]):
                add_entity(_entity_from_dict(raw, f"{path}.entities[{index}]"))
            edge = Hyperedge.create(
                relation=fact["relation"],
                entity_ids=[raw["id"] for raw in fact["entities"]],
                evidence=fact["evidence"],
                attributes=fact.get("attributes", {}),
                confidence=float(fact.get("confidence", 1.0)),
                group_id=fact["group"],
                horizon=None,
                text_position=int(fact.get("text_position", 0)),
            )
            horizon = fact.get("horizon")
            anchors = edge.anchor_horizons()
            if horizon is not None:
                edge = inject_horizon(edge, horizon)
            elif len(anchors) == 1:
                # A lone anchor entity implies the horizon even when the
                # field was left null.
                edge = replace(edge, horizon=anchors[0])
            for lead in edge.anchor_horizons():
                add_entity(_horizon_anchor_entity(lead))
            add_edge(edge)

    if synthesize:
        by_group: dict[str, list[str]] = {}
        for edge_id in sorted(edges):
            by_group.setdefault(edges[edge_id].group_id, []).append(edge_id)
        for group in sorted(by_group):
            group_edges = [edges[edge_id] for edge_id in by_group[group]]
            for change in synthesize_cross_horizon(group_edges):
                for lead in change.anchor_horizons():
                    add_entity(_horizon_anchor_entity(lead))
                for entity_id in change.entity_ids:
                    if entity_id not in entities and not HORIZON_ANCHOR_RE.match(entity_id):
                        # State entities referenced by a change edge always
                        # come from its source edges, so this is a guard.
                        add_entity(Entity(entity_id, entity_id, EntityType.OTHER))
                add_edge(change)

    return KnowledgeHypergraph(entities, edges)
