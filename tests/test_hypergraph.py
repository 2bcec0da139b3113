import gc
import hashlib
import json
import math
import os
import tempfile
import tracemalloc
from collections import OrderedDict
from collections.abc import Mapping
import dataclasses
from dataclasses import replace
from functools import partial
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okh.corpus import generate_synthetic
from okh.errors import ConflictingHorizon, OkhError, SchemaError
from okh.hashutil import content_key, fnv1a64, fnv1a64_many
from okh import hypergraph
from okh.hypergraph import (
    HORIZON_ANCHOR_RE,
    Entity,
    Hyperedge,
    KnowledgeHypergraph,
    canonical_entity_id,
    dedup_id,
    entity_stem,
    horizon_anchor_id,
    merge_facts,
    validate_fact,
    _anchor_leads,
    _better_edge,
    _entity_from_dict,
    _id_parts,
    _optional_horizon,
    _require,
)
from okh.precedence import PrecedenceIndex
from okh.relations import FAMILY_OF, EntityType
from test_load_path import _reference_from_snapshot


def reference_fnv1a64(data: bytes) -> int:
    # Written independently from the published offset basis and prime.
    value = 14695981039346656037
    for byte in data:
        value ^= byte
        value = (value * 1099511628211) % (1 << 64)
    return value


def test_fnv1a64_matches_frozen_reference_values():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"hello") == 0xA430D84680AABD0B


def test_fnv1a64_matches_reference_loop_on_arbitrary_bytes():
    for data in (b"abc", b"\x00\xff" * 9, "pörtø".encode("utf-8")):
        assert fnv1a64(data) == reference_fnv1a64(data)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.binary(max_size=300), max_size=30))
@example([])
@example([b""])
@example([b"", "pörtø".encode("utf-8"), bytes(range(256)), b"x" * 300, b"a", b""])
# Trailing zero bytes are hashed, unlike the zero padding after them.
@example([b"a\x00", b"a", b"\x00", b"\x00\x00\x00", b"", b"ab\x00\x00"])
@example([bytes([i, 0, i]) * 5 for i in range(40)])
def test_fnv1a64_many_matches_reference_loop(payloads):
    assert fnv1a64_many(payloads) == [reference_fnv1a64(data) for data in payloads]


def test_content_key_is_16_byte_blake2b():
    assert content_key("x") == hashlib.blake2b(b"x", digest_size=16).digest()
    assert len(content_key("anything at all")) == 16


def test_dedup_id_is_order_insensitive_and_hex():
    first = dedup_id("r", ["b", "a"], "ev")
    second = dedup_id("r", ["a", "b"], "ev")
    assert first == second
    payload = "r|a,b|ev".encode("utf-8")
    assert first == format(reference_fnv1a64(payload), "016x")


_FACT_SPECS = st.lists(
    st.tuples(
        st.sampled_from(["forecasts_hazard_at_horizon", "Has Operation Status"]),
        st.lists(st.sampled_from(["a", "b", "ü", "port:p"]), min_size=2, max_size=3, unique=True),
        st.text(max_size=40),
        st.sampled_from([None, 24, 48, 72]),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


@settings(deadline=None, max_examples=60)
@given(_FACT_SPECS)
def test_batched_edge_ids_equal_dedup_id(specs):
    facts = []
    for position, (relation, stems, evidence, horizon, anchor) in enumerate(specs):
        # The first entity is a state at the fact's horizon, so stems seen at
        # two horizons get change edges. An explicit anchor either repeats the
        # horizon or stands in for a missing one.
        ids = [f"{stems[0]}:T-{horizon}" if horizon else stems[0], *stems[1:]]
        entities = [{"id": eid, "name": eid, "type": "other"} for eid in ids]
        if anchor:
            lead = horizon or 24
            entities.append({"id": horizon_anchor_id(lead), "name": "", "type": "horizon_time"})
        facts.append({"relation": relation, "entities": entities, "evidence": evidence,
                      "group": "IRMA:p", "horizon": horizon, "text_position": position})
    graph = merge_facts([facts])
    for edge_id, edge in graph.hyperedges.items():
        assert edge_id == edge.id == dedup_id(edge.relation, edge.entity_ids, edge.evidence)


def test_canonical_entity_id_folds_segments():
    assert canonical_entity_id("wind_fcst", "Irma", "Port Arthur", 48) == "wind_fcst:IRMA:port_arthur:T-48"
    assert canonical_entity_id("port", port="Port Miami") == "port:port_miami"
    assert canonical_entity_id("storm", storm="idalia") == "storm:IDALIA"
    assert canonical_entity_id("Cyclone State", storm="Two Words", horizon=96) == "cyclone_state:TWO_WORDS:T-96"


def test_canonical_entity_id_requires_kind():
    with pytest.raises(ValueError):
        canonical_entity_id("  ")


def test_entity_stem_strips_horizon_suffix_only():
    assert entity_stem("wind_fcst:IRMA:port_arthur:T-48") == "wind_fcst:IRMA:port_arthur"
    assert entity_stem("port:port_miami") is None
    assert entity_stem("thing:T-xx") is None
    assert entity_stem("horizon:T-48") == "horizon"


def test_entity_rejects_bad_confidence():
    with pytest.raises(ValueError):
        Entity("port:a", "A", EntityType.PORT, confidence=0.0)
    with pytest.raises(ValueError):
        Entity("port:a", "A", EntityType.PORT, confidence=1.5)


def test_horizon_time_entity_id_must_match_anchor_pattern():
    Entity(horizon_anchor_id(48), "T-48", EntityType.HORIZON_TIME)
    with pytest.raises(ValueError):
        Entity("not_an_anchor", "T-48", EntityType.HORIZON_TIME)


# --- Entity's one-step constructor, against a generated-init copy ---------


@dataclasses.dataclass(frozen=True)
class _GeneratedInitEntity:
    """Entity as the dataclass decorator writes it: generated init and
    `__post_init__` checks; the method compared is Entity's own."""

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
        if self.entity_type is EntityType.HORIZON_TIME and not HORIZON_ANCHOR_RE.match(self.id):
            raise ValueError(f"horizon_time entity id {self.id!r} must match horizon:T-<int>")

    to_dict = Entity.to_dict


_GeneratedInitEntity.__qualname__ = "Entity"  # the name `repr` prints

_entity_fields = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["", "port:a", horizon_anchor_id(24), "horizon:T-x"]),
        "name": st.sampled_from(["", "A"]),
        "entity_type": st.sampled_from([EntityType.PORT, EntityType.HORIZON_TIME, EntityType.OTHER]),
    },
    optional={
        "description": st.sampled_from(["", "d"]),
        "confidence": st.sampled_from([0.0, 0.5, 1.0, 1.5, 1, float("nan")]),
    },
)


@settings(max_examples=200, deadline=None)
@given(_entity_fields, _entity_fields, _entity_fields)
def test_one_step_entities_match_generated_init_entities(first, second, change):
    entities = [_built(Entity, fields) for fields in (first, second)]
    references = [_built(_GeneratedInitEntity, fields) for fields in (first, second)]
    for entity, reference in zip(entities, references):
        if isinstance(reference, tuple):
            assert entity == reference
            continue
        assert repr(entity) == repr(reference)
        assert hash(entity) == hash(reference)
        assert entity.to_dict() == reference.to_dict()
        assert dataclasses.astuple(entity) == dataclasses.astuple(reference)
        # `replace` goes through the constructor, refusals included.
        replaced = _built(partial(replace, entity), change)
        expected = _built(partial(replace, reference), change)
        if isinstance(expected, tuple):
            assert replaced == expected
        else:
            assert dataclasses.astuple(replaced) == dataclasses.astuple(expected)
    if not any(isinstance(reference, tuple) for reference in references):
        assert (entities[0] == entities[1]) == (references[0] == references[1])
    assert [(f.name, f.default) for f in dataclasses.fields(Entity)] == [
        (f.name, f.default) for f in dataclasses.fields(_GeneratedInitEntity)
    ]


def _edge(relation="forecasts_hazard_at_horizon", ids=("a", "b"), evidence="ev", **kw):
    return Hyperedge.create(relation, ids, evidence, **kw)


def test_hyperedge_create_normalizes_relation_and_hashes_content():
    edge = _edge("Forecasts Hazard At Horizon")
    assert edge.relation == "forecasts_hazard_at_horizon"
    assert edge.family == 6
    assert edge.id == dedup_id("forecasts_hazard_at_horizon", {"a", "b"}, "ev")


def test_equal_hyperedges_hash_equal_and_fit_in_a_set():
    edge = _edge("Forecasts Hazard At Horizon")
    twin = _edge("forecasts_hazard_at_horizon")
    other = _edge(ids=("a", "c"))
    assert twin == edge and twin is not edge and hash(twin) == hash(edge)
    assert {edge, twin, other} == {edge, other}
    assert {edge: 1}[twin] == 1


def test_hyperedge_needs_two_entities():
    with pytest.raises(ValueError):
        _edge(ids=("solo",))


# --- Hyperedge's one-step constructor, against a generated-init copy -------


@dataclasses.dataclass(frozen=True)
class _GeneratedInitEdge:
    """Hyperedge as the dataclass decorator writes it: generated init and
    `__post_init__` checks; the methods compared are Hyperedge's own."""

    id: str
    relation: str
    family: int
    entity_ids: frozenset[str]
    evidence: str
    attributes: dict[str, str] = dataclasses.field(default_factory=dict)
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

    __hash__ = Hyperedge.__hash__
    to_dict = Hyperedge.to_dict


_GeneratedInitEdge.__qualname__ = "Hyperedge"  # the name `repr` prints

_EDGE_REFUSALS = [
    ({"entity_ids": frozenset({"a"})}, "needs at least two entities"),
    ({"confidence": 0.0}, "confidence must be in"),
    ({"confidence": 1.5}, "confidence must be in"),
    ({"text_position": -1}, "text_position must be >= 0"),
    ({"horizon": 0}, "horizon must be a positive lead time"),
]


@pytest.mark.parametrize(("change", "message"), _EDGE_REFUSALS)
def test_each_edge_refusal_raises_through_every_way_to_build_an_edge(change, message):
    edge = _edge(group_id="g", horizon=24)
    fields = {name: getattr(edge, name) for name in ("id", "relation", "family", "entity_ids", "evidence")}
    with pytest.raises(ValueError, match=message):
        Hyperedge(**{**fields, **change})
    with pytest.raises(ValueError, match=message):
        replace(edge, **change)
    created = {"entity_ids": ("a", "b"), "confidence": 1.0, "text_position": 0, "horizon": None, **change}
    with pytest.raises(ValueError, match=message):
        Hyperedge.create("forecasts_hazard_at_horizon", evidence="ev", **created)


def test_edges_built_without_attributes_do_not_share_a_dict():
    ids = frozenset({"a", "b"})
    first = Hyperedge("0" * 16, "has_attribute", 12, ids, "ev")
    second = Hyperedge("0" * 16, "has_attribute", 12, ids, "ev")
    assert first.attributes == {} and first.attributes is not second.attributes
    assert _edge().attributes is not _edge().attributes


_edge_fields = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["0" * 16, "00000000000000ff"]),
        "relation": st.sampled_from(sorted(FAMILY_OF)[:3]),
        "family": st.integers(1, 13),
        "entity_ids": st.frozensets(st.sampled_from(["a", "b", "c:T-24", horizon_anchor_id(24)]), max_size=4),
        "evidence": st.sampled_from(["", "ev"]),
    },
    optional={
        "attributes": st.dictionaries(st.sampled_from(["k", "z"]), st.sampled_from(["1", "2"]), max_size=2),
        "confidence": st.sampled_from([0.0, 0.5, 1.0, 1.5, 1, float("nan")]),
        "group_id": st.sampled_from(["", "g"]),
        "horizon": st.sampled_from([None, -1, 0, 24, 48]),
        "text_position": st.integers(-1, 2),
    },
)


def _built(cls, fields):
    try:
        return cls(**fields)
    except ValueError as exc:
        return ("refused", str(exc))


@settings(max_examples=200, deadline=None)
@given(_edge_fields, _edge_fields)
def test_one_step_edges_match_generated_init_edges(first, second):
    edges = [_built(Hyperedge, fields) for fields in (first, second)]
    references = [_built(_GeneratedInitEdge, fields) for fields in (first, second)]
    for edge, reference in zip(edges, references):
        if isinstance(reference, tuple):
            assert edge == reference
            continue
        assert repr(edge) == repr(reference)
        assert hash(edge) == hash(reference)
        assert edge.to_dict() == reference.to_dict()
        assert dataclasses.astuple(edge) == dataclasses.astuple(reference)
    if not any(isinstance(reference, tuple) for reference in references):
        assert (edges[0] == edges[1]) == (references[0] == references[1])
    assert [(f.name, f.default, f.default_factory) for f in dataclasses.fields(Hyperedge)] == [
        (f.name, f.default, f.default_factory) for f in dataclasses.fields(_GeneratedInitEdge)
    ]


def test_anchor_horizons_sorted_descending():
    edge = _edge(ids=("x:T-48", horizon_anchor_id(12), horizon_anchor_id(96)))
    assert edge.anchor_horizons() == [96, 12]


def test_state_stems_exclude_anchors_and_plain_ids():
    edge = _edge(ids=("wind_fcst:IRMA:p:T-48", horizon_anchor_id(48), "port:p"))
    assert edge.state_stems() == frozenset({"wind_fcst:IRMA:p"})


def _state_fact(stem_kind, horizon, position, relation="forecasts_hazard_at_horizon", group="IRMA:p"):
    state_id = f"{stem_kind}:IRMA:p:T-{horizon}"
    return {
        "relation": relation,
        "entities": [
            {"id": "port:p", "name": "P", "type": "port"},
            {"id": state_id, "name": f"state {horizon}", "type": "hazard_forecast"},
        ],
        "evidence": f"{stem_kind} at T-{horizon}",
        "attributes": {},
        "confidence": 1.0,
        "group": group,
        "horizon": horizon,
        "text_position": position,
    }


def _change_edges(graph):
    return [edge for edge in graph.hyperedges.values() if edge.family == 13]


def test_synthesize_cross_horizon_links_consecutive_horizons():
    graph = merge_facts([[_state_fact("wind_fcst", 72, 0), _state_fact("wind_fcst", 48, 1)]])
    changes = _change_edges(graph)
    assert len(changes) == 1
    change = changes[0]
    assert change.relation == "forecast_updates_to"
    assert change.family == 13
    assert change.horizon is None
    assert change.attributes == {"from_horizon": "72", "to_horizon": "48"}
    assert change.entity_ids == frozenset(
        {
            "wind_fcst:IRMA:p:T-72",
            "wind_fcst:IRMA:p:T-48",
            horizon_anchor_id(72),
            horizon_anchor_id(48),
        }
    )
    # Anchored at the last mention of the from-horizon block.
    assert change.text_position == 0


def test_synthesize_cross_horizon_skips_non_consecutive_pairs():
    facts = [
        _state_fact("wind_fcst", 96, 0),
        _state_fact("wind_fcst", 48, 1),
        _state_fact("wind_fcst", 12, 2),
    ]
    changes = _change_edges(merge_facts([facts]))
    spans = sorted(
        (int(c.attributes["from_horizon"]), int(c.attributes["to_horizon"])) for c in changes
    )
    assert spans == [(48, 12), (96, 48)]


def test_merge_facts_deduplicates_identical_facts_across_batches():
    fact = _state_fact("wind_fcst", 48, 3)
    graph = merge_facts([[fact], [dict(fact)]])
    assert len(graph.hyperedges) == 1


def test_duplicate_edges_at_one_position_resolve_by_content_in_either_order():
    # Same relation, entities, evidence and text position, so the same id;
    # only the attributes differ.
    first = _state_fact("wind_fcst", 48, 3)
    second = {**first, "attributes": {"wind_kt": "40"}}
    candidates = [
        next(iter(merge_facts([[fact]]).hyperedges.values()))
        for fact in (first, second)
    ]
    assert candidates[0].id == candidates[1].id and candidates[0] != candidates[1]
    expected = min(candidates, key=lambda edge: json.dumps(edge.to_dict(), sort_keys=True))
    for batches in ([[first], [second]], [[second], [first]]):
        graph = merge_facts(batches)
        assert list(graph.hyperedges.values()) == [expected]


def test_merge_facts_is_idempotent_on_roundtrip():
    facts = [_state_fact("wind_fcst", 72, 0), _state_fact("wind_fcst", 48, 1)]
    graph = merge_facts([facts])
    snapshot = graph.to_snapshot()
    refed = [
        {
            "relation": edge["relation"],
            "entities": [
                {
                    "id": eid,
                    "name": graph.entities[eid].name,
                    "type": graph.entities[eid].entity_type.value,
                }
                for eid in edge["entities"]
            ],
            "evidence": edge["evidence"],
            "attributes": edge["attributes"],
            "confidence": edge["confidence"],
            "group": edge["group"],
            "horizon": edge["horizon"],
            "text_position": edge["text_position"],
        }
        for edge in snapshot["hyperedges"]
    ]
    again = merge_facts([refed])
    assert set(again.hyperedges) == set(graph.hyperedges)
    assert set(again.entities) == set(graph.entities)


def test_merge_facts_synthesizes_change_edges():
    facts = [_state_fact("wind_fcst", 72, 0), _state_fact("wind_fcst", 48, 1)]
    graph = merge_facts([facts])
    families = sorted(edge.family for edge in graph.hyperedges.values())
    assert families == [6, 6, 13]


def _refed_facts(graph):
    """The graph's own edges as facts: its change edges included."""
    return [
        {
            "relation": edge.relation,
            "entities": [graph.entities[entity_id].to_dict() for entity_id in sorted(edge.entity_ids)],
            "evidence": edge.evidence,
            "attributes": dict(edge.attributes),
            "confidence": edge.confidence,
            "group": edge.group_id,
            "horizon": edge.horizon,
            "text_position": edge.text_position,
        }
        for edge in map(graph.hyperedges.get, sorted(graph.hyperedges))
    ]


def test_merging_held_change_edges_builds_no_change_edge(monkeypatch):
    corpus = generate_synthetic(seed=2, n_groups=3, horizons_per_group=3)
    graph = merge_facts([corpus.facts])
    refed = _refed_facts(graph)
    built = []

    def counted(*args, **kwargs):
        edge = Hyperedge(*args, **kwargs)
        built.append(edge.family)
        return edge

    monkeypatch.setattr(hypergraph, "Hyperedge", counted)
    # `okh synth` writes every change edge as a fact, as does a graph's
    # own facts: one edge is built per fact, and none per change draft.
    for facts in (corpus.facts, refed):
        built.clear()
        again = merge_facts([facts])
        assert len(built) == len(facts) and built.count(13) > 0
        assert again.to_snapshot() == graph.to_snapshot()


@pytest.mark.parametrize(
    "change",
    [{"confidence": 0.5}, {"text_position": 0}, {"text_position": 9}, {"confidence": 0.5, "text_position": 9}],
)
def test_a_held_change_edge_that_differs_from_its_draft_resolves_by_the_tie_break(change):
    states = [_state_fact("wind_fcst", 72, 3), _state_fact("wind_fcst", 48, 5)]
    graph = merge_facts([states])
    (draft,) = _change_edges(graph)
    held_fact = {**next(f for f in _refed_facts(graph) if FAMILY_OF[f["relation"]] == 13), **change}
    (held,) = merge_facts([[held_fact]]).hyperedges.values()
    assert held.id == draft.id and held != draft
    # The draft goes through the tie-break against the held edge.
    expected = _better_edge(held, draft)
    for batches in ([states + [held_fact]], [[held_fact], states]):
        merged = merge_facts(batches)
        assert _change_edges(merged) == [expected]
        resolved = KnowledgeHypergraph(graph.entities, {**graph.hyperedges, draft.id: expected})
        assert merged.to_snapshot() == resolved.to_snapshot()


def test_merge_facts_derives_horizon_from_lone_anchor():
    fact = _state_fact("wind_fcst", 48, 0)
    fact["horizon"] = None
    fact["entities"].append({"id": horizon_anchor_id(48), "name": "T-48", "type": "horizon_time"})
    graph = merge_facts([[fact]])
    edge = next(iter(graph.hyperedges.values()))
    assert edge.horizon == 48


def test_merge_facts_grounds_unanchored_fact_at_its_horizon():
    fact = _state_fact("wind_fcst", 48, 0)
    unanchored = dedup_id(fact["relation"], [raw["id"] for raw in fact["entities"]], fact["evidence"])
    (edge,) = merge_facts([[fact]]).hyperedges.values()
    assert horizon_anchor_id(48) in edge.entity_ids
    assert edge.horizon == 48
    assert edge.id != unanchored
    assert edge.id == dedup_id(edge.relation, edge.entity_ids, fact["evidence"])


def test_merge_facts_fact_with_its_anchor_listed_merges_to_the_same_edge():
    fact = _state_fact("wind_fcst", 48, 0)
    anchored = _state_fact("wind_fcst", 48, 0)
    anchored["entities"].append({"id": horizon_anchor_id(48), "name": "T-48", "type": "horizon_time"})
    grounded = merge_facts([[fact]])
    assert merge_facts([[anchored]]).hyperedges == grounded.hyperedges
    assert merge_facts([[fact], [anchored]]).hyperedges == grounded.hyperedges


def test_merge_facts_rejects_anchor_that_disagrees_with_horizon():
    fact = _state_fact("wind_fcst", 48, 0)
    fact["entities"].append({"id": horizon_anchor_id(24), "name": "T-24", "type": "horizon_time"})
    unanchored = dedup_id(fact["relation"], [raw["id"] for raw in fact["entities"]], fact["evidence"])
    with pytest.raises(ConflictingHorizon) as err:
        merge_facts([[_state_fact("wind_fcst", 72, 0)], [fact]])
    assert str(err.value) == f"edge {unanchored} already anchored at [24], cannot inject T-48"


def test_merge_facts_reports_schema_path():
    bad = {"evidence": "e", "group": "g", "entities": []}
    with pytest.raises(SchemaError) as err:
        merge_facts([[bad]])
    assert "batch[0].fact[0]" in str(err.value)


def test_validate_fact_rejects_malformed_fields():
    base = _state_fact("wind_fcst", 48, 0)
    cases = [
        ({**base, "entities": base["entities"][:1]}, "entities"),
        ({**base, "confidence": 0.0}, "confidence"),
        ({**base, "horizon": -4}, "horizon"),
        ({**base, "text_position": -1}, "text_position"),
        ({**base, "attributes": {"k": 3}}, "attributes"),
        ({**base, "relation": "   "}, "relation"),
    ]
    for fact, needle in cases:
        with pytest.raises(SchemaError) as err:
            validate_fact(fact, "f")
        assert needle in str(err.value)


def test_duplicate_entities_resolve_by_confidence_then_content():
    low = {"id": "port:p", "name": "Zeta", "type": "port", "confidence": 0.4}
    high = {"id": "port:p", "name": "Alpha", "type": "port", "confidence": 0.9}
    fact_a = _state_fact("wind_fcst", 48, 0)
    fact_a["entities"][0] = low
    fact_b = _state_fact("wind_fcst", 24, 1)
    fact_b["entities"][0] = high
    for batches in ([[fact_a], [fact_b]], [[fact_b], [fact_a]]):
        graph = merge_facts(batches)
        assert graph.entities["port:p"].name == "Alpha"


def test_groups_index_lists_edges_sorted_by_id():
    facts = [_state_fact("wind_fcst", 72, 0), _state_fact("ops", 48, 1, relation="has_operation_status")]
    graph = merge_facts([facts])
    assert list(graph.groups) == ["IRMA:p"]
    assert graph.groups["IRMA:p"] == sorted(graph.hyperedges)


def test_snapshot_roundtrip_preserves_everything(tmp_path):
    facts = [_state_fact("wind_fcst", 72, 0), _state_fact("wind_fcst", 48, 1)]
    graph = merge_facts([facts])
    path = tmp_path / "snap.json"
    direct = {"IRMA:p": [(sorted(graph.hyperedges)[0], sorted(graph.hyperedges)[1])]}
    graph.save_snapshot(str(path), direct)

    loaded, precedence = KnowledgeHypergraph.load_snapshot(str(path))
    assert set(loaded.hyperedges) == set(graph.hyperedges)
    assert set(loaded.entities) == set(graph.entities)
    assert precedence == {"IRMA:p": direct["IRMA:p"]}
    for edge_id, edge in graph.hyperedges.items():
        assert loaded.hyperedges[edge_id].to_dict() == edge.to_dict()


def test_snapshot_rejects_tampered_edge_content(tmp_path):
    graph = merge_facts([[_state_fact("wind_fcst", 48, 0)]])
    for key, value, field in [
        ("evidence", "edited", "id"),
        ("horizon", "24", "horizon"),
        ("family", 99, "family"),
    ]:
        snapshot = graph.to_snapshot()
        snapshot["hyperedges"][0][key] = value
        with pytest.raises(SchemaError) as err:
            KnowledgeHypergraph.from_snapshot(snapshot)
        assert err.value.path == f"hyperedges[0].{field}"


def test_snapshot_names_the_first_bad_edge_in_index_order():
    graph = merge_facts([[_state_fact(kind, 48, i) for i, kind in enumerate(("a", "b", "c"))]])
    snapshot = graph.to_snapshot()
    snapshot["hyperedges"][1]["id"] = "0" * 16
    with pytest.raises(SchemaError) as err:
        KnowledgeHypergraph.from_snapshot(snapshot)
    assert err.value.path == "hyperedges[1].id"
    for corrupt in (5, {**snapshot["hyperedges"][2], "family": 99}):
        snapshot["hyperedges"][2] = corrupt
        with pytest.raises(SchemaError) as err:
            KnowledgeHypergraph.from_snapshot(snapshot)
        assert err.value.path == "hyperedges[1].id"


def test_snapshot_rejects_malformed_hyperedge_entries():
    graph = merge_facts([[_state_fact("wind_fcst", 48, 0)]])
    not_object, id_types, unknown_entity = (graph.to_snapshot() for _ in range(3))
    not_object["hyperedges"][0] = 5
    id_types["hyperedges"][0]["entities"] = [1, 2]
    dropped = unknown_entity["hyperedges"][0]["entities"][0]
    unknown_entity["entities"] = [e for e in unknown_entity["entities"] if e["id"] != dropped]
    for document, path in [
        ([], "snapshot"),
        ({**graph.to_snapshot(), "hyperedges": 5}, "hyperedges"),
        ({**graph.to_snapshot(), "entities": {}}, "entities"),
        (not_object, "hyperedges[0]"),
        (id_types, "hyperedges[0].entities"),
        (unknown_entity, "hyperedges[0].entities"),
    ]:
        with pytest.raises(SchemaError) as err:
            KnowledgeHypergraph.from_snapshot(document)
        assert err.value.path == path
    assert repr(dropped) in err.value.message


def test_snapshot_rejects_malformed_precedence_block():
    graph = merge_facts([[_state_fact("wind_fcst", 72, 0), _state_fact("wind_fcst", 48, 1)]])
    first, second = sorted(graph.hyperedges)[:2]
    for block, path in [
        ([[first, second]], "precedence"),
        ({"IRMA:p": "pairs"}, "precedence.IRMA:p"),
        ({"IRMA:p": [[first]]}, "precedence.IRMA:p[0]"),
        ({"IRMA:p": [[first, second, first]]}, "precedence.IRMA:p[0]"),
        ({"IRMA:p": [{"src": first, "dst": second}]}, "precedence.IRMA:p[0]"),
        ({"IRMA:p": [[first, second], [first, 7]]}, "precedence.IRMA:p[1]"),
        ({"IRMA:p": [[first, "no-such-edge"]]}, "precedence.IRMA:p[0]"),
    ]:
        snapshot = graph.to_snapshot()
        snapshot["precedence"] = block
        with pytest.raises(SchemaError) as err:
            KnowledgeHypergraph.from_snapshot(snapshot)
        assert err.value.path == path
    _, precedence = KnowledgeHypergraph.from_snapshot(graph.to_snapshot())
    assert precedence == {}


def test_snapshot_file_is_sorted_and_newline_terminated(tmp_path):
    graph = merge_facts([[_state_fact("wind_fcst", 48, 0)]])
    path = tmp_path / "snap.json"
    graph.save_snapshot(str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(json.dumps(json.loads(text), sort_keys=True))


def test_merge_parses_each_entity_dict_by_typed_value():
    # An equal-looking entity parsed earlier must not stand in for a
    # malformed one: `true` is not `1.0`, and an explicit null description
    # is not a missing one.
    cases = [
        ("confidence", {"confidence": 1.0}, {"confidence": True}),
        ("description", {}, {"description": None}),
    ]
    for field, good_extra, bad_extra in cases:
        good, bad = _state_fact("wind_fcst", 48, 0), _state_fact("wind_fcst", 24, 1)
        good["entities"][0] = {**good["entities"][0], **good_extra}
        bad["entities"][0] = {**good["entities"][0], **bad_extra}
        for batches, path in [
            ([[good], [bad]], "batch[1].fact[0].entities[0]"),
            ([[good, bad]], "batch[0].fact[1].entities[0]"),
            ([[bad], [good]], "batch[0].fact[0].entities[0]"),
        ]:
            with pytest.raises(SchemaError) as err:
                merge_facts(batches)
            assert err.value.path == f"{path}.{field}"
    assert merge_facts([[good], [good]]).entities["port:p"].confidence == 1.0
    # The same values under other keys are another entity.
    swapped = _state_fact("wind_fcst", 48, 0)
    swapped["entities"] = [
        {"id": "port:p", "name": "port:q", "type": "port"},
        {"name": "port:p", "id": "port:q", "type": "port"},
    ]
    graph = merge_facts([[swapped]])
    assert (graph.entities["port:p"].name, graph.entities["port:q"].name) == ("port:q", "port:p")


def test_merge_resolves_anchor_entities_whatever_the_fact_order():
    anchor = horizon_anchor_id(48)
    canonical = Entity(
        anchor, "T-48", EntityType.HORIZON_TIME, "temporal anchor 48 hours before expected landfall"
    )
    facts = [_state_fact("wind_fcst", 48, 0), _state_fact("ops", 48, 1), dict(_state_fact("ops", 48, 1))]
    assert merge_facts([facts]).entities[anchor] == canonical
    # An explicit anchor entity competes with the canonical one; the winner
    # must not depend on where either first appears.
    explicit = _state_fact("ops", 72, 2)
    explicit["horizon"] = 48
    explicit["entities"].append({"id": anchor, "name": "T-48", "type": "horizon_time"})
    plain = Entity(anchor, "T-48", EntityType.HORIZON_TIME)
    for order in ([*facts, explicit], [explicit, *facts], [facts[0], explicit, *facts[1:]]):
        for batches in ([order], [[fact] for fact in order]):
            assert merge_facts(batches).entities[anchor] == plain


def _saved_and_loaded(graph, precedence_edges):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "graph.snap")
        graph.save_snapshot(path, precedence_edges)
        return KnowledgeHypergraph.load_snapshot(path)


_AWKWARD_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "漢", "😀", " "]),
        st.characters(codec="utf-8"),
    ),
    max_size=6,
)
_CONFIDENCES = st.one_of(
    st.sampled_from([1.0, 1e-07, 0.5, 1 / 3, 5e-324, 0.1 + 0.2]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
_ENTITIES = st.builds(
    Entity,
    id=_AWKWARD_TEXT.filter(bool),
    name=_AWKWARD_TEXT,
    entity_type=st.sampled_from([kind for kind in EntityType if kind is not EntityType.HORIZON_TIME]),
    description=_AWKWARD_TEXT,
    confidence=_CONFIDENCES,
)


@st.composite
def _graphs_with_precedence(draw):
    """A valid graph over awkward text, and direct precedence pairs of its edges."""
    entities = draw(st.lists(_ENTITIES, min_size=2, max_size=4, unique_by=lambda entity: entity.id))
    entity_ids = sorted(entity.id for entity in entities)
    edges = draw(st.lists(st.builds(
        Hyperedge.create,
        relation=st.sampled_from(sorted(FAMILY_OF)),
        entity_ids=st.sets(st.sampled_from(entity_ids), min_size=2, max_size=3),
        evidence=_AWKWARD_TEXT,
        attributes=st.dictionaries(_AWKWARD_TEXT, _AWKWARD_TEXT, max_size=2),
        confidence=_CONFIDENCES,
        group_id=_AWKWARD_TEXT,
        horizon=st.one_of(st.none(), st.integers(min_value=1, max_value=2**40)),
        text_position=st.integers(min_value=0, max_value=2**40),
    ), max_size=4))
    graph = KnowledgeHypergraph({e.id: e for e in entities}, {e.id: e for e in edges})
    edge_id = st.sampled_from(sorted(graph.hyperedges))
    pairs = st.lists(st.tuples(edge_id, edge_id), max_size=3) if edges else st.just([])
    precedence = draw(st.one_of(st.none(), st.dictionaries(_AWKWARD_TEXT, pairs, max_size=2)))
    return graph, precedence


@settings(deadline=None, max_examples=100)
@given(_graphs_with_precedence())
def test_snapshot_round_trips_awkward_text_exactly(drawn):
    graph, precedence_edges = drawn
    loaded, precedence = _saved_and_loaded(graph, precedence_edges)
    assert loaded.entities == graph.entities
    assert loaded.hyperedges == graph.hyperedges
    assert loaded.groups == graph.groups
    expected = {group: sorted(pairs) for group, pairs in (precedence_edges or {}).items()}
    assert precedence == expected


def test_snapshot_in_the_indented_layout_with_groups_loads_to_the_same_graph(tmp_path):
    # Files in the earlier indented layout, with a "groups" field that the
    # reader ignores, must keep loading.
    facts = [_state_fact("wind_fcst", 72, 0), _state_fact("wind_fcst", 48, 1), _state_fact("ops", 48, 2)]
    graph = merge_facts([facts])
    first, second = sorted(graph.hyperedges)[:2]
    direct = {"IRMA:p": [(first, second)], "é \u2028": []}
    document = graph.to_snapshot(direct)
    assert "groups" not in document
    document["groups"] = {group: list(ids) for group, ids in graph.groups.items()}
    legacy = tmp_path / "legacy.snap"
    legacy.write_text(json.dumps(document, sort_keys=True, ensure_ascii=False, indent=2) + "\n", "utf-8")
    compact = tmp_path / "compact.snap"
    graph.save_snapshot(str(compact), direct)
    compact_text = compact.read_text("utf-8")
    assert compact_text.count("\n") == 1 and '"é \u2028":[]' in compact_text
    old_graph, old_precedence = KnowledgeHypergraph.load_snapshot(str(legacy))
    new_graph, new_precedence = KnowledgeHypergraph.load_snapshot(str(compact))
    assert old_graph.entities == new_graph.entities == graph.entities
    assert old_graph.hyperedges == new_graph.hyperedges == graph.hyperedges
    assert old_precedence == new_precedence == direct


def _same_objects(parsed, expected):
    """Two (graph, precedence) loads hold equal objects, attribute for attribute."""
    (graph, precedence), (reference, reference_precedence) = parsed, expected
    assert precedence == reference_precedence
    assert list(graph.entities) == list(reference.entities)
    assert list(graph.hyperedges) == list(reference.hyperedges)
    for built, wanted in [
        *zip(graph.entities.values(), reference.entities.values()),
        *zip(graph.hyperedges.values(), reference.hyperedges.values()),
    ]:
        assert list(vars(built).items()) == list(vars(wanted).items())
    for built, wanted in zip(graph.hyperedges.values(), reference.hyperedges.values()):
        assert list(built.attributes.items()) == list(wanted.attributes.items())
        assert type(built.attributes) is dict


def test_snapshot_of_read_only_mappings_loads_as_the_reference_does():
    graph = merge_facts([generate_synthetic(seed=3, n_groups=1, horizons_per_group=2).facts])
    document = json.loads(json.dumps(graph.to_snapshot(PrecedenceIndex.build(graph).direct_edges())))
    assert any(edge["attributes"] for edge in document["hyperedges"])
    for edge in document["hyperedges"]:
        # Reversed, so the parsed dict's order is the mapping's, not the file's.
        edge["attributes"] = OrderedDict(reversed(edge["attributes"].items()))
    # A JSON integer where the writer puts a string is converted, not refused.
    document["hyperedges"][0]["attributes"]["count"] = 1
    document["entities"] = [MappingProxyType(entity) for entity in document["entities"]]
    document["hyperedges"] = [MappingProxyType(edge) for edge in document["hyperedges"]]
    _same_objects(KnowledgeHypergraph.from_snapshot(document), _reference_from_snapshot(document))


def test_bench_sized_snapshot_loads_as_the_reference_does(tmp_path):
    # The seed-1, 20-group corpus of the refresh workload: 1,200 edges.
    graph = merge_facts([generate_synthetic(seed=1, n_groups=20).facts])
    path = tmp_path / "graph.snap"
    graph.save_snapshot(str(path), PrecedenceIndex.build(graph).direct_edges())
    document = json.loads(path.read_text("utf-8"))
    assert len(document["hyperedges"]) == 1200
    _same_objects(KnowledgeHypergraph.from_snapshot(document), _reference_from_snapshot(document))


def test_snapshot_writer_rejects_values_outside_their_declared_types(tmp_path):
    # What json.dumps itself refuses: a non-finite number and a numpy scalar.
    not_finite = Entity("port:p", "P", EntityType.PORT)
    object.__setattr__(not_finite, "confidence", float("nan"))  # past __post_init__'s check
    with pytest.raises(ValueError):
        KnowledgeHypergraph({not_finite.id: not_finite}, {}).save_snapshot(str(tmp_path / "nan.snap"))
    assert not (tmp_path / "nan.snap").exists()
    edge = replace(_edge(), text_position=np.int64(2))
    with pytest.raises(TypeError):
        KnowledgeHypergraph({}, {edge.id: edge}).save_snapshot(str(tmp_path / "numpy.snap"))


# --- Entity ids parsed once, against the regex definitions ----------------


def _reference_anchor_leads(entity_ids):
    leads = []
    for entity_id in entity_ids:
        match = HORIZON_ANCHOR_RE.match(entity_id)
        if match:
            leads.append(int(match.group(1)))
    return sorted(leads, reverse=True)


def _reference_state_stems(entity_ids):
    stems = set()
    for entity_id in entity_ids:
        if HORIZON_ANCHOR_RE.match(entity_id):
            continue
        stem = entity_stem(entity_id)
        if stem is not None:
            stems.add(stem)
    return frozenset(stems)


_entity_ids = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"horizon:T-\d{1,4}\n?", fullmatch=True),
    st.builds(lambda stem, lead: f"{stem}:T-{lead}", st.text(max_size=8), st.integers(-5, 200)),
    st.builds(lambda stem, tail: f"{stem}:T-{tail}", st.text(max_size=8), st.text(max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_entity_ids, min_size=2, max_size=6, unique=True))
@example(["horizon:T-48", "horizon:T-48\n"])
@example(["horizon:T-٤٨", "wind:T-²"])
@example([":T-5", "horizon:T-05"])
def test_parsed_entity_ids_match_the_regex_definitions(ids):
    for entity_id in ids * 2:  # the second pass reads the cache
        lead, stem = _id_parts(entity_id)
        match = HORIZON_ANCHOR_RE.match(entity_id)
        assert lead == (int(match.group(1)) if match else None)
        assert stem == (None if match else entity_stem(entity_id))
    assert _anchor_leads(ids) == _reference_anchor_leads(ids)
    edge = Hyperedge.create("has_attribute", ids, evidence="e", group_id="G:p")
    assert edge.anchor_horizons() == _reference_anchor_leads(ids)
    assert edge.state_stems() == _reference_state_stems(ids)


# --- Fact refusals name the same field as the eager-path validator ---------


def _reference_validate_fact(fact, path):
    # The fact validator as it was when it formatted every entity's path and
    # tested each field with isinstance, verbatim but for the entity parser.
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
    parsed = [_entity_from_dict(raw, f"{path}.entities[{index}]") for index, raw in enumerate(entities)]
    if len({entity.id for entity in parsed}) < 2:
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
    return parsed


_FACT_FIELDS = ["relation", "evidence", "group", "entities", "attributes", "confidence", "horizon", "text_position"]
_ENTITY_FIELDS = ["id", "name", "type", "description", "confidence"]
_ODD_VALUES = [
    True, False, None, 0, 1, -1, 48, 0.0, 0.5, 1.0, 1.5, 48.0, math.nan, "", "  ", "x",
    "horizon:T-7", [], ["x"], {}, {"k": 3}, {"k": "v"}, MappingProxyType({"k": "v"}),
]


@st.composite
def _fact_batches(draw):
    """Two batches of facts, with up to three fields deleted or set to odd values."""
    batches = [
        [_state_fact("wind_fcst", 72, 0), _state_fact("wind_fcst", 48, 1)],
        [_state_fact("ops", 48, 2, relation="has_operation_status")],
    ]
    for _ in range(draw(st.integers(1, 3))):
        batch = draw(st.sampled_from(batches))
        index = draw(st.integers(0, len(batch) - 1))
        fact = batch[index]
        if not isinstance(fact, dict):
            continue
        if draw(st.booleans()) and isinstance(fact.get("entities"), list) and fact["entities"]:
            entities = fact["entities"]
            slot = draw(st.integers(0, len(entities) - 1))
            if not isinstance(entities[slot], dict):
                continue
            entity = entities[slot] = dict(entities[slot])
            target, fields = entity, _ENTITY_FIELDS
        else:
            target, fields = fact, _FACT_FIELDS
        field = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            target.pop(field, None)
        else:
            target[field] = draw(st.sampled_from(_ODD_VALUES))
        if draw(st.integers(0, 9)) == 0:
            batch[index] = draw(st.sampled_from([5, None, [], "x"]))
    return batches


def _outcome(call):
    try:
        call()
    except (OkhError, ValueError) as exc:
        return type(exc), getattr(exc, "path", None), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_fact_batches())
def test_fact_refusals_match_the_eager_path_validator(batches):
    # A fact that passes the schema can still be refused while it is
    # grounded (an anchor entity for another horizon); that refusal depends
    # on the fact alone, so merging it by itself shows it.
    first_refusal = None
    for batch_index, batch in enumerate(batches):
        for fact_index, fact in enumerate(batch):
            first_refusal = _outcome(
                lambda: _reference_validate_fact(fact, f"batch[{batch_index}].fact[{fact_index}]")
            ) or _outcome(lambda: merge_facts([[fact]]))
            if first_refusal:
                break
        if first_refusal:
            break
    outcome = _outcome(lambda: merge_facts(batches))
    if first_refusal is not None:
        assert outcome == first_refusal
    for batch in batches:
        for fact in batch:
            assert _outcome(lambda: validate_fact(fact, "f")) == _outcome(
                lambda: _reference_validate_fact(fact, "f")
            )


def test_snapshot_is_written_key_sorted_without_the_encoder_sorting(tmp_path):
    # The writer leaves key order to `to_snapshot`; the bytes must be those
    # of a key-sorting dump, whatever order attributes and groups come in.
    facts = [_state_fact("wind_fcst", 72, 0, group="B:q"), _state_fact("ops", 48, 1)]
    facts[0]["attributes"] = {"zeta": "1", "Alpha": "2", "é": "3", "alpha": "4", "_": "5"}
    graph = merge_facts([facts])
    direct = PrecedenceIndex.build(graph).direct_edges()
    unsorted = dict(reversed(list({**direct, "A:z": [], "é": []}.items())))
    path = tmp_path / "graph.snap"
    graph.save_snapshot(str(path), unsorted)
    expected = json.dumps(
        graph.to_snapshot(unsorted), sort_keys=True, ensure_ascii=False, separators=(",", ":"), allow_nan=False
    )
    assert path.read_text(encoding="utf-8") == expected + "\n"


# --- The snapshot writer's blocks and the loaded graph's strings -----------


def _one_shot(graph, direct):
    """The snapshot text as one `json.dumps` call writes it."""
    text = json.dumps(
        graph.to_snapshot(direct), ensure_ascii=False, separators=(",", ":"), allow_nan=False
    )
    return text + "\n"


def _sized_graph(count):
    """``count`` entities and ``count`` edges in one group, with non-ASCII text."""
    entities = {}
    for index in range(count):
        entity = Entity(f"port:p{index:04d}", f"Pört {index}", EntityType.PORT, "é")
        entities[entity.id] = entity
    edges = [
        _edge("has_operation_status", (f"port:p{index:04d}", f"ops:é{index}"), f"Évidence {index}",
              attributes={"status": "ouvert", "n": str(index)}, group_id="G:é", text_position=index)
        for index in range(count)
    ]
    return KnowledgeHypergraph(entities, {edge.id: edge for edge in edges})


_BLOCK = hypergraph._SAVE_BLOCK


@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_block_writer_writes_the_one_shot_bytes_at_every_block_boundary(tmp_path, count):
    graph = _sized_graph(count)
    ids = sorted(graph.hyperedges)
    # One group with `count` pairs, the same boundaries, and one with none.
    pairs = [(ids[index], ids[(index + 1) % count]) for index in range(count)]
    for direct in (None, {"G:é": pairs, "H": []}):
        path = tmp_path / "graph.snap"
        graph.save_snapshot(str(path), direct)
        assert path.read_text(encoding="utf-8") == _one_shot(graph, direct)
        assert len(json.loads(path.read_bytes())["hyperedges"]) == count


@pytest.mark.parametrize("refused, error", [(float("nan"), ValueError), (np.int64(2), TypeError)])
def test_a_value_refused_in_a_later_block_leaves_the_snapshot_as_it_was(tmp_path, refused, error):
    graph = _sized_graph(2 * _BLOCK + 1)
    path = tmp_path / "graph.snap"
    graph.save_snapshot(str(path))
    before = path.read_bytes()
    # The edge opens the third block of edges: two blocks of the list are
    # written before the encoder refuses it.
    late = graph.hyperedges[sorted(graph.hyperedges)[2 * _BLOCK]]
    late.attributes["refused"] = refused
    with pytest.raises(error):
        graph.save_snapshot(str(path))
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["graph.snap"]


def test_a_loaded_graph_holds_one_string_object_per_distinct_value(tmp_path):
    path = tmp_path / "graph.snap"
    graph = merge_facts([generate_synthetic(seed=1, n_groups=3).facts])
    graph.save_snapshot(str(path), PrecedenceIndex.build(graph).direct_edges())
    loaded, direct = KnowledgeHypergraph.load_snapshot(str(path))
    key = {entity_id: entity_id for entity_id in loaded.entities}
    edges = list(loaded.hyperedges.values())
    for edge in edges:
        assert all(key[entity_id] is entity_id for entity_id in edge.entity_ids)
    # A string object per distinct relation, group and attribute string.
    values = [edge.relation for edge in edges] + [edge.group_id for edge in edges]
    values += [text for edge in edges for item in edge.attributes.items() for text in item]
    assert len(set(map(id, values))) == len(set(values))
    assert all(edge.group_id is group for group, ids in loaded.groups.items()
               for edge in map(loaded.hyperedges.get, ids))
    assert sum(map(len, direct.values())) > 0
    for pairs in direct.values():
        for src, dst in pairs:
            assert src is loaded.hyperedges[src].id and dst is loaded.hyperedges[dst].id


def _live_size(build):
    """Bytes still allocated once ``build()`` returns, with what it returned held."""
    gc.collect()
    _id_parts.cache_clear()  # its stems are the process's, not the graph's
    tracemalloc.start()
    try:
        held = build()
        _id_parts.cache_clear()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del held
    return size


def test_a_loaded_graph_is_not_larger_than_the_merged_one(tmp_path):
    # Each side builds a graph and its direct pairs from the same text, which
    # it parses itself, so each holds only the strings it kept.
    path = tmp_path / "graph.snap"
    corpus = generate_synthetic(seed=1, n_groups=44)
    lines = corpus.facts_jsonl().splitlines()
    graph = merge_facts([corpus.facts])
    assert len(graph.hyperedges) == 2640
    graph.save_snapshot(str(path), PrecedenceIndex.build(graph).direct_edges())
    del corpus, graph

    def merged():
        graph = merge_facts([[json.loads(line) for line in lines]])
        return graph, PrecedenceIndex.build(graph).direct_edges()

    merged_size = _live_size(merged)
    loaded_size = _live_size(lambda: KnowledgeHypergraph.load_snapshot(str(path)))
    assert loaded_size <= 1.15 * merged_size, (loaded_size, merged_size)
