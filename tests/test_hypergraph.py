import hashlib
import json

import pytest

from okh.errors import ConflictingHorizon, SchemaError
from okh.hashutil import content_key, fnv1a64
from okh.hypergraph import (
    Entity,
    Hyperedge,
    KnowledgeHypergraph,
    canonical_entity_id,
    dedup_id,
    entity_stem,
    horizon_anchor_id,
    inject_horizon,
    merge_facts,
    synthesize_cross_horizon,
    validate_fact,
)
from okh.relations import EntityType


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


def test_content_key_is_16_byte_blake2b():
    assert content_key("x") == hashlib.blake2b(b"x", digest_size=16).digest()
    assert len(content_key("anything at all")) == 16


def test_dedup_id_is_order_insensitive_and_hex():
    first = dedup_id("r", ["b", "a"], "ev")
    second = dedup_id("r", ["a", "b"], "ev")
    assert first == second
    payload = "r|a,b|ev".encode("utf-8")
    assert first == format(reference_fnv1a64(payload), "016x")


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


def _edge(relation="forecasts_hazard_at_horizon", ids=("a", "b"), evidence="ev", **kw):
    return Hyperedge.create(relation, ids, evidence, **kw)


def test_hyperedge_create_normalizes_relation_and_hashes_content():
    edge = _edge("Forecasts Hazard At Horizon")
    assert edge.relation == "forecasts_hazard_at_horizon"
    assert edge.family == 6
    assert edge.id == dedup_id("forecasts_hazard_at_horizon", {"a", "b"}, "ev")


def test_hyperedge_needs_two_entities():
    with pytest.raises(ValueError):
        _edge(ids=("solo",))


def test_anchor_horizons_sorted_descending():
    edge = _edge(ids=("x:T-48", horizon_anchor_id(12), horizon_anchor_id(96)))
    assert edge.anchor_horizons() == [96, 12]


def test_state_stems_exclude_anchors_and_plain_ids():
    edge = _edge(ids=("wind_fcst:IRMA:p:T-48", horizon_anchor_id(48), "port:p"))
    assert edge.state_stems() == frozenset({"wind_fcst:IRMA:p"})


def test_inject_horizon_adds_anchor_and_recomputes_id():
    edge = _edge()
    grounded = inject_horizon(edge, 48)
    assert horizon_anchor_id(48) in grounded.entity_ids
    assert grounded.horizon == 48
    assert grounded.id != edge.id
    assert grounded.id == dedup_id(edge.relation, grounded.entity_ids, edge.evidence)


def test_inject_horizon_is_idempotent():
    grounded = inject_horizon(_edge(), 48)
    again = inject_horizon(grounded, 48)
    assert again == grounded


def test_inject_horizon_rejects_conflicting_anchor():
    grounded = inject_horizon(_edge(), 48)
    with pytest.raises(ConflictingHorizon):
        inject_horizon(grounded, 24)


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


def test_synthesize_cross_horizon_links_consecutive_horizons():
    graph = merge_facts(
        [[_state_fact("wind_fcst", 72, 0), _state_fact("wind_fcst", 48, 1)]],
        synthesize=False,
    )
    changes = synthesize_cross_horizon(list(graph.hyperedges.values()))
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
    graph = merge_facts([facts], synthesize=False)
    changes = synthesize_cross_horizon(list(graph.hyperedges.values()))
    spans = sorted(
        (int(c.attributes["from_horizon"]), int(c.attributes["to_horizon"])) for c in changes
    )
    assert spans == [(48, 12), (96, 48)]


def test_synthesize_cross_horizon_rejects_mixed_groups():
    a = _edge(ids=("s:T-48", horizon_anchor_id(48)), group_id="g1", horizon=48)
    b = _edge(ids=("s:T-24", horizon_anchor_id(24)), evidence="other", group_id="g2", horizon=24)
    with pytest.raises(ValueError):
        synthesize_cross_horizon([a, b])


def test_merge_facts_deduplicates_identical_facts_across_batches():
    fact = _state_fact("wind_fcst", 48, 3)
    graph = merge_facts([[fact], [dict(fact)]], synthesize=False)
    assert len(graph.hyperedges) == 1


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


def test_merge_facts_derives_horizon_from_lone_anchor():
    fact = _state_fact("wind_fcst", 48, 0)
    fact["horizon"] = None
    fact["entities"].append({"id": horizon_anchor_id(48), "name": "T-48", "type": "horizon_time"})
    graph = merge_facts([[fact]], synthesize=False)
    edge = next(iter(graph.hyperedges.values()))
    assert edge.horizon == 48


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
        graph = merge_facts(batches, synthesize=False)
        assert graph.entities["port:p"].name == "Alpha"


def test_groups_index_lists_edges_sorted_by_id():
    facts = [_state_fact("wind_fcst", 72, 0), _state_fact("ops", 48, 1, relation="has_operation_status")]
    graph = merge_facts([facts], synthesize=False)
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
    graph = merge_facts([[_state_fact("wind_fcst", 48, 0)]], synthesize=False)
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


def test_snapshot_rejects_malformed_hyperedge_entries():
    graph = merge_facts([[_state_fact("wind_fcst", 48, 0)]], synthesize=False)
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
