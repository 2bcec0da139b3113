import pytest

from okh.relations import (
    COVERAGE_PHASES,
    CROSS_HORIZON_FAMILY,
    DEFAULT_VOCABULARY,
    EntityType,
    _ALIASES,
    _FAMILY_TABLE,
    _LOOKUP,
    _fold,
    _relation_tables,
    change_relation_for_family,
    phase_of_family,
)


def test_canonical_relations_map_to_themselves():
    assert DEFAULT_VOCABULARY.normalize("forecasts_hazard_at_horizon") == ("forecasts_hazard_at_horizon", 6)
    assert DEFAULT_VOCABULARY.normalize("has_operation_status") == ("has_operation_status", 10)
    assert DEFAULT_VOCABULARY.normalize("intensifies_to") == ("intensifies_to", CROSS_HORIZON_FAMILY)


def test_normalize_folds_case_and_whitespace():
    assert DEFAULT_VOCABULARY.normalize("Has Operation Status") == ("has_operation_status", 10)
    assert DEFAULT_VOCABULARY.normalize("  FORECASTS_TRACK  ") == ("forecasts_track", 2)


def test_lookup_keys_are_folded_so_normalize_may_skip_folding_them():
    # `normalize` returns a lookup key's entry without folding it first.
    for key in _LOOKUP:
        assert _fold(key) == key


def test_default_alias_resolves():
    assert DEFAULT_VOCABULARY.normalize("closes_port") == ("has_operation_status", 10)


def test_fuzzy_match_needs_half_token_overlap():
    # {forecasts, hazard} vs {forecasts, hazard, at, horizon} is exactly 0.5.
    assert DEFAULT_VOCABULARY.normalize("forecasts hazard") == ("forecasts_hazard_at_horizon", 6)
    # One shared token out of five is below the threshold.
    assert DEFAULT_VOCABULARY.normalize("hazard of some other kind entirely")[0] != "forecasts_hazard_at_horizon"


def test_fuzzy_tie_breaks_lexicographically():
    # "forecasts" ties forecasts_landfall and forecasts_track at 1/2.
    assert DEFAULT_VOCABULARY.normalize("forecasts") == ("forecasts_landfall", 2)


def test_unknown_relation_falls_back_to_attribute_family():
    relation, family = DEFAULT_VOCABULARY.normalize("xyzzy")
    assert relation == "has_attribute"
    assert family == 1


def test_empty_relation_falls_back():
    assert DEFAULT_VOCABULARY.normalize("")[0] == "has_attribute"


def test_every_canonical_relation_has_family_in_range():
    for _, relations in _FAMILY_TABLE:
        for relation in relations:
            assert 1 <= DEFAULT_VOCABULARY.family(relation) <= 13


def test_rank_in_family_follows_declaration_order():
    assert DEFAULT_VOCABULARY.rank_in_family("has_cyclone_state") == 1
    assert DEFAULT_VOCABULARY.rank_in_family("has_category_state") == 2
    assert DEFAULT_VOCABULARY.rank_in_family("has_attribute") == 4
    assert DEFAULT_VOCABULARY.rank_in_family("forecasts_hazard_at_horizon") == 1


def test_phase_of_family_covers_the_six_phases():
    assert phase_of_family(4) == "advisory"
    assert phase_of_family(6) == "hazard_forecast"
    assert phase_of_family(7) == "hazard_observation"
    assert phase_of_family(10) == "operation_status"
    assert phase_of_family(11) == "impact_prediction"
    assert phase_of_family(12) == "recovery_status"
    assert set(COVERAGE_PHASES) == {
        "advisory",
        "hazard_forecast",
        "hazard_observation",
        "operation_status",
        "impact_prediction",
        "recovery_status",
    }


def test_families_outside_coverage_read_as_other():
    for family in (1, 2, 3, 5, 8, 9, 13):
        assert phase_of_family(family) == "other"


def test_change_relation_per_family():
    assert change_relation_for_family(1) == "intensifies_to"
    assert change_relation_for_family(5) == "changes_probability_to"
    assert change_relation_for_family(10) == "changes_status_to"
    assert change_relation_for_family(6) == "forecast_updates_to"
    assert change_relation_for_family(9) == "forecast_updates_to"


def test_extended_vocabulary_rejects_unknown_target():
    with pytest.raises(ValueError):
        _relation_tables(_FAMILY_TABLE, {**_ALIASES, "x": "not_a_relation"})


def test_entity_type_parse_is_case_insensitive_with_fallback():
    assert EntityType.parse("Port") is EntityType.PORT
    assert EntityType.parse("HAZARD_FORECAST") is EntityType.HAZARD_FORECAST
    assert EntityType.parse("mystery kind") is EntityType.OTHER


def test_duplicate_relation_across_families_rejected():
    families = (
        (1, ("rel_one",)),
        (2, ("rel_one",)),
    )
    with pytest.raises(ValueError):
        _relation_tables(families, {})
