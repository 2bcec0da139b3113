"""Relation vocabulary, semantic families, and phase mapping.

Relations are grouped into 13 numbered families. Families 1-12 describe
within-horizon statements ordered from situational context (cyclone state,
track, timing) through advisories, hazards, operations, and impacts to
recovery; family 13 holds the cross-horizon change relations that connect
states of the same entity at consecutive lead times.
"""

from __future__ import annotations

from enum import Enum


class EntityType(str, Enum):
    """Controlled vocabulary for hypergraph node types."""

    PORT = "port"
    CYCLONE = "cyclone"
    CYCLONE_STATE = "cyclone_state"
    OPERATION_STATUS = "operation_status"
    HAZARD_FORECAST = "hazard_forecast"
    HAZARD_OBSERVATION = "hazard_observation"
    ADVISORY_STATUS = "advisory_status"
    PROBABILITY_STATE = "probability_state"
    IMPACT_PREDICTION = "impact_prediction"
    RECOVERY_STATUS = "recovery_status"
    HORIZON_TIME = "horizon_time"
    OTHER = "other"

    @classmethod
    def parse(cls, raw: str) -> "EntityType":
        """Case-insensitive lookup; unrecognized strings fall back to OTHER."""
        try:
            return cls(str(raw).strip().lower())
        except ValueError:
            return cls.OTHER


CROSS_HORIZON_FAMILY = 13
FALLBACK_RELATION = "has_attribute"

# (family number, canonical relations in rank order)
_FAMILY_TABLE: tuple[tuple[int, tuple[str, ...]], ...] = (
    (1, ("has_cyclone_state", "has_category_state", "has_motion", FALLBACK_RELATION)),
    (2, ("forecasts_track", "forecasts_landfall")),
    (3, ("has_hours_to_landfall", "has_forecast_window")),
    (4, ("has_watch_status", "has_warning_status")),
    (5, ("has_leadtime_probability", "has_cumulative_probability")),
    (6, ("forecasts_hazard_at_horizon",)),
    (7, ("observes_hazard_at_horizon",)),
    (8, ("has_threshold_status",)),
    (9, ("has_additional_hazard",)),
    (10, ("has_operation_status", "affects_vessel_handling")),
    (11, ("has_impact_prediction", "causes_operational_disruption")),
    (12, ("has_recovery_status", "starts_recovery")),
    (13, ("forecast_updates_to", "intensifies_to", "changes_status_to", "changes_probability_to")),
)

# Phase labels used by trajectory coverage scoring. Families outside the six
# coverage phases all read as "other".
PHASE_BY_FAMILY: dict[int, str] = {
    4: "advisory",
    6: "hazard_forecast",
    7: "hazard_observation",
    10: "operation_status",
    11: "impact_prediction",
    12: "recovery_status",
}
COVERAGE_PHASES: tuple[str, ...] = tuple(
    PHASE_BY_FAMILY[family] for family in sorted(PHASE_BY_FAMILY)
)
COVERAGE_PHASE_INDEX: dict[str, int] = {phase: i for i, phase in enumerate(COVERAGE_PHASES)}

# Within-horizon causal chains as (source families, target families, tag):
# advisories precede hazard forecasts, hazard assessments precede operational
# decisions and impact predictions, and impact predictions precede recovery
# status. Precedence materializes them as DAG edges; evidence rendering names
# each consecutive step that follows one with its tag, in this order.
CAUSAL_RULES: tuple[tuple[tuple[int, ...], tuple[int, ...], str], ...] = (
    ((4,), (6,), "advisory_to_hazard"),
    ((6, 7), (10,), "hazard_to_operation"),
    ((6, 7), (11,), "hazard_to_impact"),
    ((11,), (12,), "impact_to_recovery"),
)

# Which change relation a given within-horizon family evolves through.
CHANGE_RELATION_BY_FAMILY: dict[int, str] = {
    1: "intensifies_to",
    4: "changes_status_to",
    5: "changes_probability_to",
    8: "changes_status_to",
    10: "changes_status_to",
    12: "changes_status_to",
}
DEFAULT_CHANGE_RELATION = "forecast_updates_to"

_ALIASES: dict[str, str] = {
    "closes_port": "has_operation_status",
}


def _fold(raw: str) -> str:
    return "_".join(str(raw).strip().lower().split())


def _tokens(name: str) -> frozenset[str]:
    return frozenset(name.replace("_", " ").split())


def _relation_tables(
    families: tuple[tuple[int, tuple[str, ...]], ...], aliases: dict[str, str]
) -> tuple[dict[str, int], dict[str, int], dict[str, str]]:
    """Family and rank per canonical relation, and the lookup from each folded name
    or alias; ``ValueError`` if a relation is in two families or an alias names none."""
    family_of: dict[str, int] = {}
    rank_of: dict[str, int] = {}
    for number, relations in families:
        for rank, relation in enumerate(relations, start=1):
            if relation in family_of:
                raise ValueError(f"relation {relation!r} assigned to two families")
            family_of[relation] = number
            rank_of[relation] = rank
    lookup = {name: name for name in family_of}
    for raw, canonical in aliases.items():
        if canonical not in family_of:
            raise ValueError(f"alias {raw!r} points at unknown relation {canonical!r}")
        lookup[_fold(raw)] = canonical
    return family_of, rank_of, lookup


# FAMILY_OF maps each canonical relation, and nothing else, to its family.
FAMILY_OF, _RANK_OF, _LOOKUP = _relation_tables(_FAMILY_TABLE, _ALIASES)
_TOKEN_INDEX = tuple(sorted((key, _tokens(key)) for key in _LOOKUP))


class RelationVocabulary:
    """Canonical relations, their families and ranks, and the alias map."""

    __slots__ = ()

    def is_canonical(self, relation: str) -> bool:
        return relation in FAMILY_OF

    def family(self, relation: str) -> int:
        return FAMILY_OF[relation]

    def rank_in_family(self, relation: str) -> int:
        return _RANK_OF[relation]

    def normalize(self, raw: str) -> tuple[str, int]:
        """Map a raw relation string to (canonical relation, family number).

        Resolution order: case/whitespace-folded exact match against canonical
        names and aliases, then best token-overlap match (Jaccard >= 0.5,
        ties broken by the lexicographically smallest alias), and finally the
        generic fallback relation. The function is total: every input maps to
        a relation with a family in 1-13.
        """
        # Every lookup key is already folded, and folding a folded name
        # changes nothing, so a key needs no folding.
        hit = _LOOKUP.get(raw) if raw.__class__ is str else None
        if hit is not None:
            return hit, FAMILY_OF[hit]
        folded = _fold(raw)
        hit = _LOOKUP.get(folded)
        if hit is not None:
            return hit, FAMILY_OF[hit]
        raw_tokens = _tokens(folded)
        if raw_tokens:
            best_key = None
            best_score = 0.0
            for key, key_tokens in _TOKEN_INDEX:
                union = len(raw_tokens | key_tokens)
                if union == 0:
                    continue
                score = len(raw_tokens & key_tokens) / union
                if score > best_score:
                    best_key, best_score = key, score
            if best_key is not None and best_score >= 0.5:
                hit = _LOOKUP[best_key]
                return hit, FAMILY_OF[hit]
        return FALLBACK_RELATION, FAMILY_OF[FALLBACK_RELATION]


DEFAULT_VOCABULARY = RelationVocabulary()


def phase_of_family(family: int) -> str:
    return PHASE_BY_FAMILY.get(family, "other")


def change_relation_for_family(family: int) -> str:
    return CHANGE_RELATION_BY_FAMILY.get(family, DEFAULT_CHANGE_RELATION)
