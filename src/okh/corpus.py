"""The synthetic storm-port corpus generator.

The generator produces byte-reproducible fact batches for storm:port
scenario groups. Each group reports one fact per within-horizon relation
family at every lead time, with attribute values that escalate as landfall
approaches, plus the cross-horizon change facts linking consecutive
snapshots. Ground-truth orderings and question-answer pairs come from the
same closed-form attribute schedules, so evaluation never depends on the
retrieval stack under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from okh.errors import SchemaError
from okh.hypergraph import (
    Hyperedge,
    KnowledgeHypergraph,
    _fold_segment,
    _optional_horizon,
    _require,
    canonical_entity_id,
    merge_facts,
)
from okh.relations import DEFAULT_VOCABULARY, CROSS_HORIZON_FAMILY

STORM_NAMES = (
    "Irma", "Katrina", "Harvey", "Maria", "Florence", "Michael", "Dorian",
    "Laura", "Ida", "Ian", "Fiona", "Nicole", "Idalia", "Beryl", "Helene",
    "Milton", "Otis", "Paloma", "Norma", "Tammy",
)
PORT_NAMES = (
    "Port Arthur", "Port Miami", "Port Houston", "Port Tampa", "Port Mobile",
    "Port Savannah", "Port Charleston", "Port Wilmington", "Port Jacksonville",
    "Port Canaveral", "Port Everglades", "Port Corpus Christi", "Port Pensacola",
    "Port Gulfport", "Port Key West", "Port Brunswick", "Port Morehead",
    "Port Galveston", "Port Lake Charles", "Port Fernandina",
)
ALL_HORIZONS = (120, 96, 72, 48, 24, 12)
# Question kinds; evaluation.extract_answer answers each one.
QA_KINDS = ("final_value", "escalation", "at_horizon")

_ADVISORY_LADDER = ("monitoring", "watch", "warning", "emergency")
_OPERATION_LADDER = ("open", "restricted", "closed_inbound", "closed_all")
_RECOVERY_LADDER = ("standby", "crews_mobilizing", "equipment_staged", "full_readiness")


@dataclass(frozen=True)
class QAItem:
    """One generated question with its schedule-derived expected answer."""

    question: str
    group_id: str
    kind: str  # one of QA_KINDS
    order_sensitivity: str  # order_sensitive | within_horizon
    attribute: str
    expected: str
    horizon: int | None = None
    numeric: bool = False

    @classmethod
    def from_dict(cls, raw: Any, path: str) -> "QAItem":
        """Read one item of a QA file, raising SchemaError at ``path.<field>``."""
        if not isinstance(raw, Mapping):
            raise SchemaError(path, "question must be an object")
        kind = _require(raw, "kind", str, path)
        if kind not in QA_KINDS:
            raise SchemaError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {QA_KINDS}")
        numeric = raw.get("numeric", False)
        if not isinstance(numeric, bool):
            raise SchemaError(f"{path}.numeric", f"expected bool, got {type(numeric).__name__}")
        return cls(
            question=_require(raw, "question", str, path),
            group_id=_require(raw, "group", str, path),
            kind=kind,
            order_sensitivity=_require(raw, "order_sensitivity", str, path),
            attribute=_require(raw, "attribute", str, path),
            expected=_require(raw, "expected", str, path),
            horizon=_optional_horizon(raw, path),
            numeric=numeric,
        )

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "group": self.group_id,
            "kind": self.kind,
            "order_sensitivity": self.order_sensitivity,
            "attribute": self.attribute,
            "expected": self.expected,
            "horizon": self.horizon,
            "numeric": self.numeric,
        }


@dataclass(frozen=True)
class GroupScenario:
    """Ground truth for one storm:port group."""

    group_id: str
    ground_truth: tuple[str, ...]


@dataclass
class GeneratedCorpus:
    facts: list[dict] = field(default_factory=list)
    qa: list[QAItem] = field(default_factory=list)
    scenarios: list[GroupScenario] = field(default_factory=list)

    def facts_jsonl(self) -> str:
        return "".join(
            json.dumps(fact, sort_keys=True, ensure_ascii=False) + "\n"
            for fact in self.facts
        )

    def qa_json(self) -> str:
        payload = [item.to_dict() for item in self.qa]
        return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _unique_name(pool: tuple[str, ...], index: int) -> str:
    base = pool[index % len(pool)]
    round_ = index // len(pool)
    return base if round_ == 0 else f"{base} {round_ + 1}"


def group_id_for(storm: str, port: str) -> str:
    """Group key STORM:port, folded like canonical entity id segments."""
    return f"{_fold_segment(storm, upper=True)}:{_fold_segment(port)}"


@dataclass(frozen=True)
class _Schedule:
    """Closed-form attribute values at horizon index t of H."""

    t: int
    horizons: tuple[int, ...]

    @property
    def _denom(self) -> int:
        return max(len(self.horizons) - 1, 1)

    @property
    def category(self) -> int:
        return (5 * self.t) // self._denom

    @property
    def max_wind_kt(self) -> int:
        return 25 + 20 * self.category

    @property
    def track_confidence_pct(self) -> int:
        return 40 + (55 * self.t) // self._denom

    @property
    def gale_probability_pct(self) -> int:
        return 10 + (85 * self.t) // self._denom

    @property
    def peak_gust_kt(self) -> int:
        return 30 + (70 * self.t) // self._denom

    @property
    def observed_gust_kt(self) -> int:
        return self.peak_gust_kt - 5

    @property
    def surge_height_ft(self) -> int:
        return 1 + (9 * self.t) // self._denom

    @property
    def predicted_downtime_days(self) -> int:
        return (10 * self.t) // self._denom

    def _ladder(self, ladder: tuple[str, ...]) -> str:
        return ladder[((len(ladder) - 1) * self.t) // self._denom]

    @property
    def advisory_status(self) -> str:
        return self._ladder(_ADVISORY_LADDER)

    @property
    def operation_status(self) -> str:
        return self._ladder(_OPERATION_LADDER)

    @property
    def recovery_status(self) -> str:
        return self._ladder(_RECOVERY_LADDER)

    @property
    def gale_threshold_exceeded(self) -> str:
        return "yes" if self.category >= 2 else "no"


def _entity(entity_id: str, name: str, entity_type: str) -> dict:
    return {"id": entity_id, "name": name, "type": entity_type}


def _group_facts(
    storm: str, port: str, group_id: str, horizons: tuple[int, ...]
) -> list[dict]:
    storm_ent = _entity(canonical_entity_id("storm", storm=storm), storm, "cyclone")
    port_ent = _entity(canonical_entity_id("port", port=port), port, "port")
    facts: list[dict] = []
    position = 0
    for t, h in enumerate(horizons):
        s = _Schedule(t, horizons)

        def state(kind: str, label: str, entity_type: str) -> dict:
            return _entity(
                canonical_entity_id(kind, storm=storm, port=port, horizon=h),
                f"{storm} {label} for {port} at T-{h}",
                entity_type,
            )

        storm_state = _entity(
            canonical_entity_id("cyclone_state", storm=storm, horizon=h),
            f"{storm} state at T-{h}",
            "cyclone_state",
        )
        rows = (
            (
                "has_category_state",
                [storm_ent, storm_state],
                f"At T-{h} hours {storm} is a category {s.category} cyclone"
                f" with sustained winds near {s.max_wind_kt} kt.",
                {"category": str(s.category), "max_wind_kt": str(s.max_wind_kt)},
            ),
            (
                "forecasts_track",
                [storm_ent, port_ent, state("track_fcst", "track forecast", "other")],
                f"At T-{h} hours the forecast track of {storm} points at {port}"
                f" with {s.track_confidence_pct} percent confidence.",
                {"track_confidence_pct": str(s.track_confidence_pct)},
            ),
            (
                "has_hours_to_landfall",
                [storm_ent, port_ent, state("landfall_eta", "landfall estimate", "other")],
                f"At T-{h} hours {storm} is expected to reach {port} in about {h} hours.",
                {"hours_to_landfall": str(h)},
            ),
            (
                "has_watch_status",
                [storm_ent, port_ent, state("advisory", "advisory level", "advisory_status")],
                f"At T-{h} hours the advisory level for {port} ahead of {storm}"
                f" is {s.advisory_status}.",
                {"advisory_status": s.advisory_status},
            ),
            (
                "has_leadtime_probability",
                [storm_ent, port_ent, state("gale_prob", "gale probability", "probability_state")],
                f"At T-{h} hours the probability of gale-force winds at {port}"
                f" from {storm} is {s.gale_probability_pct} percent.",
                {"gale_probability_pct": str(s.gale_probability_pct)},
            ),
            (
                "forecasts_hazard_at_horizon",
                [storm_ent, port_ent, state("wind_fcst", "wind forecast", "hazard_forecast")],
                f"At T-{h} hours forecasters expect peak gusts of {s.peak_gust_kt} kt"
                f" at {port} from {storm}.",
                {"peak_gust_kt": str(s.peak_gust_kt)},
            ),
            (
                "observes_hazard_at_horizon",
                [storm_ent, port_ent, state("wind_obs", "wind observation", "hazard_observation")],
                f"At T-{h} hours stations near {port} observe gusts of"
                f" {s.observed_gust_kt} kt as {storm} approaches.",
                {"observed_gust_kt": str(s.observed_gust_kt)},
            ),
            (
                "has_threshold_status",
                [storm_ent, port_ent, state("threshold", "gale threshold", "other")],
                f"At T-{h} hours the gale threshold at {port} is"
                f" {'exceeded' if s.gale_threshold_exceeded == 'yes' else 'not exceeded'}"
                f" under {storm}.",
                {"gale_threshold_exceeded": s.gale_threshold_exceeded},
            ),
            (
                "has_additional_hazard",
                [storm_ent, port_ent, state("surge_fcst", "surge forecast", "other")],
                f"At T-{h} hours storm surge of {s.surge_height_ft} ft is forecast"
                f" at {port} from {storm}.",
                {"surge_height_ft": str(s.surge_height_ft)},
            ),
            (
                "has_operation_status",
                [storm_ent, port_ent, state("ops_status", "operation status", "operation_status")],
                f"At T-{h} hours the operation status of {port} during {storm}"
                f" is {s.operation_status}.",
                {"operation_status": s.operation_status},
            ),
            (
                "has_impact_prediction",
                [storm_ent, port_ent, state("impact_fcst", "impact prediction", "impact_prediction")],
                f"At T-{h} hours analysts predict {s.predicted_downtime_days} days"
                f" of downtime at {port} due to {storm}.",
                {"predicted_downtime_days": str(s.predicted_downtime_days)},
            ),
            (
                "has_recovery_status",
                [storm_ent, port_ent, state("recovery", "recovery posture", "recovery_status")],
                f"At T-{h} hours the recovery posture of {port} for {storm}"
                f" is {s.recovery_status}.",
                {"recovery_status": s.recovery_status},
            ),
        )
        for relation, entities, evidence, attributes in rows:
            facts.append(
                {
                    "relation": relation,
                    "entities": entities,
                    "evidence": evidence,
                    "attributes": attributes,
                    "confidence": 1.0,
                    "group": group_id,
                    "horizon": h,
                    "text_position": position,
                }
            )
            position += 1
    return facts


def _effective_lead(edge: Hyperedge) -> float:
    if edge.horizon is not None:
        return float(edge.horizon)
    anchors = edge.anchor_horizons()
    return float(anchors[0]) if anchors else float("inf")


def _reference_order(edges: list[Hyperedge]) -> list[str]:
    """Closed-form expected ordering: lead desc, family, rank, position, id."""
    vocab = DEFAULT_VOCABULARY
    return [
        edge.id
        for edge in sorted(
            edges,
            key=lambda edge: (
                -_effective_lead(edge),
                edge.family,
                vocab.rank_in_family(edge.relation) if vocab.is_canonical(edge.relation) else 0,
                edge.text_position,
                edge.id,
            ),
        )
    ]


def _change_fact(edge: Hyperedge, graph: KnowledgeHypergraph) -> dict:
    entities = []
    for entity_id in sorted(edge.entity_ids):
        entity = graph.entities[entity_id]
        entities.append(_entity(entity.id, entity.name, entity.entity_type.value))
    return {
        "relation": edge.relation,
        "entities": entities,
        "evidence": edge.evidence,
        "attributes": dict(sorted(edge.attributes.items())),
        "confidence": 1.0,
        "group": edge.group_id,
        "horizon": None,
        "text_position": edge.text_position,
    }


def _group_qa(
    rng: random.Random,
    storm: str,
    port: str,
    group_id: str,
    horizons: tuple[int, ...],
) -> list[QAItem]:
    last = _Schedule(len(horizons) - 1, horizons)
    first = _Schedule(0, horizons)
    items = [
        QAItem(
            question=f"What is the latest reported storm category for {storm} near {port}?",
            group_id=group_id,
            kind="final_value",
            order_sensitivity="order_sensitive",
            attribute="category",
            expected=str(last.category),
        ),
        QAItem(
            question=f"What is the most recent operation status of {port} during {storm}?",
            group_id=group_id,
            kind="final_value",
            order_sensitivity="order_sensitive",
            attribute="operation_status",
            expected=last.operation_status,
        ),
        QAItem(
            question=f"Did the storm category of {storm} near {port} escalate over time?",
            group_id=group_id,
            kind="escalation",
            order_sensitivity="order_sensitive",
            attribute="category",
            expected="Yes" if last.category > first.category else "No",
        ),
        QAItem(
            question=f"Did the gale probability at {port} from {storm} escalate over time?",
            group_id=group_id,
            kind="escalation",
            order_sensitivity="order_sensitive",
            attribute="gale_probability_pct",
            expected="Yes" if last.gale_probability_pct > first.gale_probability_pct else "No",
        ),
    ]
    ops_h = rng.choice(horizons)
    gust_h = rng.choice(horizons)
    items.append(
        QAItem(
            question=f"What was the operation status of {port} during {storm} at T-{ops_h} hours?",
            group_id=group_id,
            kind="at_horizon",
            order_sensitivity="within_horizon",
            attribute="operation_status",
            expected=_Schedule(horizons.index(ops_h), horizons).operation_status,
            horizon=ops_h,
        )
    )
    items.append(
        QAItem(
            question=f"What peak gust in kt was forecast for {port} from {storm} at T-{gust_h} hours?",
            group_id=group_id,
            kind="at_horizon",
            order_sensitivity="within_horizon",
            attribute="peak_gust_kt",
            expected=str(_Schedule(horizons.index(gust_h), horizons).peak_gust_kt),
            horizon=gust_h,
            numeric=True,
        )
    )
    return items


def generate_synthetic(
    seed: int = 0,
    n_groups: int = 5,
    horizons_per_group: int = 3,
) -> GeneratedCorpus:
    """Generate a reproducible scenario corpus with QA and ground truth.

    The same seed and shape parameters always yield byte-identical facts and
    questions. Expected orderings are produced by a direct sort on (lead
    time, family, in-family rank, text position, id), independent of the
    precedence machinery they are used to check.

    The corpus is built in two passes. The first makes each group's
    horizons, facts and questions, group by group, so the random draws come
    in one fixed order and the corpus for n groups is a prefix of the one
    for n + 1. One `merge_facts` call then merges every group's facts, and
    the second pass reads each group's change facts and ground truth from
    that one graph. Groups share no edge and no entity but the canonical
    temporal anchors, so each group's edges are those a merge of its facts
    alone would give.
    """
    if not 1 <= horizons_per_group <= len(ALL_HORIZONS):
        raise ValueError(f"horizons_per_group must be in [1, {len(ALL_HORIZONS)}]")
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    rng = random.Random(seed)
    corpus = GeneratedCorpus()
    group_facts: list[tuple[str, list[dict]]] = []
    for i in range(n_groups):
        storm = _unique_name(STORM_NAMES, i)
        port = _unique_name(PORT_NAMES, i)
        group_id = group_id_for(storm, port)
        horizons = tuple(sorted(rng.sample(ALL_HORIZONS, k=horizons_per_group), reverse=True))
        group_facts.append((group_id, _group_facts(storm, port, group_id, horizons)))
        corpus.qa.extend(_group_qa(rng, storm, port, group_id, horizons))

    graph = merge_facts([facts for _, facts in group_facts])
    for group_id, facts in group_facts:
        group_edges = graph.group_edges(group_id)
        change_edges = sorted(
            (edge for edge in group_edges if edge.family == CROSS_HORIZON_FAMILY),
            key=lambda edge: (-_effective_lead(edge), edge.text_position, edge.id),
        )
        corpus.facts.extend(facts)
        corpus.facts.extend(_change_fact(edge, graph) for edge in change_edges)
        corpus.scenarios.append(
            GroupScenario(group_id=group_id, ground_truth=tuple(_reference_order(group_edges)))
        )
    return corpus
