"""Evidence rendering for retrieved trajectories.

Turns trajectories into ordered, human-readable evidence blocks: each step
names its horizon, phase and family, the relation and evidence text, the
reasoning link to the previous step, and the entities it touches.
"""

from __future__ import annotations

from dataclasses import dataclass

from okh.errors import UnknownEdge
from okh.hypergraph import Hyperedge, KnowledgeHypergraph
from okh.relations import CAUSAL_RULES, CROSS_HORIZON_FAMILY, phase_of_family
from okh.retrieval import Trajectory

_SCORE_KEYS = ("relevance", "coherence", "precedence", "continuity", "coverage")


@dataclass(frozen=True)
class EvidenceStep:
    """One rendered trajectory step with its link to the previous step."""

    index: int
    edge_id: str
    relation: str
    family: int
    horizon: int | None
    phase: str
    evidence: str
    entities: tuple[tuple[str, str], ...]
    reasoning: tuple[str, ...]


def _horizon_set(edge: Hyperedge) -> frozenset[int]:
    if edge.horizon is not None:
        return frozenset({edge.horizon})
    return frozenset(edge.anchor_horizons())


def _reasoning_tags(prev: Hyperedge, cur: Hyperedge) -> tuple[str, ...]:
    # Horizons and causal rules relate facts of one scenario only.
    if prev.group_id != cur.group_id:
        return ("cross_group",)
    tags: list[str] = []
    prev_h = _horizon_set(prev)
    cur_h = _horizon_set(cur)
    same_single = bool(prev_h) and prev_h == cur_h and len(prev_h) == 1
    if same_single:
        tags.append("within_horizon")
    elif prev_h and cur_h and prev_h != cur_h:
        tags.append("cross_horizon")
    if same_single:
        tags.extend(
            tag
            for sources, targets, tag in CAUSAL_RULES
            if prev.family in sources and cur.family in targets
        )
    if (
        cur.family == CROSS_HORIZON_FAMILY
        and prev.family < CROSS_HORIZON_FAMILY
        and prev.state_stems() & cur.state_stems()
    ):
        tags.append("family_to_change")
    return tuple(tags) if tags else ("none",)


def build_evidence_steps(
    steps: list[str], hypergraph: KnowledgeHypergraph
) -> list[EvidenceStep]:
    """Resolve trajectory step ids into renderable evidence records."""
    edges: list[Hyperedge] = []
    for step in steps:
        edge = hypergraph.hyperedges.get(step)
        if edge is None:
            raise UnknownEdge(f"hyperedge {step!r} is not in the graph")
        edges.append(edge)
    records = []
    for i, edge in enumerate(edges):
        entities = []
        for entity_id in sorted(edge.entity_ids):
            entity = hypergraph.entities.get(entity_id)
            if entity is None:
                entities.append((entity_id, "other"))
            else:
                entities.append((entity.name, entity.entity_type.value))
        reasoning = ("none",) if i == 0 else _reasoning_tags(edges[i - 1], edge)
        records.append(
            EvidenceStep(
                index=i + 1,
                edge_id=edge.id,
                relation=edge.relation,
                family=edge.family,
                horizon=edge.horizon,
                phase=phase_of_family(edge.family),
                evidence=edge.evidence,
                entities=tuple(entities),
                reasoning=reasoning,
            )
        )
    return records


def format_trajectory(
    trajectory: Trajectory,
    hypergraph: KnowledgeHypergraph,
) -> str:
    """Render a trajectory as an ordered evidence block."""
    lines: list[str] = []
    if trajectory.breakdown:
        terms = " ".join(
            f"{key}={trajectory.breakdown.get(key, 0.0):.4f}" for key in _SCORE_KEYS
        )
        lines.append(f"[Trajectory] total={trajectory.total_score:.4f} {terms}")
    for step in build_evidence_steps(trajectory.steps, hypergraph):
        horizon = f"T-{step.horizon}" if step.horizon is not None else "—"
        lines.append(
            f"[Step {step.index}] [{horizon}] [phase={step.phase}] [family={step.family}]"
        )
        lines.append(f"  Relation: {step.relation}")
        lines.append(f"  Evidence: {step.evidence}")
        lines.append(f"  Reasoning: {', '.join(step.reasoning)}")
        lines.append(
            "  Entities: "
            + "; ".join(f"{name} [{kind}]" for name, kind in step.entities)
        )
    return "\n".join(lines)
