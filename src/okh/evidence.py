"""Evidence rendering and answer aggregation for retrieved trajectories.

Turns trajectories into ordered, human-readable evidence blocks, assembles
multi-path prompts for a chat model, and reduces multiple model answers to
one (answer, confidence) pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from okh.embedding import post_json_with_retries
from okh.errors import ProviderError, UnknownEdge, UnparseableNumeric
from okh.hypergraph import Hyperedge, KnowledgeHypergraph
from okh.relations import CAUSAL_RULES, CROSS_HORIZON_FAMILY, phase_of_family
from okh.retrieval import Trajectory

CHAT_API_KEY_ENV = "OKH_CHAT_API_KEY"

_SCORE_KEYS = ("relevance", "coherence", "precedence", "continuity", "coverage")

_PROMPT_PREAMBLE = (
    "Read every evidence path below before answering. Each path is an ordered"
    " sequence of facts; earlier steps give context and later steps carry the"
    " most recent state. When several paths agree on a value, treat that"
    " agreement as supporting evidence."
)
_PROMPT_FOOTER = (
    'Respond with a single JSON object of the form {"answer": "<short answer>",'
    ' "confidence": <number between 0 and 1>, "rationale": "<one sentence>"}.'
)


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
    include_scores: bool = True,
) -> str:
    """Render a trajectory as an ordered evidence block."""
    lines: list[str] = []
    if include_scores and trajectory.breakdown:
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


def assemble_prompt(
    question: str,
    trajectories: list[Trajectory],
    hypergraph: KnowledgeHypergraph,
) -> str:
    """Build the multi-path question prompt, merging duplicate paths.

    Identical step sequences collapse into one path annotated with its
    multiplicity, preserving first-appearance order.
    """
    unique: list[tuple[tuple[str, ...], Trajectory, int]] = []
    position: dict[tuple[str, ...], int] = {}
    for trajectory in trajectories:
        key = tuple(trajectory.steps)
        if key in position:
            seen = unique[position[key]]
            unique[position[key]] = (seen[0], seen[1], seen[2] + 1)
        else:
            position[key] = len(unique)
            unique.append((key, trajectory, 1))

    parts = [_PROMPT_PREAMBLE, "", f"Question: {question}", ""]
    for i, (_, trajectory, count) in enumerate(unique, start=1):
        label = f"Path {i}:" if count == 1 else f"Path {i} [x{count}]:"
        parts.append(label)
        parts.append(format_trajectory(trajectory, hypergraph, include_scores=False))
        parts.append("")
    parts.append(_PROMPT_FOOTER)
    return "\n".join(parts)


@dataclass(frozen=True)
class AnswerRecord:
    """One model answer with its self-reported confidence."""

    answer: str
    confidence: float
    rationale: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")


def aggregate_answers(
    records: list[AnswerRecord], numeric: bool = False
) -> tuple[str, float]:
    """Reduce several answers to one.

    Categorical answers vote with summed confidence; the winner's share of
    the total mass becomes the aggregate confidence, and ties break toward
    the lexicographically smallest answer. Numeric answers average with
    confidence weights (plain mean if all weights are zero) and report the
    mean confidence.
    """
    if not records:
        raise ValueError("cannot aggregate zero answers")
    if numeric:
        values = []
        for record in records:
            try:
                values.append(float(record.answer))
            except ValueError as exc:
                raise UnparseableNumeric(
                    f"expected a numeric answer, got {record.answer!r}"
                ) from exc
        mass = sum(record.confidence for record in records)
        if mass > 0:
            mean = sum(v * r.confidence for v, r in zip(values, records)) / mass
        else:
            mean = sum(values) / len(values)
        confidence = sum(record.confidence for record in records) / len(records)
        return f"{mean:g}", confidence
    totals: dict[str, float] = {}
    for record in records:
        totals[record.answer] = totals.get(record.answer, 0.0) + record.confidence
    winner = min(totals, key=lambda answer: (-totals[answer], answer))
    mass = sum(totals.values())
    return winner, (totals[winner] / mass if mass > 0 else 0.0)


class ChatCompletionClient:
    """Minimal chat endpoint client returning structured answers.

    POSTs {"model", "messages"} to `{endpoint}/chat` and expects the reply
    body to be the answer object itself: {"answer", "confidence",
    "rationale"}.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        max_attempts: int = 3,
        timeout: float = 30.0,
    ):
        self.url = endpoint.rstrip("/") + "/chat"
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(CHAT_API_KEY_ENV, "")
        self.max_attempts = max_attempts
        self.timeout = timeout

    def complete(self, prompt: str) -> AnswerRecord:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        body = post_json_with_retries(
            self.url,
            payload,
            api_key=self.api_key,
            max_attempts=self.max_attempts,
            timeout=self.timeout,
        )
        try:
            return AnswerRecord(
                answer=str(body["answer"]),
                confidence=float(body["confidence"]),
                rationale=str(body.get("rationale", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(200, f"malformed chat reply: {body!r}"[:200]) from exc
