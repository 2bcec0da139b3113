"""Evaluation: ablation reports and the transition model's held-out order.

Each ablation variant retrieves trajectories for the generated questions
with some objective terms disabled (or with the learned transition model
replaced by the precedence heuristic, or with retrieved steps shuffled) and
reports mean score, Kendall tau against each group's ground-truth order
(``okh eval`` uses the precedence order), the structural term means, and
the accuracy of a deterministic answer oracle that reads attribute values
straight off the retrieved steps. ``forward_margins`` measures how strongly
the model prefers text order within groups it was not trained on.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from okh.corpus import GroupScenario, QAItem
from okh.embedding import EmbeddingStore
from okh.errors import ElementMismatch
from okh.hypergraph import KnowledgeHypergraph
from okh.retrieval import RetrievalWeights, Retriever, ScopeConfig, SearchConfig
from okh.transition import TransitionModel


def kendall_tau(first: Sequence[str], second: Sequence[str]) -> float:
    """Rank correlation between two orderings of the same distinct items."""
    if len(set(first)) != len(first) or len(set(second)) != len(second):
        raise ElementMismatch("orderings must not repeat items")
    if set(first) != set(second):
        raise ElementMismatch("orderings must cover the same items")
    n = len(first)
    if n < 2:
        return 1.0
    rank = {item: i for i, item in enumerate(second)}
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rank[first[i]] < rank[first[j]]:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


class AblationVariant(str, Enum):
    FULL = "full"
    SHUFFLED = "shuffled"
    NO_LAMBDA = "no_lambda"
    NO_MU = "no_mu"
    NO_NU = "no_nu"
    NO_RHO = "no_rho"
    NO_ORDER = "no_order"
    HEURISTIC_ORDER = "heuristic_order"


def variant_weights(
    variant: AblationVariant, base: RetrievalWeights = RetrievalWeights()
) -> RetrievalWeights:
    if variant is AblationVariant.NO_LAMBDA:
        return replace(base, lambda_coherence=0.0)
    if variant is AblationVariant.NO_MU:
        return replace(base, mu_precedence=0.0)
    if variant is AblationVariant.NO_NU:
        return replace(base, nu_continuity=0.0)
    if variant is AblationVariant.NO_RHO:
        return replace(base, rho_coverage=0.0)
    if variant is AblationVariant.NO_ORDER:
        return replace(base, lambda_coherence=0.0, mu_precedence=0.0)
    return base


def variant_transition(variant: AblationVariant) -> str:
    return "heuristic" if variant is AblationVariant.HEURISTIC_ORDER else "learned"


def extract_answer(
    steps: Sequence[str],
    hypergraph: KnowledgeHypergraph,
    qa: QAItem,
) -> str | None:
    """Read the answer for a generated question directly off trajectory steps.

    final_value takes the last in-group step carrying the attribute,
    escalation compares the first and last numeric readings, and at_horizon
    takes the value at the asked lead time. Returns None when the steps do
    not support the question.
    """
    edges = [
        hypergraph.hyperedges[step]
        for step in steps
        if step in hypergraph.hyperedges
        and hypergraph.hyperedges[step].group_id == qa.group_id
    ]
    if qa.kind == "final_value":
        value = None
        for edge in edges:
            value = edge.attributes.get(qa.attribute, value)
        return value
    if qa.kind == "escalation":
        readings = []
        for edge in edges:
            raw = edge.attributes.get(qa.attribute)
            if raw is None:
                continue
            try:
                readings.append(float(raw))
            except ValueError:
                continue
        if len(readings) < 2:
            return None
        return "Yes" if readings[-1] > readings[0] else "No"
    if qa.kind == "at_horizon":
        for edge in edges:
            if edge.horizon == qa.horizon and qa.attribute in edge.attributes:
                return edge.attributes[qa.attribute]
        return None
    raise ValueError(f"unknown question kind {qa.kind!r}")


@dataclass(frozen=True)
class AblationReport:
    variant: str
    n_queries: int
    mean_score: float
    mean_tau: float
    tau_samples: int
    mean_precedence: float
    mean_continuity: float
    mean_coverage: float
    oracle_accuracy: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def format_report_table(reports: Sequence[AblationReport]) -> str:
    header = (
        f"{'variant':<16} {'queries':>7} {'score':>9} {'tau':>7} "
        f"{'prec':>6} {'cont':>6} {'cov':>6} {'oracle':>7}"
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        lines.append(
            f"{report.variant:<16} {report.n_queries:>7d} {report.mean_score:>9.4f} "
            f"{report.mean_tau:>7.4f} {report.mean_precedence:>6.3f} "
            f"{report.mean_continuity:>6.3f} {report.mean_coverage:>6.3f} "
            f"{report.oracle_accuracy:>7.3f}"
        )
    return "\n".join(lines)


def _shuffled_steps(steps: list[str], seed: int, query_index: int) -> list[str]:
    if len(steps) < 2:
        return list(steps)
    rng = random.Random(f"{seed}:{query_index}:{len(steps)}")
    shuffled = list(steps)
    while shuffled == steps:
        rng.shuffle(shuffled)
    return shuffled


def run_ablation(
    retriever: Retriever,
    qa_items: Sequence[QAItem],
    scenarios: Sequence[GroupScenario],
    variant: AblationVariant,
    weights: RetrievalWeights = RetrievalWeights(),
    search: SearchConfig = SearchConfig(),
    scope: ScopeConfig = ScopeConfig(),
    seed: int = 0,
) -> AblationReport:
    """Retrieve the top trajectory per question under one ablation variant."""
    truth_of = {scenario.group_id: scenario.ground_truth for scenario in scenarios}
    active = variant_weights(variant, weights)
    transition = variant_transition(variant)

    totals = {"score": 0.0, "precedence": 0.0, "continuity": 0.0, "coverage": 0.0}
    tau_sum = 0.0
    tau_samples = 0
    correct = 0

    for query_index, qa in enumerate(qa_items):
        truth = truth_of.get(qa.group_id)
        if truth is None:
            raise ValueError(f"no scenario recorded for group {qa.group_id!r}")
        best = retriever.retrieve(qa.question, active, search, scope, qa.group_id, transition)[0]
        if variant is AblationVariant.SHUFFLED:
            shuffled = _shuffled_steps(best.steps, seed, query_index)
            best = retriever.score(qa.question, shuffled, active, scope, qa.group_id, transition)
        steps = best.steps
        totals["score"] += best.total_score
        totals["precedence"] += best.breakdown["precedence"]
        totals["continuity"] += best.breakdown["continuity"]
        totals["coverage"] += best.breakdown["coverage"]

        in_truth = set(truth)
        predicted = [eid for eid in steps if eid in in_truth]
        if len(predicted) >= 2:
            chosen = set(predicted)
            tau_sum += kendall_tau(predicted, [eid for eid in truth if eid in chosen])
            tau_samples += 1
        if extract_answer(steps, retriever.hypergraph, qa) == qa.expected:
            correct += 1

    n = max(len(qa_items), 1)
    return AblationReport(
        variant=variant.value,
        n_queries=len(qa_items),
        mean_score=totals["score"] / n,
        mean_tau=tau_sum / tau_samples if tau_samples else 0.0,
        tau_samples=tau_samples,
        mean_precedence=totals["precedence"] / n,
        mean_continuity=totals["continuity"] / n,
        mean_coverage=totals["coverage"] / n,
        oracle_accuracy=correct / n,
    )


def forward_margins(
    model: TransitionModel,
    store: EmbeddingStore,
    hypergraph: KnowledgeHypergraph,
    groups: Iterable[str],
) -> np.ndarray:
    """L[i, j] - L[j, i] over each group's edges in (text position, id) order.

    L is one ``model.logits`` call per group. Every pair i < j whose text
    positions differ contributes, group by group; a positive margin means
    the model prefers the text's order.
    """
    margins = []
    for group in groups:
        edges = sorted(hypergraph.group_edges(group), key=lambda e: (e.text_position, e.id))
        logits = model.logits(store.matrix[[store.row_of[edge.id] for edge in edges]])
        position = np.array([edge.text_position for edge in edges])
        i, j = np.nonzero(np.triu(position[:, None] != position[None, :], k=1))
        margins.append(logits[i, j] - logits[j, i])
    return np.concatenate([np.empty(0), *margins])
