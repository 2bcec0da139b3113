"""Trajectory retrieval: candidate scoping, beam search, and exact DP.

A trajectory is an ordered sequence of hyperedges scored by query relevance
plus weighted coherence (learned transition log-probability), precedence
consistency, entity continuity, and phase coverage. Beam search explores
distinct-step trajectories with a diversity penalty; the Viterbi recurrence
gives the exact optimum of the two-term relaxation for oracle checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from okh.embedding import EmbeddingStore
from okh.errors import EmptyCorpus, UnknownEdge
from okh.hypergraph import Hyperedge, KnowledgeHypergraph
from okh.precedence import Order, PrecedenceIndex
from okh.relations import COVERAGE_PHASES, phase_of_family
from okh.transition import TransitionModel

HEURISTIC_FORWARD = 0.0
HEURISTIC_UNRELATED = -1.0
HEURISTIC_BACKWARD = -5.0

_PHASE_INDEX = {phase: i for i, phase in enumerate(COVERAGE_PHASES)}
_N_PHASES = len(COVERAGE_PHASES)


@dataclass(frozen=True)
class RetrievalWeights:
    """Objective weights: coherence, precedence, continuity, coverage."""

    lambda_coherence: float = 1.2
    mu_precedence: float = 0.3
    nu_continuity: float = 0.2
    rho_coverage: float = 0.5

    def __post_init__(self) -> None:
        for name in ("lambda_coherence", "mu_precedence", "nu_continuity", "rho_coverage"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 8
    trajectory_length: int = 4
    num_trajectories: int = 3
    diversity_overlap_threshold: float = 0.5
    diversity_penalty: float = 0.5

    def __post_init__(self) -> None:
        if self.beam_width < 1 or self.trajectory_length < 1 or self.num_trajectories < 1:
            raise ValueError("beam width, trajectory length, and path count must be >= 1")
        if not 0.0 <= self.diversity_overlap_threshold <= 1.0:
            raise ValueError("diversity overlap threshold must be in [0, 1]")
        if self.diversity_penalty < 0:
            raise ValueError("diversity penalty must be non-negative")


@dataclass(frozen=True)
class ScopeConfig:
    top_k: int = 80
    pool_cap: int = 150
    group_reserve_fraction: float = 0.40

    def __post_init__(self) -> None:
        if self.top_k < 1 or self.pool_cap < 1:
            raise ValueError("top_k and pool_cap must be >= 1")
        if not 0.0 <= self.group_reserve_fraction <= 1.0:
            raise ValueError("group reserve fraction must be in [0, 1]")


@dataclass
class Trajectory:
    """Ordered hyperedge steps with the total score and its raw terms."""

    steps: list[str]
    total_score: float
    breakdown: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "steps": list(self.steps),
            "total": self.total_score,
            "breakdown": dict(sorted(self.breakdown.items())),
        }


def jaccard(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def precedence_consistency(steps: Sequence[str], precedence: PrecedenceIndex) -> float:
    """Fraction of comparable consecutive pairs that run in forward order.

    Pairs the partial order says nothing about are excluded from the
    denominator; a trajectory with no comparable pair scores 0.
    """
    forward = 0
    comparable = 0
    for first, second in zip(steps, steps[1:]):
        order = precedence.precedes(first, second)
        if order is Order.BEFORE:
            forward += 1
            comparable += 1
        elif order is Order.AFTER:
            comparable += 1
    return forward / comparable if comparable else 0.0


def entity_continuity(steps: Sequence[str], hypergraph: KnowledgeHypergraph) -> float:
    """Mean Jaccard overlap of consecutive entity sets; 0 for single steps."""
    if len(steps) < 2:
        return 0.0
    edges = [_edge(hypergraph, step) for step in steps]
    overlaps = [
        jaccard(prev.entity_ids, cur.entity_ids) for prev, cur in zip(edges, edges[1:])
    ]
    return float(sum(overlaps) / len(overlaps))


def phase_coverage(steps: Sequence[str], hypergraph: KnowledgeHypergraph) -> float:
    """Fraction of the six coverage phases visited by the trajectory."""
    seen = set()
    for step in steps:
        phase = phase_of_family(_edge(hypergraph, step).family)
        if phase in _PHASE_INDEX:
            seen.add(phase)
    return len(seen) / _N_PHASES


def _edge(hypergraph: KnowledgeHypergraph, edge_id: str) -> Hyperedge:
    edge = hypergraph.hyperedges.get(edge_id)
    if edge is None:
        raise UnknownEdge(f"hyperedge {edge_id!r} is not in the graph")
    return edge


def trajectory_score(
    steps: Sequence[str],
    relevance_of: Callable[[str], float],
    transition_of: Callable[[str, str], float],
    precedence: PrecedenceIndex,
    hypergraph: KnowledgeHypergraph,
    weights: RetrievalWeights,
) -> tuple[float, dict[str, float]]:
    """Total objective value of a trajectory plus its raw term breakdown.

    Sums are exactly rounded (math.fsum) so trajectories that are equal as
    step multisets score bit-identically regardless of visit order; ranking
    ties then fall through to the explicit tie-break instead of summation
    noise.
    """
    relevance = math.fsum(relevance_of(step) for step in steps)
    coherence = math.fsum(
        transition_of(prev, cur) for prev, cur in zip(steps, steps[1:])
    )
    precedence_term = precedence_consistency(steps, precedence)
    continuity = entity_continuity(steps, hypergraph)
    coverage = phase_coverage(steps, hypergraph)
    total = math.fsum(
        (
            relevance,
            weights.lambda_coherence * coherence,
            weights.mu_precedence * precedence_term,
            weights.nu_continuity * continuity,
            weights.rho_coverage * coverage,
        )
    )
    breakdown = {
        "relevance": relevance,
        "coherence": coherence,
        "precedence": precedence_term,
        "continuity": continuity,
        "coverage": coverage,
    }
    return total, breakdown


def scope_candidates(
    query_vector: np.ndarray,
    hypergraph: KnowledgeHypergraph,
    store: EmbeddingStore,
    config: ScopeConfig = ScopeConfig(),
    query_group: str | None = None,
) -> list[str]:
    """Bounded candidate pool: relevance seeds, graph expansion, group reserve.

    The top-k edges by cosine seed the pool, expanded with every edge from a
    seed's group and every edge sharing an entity with a seed. When the
    query's group is known, a fixed share of the pool is reserved for that
    group's most relevant edges before the remainder fills by relevance.
    Ties always break on edge id.
    """
    if not hypergraph.hyperedges:
        raise EmptyCorpus("candidate scoping needs a non-empty hypergraph")
    relevance = store.relevance(query_vector)
    rel = relevance.tolist()
    row_of = store.row_of

    def best(ids: Iterable[str], k: int) -> list[str]:
        """The first k of ``ids`` in (-relevance, id) order."""
        ids = list(ids)
        if 0 < k < len(ids):
            # Each of the k best scores at least the k-th largest value, so
            # only those ids need the exact sort.
            values = relevance[[row_of[eid] for eid in ids]]
            kth = np.partition(values, len(ids) - k)[len(ids) - k]
            ids = [ids[i] for i in np.flatnonzero(values >= kth).tolist()]
        return sorted(ids, key=lambda eid: (-rel[row_of[eid]], eid))[:k]

    seeds = best(store.ids, config.top_k)

    pool = set(seeds)
    for group in {_edge(hypergraph, seed).group_id for seed in seeds}:
        pool.update(hypergraph.groups.get(group, ()))
    entity_index = hypergraph.edges_by_entity
    for seed in seeds:
        for entity_id in _edge(hypergraph, seed).entity_ids:
            pool.update(entity_index.get(entity_id, ()))

    if query_group is not None and query_group in hypergraph.groups:
        reserve = math.ceil(config.group_reserve_fraction * config.pool_cap)
        chosen = set(best(hypergraph.groups[query_group], reserve))
        chosen.update(best(pool - chosen, max(config.pool_cap - len(chosen), 0)))
        return best(chosen, len(chosen))
    return best(pool, config.pool_cap)


class _CandidateContext:
    """Per-query precomputation shared by the search loops."""

    def __init__(
        self,
        query_vector: np.ndarray,
        candidate_ids: Sequence[str],
        hypergraph: KnowledgeHypergraph,
        store: EmbeddingStore,
        precedence: PrecedenceIndex,
        log_transition: np.ndarray,
    ):
        self.ids = list(candidate_ids)
        n = len(self.ids)
        if log_transition.shape != (n, n):
            raise ValueError("transition matrix must align with the candidate list")
        self.log_transition = log_transition
        rows = np.stack([store.vector(eid) for eid in self.ids]) if n else np.zeros((0, store.dim))
        self.relevance = rows @ np.asarray(query_vector, dtype=np.float64)

        self.edges = [_edge(hypergraph, eid) for eid in self.ids]
        entity_universe: dict[str, int] = {}
        member_rows: list[int] = []
        member_cols: list[int] = []
        for row, edge in enumerate(self.edges):
            for entity_id in edge.entity_ids:
                member_rows.append(row)
                member_cols.append(entity_universe.setdefault(entity_id, len(entity_universe)))
        incidence = np.zeros((n, len(entity_universe)), dtype=np.float64)
        incidence[member_rows, member_cols] = 1.0
        # Entity-set Jaccard of every candidate pair. Counts are small
        # integers, so each quotient is correctly rounded like Python's int
        # division; every hyperedge has at least two entities, so no union
        # is empty.
        inter = incidence @ incidence.T
        sizes = incidence.sum(axis=1)
        self.jaccard = inter / (sizes[:, None] + sizes[None, :] - inter)
        self.phase_index = np.array(
            [_PHASE_INDEX.get(phase_of_family(edge.family), -1) for edge in self.edges],
            dtype=np.int64,
        )
        # 1.0 where the row's edge must precede the column's edge.
        self.reach = precedence.reach_matrix(self.ids).astype(np.float64)
        # Tie-break piece per candidate: higher relevance first, then id.
        self.tie_piece = [(-float(self.relevance[i]), self.ids[i]) for i in range(n)]


@dataclass
class _Beam:
    run_score: float
    tie: tuple
    steps: tuple[int, ...]
    used: int
    covered: int
    last: int
    # Per-step score increments; run_score is their exactly-rounded sum so
    # beams over the same step multiset tie instead of diverging by ulps.
    pieces: tuple[float, ...] = ()


def _greedy_diverse_select(
    entries: list[tuple[float, tuple, _Beam]],
    limit: int,
    threshold: float,
    penalty: float,
) -> list[tuple[float, _Beam]]:
    """Keep the best `limit` entries, penalizing near-duplicates of kept ones.

    Entries arrive as (score, tie, beam). Each candidate whose step overlap
    with an already-kept, higher-ranked beam exceeds the threshold has the
    penalty subtracted before the final comparison.
    """
    entries.sort(key=lambda item: (-item[0], item[1]))
    selected: list[tuple[float, tuple, _Beam]] = []
    worst = 0  # index of the lowest-ranked kept entry once the set is full

    for score, tie, beam in entries:
        if len(selected) == limit and score < selected[worst][0]:
            # Sorted input: this and every later entry loses to the kept
            # set even before any penalty.
            break
        length = max(len(beam.steps), 1)
        penalized = score
        if penalty > 0:
            for _, _, kept in selected:
                shared = (beam.used & kept.used).bit_count() / length
                if shared > threshold:
                    penalized = score - penalty
                    break
        if len(selected) < limit:
            selected.append((penalized, tie, beam))
        elif (-penalized, tie) < (-selected[worst][0], selected[worst][1]):
            selected[worst] = (penalized, tie, beam)
        else:
            continue
        if len(selected) == limit:
            worst = max(range(limit), key=lambda k: (-selected[k][0], selected[k][1]))
    selected.sort(key=lambda item: (-item[0], item[1]))
    return [(score, beam) for score, _, beam in selected]


def beam_search(
    query_vector: np.ndarray,
    candidate_ids: Sequence[str],
    hypergraph: KnowledgeHypergraph,
    store: EmbeddingStore,
    precedence: PrecedenceIndex,
    log_transition: np.ndarray,
    weights: RetrievalWeights = RetrievalWeights(),
    config: SearchConfig = SearchConfig(),
) -> list[Trajectory]:
    """Beam search over distinct-step trajectories.

    Beams start from the top 2B singletons by relevance. Each round scores
    every unused candidate with relevance, weighted transition
    log-probability, a precedence bonus for forward-reachable steps, entity
    continuity with the previous step, and the marginal phase coverage gain.
    Retention keeps the best B beams after the diversity penalty. The final
    trajectories are re-scored with the exact objective, where precedence
    and continuity are normalized over the whole trajectory.

    A round scores every (beam, candidate) extension at once as one
    (beams x candidates) array and adds each beam's running score, with
    used candidates at -inf. Only extensions whose float sum is at least
    S - diversity_penalty - 2 eps become beams with an exactly rounded
    (fsum) score and a tie-break key, where S is the B-th best float sum
    and eps bounds the float-sum error. The shortlist is exact: once the
    diversity selection holds B beams, its worst penalized score is at
    least the B-th best exact score minus the penalty, and its sorted loop
    stops before any extension below that.

    ``log_transition[i, j]`` scores a step from candidate i to candidate j;
    ``Retriever.transition_matrix`` builds it.
    """
    ctx = _CandidateContext(
        query_vector, candidate_ids, hypergraph, store, precedence, log_transition
    )
    n = len(ctx.ids)
    if n == 0:
        return []

    def singleton(i: int) -> _Beam:
        phase = int(ctx.phase_index[i])
        covered = 1 << phase if phase >= 0 else 0
        gain = weights.rho_coverage / _N_PHASES if phase >= 0 else 0.0
        piece = float(ctx.relevance[i]) + gain
        return _Beam(
            run_score=piece,
            tie=(ctx.tie_piece[i],),
            steps=(i,),
            used=1 << i,
            covered=covered,
            last=i,
            pieces=(piece,),
        )

    by_relevance = sorted(range(n), key=lambda i: ctx.tie_piece[i])
    beams = [singleton(i) for i in by_relevance[: 2 * config.beam_width]]
    has_phase = ctx.phase_index >= 0
    phase_shift = np.maximum(ctx.phase_index, 0)
    phase_bit = [1 << phase if phase >= 0 else 0 for phase in ctx.phase_index.tolist()]
    keep = config.beam_width

    for _ in range(config.trajectory_length - 1):
        # Every extension's step score, one row per beam; the elementwise
        # expression is the one a single beam's row would use.
        last = [beam.last for beam in beams]
        scores = (
            ctx.relevance
            + weights.lambda_coherence * ctx.log_transition[last]
            + weights.mu_precedence * ctx.reach[last]
            + weights.nu_continuity * ctx.jaccard[last]
        )
        if weights.rho_coverage:
            covered = np.array([[beam.covered] for beam in beams], dtype=np.int64)
            new_phase = has_phase & ((covered >> phase_shift) & 1 == 0)
            scores = scores + weights.rho_coverage * new_phase / _N_PHASES
        run = np.array([beam.run_score for beam in beams])
        used = np.zeros(scores.shape, dtype=bool)
        used[np.arange(len(beams))[:, None], [beam.steps for beam in beams]] = True
        approx = np.where(used, -np.inf, run[:, None] + scores)

        # Only the extensions the diversity selection can visit become
        # beams (see the docstring). eps bounds the gap between an entry's
        # float sum and its fsum: both lie within a few ulps of
        # max|run| + max|step|. A non-finite cut keeps every extension.
        cut = -math.inf
        if approx.size > keep:
            best = float(np.partition(approx, approx.size - keep, axis=None)[approx.size - keep])
            scale = float(np.abs(run).max() + np.abs(scores).max())
            cut = best - config.diversity_penalty - 2e-9 * (1.0 + abs(best) + scale)
        rows, cols = np.nonzero(approx >= cut if math.isfinite(cut) else ~used)

        extensions: list[tuple[float, tuple, _Beam]] = []
        for b, j, piece in zip(rows.tolist(), cols.tolist(), scores[rows, cols].tolist()):
            beam = beams[b]
            pieces = beam.pieces + (piece,)
            run_score = math.fsum(pieces)
            tie = beam.tie + (ctx.tie_piece[j],)
            extension = _Beam(
                run_score,
                tie,
                beam.steps + (j,),
                beam.used | 1 << j,
                beam.covered | phase_bit[j],
                j,
                pieces,
            )
            extensions.append((run_score, tie, extension))
        if not extensions:
            break
        beams = [
            beam
            for _, beam in _greedy_diverse_select(
                extensions,
                config.beam_width,
                config.diversity_overlap_threshold,
                config.diversity_penalty,
            )
        ]

    rel_of = {eid: float(ctx.relevance[i]) for i, eid in enumerate(ctx.ids)}
    index_of = {eid: i for i, eid in enumerate(ctx.ids)}

    def transition_of(prev: str, cur: str) -> float:
        return float(ctx.log_transition[index_of[prev], index_of[cur]])

    finals = []
    scored: dict[tuple[int, ...], Trajectory] = {}
    for beam in beams:
        steps = [ctx.ids[i] for i in beam.steps]
        total, breakdown = trajectory_score(
            steps, rel_of.__getitem__, transition_of, precedence, hypergraph, weights
        )
        scored[beam.steps] = Trajectory(steps, total, breakdown)
        finals.append((total, beam.tie, _Beam(total, beam.tie, beam.steps, beam.used, beam.covered, beam.last)))
    chosen = _greedy_diverse_select(
        finals,
        config.num_trajectories,
        config.diversity_overlap_threshold,
        config.diversity_penalty,
    )
    return [scored[beam.steps] for _, beam in chosen]


def viterbi(
    query_vector: np.ndarray,
    candidate_ids: Sequence[str],
    store: EmbeddingStore,
    log_transition: np.ndarray,
    lambda_coherence: float,
    length: int,
    no_repeat: bool = False,
) -> Trajectory:
    """Exact optimum of relevance plus weighted transition log-probability.

    The recurrence as written permits revisiting a candidate; `no_repeat`
    switches to an exact visited-set dynamic program intended for small
    oracle instances only. Score ties resolve toward the lexicographically
    smallest id sequence.
    """
    ids = list(candidate_ids)
    n = len(ids)
    if n == 0:
        raise EmptyCorpus("viterbi needs at least one candidate")
    rows = np.stack([store.vector(eid) for eid in ids])
    relevance = rows @ np.asarray(query_vector, dtype=np.float64)

    if no_repeat:
        if n > 22:
            raise ValueError("the no-repeat oracle is for small candidate sets only")
        best = _viterbi_no_repeat(ids, relevance, log_transition, lambda_coherence, length)
    else:
        best = _viterbi_repeats(ids, relevance, log_transition, lambda_coherence, length)
    score, steps = best
    rel_sum = float(sum(relevance[ids.index(step)] for step in steps))
    coh_sum = float(
        sum(
            log_transition[ids.index(prev), ids.index(cur)]
            for prev, cur in zip(steps, steps[1:])
        )
    )
    breakdown = {
        "relevance": rel_sum,
        "coherence": coh_sum,
        "precedence": 0.0,
        "continuity": 0.0,
        "coverage": 0.0,
    }
    return Trajectory(list(steps), score, breakdown)


def _viterbi_repeats(
    ids: list[str],
    relevance: np.ndarray,
    log_transition: np.ndarray,
    lam: float,
    length: int,
) -> tuple[float, tuple[str, ...]]:
    n = len(ids)
    states: list[tuple[float, tuple[str, ...]]] = [
        (float(relevance[j]), (ids[j],)) for j in range(n)
    ]
    for _ in range(length - 1):
        nxt: list[tuple[float, tuple[str, ...]]] = []
        for j in range(n):
            best: tuple[float, tuple[str, ...]] | None = None
            for i in range(n):
                score = (states[i][0] + float(relevance[j])) + lam * float(
                    log_transition[i, j]
                )
                cand = (score, states[i][1] + (ids[j],))
                if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
                    best = cand
            nxt.append(best)
        states = nxt
    return min(states, key=lambda state: (-state[0], state[1]))


def _viterbi_no_repeat(
    ids: list[str],
    relevance: np.ndarray,
    log_transition: np.ndarray,
    lam: float,
    length: int,
) -> tuple[float, tuple[str, ...]]:
    n = len(ids)
    length = min(length, n)
    states: dict[tuple[int, int], tuple[float, tuple[str, ...]]] = {
        (1 << j, j): (float(relevance[j]), (ids[j],)) for j in range(n)
    }
    for _ in range(length - 1):
        nxt: dict[tuple[int, int], tuple[float, tuple[str, ...]]] = {}
        for (mask, i), (score, seq) in states.items():
            for j in range(n):
                if mask >> j & 1:
                    continue
                cand = (
                    (score + float(relevance[j])) + lam * float(log_transition[i, j]),
                    seq + (ids[j],),
                )
                key = (mask | 1 << j, j)
                cur = nxt.get(key)
                if cur is None or (-cand[0], cand[1]) < (-cur[0], cur[1]):
                    nxt[key] = cand
        states = nxt
    return min(states.values(), key=lambda state: (-state[0], state[1]))


@dataclass
class Retriever:
    """Bundles a hypergraph, its embeddings, precedence, and the model."""

    hypergraph: KnowledgeHypergraph
    store: EmbeddingStore
    precedence: PrecedenceIndex
    model: TransitionModel

    def transition_matrix(self, candidate_ids: Sequence[str], kind: str = "learned") -> np.ndarray:
        """Log-transition matrix over a candidate list, as beam search takes it.

        ``learned`` is the model's row-wise log-softmax over the candidates;
        ``heuristic`` is the rule-derived stand-in from the precedence DAG:
        forward 0, unrelated -1, backward -5.
        """
        if kind == "learned":
            rows = np.stack([self.store.vector(eid) for eid in candidate_ids])
            return self.model.log_transition_matrix(rows)
        if kind == "heuristic":
            reach = self.precedence.reach_matrix(candidate_ids)
            return np.where(
                reach,
                HEURISTIC_FORWARD,
                np.where(reach.T, HEURISTIC_BACKWARD, HEURISTIC_UNRELATED),
            )
        raise ValueError(f"unknown transition kind {kind!r}; expected 'learned' or 'heuristic'")

    def _scoped(
        self,
        query_vector: np.ndarray,
        scope: ScopeConfig,
        query_group: str | None,
        transition: str,
    ) -> tuple[list[str], np.ndarray]:
        """Candidate pool for a query and its log-transition matrix."""
        candidates = scope_candidates(query_vector, self.hypergraph, self.store, scope, query_group)
        return candidates, self.transition_matrix(candidates, transition)

    def retrieve(
        self,
        query: str | np.ndarray,
        weights: RetrievalWeights = RetrievalWeights(),
        search: SearchConfig = SearchConfig(),
        scope: ScopeConfig = ScopeConfig(),
        query_group: str | None = None,
        transition: str = "learned",
    ) -> list[Trajectory]:
        """Scope the candidates, build their transition matrix, and beam-search them."""
        query_vector = (
            self.store.embed_query(query) if isinstance(query, str) else np.asarray(query)
        )
        candidates, log_transition = self._scoped(query_vector, scope, query_group, transition)
        return beam_search(
            query_vector,
            candidates,
            self.hypergraph,
            self.store,
            self.precedence,
            log_transition,
            weights,
            search,
        )

    def result_dict(self, query_text: str, trajectories: Sequence[Trajectory]) -> dict:
        return {
            "query": query_text,
            "trajectories": [trajectory.to_dict() for trajectory in trajectories],
        }
