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
from typing import Callable, Sequence

import numpy as np

from okh.embedding import EmbeddingStore
from okh.errors import EmptyCorpus, UnknownEdge
from okh.hypergraph import Hyperedge, KnowledgeHypergraph, spans
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

    The pool is one boolean mask over the rows of the graph's ``edge_index``.
    A row number is the edge's rank in id order, so (-relevance, row) orders
    exactly like (-relevance, id).
    """
    if not hypergraph.hyperedges:
        raise EmptyCorpus("candidate scoping needs a non-empty hypergraph")
    index = hypergraph.edge_index
    relevance = store.relevance(query_vector)
    if store.ids != index.ids:
        relevance = relevance[[store.row_of[edge_id] for edge_id in index.ids]]

    def best(rows: np.ndarray, k: int) -> np.ndarray:
        """The first k of ``rows`` in (-relevance, id) order."""
        values = relevance[rows]
        if 0 < k < len(rows):
            # Each of the k best scores at least the k-th largest value, so
            # only those rows need the exact sort.
            kth = np.partition(values, len(rows) - k)[len(rows) - k]
            keep = values >= kth
            rows, values = rows[keep], values[keep]
        return rows[np.lexsort((rows, -values))[:k]]

    def distinct(codes: np.ndarray, count: int) -> np.ndarray:
        # np.unique would import numpy.ma on first use, several MB resident.
        seen = np.zeros(count, dtype=bool)
        seen[codes] = True
        return np.flatnonzero(seen)

    seeds = best(np.arange(len(index.ids)), config.top_k)
    pool = np.zeros(len(index.ids), dtype=bool)
    pool[seeds] = True
    groups = distinct(index.group_of[seeds], len(index.group_ptr) - 1)
    pool[index.group_rows[spans(index.group_ptr, groups)]] = True
    entities = distinct(index.entity_of[spans(index.entity_ptr, seeds)], len(index.member_ptr) - 1)
    pool[index.member_rows[spans(index.member_ptr, entities)]] = True

    group = index.group_code.get(query_group)
    if group is None:
        rows = best(np.flatnonzero(pool), config.pool_cap)
    else:
        reserve = math.ceil(config.group_reserve_fraction * config.pool_cap)
        members = index.group_rows[index.group_ptr[group] : index.group_ptr[group + 1]]
        chosen = best(members, reserve)
        pool[chosen] = False
        rest = best(np.flatnonzero(pool), max(config.pool_cap - len(chosen), 0))
        rows = best(np.concatenate((chosen, rest)), len(chosen) + len(rest))
    return [index.ids[row] for row in rows.tolist()]


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
        vectors = store.matrix[[store.row_of[eid] for eid in self.ids]]
        self.relevance = vectors @ np.asarray(query_vector, dtype=np.float64)

        index = hypergraph.edge_index
        try:
            rows = np.array([index.row_of[eid] for eid in self.ids], dtype=np.intp)
        except KeyError as exc:
            raise UnknownEdge(f"hyperedge {exc.args[0]!r} is not in the graph") from None
        degree = index.entity_ptr[rows + 1] - index.entity_ptr[rows]
        _, column = np.unique(
            index.entity_of[spans(index.entity_ptr, rows)], return_inverse=True
        )
        incidence = np.zeros((n, int(column.max(initial=-1)) + 1), dtype=np.float64)
        incidence[np.repeat(np.arange(n), degree), column] = 1.0
        # Entity-set Jaccard of every candidate pair. Counts are small
        # integers, so each quotient is correctly rounded like Python's int
        # division; every hyperedge has at least two entities, so no union
        # is empty.
        inter = incidence @ incidence.T
        sizes = incidence.sum(axis=1)
        self.jaccard = inter / (sizes[:, None] + sizes[None, :] - inter)
        self.phase_index = index.phase[rows]
        # 1.0 where the row's edge must precede the column's edge.
        self.reach = precedence.reach_matrix(self.ids).astype(np.float64)
        # Candidates by higher relevance first, then id; a graph row is the
        # edge's rank in id order.
        self.by_relevance = np.lexsort((rows, -self.relevance))


def _select_diverse(
    score: np.ndarray,
    tie: np.ndarray,
    steps: np.ndarray,
    n: int,
    limit: int,
    threshold: float,
    penalty: float,
) -> tuple[np.ndarray, float]:
    """Keep the best ``limit`` entries, penalizing near-duplicates of kept ones.

    Entries arrive sorted by (-score, tie) with distinct integer ties; row i
    of ``steps`` holds entry i's steps, indices below ``n``, all rows the
    same length. The entries are visited in order. An entry whose step
    overlap with a kept entry exceeds ``threshold`` has ``penalty``
    subtracted. It is kept while fewer than ``limit`` are; after that it
    replaces the worst kept entry by (-penalized, tie) if it beats it. The
    visit stops at the first entry whose score is below the worst kept
    penalized score. Returns the positions of the kept entries in
    (-penalized, tie) order, and that worst score when the visit ended
    (-inf while fewer than ``limit`` are kept): entries appended after the
    last one, all scoring below it, would change nothing.

    The first ``limit`` entries are always kept. After that the kept set
    changes only when an entry is accepted, so each step judges every entry
    up to the stop against the same kept set in one array expression and
    jumps to the first acceptance.
    """
    m, length = steps.shape
    head = min(limit, m)
    kept = np.arange(head)
    # Sharing `shared` of `length` steps is too much when shared / length >
    # threshold; as an integer bound, when shared >= too_many.
    too_many = next((s for s in range(length + 1) if s / length > threshold), length + 1)
    if penalty == 0:
        too_many = length + 1
    # Column k marks the steps of the k-th kept entry.
    kept_steps = np.zeros((n, head), dtype=np.int32)
    kept_steps[steps[:head], kept[:, None]] = 1

    def overlapping(entries: slice) -> np.ndarray:
        # shared[i, k]: steps entry i shares with kept entry k.
        shared = kept_steps[steps[entries, 0]]
        for t in range(1, length):
            shared += kept_steps[steps[entries, t]]
        return shared >= too_many

    # A head entry is judged against the head entries before it.
    value = score[:head].copy()
    if too_many <= length:
        hit = np.tril(overlapping(slice(0, head)), -1).any(axis=1)
        value[hit] -= penalty
    descending = -score
    position = head
    while position < m:
        worst = np.lexsort((tie[kept], -value))[-1]
        stop = int(np.searchsorted(descending, -value[worst], side="right"))
        if stop <= position:
            break
        entries = slice(position, stop)
        candidate = score[entries]
        if too_many <= length:
            candidate = np.where(overlapping(entries).any(axis=1), candidate - penalty, candidate)
        beats = (candidate > value[worst]) | (
            (candidate == value[worst]) & (tie[entries] < tie[kept[worst]])
        )
        first = int(np.argmax(beats))
        if not beats[first]:
            break
        entry = position + first
        kept[worst] = entry
        value[worst] = candidate[first]
        kept_steps[:, worst] = 0
        kept_steps[steps[entry], worst] = 1
        position = entry + 1
    floor = float(value.min()) if head == limit else -math.inf
    return kept[np.lexsort((tie[kept], -value))], floor


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
    S - diversity_penalty - 2 eps are shortlisted, where S is the B-th best
    float sum and eps bounds the float-sum error. The shortlist is exact:
    once the diversity selection holds B beams, its worst penalized score
    is at least the B-th best exact score minus the penalty, and it stops
    before any extension below that. Within the shortlist, exactly rounded
    (fsum) scores are computed first down to S - eps, which covers the B
    best, and further only if the selection runs past them: then down to
    its worst penalized score, which no later entry can raise past.

    Ties break on the beams' step sequences, compared by (-relevance, id)
    per step. All beams of a round have the same length and no two
    candidates tie on (-relevance, id), so extension (b, j) orders like the
    integer ``tie_rank[b] * n + rank[j]``, where ``tie_rank`` ranks the
    live beams and ``rank`` the candidates.

    ``log_transition[i, j]`` scores a step from candidate i to candidate j;
    ``Retriever.transition_matrix`` builds it.
    """
    ctx = _CandidateContext(
        query_vector, candidate_ids, hypergraph, store, precedence, log_transition
    )
    n = len(ctx.ids)
    if n == 0:
        return []

    rank = np.empty(n, dtype=np.int64)
    rank[ctx.by_relevance] = np.arange(n)
    has_phase = ctx.phase_index >= 0
    phase_shift = np.maximum(ctx.phase_index, 0)
    phase_bit = np.where(has_phase, 1 << phase_shift, 0)
    gain = np.where(has_phase, weights.rho_coverage / _N_PHASES, 0.0)

    # The live beams, one row each: steps, covered phase bits, the rank of
    # the tie-break key, and per-step score pieces whose exactly rounded sum
    # is the run score, so beams over the same step multiset tie instead of
    # diverging by ulps.
    start = ctx.by_relevance[: 2 * config.beam_width]
    steps = start[:, None]
    covered = phase_bit[start]
    tie_rank = np.arange(len(start))
    run = ctx.relevance[start] + gain[start]
    pieces = [(piece,) for piece in run.tolist()]
    keep = config.beam_width

    for _ in range(config.trajectory_length - 1):
        # Every extension's step score, one row per beam; the elementwise
        # expression is the one a single beam's row would use.
        last = steps[:, -1]
        scores = (
            ctx.relevance
            + weights.lambda_coherence * ctx.log_transition[last]
            + weights.mu_precedence * ctx.reach[last]
            + weights.nu_continuity * ctx.jaccard[last]
        )
        if weights.rho_coverage:
            new_phase = has_phase & ((covered[:, None] >> phase_shift) & 1 == 0)
            scores = scores + weights.rho_coverage * new_phase / _N_PHASES
        used = np.zeros(scores.shape, dtype=bool)
        used[np.arange(len(steps))[:, None], steps] = True
        approx = np.where(used, -np.inf, run[:, None] + scores)

        # Only the extensions the diversity selection can visit are
        # shortlisted (see the docstring). slack bounds the gap between an
        # entry's float sum and its fsum: both lie within a few ulps of
        # max|run| + max|step|. A non-finite cut keeps every extension.
        cut = -math.inf
        if approx.size > keep:
            best = float(np.partition(approx, approx.size - keep, axis=None)[approx.size - keep])
            scale = float(np.abs(run).max() + np.abs(scores).max())
            slack = 1e-9 * (1.0 + abs(best) + scale)
            cut = best - config.diversity_penalty - 2 * slack
        if math.isfinite(cut):
            rows, cols = np.nonzero(approx >= cut)
            bound = best - slack
        else:
            rows, cols = np.nonzero(~used)
            bound, slack = -math.inf, 0.0
        if not len(rows):
            break

        # fsum scores are needed only down to where the selection stops.
        # Every extension scoring at least `bound` gets one. The first bound
        # admits the B best; if the selection runs past the last entry
        # scored, its floor becomes the next bound. The floor only rises as
        # entries are added, so a second pass is the last.
        parents = rows.tolist()
        added = scores[rows, cols].tolist()
        estimate = approx[rows, cols]
        ties = tie_rank[rows] * n + rank[cols]
        exact = np.full(len(rows), -math.inf)
        scored = np.zeros(len(rows), dtype=bool)
        while True:
            fresh = np.flatnonzero(~scored & (estimate >= bound - slack))
            exact[fresh] = [math.fsum(pieces[parents[k]] + (added[k],)) for k in fresh.tolist()]
            scored[fresh] = True
            ready = np.flatnonzero(scored & (exact >= bound))
            order = ready[np.lexsort((ties[ready], -exact[ready]))]
            selected, floor = _select_diverse(
                exact[order],
                ties[order],
                np.concatenate((steps[rows[order]], cols[order, None]), axis=1),
                n,
                keep,
                config.diversity_overlap_threshold,
                config.diversity_penalty,
            )
            if floor >= bound:
                break
            bound = floor
        kept = order[selected]
        steps = np.concatenate((steps[rows[kept]], cols[kept, None]), axis=1)
        covered = covered[rows[kept]] | phase_bit[cols[kept]]
        tie_rank = np.argsort(np.argsort(ties[kept]))
        run = exact[kept]
        pieces = [pieces[parents[k]] + (added[k],) for k in kept.tolist()]

    rel_of = {eid: float(ctx.relevance[i]) for i, eid in enumerate(ctx.ids)}
    index_of = {eid: i for i, eid in enumerate(ctx.ids)}

    def transition_of(prev: str, cur: str) -> float:
        return float(ctx.log_transition[index_of[prev], index_of[cur]])

    finals = []
    for beam in steps.tolist():
        trajectory_steps = [ctx.ids[i] for i in beam]
        total, breakdown = trajectory_score(
            trajectory_steps, rel_of.__getitem__, transition_of, precedence, hypergraph, weights
        )
        finals.append(Trajectory(trajectory_steps, total, breakdown))
    totals = np.array([trajectory.total_score for trajectory in finals])
    order = np.lexsort((tie_rank, -totals))
    selected, _ = _select_diverse(
        totals[order],
        tie_rank[order],
        steps[order],
        n,
        config.num_trajectories,
        config.diversity_overlap_threshold,
        config.diversity_penalty,
    )
    chosen = order[selected]
    return [finals[k] for k in chosen.tolist()]


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
            rows = self.store.matrix[[self.store.row_of[eid] for eid in candidate_ids]]
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
