"""Trajectory retrieval: candidate scoping, beam search, and exact DP.

A trajectory is an ordered sequence of hyperedges scored by query relevance
plus weighted coherence (learned transition log-probability), precedence
consistency, entity continuity, and phase coverage. Beam search explores
distinct-step trajectories with a diversity penalty; the Viterbi recurrence
gives the exact optimum of the two-term relaxation for oracle checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from okh.embedding import EmbeddingStore
from okh.errors import EmptyCorpus, UnknownEdge
from okh.hypergraph import Hyperedge, KnowledgeHypergraph, spans
from okh.precedence import Order, PrecedenceIndex
from okh.relations import COVERAGE_PHASE_INDEX, COVERAGE_PHASES, phase_of_family
from okh.transition import TransitionModel

HEURISTIC_FORWARD = 0.0
HEURISTIC_UNRELATED = -1.0
HEURISTIC_BACKWARD = -5.0

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


# The diversity selection's cost grows with the cube of the beam width, so
# the width is bounded.
MAX_BEAM_WIDTH = 1024
# Two trajectories are near-duplicates when they share more than this
# fraction of their steps.
DIVERSITY_OVERLAP_THRESHOLD = 0.5


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 8
    trajectory_length: int = 4
    num_trajectories: int = 3
    diversity_penalty: float = 0.5

    def __post_init__(self) -> None:
        for name in ("beam_width", "trajectory_length", "num_trajectories"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.beam_width > MAX_BEAM_WIDTH:
            raise ValueError(f"beam_width must be <= {MAX_BEAM_WIDTH}, got {self.beam_width}")
        if not math.isfinite(self.diversity_penalty) or self.diversity_penalty < 0:
            raise ValueError(
                f"diversity_penalty must be finite and non-negative, got {self.diversity_penalty}"
            )


@dataclass(frozen=True)
class ScopeConfig:
    top_k: int = 80
    pool_cap: int = 150
    group_reserve_fraction: float = 0.40

    def __post_init__(self) -> None:
        for name in ("top_k", "pool_cap"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.group_reserve_fraction <= 1.0:
            raise ValueError(
                f"group_reserve_fraction must be in [0, 1], got {self.group_reserve_fraction}"
            )


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
        if phase in COVERAGE_PHASE_INDEX:
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
        # Row e of `members` marks the candidates that have the pool's e-th
        # distinct entity; a last row of zeros pads each candidate's entity
        # numbers, `entities[i]`, to the largest degree.
        degree = index.entity_ptr[rows + 1] - index.entity_ptr[rows]
        codes = index.entity_of[spans(index.entity_ptr, rows)]
        # The pool's distinct entities are numbered from the pool alone: each
        # code keeps one of its places in `last`, which is written and read
        # at the pool's codes only, and the places kept are numbered in
        # order. Any numbering gives `links` the same exact sums.
        at = np.arange(len(codes))
        last = np.empty(len(index.member_ptr) - 1, dtype=np.intp)
        last[codes] = at
        kept = last[codes]
        first = kept == at
        column = (np.cumsum(first) - 1)[kept]
        count = int(np.count_nonzero(first))
        owner = np.repeat(np.arange(n), degree)
        self.members = np.zeros((count + 1, n))
        self.members[column, owner] = 1.0
        self.entities = np.full((n, int(degree.max(initial=0))), count, dtype=np.intp)
        place = at - np.repeat(np.cumsum(degree) - degree, degree)
        self.entities[owner, place] = column
        self.size = degree.astype(np.float64)
        self.phase_index = index.phase[rows]
        self.precedence = precedence
        self.closure_rows = precedence.closure_rows(self.ids)
        # Candidates by higher relevance first, then id; a graph row is the
        # edge's rank in id order.
        self.by_relevance = np.lexsort((rows, -self.relevance))

    def links(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Precedence and entity overlap from the candidates ``sources`` to all.

        ``reach[i, j]`` is True where candidate ``sources[i]`` must precede
        candidate j, and ``jaccard[i, j]`` is the Jaccard overlap of their
        entity sets. Shared entities are counted exactly, as sums of 0/1
        rows; the quotient of the exact float64 counts is correctly rounded
        like Python's int division. Every hyperedge has at least two
        entities, so no union is empty.
        """
        reach = self.precedence.reach_between(self.closure_rows[sources], self.closure_rows)
        entities = self.entities[sources]
        shared = self.members[entities[:, 0]]
        for k in range(1, entities.shape[1]):
            shared = shared + self.members[entities[:, k]]
        jaccard = shared / (self.size[sources, None] + self.size - shared)
        return reach, jaccard


def _fsum_rows(parts: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row, with the bits fsum gives.

    The columns are added one by one, and each addition's exact rounding
    error (Knuth's TwoSum) is added to ``error`` in turn; the error of that
    sum is itself taken exactly, and ``spill`` sums its magnitude. So a
    row's exact sum is ``total + error`` plus less than ``2 * spill``. Where
    spill is 0, the float addition ``total + error`` rounds the exact sum
    itself, as fsum does. Elsewhere r = total + error, off the exact sum by
    its own rounding error f (TwoSum again) plus less than 2 * spill, is
    the correctly rounded sum when that is below half the gap from |r| to
    the next float toward zero. Other rows, r = 0 and non-finite rows among
    them, get fsum itself.
    """
    with np.errstate(all="ignore"):
        total = parts[:, 0]
        error = np.zeros(len(parts))
        spill = np.zeros(len(parts))
        for k in range(1, parts.shape[1]):
            part = parts[:, k]
            added = total + part
            back = added - total
            slip = (total - (added - back)) + (part - back)
            total = added
            added = error + slip
            back = added - error
            spill += np.abs((error - (added - back)) + (slip - back))
            error = added
        r = total + error
        back = r - total
        f = (total - (r - back)) + (error - back)
        gap = np.abs(r) - np.nextafter(np.abs(r), 0.0)
        sure = (r != 0) & ((spill == 0) | (np.abs(f) + 2 * spill < gap / 2))
    for row in np.flatnonzero(~sure).tolist():
        r[row] = math.fsum(parts[row])
    return r


@functools.lru_cache(maxsize=64)
def _lane_layout(length: int, limit: int, threshold: float) -> tuple:
    """The lanes ``_select_diverse`` counts shared steps in, for one shape.

    Returns ``too_many``, the lane dtype, the lanes per row, every lane's top
    bit as a word, ``top - too_many`` in every lane as a word, and row s of
    ``earlier``: the top bits of the lanes of slots before s, as words.
    """
    # Sharing `shared` of `length` steps is too much when shared / length >
    # threshold; as an integer bound, when shared >= too_many.
    too_many = next((s for s in range(length + 1) if s / length > threshold), length + 1)
    size = next(size for size in (1, 2, 4) if length < 1 << (8 * size - 1))
    dtype = np.dtype(f"u{size}")
    per_word = 8 // size
    width = -(-limit // per_word) * per_word
    top = 1 << (8 * size - 1)
    # (Lanes past `limit` count 0 and never set their top bit.)
    every, bias = (
        np.full(per_word, value, dtype=dtype).view(np.uint64)[0] for value in (top, top - too_many)
    )
    earlier = np.where(np.arange(width) < np.arange(limit)[:, None], top, 0)
    earlier = earlier.astype(dtype).view(np.uint64)
    earlier.flags.writeable = False
    return too_many, dtype, width, every, bias, earlier


def _select_diverse(
    score: np.ndarray,
    tie: np.ndarray,
    steps: np.ndarray,
    n: int,
    limit: int,
    threshold: float,
    penalty: float,
) -> np.ndarray:
    """Keep the best ``limit`` entries, penalizing near-duplicates of kept ones.

    Entries arrive sorted by (-score, tie) with distinct integer ties; row i
    of ``steps`` holds entry i's steps, indices below ``n``, all rows the
    same length. The entries are visited in order. An entry whose step
    overlap with a kept entry exceeds ``threshold`` has ``penalty``
    subtracted. It is kept while fewer than ``limit`` are; after that it
    replaces the worst kept entry by (-penalized, tie) if it beats it. The
    visit stops at the first entry whose score is below the worst kept
    penalized score. Returns the positions of the kept entries in
    (-penalized, tie) order.

    The first ``limit`` entries are always kept. After that the kept set
    changes only when an entry is accepted, so each step judges every entry
    up to the stop against the same kept set in one array expression and
    jumps to the first acceptance.

    Overlaps with all kept entries are counted at once, in lanes: row c of
    ``lanes`` has one unsigned lane per kept slot, 1 where that slot's entry
    has step c, and its lanes are read as 64-bit words. Summing the words of
    an entry's steps counts, in lane k, the steps it shares with slot k. A
    lane holds at most ``length``, below its top bit, so no sum carries into
    the next lane, and adding ``top - too_many`` sets a lane's top bit
    exactly when its count reaches ``too_many``. An acceptance changes one
    lane, and the next step recounts the remaining entries in the same pass
    over their steps that one lane would take.
    """
    m, length = steps.shape
    head = min(limit, m)
    # One lane per slot that can be filled.
    too_many, dtype, width, every, bias, earlier = _lane_layout(length, head, threshold)
    judged = penalty > 0 and too_many <= length
    lanes = np.zeros((n, width), dtype=dtype)
    words = lanes.view(np.uint64)

    def too_close(entries: slice, tops: np.ndarray) -> np.ndarray:
        # Whether each entry shares too many steps with a slot whose top bit
        # is in `tops`.
        shared = np.take(words, steps[entries].T, axis=0).sum(axis=0)
        return ((shared + bias) & tops).any(axis=1)

    lanes[steps[:head], np.arange(head)[:, None]] = 1
    value = score[:head]
    if judged:
        # A head entry is judged against the head entries before it.
        value = np.where(too_close(slice(0, head), earlier), value - penalty, value)
    kept = list(range(head))
    values = value.tolist()
    ties = tie[:head].tolist()
    descending = -score
    position = head
    while position < m:
        worst = max(range(head), key=lambda k: (-values[k], ties[k]))
        floor, floor_tie = values[worst], ties[worst]
        stop = int(np.searchsorted(descending, -floor, side="right"))
        if stop <= position:
            break
        entries = slice(position, stop)
        candidate = score[entries]
        if judged:
            candidate = np.where(too_close(entries, every), candidate - penalty, candidate)
        beats = (candidate > floor) | ((candidate == floor) & (tie[entries] < floor_tie))
        first = int(np.argmax(beats))
        if not beats[first]:
            break
        entry = position + first
        kept[worst] = entry
        values[worst] = float(candidate[first])
        ties[worst] = int(tie[entry])
        lanes[:, worst] = 0
        lanes[steps[entry], worst] = 1
        position = entry + 1
    order = sorted(range(head), key=lambda k: (-values[k], ties[k]))
    return np.array([kept[k] for k in order], dtype=np.intp)


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
    B beams are scored by ``trajectory_score`` itself, over the relevance
    and transition arrays the search read, so every total and breakdown
    comes from the one objective, where precedence and continuity are
    normalized over the whole trajectory.

    A round scores every (beam, candidate) extension at once as one
    (beams x candidates) array and adds each beam's running score, with
    used candidates at -inf. Only extensions whose float sum is at least
    S - diversity_penalty - 2 eps are shortlisted, where S is the B-th best
    float sum and eps bounds the float-sum error. The shortlist is exact:
    once the diversity selection holds B beams, its worst penalized score
    is at least the B-th best exact score minus the penalty, and it stops
    before any extension below that. Every shortlisted extension gets its
    exactly rounded (fsum) score.

    Ties break on the beams' step sequences, compared by (-relevance, id)
    per step. All beams of a round have the same length and no two
    candidates tie on (-relevance, id), so with the live beams kept in that
    order, a scan of each beam's extensions by candidate rank lists them in
    tie-break order, and a stable sort by score keeps it among equal scores.

    ``log_transition[i, j]`` scores a step from candidate i to candidate j;
    ``Retriever.transition_matrix`` builds it.
    """
    ctx = _CandidateContext(
        query_vector, candidate_ids, hypergraph, store, precedence, log_transition
    )
    n = len(ctx.ids)
    if n == 0:
        return []

    has_phase = ctx.phase_index >= 0
    phase_shift = np.maximum(ctx.phase_index, 0)
    phase_bit = np.where(has_phase, 1 << phase_shift, 0)
    gain = np.where(has_phase, weights.rho_coverage / _N_PHASES, 0.0)

    # The live beams in tie-break order, one row each: steps, covered phase
    # bits, and per-step score pieces whose exactly rounded sum is the run
    # score, so beams over the same step multiset tie instead of diverging
    # by ulps.
    start = ctx.by_relevance[: 2 * config.beam_width]
    steps = start[:, None]
    covered = phase_bit[start]
    run = ctx.relevance[start] + gain[start]
    pieces = run[:, None]
    keep = config.beam_width

    for _ in range(config.trajectory_length - 1):
        # Every extension's step score, one row per beam; the elementwise
        # expression is the one a single beam's row would use.
        last = steps[:, -1]
        reach, jaccard = ctx.links(last)
        scores = (
            ctx.relevance
            + weights.lambda_coherence * ctx.log_transition[last]
            + weights.mu_precedence * reach
            + weights.nu_continuity * jaccard
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
        shortlist = approx >= cut if math.isfinite(cut) else ~used
        rows, ranked = np.nonzero(shortlist[:, ctx.by_relevance])
        if not len(rows):
            break
        cols = ctx.by_relevance[ranked]

        # A one-piece run extends by one float addition, which is correctly
        # rounded like fsum (fsum differs only in giving -0.0 + -0.0 as 0.0,
        # which compares equal).
        added = scores[rows, cols]
        if pieces.shape[1] == 1:
            exact = approx[rows, cols]
        else:
            exact = _fsum_rows(np.column_stack((pieces[rows], added)))
        # The extensions are in tie-break order, so an entry's position there
        # is its tie.
        order = np.argsort(-exact, kind="stable")
        selected = _select_diverse(
            exact[order],
            order,
            np.concatenate((steps[rows[order]], cols[order, None]), axis=1),
            n,
            keep,
            DIVERSITY_OVERLAP_THRESHOLD,
            config.diversity_penalty,
        )
        kept = np.sort(order[selected])
        steps = np.concatenate((steps[rows[kept]], cols[kept, None]), axis=1)
        covered = covered[rows[kept]] | phase_bit[cols[kept]]
        run = exact[kept]
        pieces = np.column_stack((pieces[rows[kept]], added[kept]))

    # The finals are scored by `trajectory_score` over the search's arrays;
    # only their steps need a position.
    position = {ctx.ids[i]: i for i in steps.ravel().tolist()}
    finals = []
    for path in steps.tolist():
        path_ids = [ctx.ids[i] for i in path]
        total, breakdown = trajectory_score(
            path_ids,
            lambda step: ctx.relevance.item(position[step]),
            lambda prev, cur: log_transition.item(position[prev], position[cur]),
            precedence,
            hypergraph,
            weights,
        )
        finals.append(Trajectory(path_ids, total, breakdown))
    totals = np.array([trajectory.total_score for trajectory in finals])
    order = np.argsort(-totals, kind="stable")
    selected = _select_diverse(
        totals[order],
        order,
        steps[order],
        n,
        config.num_trajectories,
        DIVERSITY_OVERLAP_THRESHOLD,
        config.diversity_penalty,
    )
    return [finals[k] for k in order[selected].tolist()]


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

    One dynamic program over (visited set, last step) states. The visited
    set is a bit mask kept only under `no_repeat`, which refuses a visited
    step and caps the length at the candidate count; it is meant for small
    oracle instances only. Without it the mask stays 0, so each last step
    has one state and steps may repeat. Score ties resolve toward the
    lexicographically smallest id sequence.
    """
    ids = list(candidate_ids)
    n = len(ids)
    if n == 0:
        raise EmptyCorpus("viterbi needs at least one candidate")
    if no_repeat and n > 22:
        raise ValueError("the no-repeat oracle is for small candidate sets only")
    rows = np.stack([store.vector(eid) for eid in ids])
    relevance = (rows @ np.asarray(query_vector, dtype=np.float64)).tolist()
    transition = np.asarray(log_transition).tolist()

    mark = int(no_repeat)
    states = {(mark << j, j): (relevance[j], (ids[j],)) for j in range(n)}
    for _ in range(min(length, n) - 1 if no_repeat else length - 1):
        reached: dict[tuple[int, int], tuple[float, tuple[str, ...]]] = {}
        for (visited, i), (score, seq) in states.items():
            for j in range(n):
                if visited >> j & 1:
                    continue
                step_score = (score + relevance[j]) + lambda_coherence * transition[i][j]
                cand = (step_score, seq + (ids[j],))
                key = (visited | mark << j, j)
                cur = reached.get(key)
                if cur is None or (-cand[0], cand[1]) < (-cur[0], cur[1]):
                    reached[key] = cand
        states = reached
    score, steps = min(states.values(), key=lambda state: (-state[0], state[1]))
    breakdown = {
        "relevance": float(sum(relevance[ids.index(step)] for step in steps)),
        "coherence": float(
            sum(transition[ids.index(prev)][ids.index(cur)] for prev, cur in zip(steps, steps[1:]))
        ),
        "precedence": 0.0,
        "continuity": 0.0,
        "coverage": 0.0,
    }
    return Trajectory(list(steps), score, breakdown)


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

    def retrieve(
        self,
        query: str,
        weights: RetrievalWeights = RetrievalWeights(),
        search: SearchConfig = SearchConfig(),
        scope: ScopeConfig = ScopeConfig(),
        query_group: str | None = None,
        transition: str = "learned",
    ) -> list[Trajectory]:
        """Scope the candidates, build their transition matrix, and beam-search them."""
        query_vector = self.store.embed_query(query)
        candidates = scope_candidates(query_vector, self.hypergraph, self.store, scope, query_group)
        return beam_search(
            query_vector,
            candidates,
            self.hypergraph,
            self.store,
            self.precedence,
            self.transition_matrix(candidates, transition),
            weights,
            search,
        )

    def score(
        self,
        query: str,
        steps: Sequence[str],
        weights: RetrievalWeights,
        scope: ScopeConfig,
        query_group: str | None,
        transition: str,
    ) -> Trajectory:
        """Score given steps over the pool ``retrieve`` would search.

        The question is embedded, the pool scoped and its transition matrix
        built as in ``retrieve``, and each step's relevance is read from the
        product beam search reads, ``store.matrix[pool rows] @ q``. So a
        trajectory ``retrieve`` returns scores here as it was scored there.
        Every step must be in the pool.
        """
        query_vector = self.store.embed_query(query)
        candidates = scope_candidates(query_vector, self.hypergraph, self.store, scope, query_group)
        matrix = self.transition_matrix(candidates, transition)
        position = {eid: i for i, eid in enumerate(candidates)}
        vectors = self.store.matrix[[self.store.row_of[eid] for eid in candidates]]
        relevance = vectors @ np.asarray(query_vector, dtype=np.float64)
        total, breakdown = trajectory_score(
            steps,
            lambda step: relevance.item(position[step]),
            lambda prev, cur: matrix.item(position[prev], position[cur]),
            self.precedence,
            self.hypergraph,
            weights,
        )
        return Trajectory(list(steps), total, breakdown)

    def result_dict(self, query_text: str, trajectories: Sequence[Trajectory]) -> dict:
        return {
            "query": query_text,
            "trajectories": [trajectory.to_dict() for trajectory in trajectories],
        }
