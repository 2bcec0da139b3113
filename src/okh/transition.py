"""Low-rank bilinear transition model over hyperedge embeddings.

The score for moving from edge i to edge j is (U h_i) . (V h_j) with U and
V of shape (rank, dim), so the model is asymmetric and costs 2 * rank * dim
parameters. Training minimizes a sampled-softmax contrastive loss over
ordered pairs mined from document order, entity overlap, and prior
retrieval traces, using plain mini-batch gradient descent.

Each batch runs in rank space. The m sources are projected through U, and
the T distinct candidate rows the batch touches through V, once. The logits
are one (m, r) @ (r, T) product read back at each pair's candidates, and
both gradients reuse the dense (m, T) scatter W of the logit gradients, so
a batch of m pairs with k samples costs O(m d r + T d r + m T r) and builds
no (m, k+1, r) block.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from okh.embedding import EmbeddingStore
from okh.errors import DimensionMismatch, EmptyBatch, NonFiniteLoss, SchemaError
from okh.hypergraph import Hyperedge, KnowledgeHypergraph
from okh.precedence import PrecedenceIndex

CHECKPOINT_MAGIC = b"OKHT"
CHECKPOINT_VERSION = 1
NEGATIVE_LOG_CLAMP = -30.0


def _quantize(array: np.ndarray) -> np.ndarray:
    return array.astype(np.float32).astype(np.float64)


@dataclass
class TransitionModel:
    """Factored bilinear scorer with f32-exact parameters at rest."""

    u: np.ndarray
    v: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        if self.u.shape != self.v.shape or self.u.ndim != 2:
            raise DimensionMismatch(
                f"U and V must share shape (rank, dim), got {self.u.shape} and {self.v.shape}"
            )

    @classmethod
    def create(cls, dim: int, rank: int, seed: int = 0) -> "TransitionModel":
        """Seeded i.i.d. uniform init on [-1/sqrt(dim), 1/sqrt(dim)]."""
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        rng = np.random.default_rng(seed)
        scale = 1.0 / float(np.sqrt(dim))
        u = _quantize(rng.uniform(-scale, scale, size=(rank, dim)))
        v = _quantize(rng.uniform(-scale, scale, size=(rank, dim)))
        return cls(u, v, seed)

    @classmethod
    def zeros(cls, dim: int, rank: int, seed: int = 0) -> "TransitionModel":
        return cls(
            np.zeros((rank, dim), dtype=np.float64),
            np.zeros((rank, dim), dtype=np.float64),
            seed,
        )

    @property
    def dim(self) -> int:
        return int(self.u.shape[1])

    @property
    def rank(self) -> int:
        return int(self.u.shape[0])

    @property
    def param_count(self) -> int:
        return int(self.u.size + self.v.size)

    def quantize(self) -> None:
        self.u = _quantize(self.u)
        self.v = _quantize(self.v)

    def logits(self, sources: np.ndarray, targets: np.ndarray | None = None) -> np.ndarray:
        """Pairwise logit matrix between source rows and target rows."""
        if targets is None:
            targets = sources
        return (sources @ self.u.T) @ (targets @ self.v.T).T

    def log_transition_matrix(self, candidates: np.ndarray) -> np.ndarray:
        """Row-stochastic log P(next | prev) over one candidate set."""
        return log_softmax_rows(self.logits(candidates))

    def save(self, path: str) -> None:
        self.quantize()
        with open(path, "wb") as handle:
            handle.write(
                struct.pack("<4sIII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, self.dim, self.rank)
            )
            handle.write(self.u.astype("<f4").tobytes())
            handle.write(self.v.astype("<f4").tobytes())
            handle.write(struct.pack("<Q", self.seed & 0xFFFFFFFFFFFFFFFF))

    @classmethod
    def load(cls, path: str) -> "TransitionModel":
        with open(path, "rb") as handle:
            blob = handle.read()
        header = struct.calcsize("<4sIII")
        if len(blob) < header:
            raise SchemaError("checkpoint", f"{path} is truncated")
        magic, version, dim, rank = struct.unpack_from("<4sIII", blob)
        if magic != CHECKPOINT_MAGIC:
            raise SchemaError("checkpoint", f"{path} has magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        if version != CHECKPOINT_VERSION:
            raise SchemaError("checkpoint", f"{path} has unsupported version {version}")
        expected = header + 2 * 4 * dim * rank + 8
        if len(blob) != expected:
            raise SchemaError("checkpoint", f"{path} has {len(blob)} bytes, expected {expected}")
        offset = header
        u = np.frombuffer(blob, dtype="<f4", count=rank * dim, offset=offset)
        offset += 4 * rank * dim
        v = np.frombuffer(blob, dtype="<f4", count=rank * dim, offset=offset)
        offset += 4 * rank * dim
        (seed,) = struct.unpack_from("<Q", blob, offset)
        for name, matrix in (("u", u), ("v", v)):
            if not np.isfinite(matrix).all():
                raise SchemaError("checkpoint", f"{path} has a non-finite value in {name}")
        return cls(
            u.astype(np.float64).reshape(rank, dim),
            v.astype(np.float64).reshape(rank, dim),
            int(seed),
        )


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


SIGNALS = ("doc_order", "entity_overlap", "retrieval_induced", "cross_group")
_DOC_ORDER, _ENTITY_OVERLAP, _RETRIEVAL_INDUCED, _CROSS_GROUP = range(len(SIGNALS))


class PairList(Sequence[tuple[str, str, str]]):
    """Ordered ``(source id, target id, signal)`` pairs held as integer codes.

    ``codes`` is an (n, 3) int64 array whose first two columns index ``ids``
    and whose last column indexes ``signals``. Indexing and iteration give
    the tuples; training reads ``codes``.
    """

    __slots__ = ("ids", "signals", "codes")

    def __init__(self, ids: Sequence[str], signals: Sequence[str], codes: np.ndarray):
        self.ids = ids
        self.signals = signals
        self.codes = codes.reshape(-1, 3)

    @classmethod
    def from_tuples(cls, items: Iterable[tuple[str, str, str]]) -> "PairList":
        ids: dict[str, int] = {}
        signals: dict[str, int] = {}
        codes = [
            (
                ids.setdefault(src, len(ids)),
                ids.setdefault(dst, len(ids)),
                signals.setdefault(signal, len(signals)),
            )
            for src, dst, signal in items
        ]
        return cls(list(ids), list(signals), np.array(codes, dtype=np.int64))

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return PairList(self.ids, self.signals, self.codes[key])
        src, dst, signal = self.codes[key].tolist()
        return self.ids[src], self.ids[dst], self.signals[signal]

    def __iter__(self):
        ids, signals = self.ids, self.signals
        for src, dst, signal in self.codes.tolist():
            yield ids[src], ids[dst], signals[signal]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]


@dataclass
class TrainingPairs:
    """Ordered pairs with their mining signal: (source id, target id, signal).

    Either side may be given as any iterable of such tuples; it is kept as
    a ``PairList``.
    """

    positives: PairList = field(default_factory=lambda: PairList.from_tuples(()))
    negatives: PairList = field(default_factory=lambda: PairList.from_tuples(()))

    def __post_init__(self) -> None:
        if not isinstance(self.positives, PairList):
            self.positives = PairList.from_tuples(self.positives)
        if not isinstance(self.negatives, PairList):
            self.negatives = PairList.from_tuples(self.negatives)


def _triples(src: np.ndarray, dst: np.ndarray, signal: int) -> np.ndarray:
    return np.stack([src, dst, np.full_like(src, signal)], axis=1)


def _sharing_pairs(edges: list[Hyperedge]) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j), i < j in row-major order, of edges sharing an entity."""
    column: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    for row, edge in enumerate(edges):
        for entity_id in edge.entity_ids:
            rows.append(row)
            cols.append(column.setdefault(entity_id, len(column)))
    incidence = np.zeros((len(edges), len(column)))
    incidence[np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)] = 1.0
    first, second = np.triu_indices(len(edges), k=1)
    keep = (incidence @ incidence.T)[first, second] > 0
    return first[keep], second[keep]


def build_pairs(
    hypergraph: KnowledgeHypergraph,
    precedence: PrecedenceIndex,
    retrieval_traces: Iterable[Sequence[str]] | None = None,
    seed: int = 0,
) -> TrainingPairs:
    """Mine ordered training pairs from one hypergraph.

    Positive signals: same-group pairs in document order, same-group pairs
    sharing an entity taken in canonical order, and consecutive steps from
    supplied retrieval traces. Negatives are the reversals of document-order
    positives plus one seeded random cross-group pair per source edge; any
    negative that some other signal claims as a positive is dropped.

    Reversals outnumber cross-group negatives on purpose: suppressing
    backward transitions well below merely-unrelated ones is what lets the
    beam prefer neutral filler over stepping backward within a group.

    Pairs come out group by group: each group's document-order positives
    (source-major in text order), then its entity-overlap positives; each
    source's reversals are followed by its cross-group negative.
    """
    import random

    rng = random.Random(seed)
    ids = sorted(hypergraph.hyperedges)
    index = {edge_id: i for i, edge_id in enumerate(ids)}
    edges = [hypergraph.hyperedges[edge_id] for edge_id in ids]
    position = np.array([edge.text_position for edge in edges], dtype=np.int64)
    group_names = sorted(hypergraph.groups)
    number = {group: g for g, group in enumerate(group_names)}
    group_of = np.array([number[edge.group_id] for edge in edges], dtype=np.int64)
    rank = np.zeros(len(ids), dtype=np.int64)
    positives: list[np.ndarray] = []
    negatives: list[np.ndarray] = []

    for g, group in enumerate(group_names):
        members = np.flatnonzero(group_of == g)
        # Indices ascend with id, so this sorts by (text_position, id).
        by_text = members[np.argsort(position[members], kind="stable")]
        n = len(by_text)
        rank[by_text] = np.arange(n)
        first, second = np.triu_indices(n, k=1)
        apart = position[by_text[first]] != position[by_text[second]]
        first, second = first[apart], second[apart]
        positives.append(_triples(by_text[first], by_text[second], _DOC_ORDER))

        canonical = precedence.trajectory(group)
        order = np.array([index[edge_id] for edge_id in canonical], dtype=np.int64)
        head, tail = _sharing_pairs([hypergraph.hyperedges[edge_id] for edge_id in canonical])
        overlap = _triples(order[head], order[tail], _ENTITY_OVERLAP)

        # Only an entity-overlap pair can claim a reversal: a document-order
        # pair runs forward in text, and a cross-group negative leaves the group.
        claimed = np.zeros((n, n), dtype=bool)
        claimed[rank[overlap[:, 0]], rank[overlap[:, 1]]] = True
        kept = ~claimed[second, first]
        first, second = first[kept], second[kept]
        reversals = _triples(by_text[second], by_text[first], _DOC_ORDER)
        outside = np.flatnonzero(group_of != g)
        if len(outside):
            draws = [rng.randrange(len(outside)) for _ in range(n)]
            # Each source's cross-group negative follows its reversals.
            slot = np.cumsum(np.bincount(first, minlength=n)) + np.arange(n)
            merged = np.empty((len(reversals) + n, 3), dtype=np.int64)
            cross = np.zeros(len(merged), dtype=bool)
            cross[slot] = True
            merged[cross] = _triples(by_text, outside[draws], _CROSS_GROUP)
            merged[~cross] = reversals
            reversals = merged
        negatives.append(reversals)
        positives.append(overlap)

    induced = np.array(
        [
            (index[src_id], index[dst_id], _RETRIEVAL_INDUCED)
            for trace in retrieval_traces or ()
            for src_id, dst_id in zip(trace, trace[1:])
            if src_id in index and dst_id in index
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    positives.append(induced)
    neg = np.concatenate(negatives) if negatives else induced[:0]
    if len(induced):
        key = len(ids)
        neg = neg[~np.isin(neg[:, 0] * key + neg[:, 1], induced[:, 0] * key + induced[:, 1])]
    return TrainingPairs(
        PairList(ids, SIGNALS, np.concatenate(positives)), PairList(ids, SIGNALS, neg)
    )


@dataclass
class TrainingConfig:
    alpha: float = 0.5
    negatives_per_example: int = 64
    step_size: float = 0.01
    epochs: int = 5
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.negatives_per_example < 1:
            raise ValueError(
                f"negatives_per_example must be >= 1, got {self.negatives_per_example}"
            )
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def _row_map(population: int, parts: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct rows ``parts`` index, ascending, and each part in their positions."""
    seen = np.zeros(population, dtype=bool)
    for part in parts:
        seen[part] = True
    position = np.cumsum(seen) - 1
    return np.flatnonzero(seen), [position[part] for part in parts]


def _term(
    model: TransitionModel,
    src_rows: np.ndarray,
    cand_proj: np.ndarray,
    cand: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected sources, softmax weights and target log-probability.

    ``src_rows`` (m, d) are the sources' embeddings; ``cand`` (m, k+1)
    indexes the rows of ``cand_proj``, the T touched rows projected by V,
    and its column 0 is the target. The logits are one (m, T) product read
    back at each row's candidates.
    """
    projected_src = src_rows @ model.u.T
    logits = np.take_along_axis(projected_src @ cand_proj.T, cand, axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=1, keepdims=True)
    log_target = shifted[:, 0] - np.log(np.exp(shifted).sum(axis=1))
    return projected_src, weights, log_target


def _scatter(dz: np.ndarray, cand: np.ndarray, touched: int) -> np.ndarray:
    """(m, touched) sums of each row's ``dz`` over the candidates sharing a touched row.

    bincount adds repeats, where a fancy-index ``+=`` would keep only the last.
    """
    m = dz.shape[0]
    flat = (np.arange(m)[:, None] * touched + cand).ravel()
    return np.bincount(flat, weights=dz.ravel(), minlength=m * touched).reshape(m, touched)


def contrastive_loss(
    model: TransitionModel,
    embeddings: np.ndarray,
    pos_pairs: np.ndarray,
    pos_samples: np.ndarray,
    neg_pairs: np.ndarray | None = None,
    neg_samples: np.ndarray | None = None,
    alpha: float = 0.5,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Sampled-softmax contrastive loss and its analytic parameter gradients.

    The positive term is the mean negative log-probability of each target
    against its sampled denominator. The negative term adds alpha times the
    mean log-probability of pairs that should be unlikely, clamped below so
    that already-suppressed pairs stop contributing gradient.

    The batch runs in rank space over the T distinct candidate rows it
    touches. Per term, the sources cost O(m d r), the logits one O(m T r)
    product, and the gradients the dense (m, T) scatter W of the logit
    gradients: dL/dU is (W V h)^T h_src and dL/dV is (U h_src)^T W h, so no
    (m, k+1, r) or (m, k+1, d) block is gathered. The projection of the
    touched rows and dL/dV add O(T d r). A random batch of the default shape
    (m = 128, k = 64) at d = 256, r = 32 takes, by the minimum of 30
    interleaved runs on a 2-vCPU VM with one BLAS thread: 1.2-1.3 ms on a
    180-edge store, 13.6-14.9 ms on 2,640 edges (all touched) and 34-36 ms
    on 13,200 edges (9,499 touched). A formulation that gathered the
    (m, k+1, r) block and projected the sources over all touched rows took
    2.2-2.5, 14.8-16.7 and 31-33 ms: at 13,200 edges the three (m, T)
    products cost more than the gather, but no benchmark workload trains on
    a store that large.
    """
    if pos_pairs.shape[0] == 0:
        raise EmptyBatch("contrastive loss needs at least one positive pair")
    with_negatives = neg_pairs is not None and neg_pairs.shape[0] > 0 and alpha != 0.0
    terms = [(pos_pairs, pos_samples)]
    if with_negatives:
        terms.append((neg_pairs, neg_samples))
    touched, cands = _row_map(
        embeddings.shape[0],
        [np.concatenate([pairs[:, 1:2], samples], axis=1) for pairs, samples in terms],
    )
    rows = embeddings[touched]
    cand_proj = rows @ model.v.T

    grad_u = np.zeros_like(model.u)
    v_factor = np.zeros((model.rank, len(touched)))
    loss = 0.0
    # A diverging model overflows the products; train() turns the
    # resulting non-finite loss into NonFiniteLoss.
    with np.errstate(over="ignore", invalid="ignore"):
        for term, ((pairs, _), cand) in enumerate(zip(terms, cands)):
            src_rows = embeddings[pairs[:, 0]]
            projected_src, weights, log_target = _term(model, src_rows, cand_proj, cand)
            m = pairs.shape[0]
            if term == 0:
                loss += float(-log_target.mean())
                dz = weights
                dz[:, 0] -= 1.0
                dz /= m
            else:
                loss += alpha * float(np.maximum(log_target, NEGATIVE_LOG_CLAMP).mean())
                active = (log_target > NEGATIVE_LOG_CLAMP).astype(np.float64)
                dz = -weights
                dz[:, 0] += 1.0
                dz *= (alpha / m) * active[:, None]
            scattered = _scatter(dz, cand, len(touched))
            grad_u += (scattered @ cand_proj).T @ src_rows
            v_factor += projected_src.T @ scattered
        return loss, grad_u, v_factor @ rows


def _sample_excluding(
    rng: np.random.Generator, population: int, targets: np.ndarray, count: int
) -> np.ndarray:
    """Uniform draws from range(population) excluding each row's target."""
    if population < 2:
        raise ValueError("negative sampling needs at least two hyperedges")
    draws = rng.integers(0, population - 1, size=(targets.shape[0], count))
    return draws + (draws >= targets[:, None])


def _store_rows(pairs: PairList, store: EmbeddingStore) -> np.ndarray:
    """(n, 2) store rows of each pair's source and target."""
    table = np.array([store.row_of.get(edge_id, -1) for edge_id in pairs.ids], dtype=np.int64)
    ends = pairs.codes[:, :2]
    rows = table[ends]
    unknown = np.flatnonzero(rows.ravel() < 0)
    if len(unknown):
        edge_id = pairs.ids[ends.ravel()[unknown[0]]]
        raise ValueError(f"training pair references unknown edge {edge_id!r}")
    return rows


def train(
    model: TransitionModel,
    pairs: TrainingPairs,
    store: EmbeddingStore,
    config: TrainingConfig = TrainingConfig(),
) -> list[float]:
    """Mini-batch gradient descent; returns the per-epoch mean loss history.

    The step size halves whenever an epoch fails to improve on the previous
    one. A non-finite loss rolls the model back to the last completed epoch
    and raises NonFiniteLoss. Fixed seeds give bitwise-identical runs.
    """
    if not pairs.positives:
        raise EmptyBatch("no positive training pairs")
    population = len(store.ids)
    pos_idx = _store_rows(pairs.positives, store)
    neg_idx = _store_rows(pairs.negatives, store)
    rng = np.random.default_rng(config.seed)
    step = config.step_size
    history: list[float] = []
    k = config.negatives_per_example

    for _ in range(config.epochs):
        epoch_start = (model.u.copy(), model.v.copy())
        order = rng.permutation(len(pos_idx))
        neg_order = rng.permutation(len(neg_idx)) if len(neg_idx) else np.zeros(0, dtype=np.int64)
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = pos_idx[order[start : start + config.batch_size]]
            pos_samples = _sample_excluding(rng, population, batch[:, 1], k)
            neg_batch = None
            neg_samples = None
            if len(neg_idx):
                span = np.arange(start, start + len(batch)) % len(neg_idx)
                neg_batch = neg_idx[neg_order[span]]
                neg_samples = _sample_excluding(rng, population, neg_batch[:, 1], k)
            loss, grad_u, grad_v = contrastive_loss(
                model,
                store.matrix,
                batch,
                pos_samples,
                neg_batch,
                neg_samples,
                config.alpha,
            )
            if not np.isfinite(loss):
                model.u, model.v = epoch_start
                raise NonFiniteLoss(f"loss became {loss!r}; rolled back one epoch")
            model.u -= step * grad_u
            model.v -= step * grad_v
            batch_losses.append(loss)
        epoch_loss = float(np.mean(batch_losses))
        if history and epoch_loss > history[-1]:
            step /= 2.0
        history.append(epoch_loss)

    model.quantize()
    return history
