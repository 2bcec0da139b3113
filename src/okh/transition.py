"""Low-rank bilinear transition model over hyperedge embeddings.

The score for moving from edge i to edge j is (U h_i) . (V h_j) with U and
V of shape (rank, dim), so the model is asymmetric and costs 2 * rank * dim
parameters. Training minimizes a sampled-softmax contrastive loss over
ordered pairs mined from document order, entity overlap, and prior
retrieval traces, using plain mini-batch gradient descent.

Each batch runs in rank space: the embedding rows it touches are projected
through U and V once, logits come from rank-r rows, and the gradients are
scattered back onto those rows. The d-dimensional rows are read only by the
projections and the two gradient products, so a batch of m pairs with k
samples costs O(T d r + m T r + m k r) for T touched rows, not O(m k d).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from okh.embedding import EmbeddingStore
from okh.errors import DimensionMismatch, EmptyBatch, NonFiniteLoss
from okh.hypergraph import KnowledgeHypergraph
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
            raise ValueError(f"checkpoint {path} is truncated")
        magic, version, dim, rank = struct.unpack_from("<4sIII", blob)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"checkpoint {path} has magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        expected = header + 2 * 4 * dim * rank + 8
        if len(blob) != expected:
            raise ValueError(f"checkpoint {path} has {len(blob)} bytes, expected {expected}")
        offset = header
        u = np.frombuffer(blob, dtype="<f4", count=rank * dim, offset=offset)
        offset += 4 * rank * dim
        v = np.frombuffer(blob, dtype="<f4", count=rank * dim, offset=offset)
        offset += 4 * rank * dim
        (seed,) = struct.unpack_from("<Q", blob, offset)
        return cls(
            u.astype(np.float64).reshape(rank, dim),
            v.astype(np.float64).reshape(rank, dim),
            int(seed),
        )


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass
class TrainingPairs:
    """Ordered pairs with their mining signal: (source id, target id, signal)."""

    positives: list[tuple[str, str, str]] = field(default_factory=list)
    negatives: list[tuple[str, str, str]] = field(default_factory=list)


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
    """
    import random

    rng = random.Random(seed)
    pairs = TrainingPairs()
    all_ids = sorted(hypergraph.hyperedges)

    for group in sorted(hypergraph.groups):
        edges = hypergraph.group_edges(group)
        outside = [edge_id for edge_id in all_ids if hypergraph.hyperedges[edge_id].group_id != group]

        by_text = sorted(edges, key=lambda edge: (edge.text_position, edge.id))
        for i, src in enumerate(by_text):
            for dst in by_text[i + 1 :]:
                if src.text_position == dst.text_position:
                    continue
                pairs.positives.append((src.id, dst.id, "doc_order"))
                pairs.negatives.append((dst.id, src.id, "doc_order"))
            if outside:
                pairs.negatives.append(
                    (src.id, outside[rng.randrange(len(outside))], "cross_group")
                )

        canonical = precedence.trajectory(group)
        edge_of = {edge.id: edge for edge in edges}
        for i, src_id in enumerate(canonical):
            src = edge_of[src_id]
            for dst_id in canonical[i + 1 :]:
                if src.entity_ids & edge_of[dst_id].entity_ids:
                    pairs.positives.append((src_id, dst_id, "entity_overlap"))

    for trace in retrieval_traces or ():
        for src_id, dst_id in zip(trace, trace[1:]):
            if src_id in hypergraph.hyperedges and dst_id in hypergraph.hyperedges:
                pairs.positives.append((src_id, dst_id, "retrieval_induced"))

    forward = {(src, dst) for src, dst, _ in pairs.positives}
    pairs.negatives = [item for item in pairs.negatives if (item[0], item[1]) not in forward]
    return pairs


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
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def _softmax_stats(
    src_proj: np.ndarray,
    cand_proj: np.ndarray,
    src: np.ndarray,
    cand: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Softmax weights and target log-probability of one term, in rank space.

    ``src`` (m,) and ``cand`` (m, k+1) index the rows of the projections
    ``U h`` and ``V h`` of the touched embedding rows; column 0 of ``cand``
    is the target.
    """
    projected_src = src_proj[src]
    projected_cand = np.take(cand_proj, cand, axis=0)
    logits = np.einsum("mr,mkr->mk", projected_src, projected_cand)
    shifted = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=1, keepdims=True)
    log_target = shifted[:, 0] - np.log(np.exp(shifted).sum(axis=1))
    return projected_src, projected_cand, weights, log_target


def _accumulate_grads(
    rows: np.ndarray,
    src: np.ndarray,
    cand: np.ndarray,
    projected_src: np.ndarray,
    projected_cand: np.ndarray,
    dz: np.ndarray,
    grad_u: np.ndarray,
) -> np.ndarray:
    """Add one term's dL/dU to ``grad_u``; return its (rank, touched) factor of dL/dV.

    d logit / dU = outer(V h_cand, h_src); d logit / dV = outer(U h_src, h_cand).
    dL/dV is P_src^T W rows, where W (m, touched) sums each row's dz over the
    candidates that share a touched row; bincount adds repeats, where a
    fancy-index ``+=`` would keep only the last.
    """
    d_src = np.einsum("mk,mkr->mr", dz, projected_cand)
    grad_u += d_src.T @ rows[src]
    m, touched = dz.shape[0], rows.shape[0]
    flat = (np.arange(m)[:, None] * touched + cand).ravel()
    scattered = np.bincount(flat, weights=dz.ravel(), minlength=m * touched)
    return projected_src.T @ scattered.reshape(m, touched)


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

    The batch runs in rank space. With T distinct rows touched, m pairs and
    k samples per term, it costs O(T d r) for the projections and dL/dV,
    O(m T r) for the scattered candidate weights and O(m k r) for the
    logits, against O(m k d) for gathering d-dimensional candidate rows. T
    is at most the store size, so the saving shrinks once a batch touches
    most of a large store: at 13,200 edges a default batch (m = 128,
    k = 64) touches about 70 % of the rows and takes 10-35 % longer than
    the d-space gather did.
    """
    if pos_pairs.shape[0] == 0:
        raise EmptyBatch("contrastive loss needs at least one positive pair")
    with_negatives = neg_pairs is not None and neg_pairs.shape[0] > 0 and alpha != 0.0
    index = [pos_pairs[:, 0], np.concatenate([pos_pairs[:, 1:2], pos_samples], axis=1)]
    if with_negatives:
        index += [neg_pairs[:, 0], np.concatenate([neg_pairs[:, 1:2], neg_samples], axis=1)]
    touched, local = np.unique(
        np.concatenate([part.ravel() for part in index]), return_inverse=True
    )
    splits = np.cumsum([part.size for part in index])[:-1]
    pos_src, pos_cand, *neg_local = [
        block.reshape(part.shape) for block, part in zip(np.split(local, splits), index)
    ]
    rows = embeddings[touched]
    src_proj = rows @ model.u.T
    cand_proj = rows @ model.v.T

    grad_u = np.zeros_like(model.u)
    projected_src, projected_cand, weights, log_target = _softmax_stats(
        src_proj, cand_proj, pos_src, pos_cand
    )
    m = pos_pairs.shape[0]
    loss = float(-log_target.mean())
    dz = weights.copy()
    dz[:, 0] -= 1.0
    dz /= m
    v_factor = _accumulate_grads(
        rows, pos_src, pos_cand, projected_src, projected_cand, dz, grad_u
    )

    # Free the (m, k+1, r) block first: the negative term's gather then
    # reuses it instead of faulting in fresh pages.
    del projected_cand
    if with_negatives:
        neg_src, neg_cand = neg_local
        projected_src, projected_cand, weights, log_target = _softmax_stats(
            src_proj, cand_proj, neg_src, neg_cand
        )
        m_neg = neg_pairs.shape[0]
        loss += alpha * float(np.maximum(log_target, NEGATIVE_LOG_CLAMP).mean())
        active = (log_target > NEGATIVE_LOG_CLAMP).astype(np.float64)
        dz = -weights
        dz[:, 0] += 1.0
        dz *= (alpha / m_neg) * active[:, None]
        v_factor += _accumulate_grads(
            rows, neg_src, neg_cand, projected_src, projected_cand, dz, grad_u
        )

    return loss, grad_u, v_factor @ rows


def _sample_excluding(
    rng: np.random.Generator, population: int, targets: np.ndarray, count: int
) -> np.ndarray:
    """Uniform draws from range(population) excluding each row's target."""
    if population < 2:
        raise ValueError("negative sampling needs at least two hyperedges")
    draws = rng.integers(0, population - 1, size=(targets.shape[0], count))
    return draws + (draws >= targets[:, None])


def _pairs_to_indices(
    pairs: list[tuple[str, str, str]], store: EmbeddingStore
) -> np.ndarray:
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    try:
        return np.array(
            [[store.row_of[src], store.row_of[dst]] for src, dst, _ in pairs],
            dtype=np.int64,
        )
    except KeyError as exc:
        raise ValueError(f"training pair references unknown edge {exc.args[0]!r}") from exc


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
    pos_idx = _pairs_to_indices(pairs.positives, store)
    neg_idx = _pairs_to_indices(pairs.negatives, store)
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
