"""Order-aware knowledge hypergraph retrieval."""

from okh.corpus import (
    GeneratedCorpus,
    GroupScenario,
    QAItem,
    generate_synthetic,
    group_id_for,
)
from okh.embedding import (
    EmbeddingCache,
    EmbeddingStore,
    LocalHashingEmbedder,
    RemoteEmbeddingClient,
)
from okh.errors import (
    ConflictingHorizon,
    DimensionMismatch,
    ElementMismatch,
    EmptyBatch,
    EmptyCorpus,
    NonFiniteLoss,
    OkhError,
    ProviderError,
    SchemaError,
    UnknownEdge,
)
from okh.evaluation import (
    AblationReport,
    AblationVariant,
    extract_answer,
    forward_margins,
    kendall_tau,
    run_ablation,
)
from okh.evidence import (
    EvidenceStep,
    build_evidence_steps,
    format_trajectory,
)
from okh.hypergraph import (
    Entity,
    Hyperedge,
    KnowledgeHypergraph,
    canonical_entity_id,
    dedup_id,
    entity_stem,
    horizon_anchor_id,
    merge_facts,
    validate_fact,
)
from okh.precedence import (
    Order,
    PrecedenceIndex,
    build_precedence,
    effective_lead,
)
from okh.relations import (
    CROSS_HORIZON_FAMILY,
    DEFAULT_VOCABULARY,
    EntityType,
    RelationVocabulary,
    phase_of_family,
)
from okh.retrieval import (
    RetrievalWeights,
    Retriever,
    ScopeConfig,
    SearchConfig,
    Trajectory,
    beam_search,
    entity_continuity,
    phase_coverage,
    precedence_consistency,
    scope_candidates,
    trajectory_score,
    viterbi,
)
from okh.transition import (
    TrainingConfig,
    TrainingPairs,
    TransitionModel,
    build_pairs,
    contrastive_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
