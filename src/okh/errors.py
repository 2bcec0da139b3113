"""Exception types shared across the package."""

from __future__ import annotations


class OkhError(Exception):
    """Base class for every package-specific error."""


class SchemaError(OkhError):
    """A fact or snapshot document failed validation.

    Carries the path of the offending field so callers can point at the
    exact location in the input.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class ConflictingHorizon(OkhError):
    """A hyperedge already carries a temporal anchor for a different horizon."""


class DimensionMismatch(OkhError):
    """Vector dimensions disagree with what the caller or provider expects."""


class ProviderError(OkhError):
    """A remote provider kept failing after the configured retries."""

    def __init__(self, status: int | None, body: str):
        super().__init__(f"provider request failed (status={status}): {body}")
        self.status = status
        self.body = body


class EmptyBatch(OkhError):
    """A training step was asked to run on zero positive pairs."""


class NonFiniteLoss(OkhError):
    """Training produced NaN or infinity; the model was rolled back."""


class EmptyCorpus(OkhError):
    """Candidate scoping needs at least one hyperedge to work with."""


class UnknownEdge(OkhError):
    """A trajectory step references a hyperedge id that is not in the graph."""


class ElementMismatch(OkhError):
    """Rank correlation requires both orders to contain the same elements."""
