"""Exception types shared across the package."""


class GraphVQAError(Exception):
    """Base class for all package-specific errors."""


class LexiconError(GraphVQAError):
    """A lexicon file is malformed or its predicate sets overlap."""


class DataFormatError(GraphVQAError):
    """A bundle, QA, graph, or transcript payload is malformed.

    Messages name the offending file/record (and line number where there
    is one) so eval failures are actionable.
    """


class SchemaVersionError(DataFormatError):
    """A serialized payload declares a schema version this code cannot read."""

    def __init__(self, found, supported):
        super().__init__(f"unsupported schema version {found!r} (supported: {supported})")
        self.found = found
        self.supported = supported


class DimensionError(GraphVQAError):
    """Embedding vectors of incompatible dimensions were mixed."""


class GatewayError(GraphVQAError):
    """A model backend call failed after exhausting retries, or returned garbage."""

    def __init__(self, message, status=None, attempts=None):
        super().__init__(message)
        self.status = status
        self.attempts = attempts


class GatewayConfigError(GatewayError):
    """Provider configuration is unusable (raised before any network call)."""


class MissingCaptionError(GatewayError):
    """No caption source can describe the requested frame."""


class MissingEmbeddingError(GatewayError):
    """No embedding source can embed the requested frame or text."""
