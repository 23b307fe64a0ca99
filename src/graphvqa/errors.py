"""Exception types and the config type check shared across the package."""

from dataclasses import fields

# The values each annotated type of a config field accepts (a bool is an
# int to Python, but never a count or a number here).
_FIELD_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
                "float": ((int, float), "a number")}


def check_type(value, kind: str, name: str, error: type) -> None:
    """Raise `error` unless `value` is of the annotated type `kind`."""
    types, noun = _FIELD_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise error(f"{name} must be {noun}, got {value!r}")


def check_field_types(config, error: type) -> None:
    """Raise `error` unless each str, int or float init field of the dataclass
    `config` holds its type; nested configs check themselves."""
    for spec in fields(config):
        if spec.init and spec.type in _FIELD_TYPES:
            check_type(getattr(config, spec.name), spec.type, spec.name, error)


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
