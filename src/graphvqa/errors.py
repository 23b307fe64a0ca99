"""Exception types and the field type check shared by configs and records."""

import re
from dataclasses import fields
from functools import cache

# The values each annotated type of a field accepts (a bool is an int to
# Python, but never a count or a number here).
_FIELD_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
                "float": ((int, float), "a number")}
# The annotations checked: one of those types, or a list or tuple of it (a
# JSON array), either perhaps Optional.
_ANNOTATION = re.compile(r"(Optional\[)?((?:list|tuple)\[)?(str|int|float)(?:, \.\.\.)?\]*")


@cache
def _checked_fields(cls) -> tuple:
    """(name, optional, sequence, types, noun) for each init field of the
    dataclass `cls` whose annotation is checked. Cached: matching them for
    every QA line and manifest more than doubled their load time."""
    checked = []
    for spec in fields(cls):
        if spec.init and (match := _ANNOTATION.fullmatch(spec.type)):
            optional, sequence, item = match.groups()
            checked.append((spec.name, bool(optional), bool(sequence), *_FIELD_TYPES[item]))
    return tuple(checked)


def check_field_types(record, error: type, label: str = "{}") -> None:
    """Raise `error` unless each init field of the dataclass `record` whose
    annotation is checked holds its type; nested configs check themselves.
    A message names the field as `label` formats its name."""
    for name, optional, sequence, types, noun in _checked_fields(type(record)):
        value = getattr(record, name)
        if optional and value is None:
            continue
        if sequence and not isinstance(value, (list, tuple)):
            raise error(f"{label.format(name)} must be a list, got {value!r}")
        for element in value if sequence else (value,):
            if isinstance(element, bool) or not isinstance(element, types):
                each = "each of " if sequence else ""
                raise error(f"{each}{label.format(name)} must be {noun}, got {element!r}")


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
