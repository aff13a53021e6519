"""Exception hierarchy for sizerforge.

Every exception raised on purpose by this package derives from
:class:`SizerForgeError`, so callers can catch one type at an API boundary;
a bad config, matrix or template raises :class:`ConfigError`. Any other
class earns its place in one of two ways: some caller handles it by name
(an ``except`` clause, or the LLM backend's ``_REJECTABLE`` tuple of
replies that earn a retry), or its constructor formats the message of
several raises. An error that only needs a message raises a root class
with that message. ``tests/test_errors.py`` checks this rule.
"""

import sys


class SizerForgeError(Exception):
    """Base class for all sizerforge errors."""


def shown(value) -> str:
    """``repr(value)`` for an error message. An integer past Python's
    int-to-string digit limit has no repr, so it is named by the limit."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of more than {sys.get_int_max_str_digits()} digits"


class ConfigError(SizerForgeError):
    pass


# --- spec expression language ------------------------------------------------

class SpecParseError(SizerForgeError):
    def __init__(self, position, reason):
        super().__init__(f"spec parse error at position {position}: {reason}")


class UnsupportedCombinator(SpecParseError):
    def __init__(self, position, token):
        SizerForgeError.__init__(
            self, f"unsupported combinator {token!r} at position {position}; only AND is supported"
        )


# --- optimizers ----------------------------------------------------------------

class InsufficientHistory(SizerForgeError):
    pass


class SingularKernel(SizerForgeError):
    pass


class UnknownMethod(SizerForgeError):
    pass


class BadParameter(SizerForgeError):
    pass


# --- search space ----------------------------------------------------------------

class PlanIncomplete(SizerForgeError):
    pass


class ValueOffGrid(SizerForgeError):
    def __init__(self, var, value):
        super().__init__(f"value {value!r} for {var!r} is not on the grid")


# --- agents ----------------------------------------------------------------------

class JsonUnparseable(SizerForgeError):
    pass


class SchemaViolation(SizerForgeError):
    def __init__(self, field, expected):
        super().__init__(f"schema violation at {field!r}: expected {expected}")


class LlmTransport(SizerForgeError):
    def __init__(self, status, body):
        super().__init__(f"llm transport failure (status {status}): {body[:200]}")


class Timeout(SizerForgeError):
    pass


class IllegalPlan(SizerForgeError):
    pass
