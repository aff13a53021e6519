"""Exception hierarchy for sizerforge.

Every exception raised on purpose by this package derives from
:class:`SizerForgeError`, so callers can catch one type at an API boundary.
Classes are grouped by the subsystem that raises them.
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


# --- configuration / templates ---------------------------------------------

class ConfigError(SizerForgeError):
    pass


class MissingKey(ConfigError):
    def __init__(self, name):
        super().__init__(f"required config key missing: {name!r}")
        self.name = name


class BadScaleRef(ConfigError):
    def __init__(self, width, base):
        super().__init__(f"width_scales entry {width!r} references undeclared base {base!r}")
        self.width = width
        self.base = base


class NonMonotonicGrid(ConfigError):
    pass


class TemplateUnresolvable(ConfigError):
    def __init__(self, placeholder):
        super().__init__(f"template placeholder {{{placeholder}}} cannot be resolved")
        self.placeholder = placeholder


class MissingAssignment(ConfigError):
    def __init__(self, var):
        super().__init__(f"assignment missing variable {var!r}")
        self.var = var


# --- spec expression language ------------------------------------------------

class SpecParseError(SizerForgeError):
    def __init__(self, position, reason):
        super().__init__(f"spec parse error at position {position}: {reason}")
        self.position = position
        self.reason = reason


class UnsupportedCombinator(SpecParseError):
    def __init__(self, position, token):
        SizerForgeError.__init__(
            self, f"unsupported combinator {token!r} at position {position}; only AND is supported"
        )
        self.position = position
        self.reason = f"unsupported combinator {token!r}"


# --- history ------------------------------------------------------------------

class EmptyHistory(SizerForgeError):
    pass


class InsufficientHistory(SizerForgeError):
    pass


# --- search space --------------------------------------------------------------

class IllegalEdit(SizerForgeError):
    pass


class PlanIncomplete(SizerForgeError):
    pass


class ValueOffGrid(SizerForgeError):
    def __init__(self, var, value):
        super().__init__(f"value {value!r} for {var!r} is not on the grid")
        self.var = var
        self.value = value


# --- optimizers -----------------------------------------------------------------

class UnknownMethod(SizerForgeError):
    pass


class BadParameter(SizerForgeError):
    pass


class SingularKernel(SizerForgeError):
    pass


# --- run control ------------------------------------------------------------------

class BudgetOverrun(SizerForgeError):
    pass


# --- evaluation -------------------------------------------------------------------

class EvaluatorUnavailable(SizerForgeError):
    pass


class UnknownModel(SizerForgeError):
    pass


class GridTooLarge(SizerForgeError):
    pass


# --- agents -------------------------------------------------------------------------

class JsonUnparseable(SizerForgeError):
    pass


class SchemaViolation(SizerForgeError):
    def __init__(self, field, expected):
        super().__init__(f"schema violation at {field!r}: expected {expected}")
        self.field = field
        self.expected = expected


class LlmTransport(SizerForgeError):
    def __init__(self, status, body):
        super().__init__(f"llm transport failure (status {status}): {body[:200]}")
        self.status = status
        self.body = body


class Timeout(SizerForgeError):
    pass


class IllegalPlan(SizerForgeError):
    pass
