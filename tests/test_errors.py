"""Every exception class earns its place.

Apart from the roots ``SizerForgeError`` and ``ConfigError``, a class in
``sizerforge.errors`` is kept only if some caller under src/ handles it
by name, in an ``except`` clause directly or through a module-level
tuple such as the model backend's ``_REJECTABLE``, or if it defines
``__init__`` and that constructor formats the message of two or more
``raise`` sites. Any other error raises a root class with its message.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sizerforge"
ROOTS = {"SizerForgeError", "ConfigError"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _names(node):
    """The class names an ``except`` type or a tuple of them spells."""
    if isinstance(node, ast.Tuple):
        return [n for element in node.elts for n in _names(element)]
    name = _name(node)
    return [name] if name else []


def _usage():
    """(names handled by some ``except``, raise sites per class name)."""
    handled, raised = set(), Counter()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        tuples = {target.id: _names(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                  for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in _names(node.type):
                    handled.update(tuples.get(name, [name]))
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised[_name(node.exc.func)] += 1
    return handled, raised


def _error_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def test_every_error_class_is_handled_by_name_or_formats_several_raises():
    handled, raised = _usage()
    unearned = []
    for cls in _error_classes():
        formats = any(isinstance(m, ast.FunctionDef) and m.name == "__init__" for m in cls.body)
        if cls.name in ROOTS or cls.name in handled or (formats and raised[cls.name] >= 2):
            continue
        unearned.append(cls.name)
    assert not unearned, f"neither handled nor formatting several raises: {', '.join(unearned)}"


def test_the_rule_sees_the_handlers_and_raises_it_relies_on():
    handled, raised = _usage()
    # directly, and through the model backend's tuple of retried replies
    assert {"InsufficientHistory", "LlmTransport", "SchemaViolation", "ValueOffGrid"} <= handled
    assert min(raised["SpecParseError"], raised["UnsupportedCombinator"]) >= 2
    assert ROOTS < {cls.name for cls in _error_classes()}
