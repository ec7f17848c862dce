"""Static checks on the package source: no unused import, `__all__` equal to the imports,
an explicit encoding on every text file the package opens, and Python 3.10 grammar.

There is no linter among the test dependencies, so these read the source with `ast`.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ratecraft"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _dunder_all(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_dunder_all(tree))
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


def test_package_exports_exactly_what_it_imports():
    tree = _tree(SRC / "__init__.py")
    exported = _dunder_all(tree)
    assert len(exported) == len(set(exported)), "__all__ lists a name twice"
    imported = set(_imported(tree))
    assert sorted(imported - set(exported)) == [], "imported but not in __all__"
    assert sorted(set(exported) - imported) == [], "in __all__ but not imported"


def _opens_file(call: ast.Call) -> bool:
    """True for `open(...)`, `x.read_text(...)` and `x.write_text(...)`; `os.open` is not one."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text")


def _binary_mode(call: ast.Call) -> bool:
    """True if the call's mode, positional or `mode=`, is a literal holding "b".

    A binary open takes no encoding: Python raises if it is given one.
    """
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str) and "b" in m.value
               for m in modes)


def _lacks_encoding(call: ast.Call) -> bool:
    return not _binary_mode(call) and not any(k.arg == "encoding" for k in call.keywords)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_file_is_opened_with_an_encoding(path):
    calls = [node for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and _opens_file(node)]
    missing = [f"line {c.lineno}" for c in calls if _lacks_encoding(c)]
    assert not missing, f"{path.name}: open/read_text/write_text without encoding=: {missing}"


def test_the_encoding_check_sees_each_call_form():
    tree = ast.parse("open(p)\nopen(p, encoding='utf-8')\nP.read_text()\nP.write_text(t)\n"
                     "os.open(p, 0)\nopen(p, 'rb')\nopen(p, 'r')\nopen(p, mode='wb')\n")
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _opens_file(n)]
    assert [c.lineno for c in calls] == [1, 2, 3, 4, 6, 7, 8]
    assert [c.lineno for c in calls if _lacks_encoding(c)] == [1, 3, 4, 7]


PYTHON_FLOOR = (3, 10)  # requires-python in pyproject.toml


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_parses_as_the_oldest_supported_python(path):
    """The module uses no syntax newer than Python 3.10, such as `except*`.

    This checks grammar only: `feature_version` does not see a stdlib name or
    argument added after 3.10, so CI's 3.10 leg remains the check for those.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=PYTHON_FLOOR)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="only 3.11+ parsers know except* and report the version it needs")
def test_the_grammar_check_refuses_newer_syntax():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=PYTHON_FLOOR)
