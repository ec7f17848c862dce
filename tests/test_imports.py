"""Static checks on the package source: no unused import, `__all__` equal to the imports,
an explicit encoding on every text file the package opens, `ingest.atomic_write` as the one
place that writes a file, `ingest._text_lines` as the one place that splits text into lines,
and Python 3.10 grammar.

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


def _writes_file(call: ast.Call) -> bool:
    """True for `os.open(...)`, `x.write_text(...)`, `x.write_bytes(...)`, and for `open(...)`
    or `x.open(...)` whose mode holds "w", "a", "x" or "+", or is not a literal."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return True
        modes = call.args[:1]  # Path.open(mode)
    else:
        return False
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


def _file_writes(tree) -> tuple[list[int], list[int]]:
    """The lines of the file-writing calls in `tree`, outside and inside `atomic_write`."""
    inside = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "atomic_write" for n in ast.walk(node)}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _writes_file(n)]
    return ([c.lineno for c in calls if id(c) not in inside],
            [c.lineno for c in calls if id(c) in inside])


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_atomic_write_is_the_only_file_writer(path):
    outside, inside = _file_writes(_tree(path))
    assert not outside, f"{path.name}: a file is written outside ingest.atomic_write: {outside}"
    assert len(inside) == (2 if path.name == "ingest.py" else 0)  # os.open and open(fd, "wb")


def test_the_writer_check_sees_each_call_form():
    tree = ast.parse("open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\n"
                     "open(p, m)\nos.open(p, 0)\nP.write_text(t)\nP.write_bytes(b)\n"
                     "P.open()\nP.open('x')\nP.read_text()\n"
                     "def atomic_write(p, chunks):\n    os.open(p, 0)\n    open(fd, 'wb')\n")
    assert _file_writes(tree) == ([3, 4, 5, 6, 7, 8, 9, 11], [14, 15])


def _splits_lines(node: ast.AST) -> bool:
    """True for a `splitlines` call, a `StringIO` name, a `strip`, `lstrip` or `rstrip` whose
    argument is a literal holding CR or LF, and a `split` at a literal holding LF."""
    if isinstance(node, ast.Name):
        return node.id == "StringIO"
    if isinstance(node, ast.Attribute):
        return node.attr == "StringIO"
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    literals = [a.value if isinstance(a.value, str) else a.value.decode("latin-1")
                for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, (str, bytes))]
    method = node.func.attr
    if method in ("strip", "lstrip", "rstrip"):
        return any(set(text) & set("\r\n") for text in literals)
    return method == "splitlines" or (method == "split" and any("\n" in t for t in literals))


def _line_splits(tree) -> tuple[list[int], list[int]]:
    """The lines of the line-splitting nodes in `tree`, outside and inside `_text_lines`."""
    inside = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_text_lines" for n in ast.walk(node)}
    nodes = [n for n in ast.walk(tree) if _splits_lines(n)]
    return (sorted(n.lineno for n in nodes if id(n) not in inside),
            sorted(n.lineno for n in nodes if id(n) in inside))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_text_lines_is_the_only_line_splitter(path):
    outside, inside = _line_splits(_tree(path))
    assert not outside, f"{path.name}: lines are split outside ingest._text_lines: {outside}"
    assert len(inside) == (1 if path.name == "ingest.py" else 0)  # its one split("\n")


def test_the_line_split_check_sees_each_call_form():
    tree = ast.parse("t.splitlines()\nio.StringIO(t)\nStringIO(t)\nt.rstrip('\\r\\n')\n"
                     "b.rstrip(b'\\n')\nt.strip('\\r')\nt.lstrip('\\n ')\nt.rstrip()\n"
                     "t.strip()\nt.rstrip(ends)\nt.split(',')\nt.split('\\n')\n"
                     "b.split(b'\\r\\n')\nt.removesuffix('\\r')\n"
                     "def _text_lines(p):\n    return t.split('\\n')\n")
    assert _line_splits(tree) == ([1, 2, 3, 4, 5, 6, 7, 12, 13], [16])


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
