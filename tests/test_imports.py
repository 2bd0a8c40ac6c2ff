"""Every module-level import of the package is used, so an import that a
deletion leaves behind fails here. A name listed in a module's __all__
counts as used: the package re-exports it. Every module-level function
and class of the package, and every method of such a class but a dunder,
is named somewhere in the package or its tests outside its own
definition, so a definition that a deletion orphans fails here too. A
file-backend run loads no module that only another backend or a replaced
helper needs. Only util.py calls json.loads: every other module decodes
JSON with util.loads_line."""
import ast
import json
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_pipeline import _config, _small_bundle

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mission_profiler"
TESTS = Path(__file__).resolve().parent


def _dotted(node: ast.AST) -> str | None:
    """'a.b.c' for the expression a.b.c, None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}  # bound name, or dotted module of `import a.b`, to its line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used: set[str] = set()
    for node in ast.walk(tree):
        name = _dotted(node)
        if name:
            parts = name.split(".")
            used.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_unused_imports_finds_what_nothing_reads():
    source = (
        "from __future__ import annotations\nimport os\nimport json\nimport urllib.error\nimport urllib.request\n"
        "from typing import Callable, Iterable\nimport numpy as np\n__all__ = ['Iterable']\n"
        "def f(x: Callable) -> None:\n    json.dumps(np.zeros(1))\n    urllib.request.urlopen(x)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "urllib.error (line 4)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _identifiers(tree: ast.AST) -> Counter:
    """How often each name, attribute or imported name occurs in tree."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _registered_command(node: ast.AST) -> bool:
    """Whether a @main.command(...) or @main.group(...) decorator registers it with click."""
    return any(
        isinstance(d, ast.Call) and _dotted(d.func) in ("main.command", "main.group")
        for d in getattr(node, "decorator_list", [])
    )


def dead_definitions(sources: dict[str, str], checked: list[str]) -> list[str]:
    """The module-level functions and classes of the checked sources, and
    the methods of those classes, that no source names outside their own
    definition; a CLI command and a dunder method are exempt."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named = sum((_identifiers(tree) for tree in trees.values()), Counter())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for name in checked:
        for node in trees[name].body:
            if not isinstance(node, (*functions, ast.ClassDef)) or _registered_command(node):
                continue
            methods = [
                (f"{node.name}.{method.name}", method) for method in getattr(node, "body", [])
                if isinstance(node, ast.ClassDef) and isinstance(method, functions)
                and not (method.name.startswith("__") and method.name.endswith("__"))
            ]
            for label, definition in [(node.name, node), *methods]:
                if named[definition.name] == _identifiers(definition)[definition.name]:  # recursion names only itself
                    dead.append(f"{name}: {label} (line {definition.lineno})")
    return dead


def test_dead_definitions_finds_what_nothing_names():
    sources = {
        "a.py": (
            "import click\n@click.group()\ndef main(): pass\n@main.command()\ndef cmd(): pass\n"
            "def used(): pass\ndef recursive(n): return recursive(n - 1)\nclass Orphan: pass\n"
            "class Kept:\n    def __eq__(self, other): pass\n    def called(self): pass\n"
            "    def loop(self): return self.loop()\ndef _private(): pass\n"
        ),
        "b.py": "from a import used\nimport a\nx = a.Kept().called()\ndef test(): return main\n",
    }
    assert dead_definitions(sources, ["a.py"]) == [
        "a.py: recursive (line 7)", "a.py: Orphan (line 8)", "a.py: Kept.loop (line 12)", "a.py: _private (line 13)",
    ]


def test_every_module_level_function_and_class_is_named_elsewhere():
    package = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    tests = {f"tests/{path.name}": path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))}
    assert dead_definitions({**package, **tests}, sorted(package)) == []


def json_loads_calls(source: str) -> list[str]:
    """The lines that call json.loads, or import loads from json."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _dotted(node.func) == "json.loads":
            found.append(f"json.loads (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(a.name == "loads" for a in node.names):
            found.append(f"from json import loads (line {node.lineno})")
    return found


def test_json_loads_calls_finds_each_way_of_calling_it():
    source = (
        "import json\nfrom json import loads as parse\nfrom .util import loads_line\n"
        "def f(line):\n    json.dumps(line)\n    loads_line(line)\n    return json.loads(line)\n"
    )
    assert json_loads_calls(source) == ["from json import loads (line 2)", "json.loads (line 7)"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "util.py"), ids=lambda path: path.name)
def test_only_util_calls_json_loads(path):
    assert json_loads_calls(path.read_text(encoding="utf-8")) == []


# the HTTP stack (for the http backend alone), statistics (one median) and
# numpy.ma (np.unique, called by np.percentile)
NOT_IN_A_FILE_RUN = ("ssl", "email", "http.client", "urllib.request", "statistics", "numpy.ma")

_RUN = """
import json, sys, warnings
import mission_profiler.pipeline as pipeline
NOT_LOADED = sys.argv[3:]
on_import = [name for name in NOT_LOADED if name in sys.modules]
warnings.simplefilter("ignore")
pipeline.run_pipeline(pipeline.RunConfig.from_file(sys.argv[1]), sys.argv[2])
print(json.dumps([on_import, [name for name in NOT_LOADED if name in sys.modules]]))
"""


def test_a_cold_file_backend_run_loads_no_http_stack_statistics_or_numpy_ma(tmp_path):
    # a fresh interpreter: this one has loaded everything the tests use
    config = _config(_small_bundle(tmp_path))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.as_dict()), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", _RUN, str(config_path), str(tmp_path / "run"), *NOT_IN_A_FILE_RUN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], []]
    assert (tmp_path / "run" / "report" / "report.json").is_file()
