"""Every module of the package parses as the oldest Python that
pyproject.toml's requires-python admits, so syntax a later Python added
(such as `except*`, new in 3.11) fails here. The parse checks grammar
only: a library call newer than the floor, such as hashlib.file_digest
(3.11), is not caught."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mission_profiler"
FLOOR = tuple(
    int(part) for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M,
    ).groups()
)


def test_the_floor_parse_refuses_syntax_of_a_later_python():
    assert FLOOR == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
