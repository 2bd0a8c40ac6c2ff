"""README's shell examples name only commands and options the CLI has, so
a renamed or removed option fails here rather than in a reader's shell;
README names every file a run writes, and every exit code, and its
Install section every package the program and its tests need."""
import re
import shlex
import tomllib
from pathlib import Path

from mission_profiler.cli import main
from mission_profiler.pipeline import EXIT_CODES, STAGE_TABLE

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


def cli_lines(markdown: str) -> list[list[str]]:
    """The words of each `mission-profiler ...` line in the ```sh blocks,
    with backslash-continued lines joined."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", markdown, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["mission-profiler"]:
                lines.append(words[1:])
    return lines


def unknown_options(words: list[str]) -> list[str]:
    """The problems of one command line: an unknown command, or options the
    command does not take."""
    command = main.commands.get(words[0]) if words else None
    if command is None:
        return [f"no command {words[:1]}"]
    known = {opt for param in command.params for opt in param.opts}
    return [f"{words[0]} {w}" for w in words[1:] if w.startswith("--") and w.split("=")[0] not in known]


def test_cli_lines_joins_continued_lines_and_skips_other_commands():
    markdown = "```sh\npip install x\nmission-profiler group --corpus c \\\n   --out g  # note\n```\n"
    assert cli_lines(markdown) == [["group", "--corpus", "c", "--out", "g"]]
    assert unknown_options(["group", "--corpus", "c", "--outdir", "g"]) == ["group --outdir"]
    assert unknown_options(["grup"]) == ["no command ['grup']"]


def test_readme_command_lines_name_existing_commands_and_their_options():
    lines = cli_lines(README.read_text(encoding="utf-8"))
    assert {words[0] for words in lines} == set(main.commands)  # every command has an example
    assert [problem for words in lines for problem in unknown_options(words)] == []


def test_readme_names_every_file_a_stage_declares():
    text = README.read_text(encoding="utf-8")
    names = {Path(file).name for stage in STAGE_TABLE.values() for file, _ in stage.outputs.values()}
    # a whole name: not part of a longer one, as eval.json is of eval.jsonl
    missing = sorted(n for n in names if not re.search(rf"(?<![\w.-]){re.escape(n)}(?![\w.-])", text))
    assert missing == []


def test_readme_install_section_names_every_dependency_and_test_requirement():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    names = [re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in requirements]
    install = re.search(r"^## Install\n(.*?)^## ", README.read_text(encoding="utf-8"), flags=re.S | re.M).group(1)
    assert [name for name in names if f"`{name}`" not in install] == []


def test_readme_exit_code_table_gives_every_exit_code():
    rows = re.findall(r"^\| (\d+) \| `([a-z-]+)`", README.read_text(encoding="utf-8"), flags=re.M)
    assert {name: int(code) for code, name in rows} == EXIT_CODES
