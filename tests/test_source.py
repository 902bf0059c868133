"""Checks on the source itself. Invariants in the package must not depend
on the interpreter's -O flag: an ``assert`` statement or a ``__debug__``
branch vanishes under it. No module reads the environment. README must
show only the CLI that exists."""

import argparse
import ast
import re
from pathlib import Path

import hybridmfi
from hybridmfi import cli

PACKAGE = Path(hybridmfi.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_has_no_assert_or_debug_branch():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "__debug__"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "checks that -O removes: " + ", ".join(found)


def test_package_reads_no_environment():
    # The counting switch's constants are fitted, not tuned per run: no
    # module may read an environment variable.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("environ", "getenv", "environb", "getenvb"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.alias) and node.name in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "environment reads: " + ", ".join(found)


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _option_strings(sub)
    return options


def test_readme_matches_cli():
    text = README.read_text()
    columns = re.search(r"Columns: `([^`]*)`", text)
    assert columns, "README has no bench Columns: list"
    assert re.split(r",\s*", columns.group(1).strip()) == cli.CSV_COLUMNS
    cli_text = "\n".join(line for line in text.splitlines() if "pip install" not in line)
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli_text))
    assert shown
    unknown = shown - _option_strings(cli.build_parser())
    assert not unknown, f"README shows options the CLI rejects: {sorted(unknown)}"
