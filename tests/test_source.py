"""Checks on the source itself. Invariants in the package must not depend
on the interpreter's -O flag: an ``assert`` statement or a ``__debug__``
branch vanishes under it. No module reads the environment. README must
show only the CLI that exists. Every exported name has a reader outside
the tests."""

import argparse
import ast
import re
from pathlib import Path

import hybridmfi
from hybridmfi import cli

PACKAGE = Path(hybridmfi.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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
    parser = cli.build_parser()
    unknown = shown - _option_strings(parser)
    assert not unknown, f"README shows options the CLI rejects: {sorted(unknown)}"
    commands = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands |= set(action.choices)
    run = set(re.findall(r"(?m)^hybridmfi (\S+)", text))
    assert run
    assert not run - commands, f"README runs subcommands the CLI lacks: {sorted(run - commands)}"


def _names_read(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_has_a_reader_outside_tests():
    # An export that only tests call is code kept for its own tests.
    init = PACKAGE / "__init__.py"
    home = {alias.name: node.module
            for node in ast.parse(init.read_text()).body if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    readers = {path: _names_read(path)
               for path in [*PACKAGE.glob("*.py"), *ROOT.glob("perfbench/*.py"),
                            *ROOT.glob("tools/*.py")] if path != init}
    assert any(path.parent.name == "perfbench" for path in readers)
    readme = README.read_text()
    unread = []
    for name in hybridmfi.__all__:
        if name == "__version__":
            continue
        defining = PACKAGE / f"{home[name]}.py"
        if not (re.search(rf"\b{name}\b", readme)
                or any(name in names for path, names in readers.items() if path != defining)):
            unread.append(name)
    assert not unread, f"exported but read only by tests: {unread}"
