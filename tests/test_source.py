"""Checks on the source itself. Invariants in the package must not depend
on the interpreter's -O flag: an ``assert`` statement or a ``__debug__``
branch vanishes under it. No module reads the environment. One function
forks, every call that makes or ends a worker or sends its result sits in
one module, and no marshal or process pool module is imported. No
instance gains an attribute after its constructor returns. README must
show only the CLI that exists, and its library example runs. Every
exported name has a reader outside the tests."""

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
    # The counting switch is one fixed density rule, not tuned per run: no
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


def _is_instance_dict(node: ast.AST) -> bool:
    """Whether ``node`` is ``vars(...)`` or ``<expr>.__dict__``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "vars"
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _fills_an_attribute(node: ast.AST) -> bool:
    """Whether ``node`` names ``cached_property`` or ``__setattr__``, or
    writes to an instance's dict."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    if name in ("cached_property", "__setattr__"):
        return True
    if isinstance(node, ast.Subscript):
        return _is_instance_dict(node.value) and isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return _is_instance_dict(node.func.value) and \
            node.func.attr in ("update", "setdefault", "pop", "__setitem__")
    return False


def test_package_fills_no_attribute_after_construction():
    # Every frozen dataclass is complete when its constructor returns: no
    # module defines a cached_property or writes an instance's attributes
    # through vars(), __dict__ or __setattr__.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _fills_an_attribute(node):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "attributes filled after construction: " + ", ".join(found)


def _fork_callers(tree: ast.AST, where: str = "<module>") -> list[str]:
    """The innermost function around each ``fork`` call in ``tree``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _fork_callers(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "fork":
                found.append(where)
        found += _fork_callers(node, where)
    return found


def test_one_function_forks_and_no_pool_is_imported():
    # One fork site keeps the worker's lifetime in one place. A process pool
    # module is never imported: importing multiprocessing or
    # concurrent.futures alone raises every run's peak RSS.
    forks, pools = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        forks += [f"{path.name}:{name}" for name in _fork_callers(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            pools += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] == "multiprocessing"
                      or module.startswith("concurrent")]
    assert len(set(forks)) == 1, f"os.fork called in {sorted(set(forks))}"
    assert not pools, "process pool imports: " + ", ".join(pools)


def test_worker_lifetime_sits_in_the_fork_helper():
    # The fork, the pipe, the wait, the kill and the worker's exit are made
    # in one module, so each worker's lifetime is read in one place. So is
    # the one wire format, pickle, by which a worker's result or exception
    # travels, encoded whole by the worker and decoded as it streams in by
    # the caller, and no module imports marshal, a second one.
    names = {("os", name) for name in ("fork", "pipe", "waitpid", "kill", "_exit")}
    names |= {("pickle", "dumps"), ("pickle", "load")}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and (node.value.id, node.attr) in names:
                found.setdefault((node.value.id, node.attr), set()).add(path.name)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (node.module, alias.name) in names or node.module == "marshal":
                        found.setdefault((node.module, alias.name), set()).add(path.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "marshal":
                        found.setdefault(("marshal", None), set()).add(path.name)
    assert found == dict.fromkeys(names, {"forking.py"}), found


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


def test_readme_library_example_runs(capsys):
    # README's Library block is run as it stands, so it cannot show an API
    # that has gone.
    block = re.search(r"## Library\n+```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no Library python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "[2] 2\n[1, 3] 2\n"


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
               for path in [*PACKAGE.glob("*.py"), *ROOT.glob("perfbench/*.py")]
               if path != init}
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
