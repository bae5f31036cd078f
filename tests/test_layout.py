"""Every public top-level function and class in `src/riff`, and every public
method of those classes, is reached from the program itself (`src/`,
`scripts/` or `perfbench/`), not only from tests, unless it is documented
library API listed below; and no listed name is one the program reaches.
Every private top-level function and class, and every private method, is
used somewhere in `src/`. A top-level definition is reached through its own
module (see module_references), so a same-named attribute of another object
does not count for it; a method is reached by its name."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

LIBRARY_API = {
    "data.majority_label": "the synthetic task's rule-based oracle classifier, a test reference",
    "promptsearch.gs_step": "one step of discrete instruction search, the prompt-optimizing baseline "
    "criterion 5 checks; no command runs it",
    "classifier.weighted_label_grad": "the checked, full-length form of the label-path kernel; the "
    "augmented training step checks its inputs once per run and calls the kernel itself",
}


def public_definitions() -> dict[str, str]:
    """module.name of each public top-level function and class, and
    module.Class.name of each public method of a public class, by name."""
    found = {}
    for path in sorted((ROOT / "src" / "riff").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def referenced_names(*dirs: str) -> set[str]:
    """Names loaded, read as attributes or imported anywhere under `dirs`;
    definitions, comments and docstrings do not count. Methods are matched
    by these bare names."""
    names = set()
    for d in dirs:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def riff_module(path: pathlib.Path, node: ast.ImportFrom) -> str | None:
    """The `riff` module an import from names, or None for another package:
    `from riff.policy import`, and in src/riff `from .policy import`, give
    "policy"; `from riff import` and `from . import` give ""."""
    inside = path.parent == ROOT / "src" / "riff"
    if node.level == 1 and inside:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "riff":
        return node.module.partition(".")[2]
    return None


def module_references(*dirs: str) -> set[str]:
    """module.name of each top-level definition that code under `dirs` reaches:
    imported by name from its module (`from .classifier import rewards`), read
    as an attribute of an alias of its module (`clf.rewards`, after `from .
    import classifier as clf`), or loaded inside its own module. A method or
    an attribute of another object with the same name does not count."""
    found = set()
    for d in dirs:
        for path in (ROOT / d).rglob("*.py"):
            tree = ast.parse(path.read_text())
            own = path.stem if path.parent == ROOT / "src" / "riff" else None
            aliases = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (module := riff_module(path, node)) is not None:
                    for alias in node.names:
                        if module:
                            found.add(f"{module}.{alias.name}")
                        else:
                            aliases[alias.asname or alias.name] = alias.name
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("riff.") and alias.asname:
                            aliases[alias.asname] = alias.name.partition(".")[2]
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                    found.add(f"{aliases[node.value.id]}.{node.attr}")
                elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(f"{own}.{node.id}")
    return found


def is_method(qualified: str) -> bool:
    return qualified.count(".") == 2


def reached(qualified: str, name: str, modules: set[str], names: set[str]) -> bool:
    """A top-level definition is reached by module, a method by name."""
    return name in names if is_method(qualified) else qualified in modules


PROGRAM = ("src", "scripts", "perfbench")


def test_no_public_name_is_reached_only_from_tests():
    modules, names = module_references(*PROGRAM), referenced_names(*PROGRAM)
    test_only = sorted(
        qualified
        for qualified, name in public_definitions().items()
        if not reached(qualified, name, modules, names) and qualified not in LIBRARY_API
    )
    assert test_only == [], f"public names no program code uses: {test_only}"


def test_library_api_allowlist_names_existing_definitions():
    assert set(LIBRARY_API) <= set(public_definitions())


def test_library_api_lists_no_name_the_program_uses():
    # an entry leaves the allowlist the moment a command starts calling it
    modules, names = module_references(*PROGRAM), referenced_names(*PROGRAM)
    public = public_definitions()
    assert sorted(q for q in LIBRARY_API if reached(q, public[q], modules, names)) == []


def private_definitions() -> dict[str, str]:
    """module.name of each private top-level function and class, and
    module.Class.name of each private (not dunder) method of any class."""
    found = {}
    for path in sorted((ROOT / "src" / "riff").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                        and not item.name.endswith("__")):
                    found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def test_no_private_helper_is_left_unused():
    # a helper left behind by a move shows up here
    modules, names = module_references("src"), referenced_names("src")
    unused = sorted(q for q, name in private_definitions().items() if not reached(q, name, modules, names))
    assert unused == [], f"private helpers nothing in src/ uses: {unused}"
