"""Every public top-level function and class in `src/riff`, and every public
method of those classes, is reached from the program itself (`src/`,
`scripts/` or `perfbench/`), not only from tests, unless it is documented
library API listed below; and no listed name is one the program reaches.
Every private top-level function and class, and every private method, is
used somewhere in `src/`."""

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
    definitions, comments and docstrings do not count."""
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


def test_no_public_name_is_reached_only_from_tests():
    program = referenced_names("src", "scripts", "perfbench")
    test_only = sorted(
        qualified
        for qualified, name in public_definitions().items()
        if name not in program and qualified not in LIBRARY_API
    )
    assert test_only == [], f"public names no program code uses: {test_only}"


def test_library_api_allowlist_names_existing_definitions():
    assert set(LIBRARY_API) <= set(public_definitions())


def test_library_api_lists_no_name_the_program_uses():
    # an entry leaves the allowlist the moment a command starts calling it
    program = referenced_names("src", "scripts", "perfbench")
    names = public_definitions()
    assert sorted(q for q in LIBRARY_API if names.get(q) in program) == []


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
    used = referenced_names("src")
    unused = sorted(qualified for qualified, name in private_definitions().items() if name not in used)
    assert unused == [], f"private helpers nothing in src/ uses: {unused}"
