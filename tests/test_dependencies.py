import ast
import re
import subprocess
import sys
from pathlib import Path

import l2mbqc


def test_import_does_not_load_scipy():
    # nor numpy, nor any submodule: the root defines only its version
    src = str(Path(l2mbqc.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import l2mbqc; print(sorted(m for m in "
            "sys.modules if m in ('scipy', 'numpy') or m.startswith('l2mbqc.')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_the_root_defines_only_the_version_and_each_import_names_a_module():
    # the package root defines no public name but its version, so every
    # ``from l2mbqc import X`` names a submodule; the version is the one
    # that pyproject.toml builds
    root = Path(__file__).resolve().parents[1]
    docstring, *body = ast.parse((root / "src" / "l2mbqc" / "__init__.py").read_text()).body
    assert [ast.unparse(node) for node in body] == [f"__version__ = {l2mbqc.__version__!r}"]
    submodules = {path.stem for path in (root / "src" / "l2mbqc").glob("*.py")} - {"__init__"}
    imported = {
        alias.name
        for path in sorted(path for top in ("src", "tests", "demos", "perfbench") for path in (root / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "l2mbqc" and node.level == 0
        for alias in node.names
    }
    assert imported and imported <= submodules
    # a regex, not tomllib, which Python 3.10 lacks
    version = re.search(r'^version = "([^"]+)"$', (root / "pyproject.toml").read_text(), re.M)
    assert l2mbqc.__version__ == version.group(1)


def test_src_imports_only_the_standard_library_and_declared_dependencies():
    # every absolute import's top-level module is in the standard library or
    # is a distribution that pyproject.toml's ``dependencies`` names
    root = Path(__file__).resolve().parents[1]
    listed = re.search(r"^dependencies = \[(.*?)\]", (root / "pyproject.toml").read_text(), re.M | re.S)
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in re.findall(r'"([^"]+)"', listed.group(1))}
    imported = set()
    for path in sorted((root / "src" / "l2mbqc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - sys.stdlib_module_names <= declared


def test_every_public_name_in_src_has_a_user():
    # the public API stays no wider than its users: each public module-level
    # function or class of src, and each public method or property of such a
    # class, is named (read, called, imported or spelled as getattr's string)
    # away from its definition, in src, tests, demos or perfbench; a docstring
    # or any other string is not a user
    root = Path(__file__).resolve().parents[1]
    defined = {}
    for path in sorted((root / "src" / "l2mbqc").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
    named = set()
    for path in sorted(path for top in ("src", "tests", "demos", "perfbench") for path in (root / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
                named.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
    assert sorted(where for where, name in defined.items() if name not in named) == []


def test_function_level_imports_live_only_where_a_program_layer_is_entered():
    # modules import at the top what every path uses; only the CLI's handlers
    # and helpers, and the gates constructions that run or compile a program,
    # import when called, so a deferred import cannot reach a per-op path unseen
    root = Path(__file__).resolve().parents[1] / "src" / "l2mbqc"
    places = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node)):
                    places.add((path.stem, node.name))
    assert {place for place in places if place[0] != "cli"} == {
        ("gates", "chsh_and_gate"), ("gates", "noncontextual_and_gate"),
        ("gates", "_noise_free"), ("gates", "gate_from_noisy_ghz"),
    }
