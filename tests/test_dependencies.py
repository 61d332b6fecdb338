import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import l2mbqc


def test_import_does_not_load_scipy():
    # nor numpy, nor any submodule: the root resolves its names on first read
    src = str(Path(l2mbqc.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import l2mbqc; print(sorted(m for m in "
            "sys.modules if m in ('scipy', 'numpy') or m.startswith('l2mbqc.')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_the_lazy_root_resolves_each_name_to_its_modules_object():
    for name in l2mbqc.__all__:
        value = getattr(l2mbqc, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(l2mbqc.__all__) <= set(dir(l2mbqc))
    with pytest.raises(AttributeError, match="nope"):
        l2mbqc.nope
    with pytest.raises(ImportError, match="nope"):
        exec("from l2mbqc import nope", {})


def test_public_api_is_what_the_demos_import_and_the_version_is_the_package_version():
    # the package root re-exports exactly the names the demos take from it,
    # and reports the version that pyproject.toml builds
    root = Path(__file__).resolve().parents[1]
    imported = {
        alias.name
        for demo in sorted((root / "demos").glob("*.py"))
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "l2mbqc" and node.level == 0
        for alias in node.names
    }
    assert sorted(l2mbqc.__all__) == sorted(imported)
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


def test_function_level_imports_live_only_where_a_program_layer_is_entered():
    # modules import at the top what every path uses; only the CLI's handlers
    # and helpers, and the gates constructions that run a program, import
    # when called, so a deferred import cannot reach a per-op path unseen
    root = Path(__file__).resolve().parents[1] / "src" / "l2mbqc"
    places = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node)):
                    places.add((path.stem, node.name))
    assert {place for place in places if place[0] != "cli"} == {
        ("gates", "chsh_and_gate"), ("gates", "noncontextual_and_gate"),
        ("gates", "gate_from_noisy_ghz"),
    }
