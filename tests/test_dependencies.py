import ast
import re
import subprocess
import sys
from pathlib import Path

import l2mbqc


def test_import_does_not_load_scipy():
    src = str(Path(l2mbqc.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import l2mbqc; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


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
