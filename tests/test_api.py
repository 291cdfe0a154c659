import ast
import re
import subprocess
import sys
from pathlib import Path

import adoptindex


def test_public_surface_lists_each_package_import_once():
    names = adoptindex.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(adoptindex, name)] == []
    tree = ast.parse(Path(adoptindex.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported == set(names)


SOURCES = sorted(Path(adoptindex.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_sources_parse_at_the_declared_python_floor():
    # a regex, because tomllib is 3.11+ and the floor may be older
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', PYPROJECT.read_text(), re.M)
    version = (int(floor[1]), int(floor[2]))
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_sources_import_only_numpy_the_package_and_the_standard_library():
    allowed = {"numpy", "adoptindex"} | set(sys.stdlib_module_names)
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - allowed == set()


def test_importing_the_cli_loads_no_random_number_machinery():
    # every CLI call pays for its imports; numpy loads np.random on first use, which only studies make
    src = str(Path(adoptindex.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import adoptindex.cli; "
        "print(sorted({'numpy.random', 'secrets'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
