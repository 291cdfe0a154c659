import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import adoptindex

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "srcsize.py"
_spec = importlib.util.spec_from_file_location("srcsize", SCRIPT)
srcsize = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(srcsize)

FIXTURE = '''"""A module docstring.

Its blank line above is not counted; this line and the one above it are.
"""

# a comment alone
    # an indented comment alone
import math  # a comment after code

__all__ = ["f", "g", "CONSTANT"]


def f():
    """One docstring line."""

    return math.pi  # counted
'''


@pytest.fixture
def package(tmp_path):
    (tmp_path / "__init__.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "part.py").write_text("\n\n# only comments\nx = 1\n", encoding="utf-8")
    return tmp_path


def test_blank_and_comment_only_lines_are_not_counted():
    # the docstring's 3 non-blank lines, the import, __all__, def, its docstring and return
    assert srcsize.counted_lines(FIXTURE) == 8
    assert srcsize.counted_lines("") == 0
    assert srcsize.counted_lines("   \n\t\n#\n  # x\n") == 0


def test_all_is_read_without_importing():
    assert srcsize.public_names(FIXTURE) == 3
    # names that do not exist are still counted: the source is never run
    assert srcsize.public_names("__all__ = ['missing', 'names']\n") == 2
    with pytest.raises(ValueError, match="no module-level __all__"):
        srcsize.public_names("def f():\n    __all__ = ['x']\n")


def test_measure_counts_each_file_and_the_total(package):
    assert srcsize.measure(package) == {
        "files": {"__init__.py": 8, "sub/part.py": 1},
        "total": 9,
        "all": 3,
    }


def test_script_prints_the_package_size_as_json():
    run = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True, timeout=60
    )
    report = json.loads(run.stdout)
    assert report["all"] == len(adoptindex.__all__)
    assert report["files"] == {
        path.name: srcsize.counted_lines(path.read_text(encoding="utf-8"))
        for path in sorted(srcsize.PACKAGE.glob("*.py"))
    }
    assert report["total"] == sum(report["files"].values())


def test_script_refuses_a_directory_without_init(tmp_path):
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert "has no __init__.py" in run.stderr


def test_script_uses_only_the_standard_library_and_the_package_never_imports_it():
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    imported = {
        alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}
    package = Path(adoptindex.__file__).parent
    assert [p.name for p in package.rglob("*.py") if "srcsize" in p.read_text(encoding="utf-8")] == []
