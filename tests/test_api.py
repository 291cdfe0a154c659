import ast
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
