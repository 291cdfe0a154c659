"""Print the package's size as JSON: counted lines per file, their total, and len(__all__).

A line is counted unless it is blank or holds only a comment (its first non-blank
character is ``#``); docstring lines count. ``__all__`` is read from the package's
``__init__.py`` with ``ast``, so the package is not imported. Standard library only.

    python3 tools/srcsize.py                 # src/adoptindex of this checkout
    python3 tools/srcsize.py path/to/package
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adoptindex"


def counted_lines(source: str) -> int:
    """Lines of ``source`` that are neither blank nor ``#``-only."""
    return sum(1 for line in source.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def public_names(init_source: str) -> int:
    """len(__all__) of a module's source, from its module-level ``__all__ = [...]``."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(ast.literal_eval(node.value))
    raise ValueError("no module-level __all__ assignment")


def measure(package: Path) -> dict:
    """Per-file counts (paths relative to ``package``), their total and len(__all__)."""
    files = {
        path.relative_to(package).as_posix(): counted_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    init = (package / "__init__.py").read_text(encoding="utf-8")
    return {"files": files, "total": sum(files.values()), "all": public_names(init)}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python3 tools/srcsize.py [PACKAGE_DIR]", file=sys.stderr)
        return 2
    package = Path(argv[0]) if argv else PACKAGE
    if not (package / "__init__.py").is_file():
        print(f"srcsize: {package} has no __init__.py", file=sys.stderr)
        return 2
    print(json.dumps(measure(package), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
