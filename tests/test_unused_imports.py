"""No module of the package or its tests imports a name it never reads."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    modules = [p for p in (ROOT / "src" / "entpaths").glob("*.py") if p.name != "__init__.py"]
    modules += list((ROOT / "tests").glob("*.py"))
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in sorted(modules)
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported but never read:\n" + "\n".join(found)
