import ast
import re
import sys
from pathlib import Path

import notezipf

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_imports():
    """Names in the README's ``from notezipf import (...)`` block."""
    block = re.search(r"from notezipf import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block, "README has no 'from notezipf import (...)' block"
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def test_readme_library_names_resolve_from_package_root():
    names = readme_imports()
    assert names
    for name in names:
        assert hasattr(notezipf, name), name
    assert set(notezipf.__all__) == names | {"NoteZipfError"}


def test_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "notezipf").glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names or top == "notezipf", (source.name, module)


def test_runtime_modules_use_every_name_they_import():
    for source in sorted((ROOT / "src" / "notezipf").glob("*.py")):
        if source.name == "__init__.py":  # imports only to re-export
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (source.name, sorted(imported - used))
