import re
from pathlib import Path

import notezipf

README = Path(__file__).resolve().parent.parent / "README.md"


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
