"""The package's public names all resolve, and so do the benchmark's."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import erwlab

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in erwlab.__all__ if not hasattr(erwlab, name)]
    assert missing == []
    assert len(set(erwlab.__all__)) == len(erwlab.__all__)


def _resolve(dotted: str) -> object:
    """The object a dotted ``erwlab...`` name reads, importing submodules
    the way ``import`` would."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def test_every_name_the_benchmark_reads_resolves():
    # The benchmark's own smoke test is not part of this suite, so a
    # renamed or deleted name it uses has to be caught here.  The bench
    # files are read as text, never imported.
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        names.update(re.findall(r"\berwlab(?:\.[A-Za-z_]\w*)+", text))
        for module, imported in re.findall(
            r"^\s*from\s+(erwlab(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^#\n]*)", text, re.M
        ):
            for item in imported.strip("()").split(","):
                if item.split():
                    names.add(f"{module}.{item.split()[0]}")
    assert "erwlab.simulate_Z_ensemble" in names
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []
