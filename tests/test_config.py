"""ClusterConfig hygiene: every knob must be read by the engine.

A field nothing reads is a dead knob — it documents behaviour the
engine does not have. The scan is syntactic: a field counts as read
when some module under ``src/repro`` other than ``common/config.py``
accesses it as an attribute (``cfg.page_size``, ``self.config.x``), or
reads a ``ClusterConfig`` property that does (``pages_per_pool`` reads
``buffer_pool_size``).
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import repro
from repro import ClusterConfig

SRC = Path(repro.__file__).parent
CONFIG_MODULE = SRC / "common" / "config.py"


def _loads(tree: ast.AST) -> set[str]:
    return {
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def _attributes_read() -> set[str]:
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path != CONFIG_MODULE:
            names |= _loads(ast.parse(path.read_text(), filename=str(path)))
    config = ast.parse(CONFIG_MODULE.read_text())
    cls = next(n for n in config.body
               if isinstance(n, ast.ClassDef) and n.name == "ClusterConfig")
    for fn in cls.body:
        if (isinstance(fn, ast.FunctionDef) and fn.name in names
                and any(getattr(d, "id", None) == "property" for d in fn.decorator_list)):
            names |= _loads(fn)
    return names


def test_every_field_is_read():
    read = _attributes_read()
    unread = [f.name for f in dataclasses.fields(ClusterConfig) if f.name not in read]
    assert not unread, f"ClusterConfig fields no module reads: {unread}"
