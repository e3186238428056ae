"""Every Python file of the repository parses as Python 3.10, the oldest
version the CI matrix runs, so syntax a newer interpreter accepts fails
here before it fails there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)


def test_every_file_parses_as_the_oldest_python():
    files = sorted(p for d in ("src", "tests", "tools", "benchmarks") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 100
    bad = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
        except SyntaxError as e:
            bad.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not bad, "\n".join(bad)
