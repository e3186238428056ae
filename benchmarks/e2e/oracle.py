"""The benchmark's correctness oracle: a row comparator it owns, the
golden result sets, and the fallback to the engine's single-node
reference executor for texts that have no golden file."""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.sql import parse
from repro.workloads import tpch_queries

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: relative tolerance for floats: the engine and the reference sum in
#: different orders, which moves the last few digits only
FLOAT_RTOL = 1e-9


def _value_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None or isinstance(a, str) or isinstance(b, str):
            return False
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)
    return a == b


def _row_equal(a, b) -> bool:
    return len(a) == len(b) and all(_value_equal(x, y) for x, y in zip(a, b))


def _sort_key(row):
    # floats are rounded well above the tolerance so that two rows equal
    # within it land next to each other; None sorts first
    return tuple(
        (0, "") if v is None else (1, f"{v:.6e}") if isinstance(v, float) else (2, str(v))
        for v in row
    )


def rows_equal(got, want, ordered: bool) -> bool:
    """Ints and strings exact, floats within ``FLOAT_RTOL``; row order
    matters only when the query has an ORDER BY (multiset otherwise)."""
    got = [tuple(r) for r in got]
    want = [tuple(r) for r in want]
    if len(got) != len(want):
        return False
    if not ordered:
        got = sorted(got, key=_sort_key)
        want = sorted(want, key=_sort_key)
    return all(_row_equal(a, b) for a, b in zip(got, want))


def has_order_by(text: str) -> bool:
    return bool(parse(text).order_by)


def golden_path(sf: float, qno: int) -> Path:
    return GOLDEN_DIR / f"sf{sf:g}" / f"q{qno:02d}.json"


def write_golden(db, sf: float) -> None:
    """Regenerate the 22 golden result sets from the reference executor."""
    for qno in tpch_queries.ALL_QUERIES:
        batch = db.execute_reference(tpch_queries.query(qno, sf))
        path = golden_path(sf, qno)
        path.parent.mkdir(parents=True, exist_ok=True)
        head = {"query": qno, "sf": sf, "columns": batch.schema.names()}
        rows = ",\n".join(json.dumps(r) for r in batch.rows())  # one row a line: diffable
        path.write_text(json.dumps(head)[:-1] + ', "rows": [\n' + rows + "\n]}\n")


class Oracle:
    """Expected rows for a query text: the golden file when the text is
    one of the 22 fixed texts at a scale factor that has golden files,
    the reference executor (memoised per text) otherwise."""

    def __init__(self, db, sf: float, use_golden: bool = True):
        self.db = db
        self.sf = sf
        #: False once the data differs from what dbgen loaded (refreshes)
        self.use_golden = use_golden
        self._fixed = {tpch_queries.query(q, sf): q for q in tpch_queries.ALL_QUERIES}
        self._expected: dict[str, tuple[list, bool]] = {}

    def expected(self, text: str) -> tuple[list, bool]:
        """(rows, ordered) for ``text`` against the database's current state."""
        hit = self._expected.get(text)
        if hit is None:
            qno = self._fixed.get(text) if self.use_golden else None
            path = golden_path(self.sf, qno) if qno is not None else None
            if path is not None and path.exists():
                rows = [tuple(r) for r in json.loads(path.read_text())["rows"]]
            else:
                rows = self.db.execute_reference(text).rows()
            hit = self._expected[text] = (rows, has_order_by(text))
        return hit

    def check(self, text: str, batch) -> bool:
        rows, ordered = self.expected(text)
        return rows_equal(batch.rows(), rows, ordered)
