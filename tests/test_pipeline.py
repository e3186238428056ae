"""Morsel-driven pipelined execution: fusion, streaming, codec toggles.

Every subtree runs as a chain — a source followed by filter / project /
probe steps. Results must match the reference executor, with the engine
shape observable only through ExecStats pipeline counters. These tests
pin that contract, one morsel per site with no threads started for
it, plus the bulk string codecs' equivalence with their per-string
references and the batch coalescer.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ClusterConfig, Database
from repro.common import DataType, RowBatch, Schema
from repro.common import batch as batch_mod
from repro.core.pipeline import coalesce_batches, fuse_chain
from repro.storage import col_page
from repro.storage import compression as comp_mod

from tests import huffman_reference
from tests.conftest import rows_approx_equal, rows_match_unordered


def build_db(**cfg_kwargs) -> Database:
    cfg = ClusterConfig(
        n_workers=3,
        n_max=4,
        page_size=16 * 1024,
        batch_size=256,
        **cfg_kwargs,
    )
    db = Database(cfg)
    rng = np.random.default_rng(7)
    n = 2500
    tags = np.empty(n, dtype=object)
    tags[:] = [f"tag{i % 5}" for i in range(n)]
    db.create_table(
        "fact",
        Schema.of(
            ("fk", DataType.INT64), ("val", DataType.FLOAT64), ("tag", DataType.STRING)
        ),
        partition=("hash", ("fk",)),
    )
    db.load(
        "fact",
        RowBatch(
            db.catalog.entry("fact").schema,
            {
                "fk": rng.integers(0, 80, n),
                "val": np.round(rng.random(n), 6),
                "tag": tags,
            },
        ),
    )
    db.create_table(
        "dim",
        Schema.of(("dk", DataType.INT64), ("grp", DataType.STRING)),
        partition=("hash", ("dk",)),
    )
    grp = np.empty(80, dtype=object)
    grp[:] = [f"g{i % 6}" for i in range(80)]
    db.load(
        "dim",
        RowBatch(db.catalog.entry("dim").schema, {"dk": np.arange(80), "grp": grp}),
    )
    return db


@pytest.fixture(scope="module")
def db():
    return build_db()


QUERIES = [
    "select count(*), sum(val) from fact",
    "select tag, count(*) c, sum(val) s from fact group by tag order by tag",
    "select tag, sum(val) s from fact where fk < 40 group by tag order by s desc",
    "select grp, count(*) c from fact join dim on fk = dk group by grp order by grp",
    "select fk, val, tag from fact where val < 0.02 order by val limit 20",
]


class TestPipelinedExecution:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_reference(self, db, sql):
        got, want = db.sql(sql).rows(), db.execute_reference(sql).rows()
        if "order by" in sql:
            assert rows_approx_equal(got, want)
        else:
            assert rows_match_unordered(got, want)

    def test_pipeline_counters(self, db):
        st = db.sql("select tag, sum(val) from fact where fk < 40 group by tag").stats
        assert st.pipelines > 0 and st.fused_ops >= 2 and st.morsels > 0

    def test_explain_analyze_reports_pipeline_metrics(self, db):
        out = db.explain_analyze(
            "select tag, sum(val) from fact where fk < 40 group by tag"
        )
        assert "pipelines=" in out
        assert "fused_ops=" in out
        assert "morsels=" in out
        assert "peak_inflight_batches=" in out

    def test_one_morsel_per_site(self):
        """A site's table scan is one morsel, however many fragments it
        reads: three sites with four disks each run three morsels."""
        sql = "select tag, count(*) c, sum(val) s from fact group by tag order by tag"
        assert build_db(disks_per_node=4).sql(sql).stats.morsels == 3


SRC = Path(repro.__file__).parent
#: packages that run query work; a query runs on the thread that issued it
SINGLE_THREADED = ("core", "storage", "optimizer", "sql")


def _thread_starts(path: Path) -> list[str]:
    """Every import of ``concurrent.futures`` and every ``threading.Thread``
    (imported or called) in one source file, as ``file:line: name``."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            names = [ast.unparse(node.func)]
        else:
            continue
        hits += [
            f"{path.relative_to(SRC)}:{node.lineno}: {n}"
            for n in names
            if n.startswith("concurrent.") or n in ("threading.Thread", "Thread")
        ]
    return hits


def test_query_execution_starts_no_threads():
    """Query execution stays single-threaded per query: nothing under
    ``core``, ``storage``, ``optimizer`` or ``sql`` imports
    ``concurrent.futures`` or constructs a ``threading.Thread``. Client
    concurrency (``Database.submit``'s pool in ``cluster``) is outside
    the guard."""
    hits = [
        hit
        for pkg in SINGLE_THREADED
        for path in sorted((SRC / pkg).rglob("*.py"))
        for hit in _thread_starts(path)
    ]
    assert hits == []


class TestFuseChain:
    def _op(self, op, children=(), **attrs):
        from repro.optimizer.physical import ARBITRARY, WORKERS, PhysOp

        return PhysOp(
            op=op, children=list(children), schema=None, site=WORKERS,
            partitioning=ARBITRARY, attrs=attrs,
        )

    def test_scan_source_with_steps(self):
        scan = self._op("scan", table="t")
        proj = self._op("project", [self._op("filter", [scan])])
        chain = fuse_chain(proj)
        assert chain.source is scan and chain.scans
        assert [t.op for t in chain.transforms] == ["filter", "project"]
        assert chain.root is proj and chain.n_ops == 3

    def test_blocking_operator_is_the_source(self):
        """A HAVING filter over an aggregate is a list-sourced chain; the
        aggregate alone is a chain with no steps."""
        agg = self._op("agg", [self._op("scan", table="t")])
        having = self._op("filter", [agg])
        chain = fuse_chain(having)
        assert chain.source is agg and not chain.scans
        assert chain.transforms == [having] and chain.n_ops == 1
        bare = fuse_chain(agg)
        assert bare.source is agg and bare.transforms == [] and bare.root is agg

    def test_probe_descends_left_only_when_streamable(self):
        left, right = self._op("scan", table="l"), self._op("scan", table="r")
        inner = self._op("hashjoin", [left, right], kind="inner", pairs=[("a", "b")])
        assert fuse_chain(inner).source is left
        assert fuse_chain(inner).probe_ops == [inner]
        outer = self._op("hashjoin", [left, right], kind="left", pairs=[("a", "b")])
        assert fuse_chain(outer).source is outer


class TestCoalesce:
    def _batches(self, sizes):
        schema = Schema.of(("x", DataType.INT64))
        out, start = [], 0
        for s in sizes:
            out.append(RowBatch(schema, {"x": np.arange(start, start + s)}))
            start += s
        return schema, out

    def test_merges_to_target(self):
        schema, bs = self._batches([10, 10, 10, 10, 10])
        got = list(coalesce_batches(bs, schema, 25))
        assert [b.length for b in got] == [30, 20]
        assert np.concatenate([b.col("x") for b in got]).tolist() == list(range(50))

    def test_skips_empty_batches(self):
        schema, bs = self._batches([0, 5, 0, 0, 5, 0])
        got = list(coalesce_batches(bs, schema, 100))
        assert [b.length for b in got] == [10]

    def test_all_empty_yields_nothing(self):
        schema, bs = self._batches([0, 0])
        assert list(coalesce_batches(bs, schema, 10)) == []

    def test_passthrough_when_large(self):
        schema, bs = self._batches([40])
        got = list(coalesce_batches(bs, schema, 10))
        assert len(got) == 1 and got[0] is bs[0]


class TestCodecToggles:
    """Vectorized paths must be drop-in equivalent to the scalar ones."""

    def _string_batch(self, values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return RowBatch.from_pairs(("s", DataType.STRING, arr))

    CASES = [
        ["plain", "ascii", "strings"] * 40,
        ["héllo", "wörld", "日本語", ""] * 30,
        ["same"] * 128,
        [f"uniq-{i}" for i in range(128)],
        ["nul\x00inside", "trailing"] * 64,
    ]

    @pytest.mark.parametrize("values", CASES)
    def test_wire_roundtrip_both_paths(self, values):
        """The bulk UTF-8 encoder and the per-string fallback it takes for
        strings it cannot carry write the same frame."""
        b = self._string_batch(values)
        assert RowBatch.from_bytes(b.to_bytes()).col("s").tolist() == values
        blobs = [s.encode() for s in values]
        offsets = np.zeros(len(blobs) + 1, dtype=np.uint32)
        np.cumsum([len(x) for x in blobs], out=offsets[1:])
        entries = b.col("s").dictionary.values
        assert batch_mod._utf8_face(entries).to_bytes() == offsets.tobytes() + b"".join(blobs)

    @pytest.mark.parametrize("values", CASES)
    def test_huffman_streams_bit_identical(self, values):
        """The gather encoder writes the scalar reference coder's page."""
        page = comp_mod.huffman_encode_strings(values)
        assert page == huffman_reference.encode_strings(values)
        assert comp_mod.huffman_decode_strings(page) == values

    def test_hash_codes_scalar_vs_vectorized(self):
        values = [f"k-{i % 13}" for i in range(200)]
        b = self._string_batch(values)
        scalar = [batch_mod._fnv1a(s) for s in values]
        assert b.col("s").hashes().tolist() == scalar
        assert b.hash_codes(["s"]).tolist() == batch_mod.hash_value_arrays(
            [np.array(scalar, dtype=np.uint64).view(np.int64)]
        ).tolist()


class TestDictPages:
    def _col(self, values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr

    def test_low_cardinality_uses_dict(self):
        arr = self._col(["A", "N", "R"] * 100)
        blob = col_page.encode_column(arr, DataType.STRING)
        assert blob[:4] == col_page._DICT_MAGIC
        out = col_page.decode_page(blob, DataType.STRING, len(arr))
        assert out.tolist() == arr.tolist()

    def test_high_cardinality_falls_back(self):
        arr = self._col([f"c{i}" for i in range(300)])
        blob = col_page.encode_column(arr, DataType.STRING)
        assert blob[:4] != col_page._DICT_MAGIC
        out = col_page.decode_page(blob, DataType.STRING, len(arr))
        assert out.tolist() == arr.tolist()

    def test_toggle_off_reads_old_format(self):
        arr = self._col(["x", "y"] * 100)
        # the page format before dictionary pages: one Huffman stream
        legacy = comp_mod.huffman_encode_strings(list(arr))
        out = col_page.decode_page(legacy, DataType.STRING, len(arr))
        assert out.tolist() == arr.tolist()

    def test_row_count_mismatch_raises(self):
        from repro.common.errors import PageFormatError

        arr = self._col(["a", "b"] * 64)
        blob = col_page.encode_column(arr, DataType.STRING)
        with pytest.raises(PageFormatError):
            col_page.decode_page(blob, DataType.STRING, 5)
