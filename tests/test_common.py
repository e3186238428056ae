"""Unit tests for repro.common: dtypes, dates, schema, config."""

import numpy as np
import pytest

from repro.common import ClusterConfig, DataType, Schema
from repro.common.dates import (
    add_months,
    add_years,
    date_to_days,
    days_to_date,
    days_to_month,
    days_to_year,
)
from repro.common.dtypes import coerce_column, common_type, width_of
from repro.common.errors import CatalogError, ConfigError


class TestDataType:
    def test_from_sql_basic(self):
        assert DataType.from_sql("INTEGER") == DataType.INT64
        assert DataType.from_sql("bigint") == DataType.INT64
        assert DataType.from_sql("VARCHAR") == DataType.STRING
        assert DataType.from_sql("DATE") == DataType.DATE
        assert DataType.from_sql("DOUBLE") == DataType.FLOAT64

    def test_from_sql_parameterized(self):
        assert DataType.from_sql("DECIMAL(12,2)") == DataType.DECIMAL
        assert DataType.from_sql("CHAR(25)") == DataType.STRING

    def test_from_sql_unknown(self):
        with pytest.raises(ConfigError):
            DataType.from_sql("BLOB")

    def test_numpy_dtypes(self):
        assert DataType.INT64.numpy_dtype == np.dtype(np.int64)
        assert DataType.DATE.numpy_dtype == np.dtype(np.int32)
        assert DataType.STRING.numpy_dtype == np.dtype(object)

    def test_widths(self):
        assert DataType.INT64.fixed_width == 8
        assert DataType.DATE.fixed_width == 4
        assert DataType.STRING.fixed_width is None
        assert width_of(DataType.STRING) > 0

    def test_is_numeric(self):
        assert DataType.DECIMAL.is_numeric
        assert not DataType.STRING.is_numeric
        assert not DataType.DATE.is_numeric

    def test_common_type(self):
        assert common_type(DataType.INT64, DataType.FLOAT64) == DataType.FLOAT64
        assert common_type(DataType.INT64, DataType.DECIMAL) == DataType.DECIMAL
        assert common_type(DataType.INT64, DataType.INT64) == DataType.INT64
        assert common_type(DataType.DATE, DataType.INT64) == DataType.DATE
        with pytest.raises(ConfigError):
            common_type(DataType.STRING, DataType.INT64)

    def test_coerce_column(self):
        arr = coerce_column([1, 2, 3], DataType.INT64)
        assert arr.dtype == np.int64
        assert arr.tolist() == [1, 2, 3]


class TestDates:
    def test_roundtrip(self):
        for iso in ("1992-01-01", "1998-12-31", "1996-02-29", "1970-01-01"):
            assert days_to_date(date_to_days(iso)) == iso

    def test_epoch(self):
        assert date_to_days("1970-01-01") == 0
        assert date_to_days("1970-01-02") == 1

    def test_year_extraction_vectorized(self):
        days = np.array([date_to_days("1994-06-15"), date_to_days("1998-01-01")], np.int32)
        assert days_to_year(days).tolist() == [1994, 1998]

    def test_year_extraction_scalar(self):
        assert days_to_year(date_to_days("1995-12-31")) == 1995

    def test_month_extraction(self):
        days = np.array([date_to_days("1994-06-15"), date_to_days("1998-12-01")], np.int32)
        assert days_to_month(days).tolist() == [6, 12]

    def test_add_months(self):
        d = date_to_days("1995-01-31")
        assert days_to_date(add_months(d, 1)) == "1995-02-28"
        assert days_to_date(add_months(d, 12)) == "1996-01-31"

    def test_add_months_negative(self):
        d = date_to_days("1995-03-15")
        assert days_to_date(add_months(d, -3)) == "1994-12-15"

    def test_add_years_leap(self):
        d = date_to_days("1996-02-29")
        assert days_to_date(add_years(d, 1)) == "1997-02-28"


class TestSchema:
    def make(self):
        return Schema.of(
            ("a", DataType.INT64), ("b", DataType.STRING), ("t.c", DataType.DATE)
        )

    def test_lookup(self):
        s = self.make()
        assert s.index_of("a") == 0
        assert s.dtype_of("b") == DataType.STRING
        assert "a" in s and "zz" not in s

    def test_duplicate_rejected(self):
        with pytest.raises(CatalogError):
            Schema.of(("a", DataType.INT64), ("a", DataType.STRING))

    def test_resolve_exact_and_suffix(self):
        s = self.make()
        assert s.resolve("a") == "a"
        assert s.resolve("c") == "t.c"  # suffix match
        assert s.resolve("t.c") == "t.c"

    def test_resolve_qualified_over_unqualified(self):
        s = Schema.of(("x", DataType.INT64))
        # a qualified ref binds to the lone unqualified column
        assert s.resolve("q.x") == "x"

    def test_resolve_never_crosses_aliases(self):
        s = Schema.of(("l2.k", DataType.INT64))
        with pytest.raises(CatalogError):
            s.resolve("l1.k")

    def test_resolve_ambiguous(self):
        s = Schema.of(("t1.x", DataType.INT64), ("t2.x", DataType.INT64))
        with pytest.raises(CatalogError):
            s.resolve("x")

    def test_qualified(self):
        s = Schema.of(("a", DataType.INT64)).qualified("t")
        assert s.names() == ["t.a"]

    def test_concat_project(self):
        s = self.make()
        s2 = s.concat(Schema.of(("d", DataType.BOOL)))
        assert len(s2) == 4
        p = s2.project(["b", "d"])
        assert p.names() == ["b", "d"]

    def test_try_resolve(self):
        s = self.make()
        assert s.try_resolve("nope") is None
        assert s.try_resolve("a") == "a"


class TestClusterConfig:
    def test_defaults_valid(self):
        cfg = ClusterConfig()
        assert cfg.n_workers >= 1
        assert cfg.pages_per_pool >= 1

    def test_invalid_workers(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_workers=0)

    def test_invalid_nmax(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_max=1)

    def test_invalid_page_size(self):
        with pytest.raises(ConfigError):
            ClusterConfig(page_size=100)
        with pytest.raises(ConfigError):
            ClusterConfig(page_size=65 * 1024 * 1024)

    def test_invalid_metrics_history_window(self):
        with pytest.raises(ConfigError):
            ClusterConfig(metrics_history_window=0)

    def test_with_(self):
        cfg = ClusterConfig(n_workers=2).with_(n_workers=8)
        assert cfg.n_workers == 8
