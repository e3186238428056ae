"""Executable baseline engines (Hive-, Spark-, Greenplum-style)."""

from .engines import MapReduceStyleExecutor, MPPStyleExecutor, SparkStyleExecutor

__all__ = ["MapReduceStyleExecutor", "SparkStyleExecutor", "MPPStyleExecutor"]
