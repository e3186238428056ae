"""Cluster and engine configuration.

One :class:`ClusterConfig` object parameterizes everything the paper's
§I-A overview enumerates: node counts, the ``N_max`` neighbor limit for
communication topologies, page size, buffer-pool sizing, per-node memory
budget (used to reproduce the 24 GB vs 384 GB experiments), and disks
per node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class ClusterConfig:
    #: worker nodes storing data and executing queries
    n_workers: int = 4
    #: coordinator nodes (metadata, planning, 2PC); the paper replicates
    #: metadata across all of them and load-balances clients
    n_coordinators: int = 1
    #: disks per worker; a table stores one fragment per disk (paper §IV)
    disks_per_node: int = 2
    #: maximum number of network neighbors per node (paper's N_max)
    n_max: int = 8
    #: page size in bytes (paper: configurable up to 64 MB)
    page_size: int = 128 * KB
    #: buffer pool bytes per node
    buffer_pool_size: int = 64 * MB
    #: per-node memory budget for query execution (drives spilling / OOM)
    memory_per_node: int = 256 * MB
    #: rows per execution batch
    batch_size: int = 8192
    #: page compression ("lz4sim" = fast byte-oriented codec, "none")
    compression: str = "lz4sim"
    #: lock wait timeout, seconds of simulated time
    lock_timeout: float = 10.0
    #: directory for on-disk state; None = in-memory filesystem
    data_dir: str | None = None
    #: mid-query worker failures tolerated before a query fails for good
    #: (paper §I: the coordinator restarts failed queries)
    max_query_restarts: int = 8
    #: bounded retries for transient network send failures
    send_retries: int = 4
    #: initial simulated-time backoff between send retries, seconds
    #: (doubles per retry)
    backoff_base: float = 0.005
    #: consecutive scan failures before a worker is blacklisted and
    #: replicated reads fail over to a healthy replica
    blacklist_threshold: int = 3
    #: consecutive successful probes a blacklisted worker needs to
    #: re-earn live traffic (the probation/half-open circuit breaker)
    probe_after: int = 2
    #: avoided replicated reads between half-open probes of a
    #: blacklisted worker
    probe_interval: int = 8
    #: queries allowed to execute simultaneously; extras queue FIFO in
    #: the coordinator's admission controller (resource-mgmt level 1)
    max_concurrent_queries: int = 4
    #: memory grant charged against the cluster budget per admitted
    #: query, bytes; 0 = auto (total budget / max_concurrent_queries)
    query_memory_grant: int = 0
    #: seconds a query may queue for admission before failing
    admission_timeout: float = 60.0
    #: optimized plans cached per coordinator (0 disables the cache)
    plan_cache_size: int = 64
    #: record query-lifecycle traces (spans exportable as Chrome
    #: trace_event JSON); off by default — disabled telemetry costs one
    #: attribute test per operator
    tracing: bool = False
    #: completed query traces retained for export (oldest evicted first)
    trace_retention: int = 16
    #: byte cap (MB) per worker for its one decoded LRU (fragment columns
    #: and page dictionaries); a cluster holds at most n_workers x this
    decoded_cache_mb: int = 64
    #: samples retained per metric series in ``sys.metrics_history``
    metrics_history_window: int = 240
    #: wall-clock seconds between metric samples (no chaos clock)
    metrics_sample_s: float = 0.25
    #: completed-query summary rows retained in ``sys.queries``
    query_history: int = 256

    def __post_init__(self):
        if self.n_workers < 1:
            raise ConfigError("need at least one worker")
        if self.n_coordinators < 1:
            raise ConfigError("need at least one coordinator")
        if self.n_max < 2:
            raise ConfigError("N_max must be >= 2")
        if self.page_size < 4 * KB or self.page_size > 64 * MB:
            raise ConfigError("page size must be in [4KB, 64MB]")
        if self.batch_size < 1:
            raise ConfigError("batch size must be positive")
        if self.max_query_restarts < 0:
            raise ConfigError("max_query_restarts must be >= 0")
        if self.send_retries < 0:
            raise ConfigError("send_retries must be >= 0")
        if self.backoff_base <= 0:
            raise ConfigError("backoff_base must be positive")
        if self.blacklist_threshold < 1:
            raise ConfigError("blacklist_threshold must be >= 1")
        if self.probe_after < 1:
            raise ConfigError("probe_after must be >= 1")
        if self.probe_interval < 1:
            raise ConfigError("probe_interval must be >= 1")
        if self.max_concurrent_queries < 1:
            raise ConfigError("max_concurrent_queries must be >= 1")
        if self.query_memory_grant < 0:
            raise ConfigError("query_memory_grant must be >= 0 (0 = auto)")
        if self.admission_timeout <= 0:
            raise ConfigError("admission_timeout must be positive")
        if self.plan_cache_size < 0:
            raise ConfigError("plan_cache_size must be >= 0 (0 disables)")
        if self.trace_retention < 1:
            raise ConfigError("trace_retention must be >= 1")
        if self.decoded_cache_mb < 1:
            raise ConfigError("decoded_cache_mb must be >= 1")
        if self.metrics_history_window < 1:
            raise ConfigError("metrics_history_window must be >= 1")
        if self.metrics_sample_s <= 0:
            raise ConfigError("metrics_sample_s must be positive")
        if self.query_history < 1:
            raise ConfigError("query_history must be >= 1")

    @property
    def pages_per_pool(self) -> int:
        return max(1, self.buffer_pool_size // self.page_size)
