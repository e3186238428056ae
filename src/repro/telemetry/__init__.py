"""Telemetry: query-lifecycle tracing, cluster metrics, EXPLAIN ANALYZE.

Four integrated layers (DESIGN.md §9, §14):

* :mod:`repro.telemetry.trace` — hierarchical spans (query → plan phase
  → operator/exchange → per-site pipeline → network leg) exported as
  Chrome ``trace_event`` JSON, loadable in ``chrome://tracing`` or
  Perfetto.
* :mod:`repro.telemetry.metrics` — process-wide Counter / Histogram
  primitives (per-thread shards, no locks on the hot path)
  plus a pull-model registry that samples every cluster subsystem and
  renders Prometheus text format.
* :mod:`repro.telemetry.profile` — ``EXPLAIN ANALYZE``, a rendering of
  a query's operator spans. There is no separate slow-query log: select
  from ``sys.queries where duration_s > … or restarts > 0`` and export
  the trace of a qid it names (``Database.export_trace``).
* :mod:`repro.telemetry.recorder` / :mod:`repro.telemetry.sampler` —
  the always-on cluster flight recorder (bounded, lock-sharded event
  ring behind ``sys.events``) and the metrics time-series sampler
  (ring-buffer history behind ``sys.metrics_history``).
"""

from .metrics import Counter, Histogram, MetricsRegistry
from .profile import fused_ops, operator_spans, render_analyze
from .recorder import FlightEvent, FlightRecorder
from .sampler import MetricsSampler
from .trace import Span, Tracer, validate_trace

__all__ = [
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "MetricsSampler",
    "Span",
    "Tracer",
    "fused_ops",
    "operator_spans",
    "render_analyze",
    "validate_trace",
]
