"""Cluster metrics: sharded primitives + a pull-model registry.

Two complementary acquisition paths, mirroring how production systems
(and the H2O line of work on continuous resource metrics) split the
problem:

* **Push primitives** — :class:`Counter` and :class:`Histogram` for
  code that wants to record as it runs (query durations, morsel busy
  time). They shard their state per thread: ``inc()``/``observe()``
  touch only the calling thread's slot — a plain dict update under the
  GIL, no lock — and readers merge the shards at snapshot time. Levels
  (queue depth, cached pages) are pull collectors of kind ``gauge``.
* **Pull collectors** — subsystems that already keep counters (buffer
  manager hits, per-link network traffic, admission stats) register a
  collector callback; the registry samples them only when a snapshot is
  taken, so steady-state overhead is zero.

``snapshot()`` returns a plain nested dict; ``render_prometheus()``
produces the Prometheus text exposition format (``# HELP`` / ``# TYPE``
plus labeled sample lines).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

LabelValues = tuple[str, ...]

#: default histogram buckets: latency-shaped, seconds
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _fmt_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _escape(v: object) -> str:
    return str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """A monotonically increasing counter, sharded per thread.

    The hot path is one dict item assignment in the calling thread's
    shard; ``value`` merges shards. Shards are keyed by thread id and
    never removed — thread churn is bounded (pools) in this codebase.
    """

    __slots__ = ("_shards",)

    def __init__(self) -> None:
        self._shards: dict[int, float] = {}

    def inc(self, v: float = 1.0) -> None:
        tid = threading.get_ident()
        shards = self._shards
        try:
            shards[tid] += v
        except KeyError:
            shards[tid] = v

    @property
    def value(self) -> float:
        return sum(self._shards.values())


class Histogram:
    """Cumulative-bucket histogram, sharded per thread like Counter."""

    __slots__ = ("buckets", "_shards")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self._shards: dict[int, list] = {}

    def observe(self, v: float) -> None:
        tid = threading.get_ident()
        shard = self._shards.get(tid)
        if shard is None:
            # [per-bucket counts..., +Inf count, sum]
            shard = self._shards[tid] = [0] * (len(self.buckets) + 1) + [0.0]
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                shard[i] += 1
                break
        else:
            shard[len(self.buckets)] += 1
        shard[-1] += v

    def merged(self) -> tuple[list[int], int, float]:
        """(cumulative bucket counts aligned with ``buckets``, total
        count, total sum) across all thread shards."""
        raw = [0] * (len(self.buckets) + 1)
        total_sum = 0.0
        for shard in list(self._shards.values()):
            for i in range(len(raw)):
                raw[i] += shard[i]
            total_sum += shard[-1]
        cumulative = []
        running = 0
        for c in raw[:-1]:
            running += c
            cumulative.append(running)
        count = running + raw[-1]
        return cumulative, count, total_sum

    @property
    def count(self) -> int:
        return self.merged()[1]

    @property
    def sum(self) -> float:
        return self.merged()[2]


class _Family:
    """A named metric with a label schema; children keyed by label values."""

    def __init__(self, name: str, kind: str, help: str, labelnames: Sequence[str], factory):
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._factory = factory
        self._children: dict[LabelValues, object] = {}
        self._mu = threading.Lock()

    def labels(self, **labels: object):
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._mu:
                child = self._children.setdefault(key, self._factory())
        return child

    def samples(self) -> Iterable[tuple[dict[str, str], object]]:
        for key, child in list(self._children.items()):
            yield dict(zip(self.labelnames, key)), child


#: the registry's self-monitoring family: collectors that raised during
#: snapshot, skipped and counted (labeled by collector name)
_COLLECTOR_ERRORS = "repro_telemetry_collector_errors_total"


class _Collector:
    """A registered pull source: sampled only at snapshot time."""

    def __init__(self, name: str, kind: str, help: str, fn: Callable):
        self.name = name
        self.kind = kind
        self.help = help
        self.fn = fn


class MetricsRegistry:
    """Process-wide metric registry: primitives plus pull collectors."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: dict[str, _Collector] = {}
        self._mu = threading.Lock()
        # a collector raising mid-snapshot must not abort observability
        # for every other subsystem: failing collectors are skipped and
        # counted here (labeled by collector name)
        self._collector_errors = self.counter(
            _COLLECTOR_ERRORS,
            "collector callbacks that raised during snapshot (skipped)",
            labelnames=("collector",),
        )

    # -- primitive factories ----------------------------------------------------
    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self._family(name, "counter", help, labelnames, Counter)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        return self._family(name, "histogram", help, labelnames, lambda: Histogram(buckets))

    def _family(self, name, kind, help, labelnames, factory):
        with self._mu:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = _Family(name, kind, help, labelnames, factory)
            elif fam.kind != kind:
                raise ValueError(f"metric {name!r} already registered as {fam.kind}")
        if not labelnames:
            return fam.labels()
        return fam

    # -- pull collectors ----------------------------------------------------------
    def register_collector(
        self,
        name: str,
        kind: str,
        help: str,
        fn: Callable[[], Iterable[tuple[dict, float]]],
    ) -> None:
        """Register a sampled-on-demand source. ``fn`` yields
        ``(labels_dict, value)`` pairs each time a snapshot is taken."""
        with self._mu:
            self._collectors[name] = _Collector(name, kind, help, fn)

    # -- output -------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All metrics as ``{name: {"type", "help", "samples": [...]}}``.
        Collector callbacks run here, never on the subsystems' hot paths."""
        out: dict[str, dict] = {}
        with self._mu:
            families = list(self._families.values())
            collectors = list(self._collectors.values())
        def fam_entry(fam):
            samples = []
            for labels, child in fam.samples():
                if isinstance(child, Histogram):
                    cumulative, count, total = child.merged()
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": dict(zip(map(str, child.buckets), cumulative)),
                            "count": count,
                            "sum": total,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            return {"type": fam.kind, "help": fam.help, "samples": samples}

        errors_fam = None
        for fam in families:
            if fam.name == _COLLECTOR_ERRORS:
                errors_fam = fam  # sampled after the collectors run
                continue
            out[fam.name] = fam_entry(fam)
        for col in collectors:
            try:
                samples = [
                    {"labels": dict(labels), "value": float(value)}
                    for labels, value in col.fn()
                ]
            except Exception:
                # skip-and-count: one broken subsystem must not take
                # down the whole snapshot
                self._collector_errors.labels(collector=col.name).inc()
                continue
            out[col.name] = {"type": col.kind, "help": col.help, "samples": samples}
        if errors_fam is not None:
            # sampled last so a failure counted during *this* scrape is
            # visible in the snapshot that observed it
            out[errors_fam.name] = fam_entry(errors_fam)
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format of a fresh snapshot."""
        lines: list[str] = []
        for name, metric in sorted(self.snapshot().items()):
            if metric["help"]:
                lines.append(f"# HELP {name} {metric['help']}")
            lines.append(f"# TYPE {name} {metric['type']}")
            # deterministic exposition: family order is sorted above;
            # within a family, thread-sharded children surface in
            # insertion (=first-touch) order, which varies run to run —
            # sort samples by their label items
            ordered = sorted(
                metric["samples"], key=lambda s: sorted(s["labels"].items())
            )
            for sample in ordered:
                labels = sample["labels"]
                if "buckets" in sample:
                    for bound, c in sample["buckets"].items():
                        bl = dict(labels, le=bound)
                        lines.append(f"{name}_bucket{_fmt_labels(bl)} {c}")
                    inf = dict(labels, le="+Inf")
                    lines.append(f"{name}_bucket{_fmt_labels(inf)} {sample['count']}")
                    lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(sample['sum'])}")
                    lines.append(f"{name}_count{_fmt_labels(labels)} {sample['count']}")
                else:
                    lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(sample['value'])}")
        return "\n".join(lines) + "\n"

    def subsystems(self) -> set[str]:
        """Distinct subsystem prefixes (``repro_<subsystem>_...``) present."""
        out = set()
        for name in self.snapshot():
            parts = name.split("_")
            if len(parts) >= 2 and parts[0] == "repro":
                out.add(parts[1])
        return out
