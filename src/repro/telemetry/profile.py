"""Profile-grade EXPLAIN ANALYZE and the slow-query log.

The executor (when asked to profile) fills one :class:`OpProfile` per
physical operator: output rows and batches, inclusive wall time, the
scan-level observables (pages read, column sets skipped vs total), the
network bytes its exchanges moved, and bytes spilled under it.
:func:`render_analyze` prints the annotated plan tree plus a footer that
reconciles network traffic — this query's tagged bytes *and* the
untagged/legacy ``""`` prefix are attributed explicitly, so per-prefix
sums always add up to the cluster totals.

:class:`SlowQuery` records queries that exceeded
``ClusterConfig.slow_query_threshold_s`` — or restarted under chaos —
with their full trace attached, so fault post-mortems carry the
timeline of what actually happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class OpProfile:
    """Per-operator actuals for one query execution.

    Times are *inclusive* (an operator's time contains its children's),
    matching how EXPLAIN ANALYZE reads in row-store systems; subtracting
    children gives self time, which the renderer does.
    """

    op_id: int = -1
    #: output rows the operator produced (summed over sites)
    rows: int = 0
    #: output batches (0 for operators fused into a pipeline)
    batches: int = 0
    #: inclusive wall seconds
    time_s: float = 0.0
    #: scan-only: rows read off storage under this operator
    scan_rows: int = 0
    #: scan-only: pages fetched
    pages: int = 0
    #: data skipping under this operator: column sets skipped / total
    sets_skipped: int = 0
    sets_total: int = 0
    #: pages a plain decode scan would have read but skipping avoided
    pages_skipped: int = 0
    #: pages whose predicate ran near-data over the encoded form
    pages_pushed: int = 0
    #: bytes this operator's exchanges put on the wire (per-hop accounted)
    net_bytes: int = 0
    #: bytes spilled to disk while this operator (or its children) ran
    spilled_bytes: int = 0
    #: operator executed inside a fused morsel pipeline
    fused: bool = False


@dataclass
class SlowQuery:
    """One slow-query log entry (see ``Database.slow_queries``)."""

    qid: int
    sql: str
    duration_s: float
    restarts: int = 0
    failed_workers: tuple = ()
    #: why the query was captured: "slow" or "restarted"
    reason: str = "slow"
    #: full Chrome trace_event export of the query, when tracing was on
    trace: Optional[dict] = field(default=None, repr=False)


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def render_analyze(
    physical,
    profiles: dict[int, OpProfile],
    stats,
    network: Optional[dict] = None,
) -> str:
    """Render the annotated dataflow tree for EXPLAIN ANALYZE.

    ``physical`` is the plan root, ``profiles`` maps physical-op id →
    :class:`OpProfile`, ``stats`` is the query's ExecStats, and
    ``network`` (optional) maps traffic-prefix → TrafficStats for the
    reconciliation footer.
    """

    from ..optimizer.feedback import qerror

    def render(op, indent: int = 0) -> list[str]:
        pad = "  " * indent
        prof = profiles.get(op.id)
        head = op.pretty(0).splitlines()[0]
        bits = []
        if prof is not None:
            bits.append(f"rows={prof.rows}")
            est = op.attrs.get("est_rows")
            # int or float: dataflow seeds floats, but older plans (and
            # raw Scan row counts) may carry ints — both must render
            if isinstance(est, (int, float)) and not isinstance(est, bool):
                bits.append(f"est={float(est):.0f}")
                bits.append(f"q={qerror(float(est), float(prof.rows)):.1f}")
            if prof.batches:
                bits.append(f"batches={prof.batches}")
            child_time = sum(
                profiles[c.id].time_s for c in op.children if c.id in profiles
            )
            self_s = max(prof.time_s - child_time, 0.0)
            bits.append(f"time={_fmt_ms(prof.time_s)}")
            if op.children:
                bits.append(f"self={_fmt_ms(self_s)}")
            if prof.fused:
                bits.append("fused")
            if prof.sets_total:
                bits.append(f"skipped={prof.sets_skipped}/{prof.sets_total}")
            if prof.pages:
                bits.append(f"pages={prof.pages}")
            if prof.pages_skipped:
                bits.append(f"pages_skipped={prof.pages_skipped}")
            if prof.pages_pushed:
                bits.append(f"pushed={prof.pages_pushed}")
            if prof.net_bytes:
                bits.append(f"net={prof.net_bytes}B")
            if prof.spilled_bytes:
                bits.append(f"spill={prof.spilled_bytes}B")
        else:
            bits.append("rows=?")
        lines = [f"{pad}{head}  [{' '.join(bits)}]"]
        for c in op.children:
            lines.extend(render(c, indent + 1))
        return lines

    lines = render(physical)
    lines.append(
        f"-- pipelines={stats.pipelines} fused_ops={stats.fused_ops} "
        f"morsels={stats.morsels} "
        f"peak_inflight_batches={stats.peak_inflight_batches}"
    )
    site_total = sum(getattr(stats, "site_busy_s", {}).values())
    coord_s = getattr(stats, "coord_busy_s", 0.0)
    per_site = " ".join(
        f"w{site}={_fmt_ms(s)}"
        for site, s in sorted(getattr(stats, "site_busy_s", {}).items())
    )
    lines.append(
        f"-- coord_busy={_fmt_ms(coord_s)} site_busy={_fmt_ms(site_total)}"
        + (f" [{per_site}]" if per_site else "")
    )
    near = ""
    if getattr(stats, "pages_skipped", 0) or getattr(stats, "pages_pushed_down", 0):
        near = (
            f" pages_skipped={stats.pages_skipped}"
            f" pages_pushed={stats.pages_pushed_down}"
        )
    lines.append(
        f"-- scanned={stats.rows_scanned} pages={stats.pages_read} "
        f"skipped={stats.sets_skipped}/{stats.sets_total} "
        f"spilled={stats.spilled_bytes}B peak_mem={stats.peak_memory}B" + near
    )
    if stats.restarts or stats.retries:
        lines.append(
            f"-- restarts={stats.restarts} retries={stats.retries} "
            f"backoff={stats.backoff_time:.4f}s "
            f"failed_workers={list(stats.failed_workers)}"
        )
    if network is not None:
        # attribute every prefix explicitly — including "" (untagged /
        # legacy traffic: serial-path exchanges, 2PC, recovery), so the
        # per-prefix sums reconcile with the cluster-wide totals
        total = sum(t.bytes for t in network.values())
        parts = []
        for prefix in sorted(network):
            t = network[prefix]
            label = prefix if prefix else "(untagged)"
            parts.append(f"{label}={t.bytes}B/{t.messages}msg")
        lines.append(
            f"-- network query={stats.network_bytes}B "
            f"fwd={stats.forwarded_bytes}B cluster_total={total}B "
            f"[{' '.join(parts)}]"
        )
    return "\n".join(lines)
