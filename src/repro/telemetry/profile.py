"""EXPLAIN ANALYZE: a rendering of a query's operator spans.

Under a tracer, every operator the executor evaluates gets one
``operator`` span whose args carry the counter delta of its evaluation
(batches, scan rows, pages, sets skipped / total, pages skipped and
pushed, network and spilled bytes); its ``rows`` is the operator's
output. Operators folded into a chain have no span of their own: the
span of the operator that ran the chain lists them under ``fused``.
:func:`operator_spans` picks the final attempt's spans out of a query
trace, and :func:`render_analyze` prints the annotated plan tree from
them plus the query's per-operator row counts, with a footer that
reconciles network traffic — this query's tagged bytes *and* the
untagged/legacy ``""`` prefix are attributed explicitly, so per-prefix
sums always add up to the cluster totals.
"""

from __future__ import annotations

from typing import Optional

from .trace import Span


def operator_spans(root: Optional[Span]) -> dict[int, Span]:
    """The final attempt's ``operator`` spans of a query trace, keyed by
    physical-op id (a restarted query's failed attempts are ignored;
    an untraced query, ``root`` None, has none)."""
    if root is None:
        return {}
    attempts = [
        a for c in root.children if c.name == "execute"
        for a in c.children if a.name == "attempt"
    ]
    if not attempts:
        return {}
    return {
        sp.args["op_id"]: sp for sp in attempts[-1].walk() if sp.cat == "operator"
    }


def fused_ops(spans: dict[int, Span]) -> set[int]:
    """Ids of the operators the spans mark as folded into a chain."""
    return {i for sp in spans.values() for i in sp.args.get("fused", ())}


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def render_analyze(
    physical,
    op_rows: dict[int, int],
    trace: Optional[Span],
    stats,
    network: Optional[dict] = None,
) -> str:
    """Render the annotated dataflow tree for EXPLAIN ANALYZE.

    ``physical`` is the plan root, ``op_rows`` maps physical-op id →
    actual output rows, ``trace`` is the query's root span (its final
    attempt's operator spans give times and counters), ``stats`` is the
    query's ExecStats, and ``network`` (optional) maps traffic-prefix →
    TrafficStats for the reconciliation footer. Times are *inclusive*
    (an operator's contains its children's); self time subtracts them.
    """

    from ..optimizer.feedback import qerror

    spans = operator_spans(trace)
    fused = fused_ops(spans)

    def time_s(op) -> float:
        sp = spans.get(op.id)
        return sp.dur if sp is not None else 0.0

    def render(op, indent: int = 0) -> list[str]:
        pad = "  " * indent
        rows = op_rows.get(op.id)
        head = op.pretty(0).splitlines()[0]
        bits = []
        if rows is not None:
            sp = spans.get(op.id)
            args = sp.args if sp is not None else {}
            bits.append(f"rows={rows}")
            est = op.attrs.get("est_rows")
            # int or float: dataflow seeds floats, but older plans (and
            # raw Scan row counts) may carry ints — both must render
            if isinstance(est, (int, float)) and not isinstance(est, bool):
                bits.append(f"est={float(est):.0f}")
                bits.append(f"q={qerror(float(est), float(rows)):.1f}")
            if args.get("batches"):
                bits.append(f"batches={args['batches']}")
            bits.append(f"time={_fmt_ms(time_s(op))}")
            if op.children:
                self_s = time_s(op) - sum(time_s(c) for c in op.children)
                bits.append(f"self={_fmt_ms(max(self_s, 0.0))}")
            if op.id in fused:
                bits.append("fused")
            if args.get("sets_total"):
                bits.append(f"skipped={args['sets_skipped']}/{args['sets_total']}")
            if args.get("pages"):
                bits.append(f"pages={args['pages']}")
            if args.get("pages_skipped"):
                bits.append(f"pages_skipped={args['pages_skipped']}")
            if args.get("pages_pushed"):
                bits.append(f"pushed={args['pages_pushed']}")
            if args.get("net_bytes"):
                bits.append(f"net={args['net_bytes']}B")
            if args.get("spilled_bytes"):
                bits.append(f"spill={args['spilled_bytes']}B")
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
