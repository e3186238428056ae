"""Physical (distributed dataflow) plan representation.

A physical plan is a tree of :class:`PhysOp` nodes, each annotated with

* ``site`` — where it runs: ``workers`` (SPMD across all worker nodes,
  each instance processing its partition) or ``coord`` (single instance
  on the planning coordinator), and
* ``partitioning`` — how its output rows are distributed across workers,
  the property Phase 3 reasons about to insert/elide shuffles (paper §V:
  "Removing Unnecessary Shuffle Steps").

Exchange operators (shuffle / gather / broadcast) are explicit plan
nodes; Phase 3 chooses their topology (n-to-m binomial graph for
shuffles, tree for gathers/broadcasts) and the execution engine routes
real data through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from ..common.schema import Schema

WORKERS = "workers"
COORD = "coord"

_ids = itertools.count()


@dataclass(frozen=True)
class Partitioning:
    """Output distribution property.

    kind:
      * ``hash`` — rows hash-distributed by ``keys`` (engine hash)
      * ``replicated`` — every worker holds every row
      * ``singleton`` — all rows at one site (the coordinator)
      * ``arbitrary`` — spread with no known key

    ``equivalents`` are further key tuples the rows are hash-distributed
    by just as well: an inner equi-join makes each pair's two columns
    equal in every output row, so ``hash(l_orderkey)`` is also
    ``hash(o_orderkey)`` after ``l_orderkey = o_orderkey``.
    """

    kind: str
    keys: tuple[str, ...] = ()
    equivalents: tuple[tuple[str, ...], ...] = ()

    def key_tuples(self) -> tuple[tuple[str, ...], ...]:
        """``keys`` and every equivalent key tuple, ``keys`` first."""
        return (self.keys,) + self.equivalents

    def co_located_on(self, required: Sequence[str]) -> bool:
        """Can an operator needing grouping by ``required`` run locally?

        True when the hash keys, or any equivalent key tuple, are a subset
        of ``required`` (all rows sharing values on ``required`` provably
        live on one worker — the paper's a-partitioned-implies-(a,b)-
        partitioned rule), or when data is replicated / already at a
        single site.
        """
        if self.kind in ("replicated", "singleton"):
            return True
        if self.kind != "hash" or not self.keys:
            return False
        req = {r.rsplit(".", 1)[-1] for r in required}
        return any({k.rsplit(".", 1)[-1] for k in keys} <= req for keys in self.key_tuples())


ARBITRARY = Partitioning("arbitrary")
SINGLETON = Partitioning("singleton")
REPLICATED = Partitioning("replicated")


def hash_part(keys: Sequence[str]) -> Partitioning:
    return Partitioning("hash", tuple(keys))


@dataclass
class PhysOp:
    """One physical operator.

    ``op`` identifies the implementation; ``attrs`` carries op-specific
    payload (predicates, key expressions, aggregate specs, topology
    names, ...). Children stream batches into the operator.
    """

    op: str
    children: list["PhysOp"]
    schema: Schema
    site: str
    partitioning: Partitioning
    attrs: dict = field(default_factory=dict)
    id: int = field(default_factory=lambda: next(_ids))

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        extra = ""
        if self.op == "scan":
            extra = f" table={self.attrs['table']}"
            if self.attrs.get("predicate") is not None:
                extra += f" pred=({self.attrs['predicate']})"
        if self.op == "shuffle":
            extra = f" keys={[str(k) for k in self.attrs['key_exprs']]} topo={self.attrs.get('topology')}"
        if self.op == "gather":
            extra = f" mode={self.attrs.get('mode')}"
        if self.op == "hashjoin":
            extra = f" kind={self.attrs['kind']}"
        if self.op == "agg":
            extra = f" mode={self.attrs.get('mode', 'complete')} keys={list(self.attrs.get('group_keys', ()))}"
        part = f"{self.partitioning.kind}"
        if self.partitioning.keys:
            part += f"({','.join(self.partitioning.keys)})"
        lines = [f"{pad}{self.op}[{self.site}/{part}]{extra}"]
        for c in self.children:
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def count_ops(self, name: str) -> int:
        return sum(1 for n in self.walk() if n.op == name)


def make(op: str, children: list[PhysOp], schema: Schema, site: str, part: Partitioning, **attrs) -> PhysOp:
    return PhysOp(op, children, schema, site, part, attrs)
