"""Predicate-based data skipping (the paper's novel storage technique).

During a table scan, pages that yield *zero* matching rows for the scan's
predicate are recorded in a per-page predicate cache
``cache : P -> { theta_i }``. A later scan with predicate ``theta`` may
skip page ``P`` when

* ``theta`` is in ``cache(P)``, or
* ``theta`` logically implies some ``theta_i`` in ``cache(P)`` — if no
  row matches the weaker ``theta_i``, none can match ``theta``.

Inserts are append-only and updates are not in place, so cached entries
for full pages stay valid until the table is reorganized (which clears
the cache). Deletes only add tombstones, and an entry is recorded only
for a set with none, so no entry depends on which rows are live.

The module also implements classic per-page min-max statistics (small
materialized aggregates [Moerkotte 98]) which the paper's technique
generalizes — keeping both lets benchmarks ablate one against the other.
They are held as one pair of arrays per column, indexed by set, so a
scan decides every set of a fragment with one comparison per atom.

Predicates are *canonicalized conjunctions*: a set of simple atoms
``(column, op, constant)`` plus optionally a set of opaque conjunct
fingerprints (complex terms cached only by structural equality).
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..common.errors import StorageError


class Op(enum.Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "<>"


@dataclass(frozen=True, order=True)
class Atom:
    """A simple comparison ``column op constant``."""

    column: str
    op: Op
    value: object


#: a ScanPredicate's intervals before they are first derived
_UNSET = object()


class ScanPredicate:
    """Canonical conjunction of atoms + opaque fingerprints.

    Hashable and order-insensitive, so structurally identical predicates
    from different queries compare equal — the 80/20 workload case the
    paper targets.
    """

    __slots__ = ("atoms", "opaque", "_hash", "_ivs")

    def __init__(self, atoms: Iterable[Atom] = (), opaque: Iterable[str] = ()):
        self.atoms: frozenset[Atom] = frozenset(atoms)
        self.opaque: frozenset[str] = frozenset(opaque)
        self._hash = hash((self.atoms, self.opaque))
        self._ivs = _UNSET

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScanPredicate)
            and self.atoms == other.atoms
            and self.opaque == other.opaque
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover
        parts = [f"{a.column}{a.op.value}{a.value!r}" for a in sorted(self.atoms, key=str)]
        parts += sorted(self.opaque)
        return "Pred(" + " AND ".join(parts) + ")"

    @property
    def is_empty(self) -> bool:
        return not self.atoms and not self.opaque

    # -- implication ------------------------------------------------------------
    def implies(self, other: "ScanPredicate") -> bool:
        """True when every row satisfying ``self`` satisfies ``other``.

        Sound but deliberately incomplete (fast syntactic + interval
        reasoning); incompleteness only costs skipping opportunities,
        never correctness.
        """
        if not other.opaque <= self.opaque:
            return False
        if self._ivs is _UNSET:  # asked of many cached predicates: derive once
            self._ivs = _intervals(self.atoms)
        ivs = self._ivs
        if ivs is None:  # self is unsatisfiable => implies anything
            return True
        for atom in other.atoms:
            if atom in self.atoms:
                continue
            iv = ivs.get(atom.column)
            if iv is None or not iv.entails(atom):
                return False
        return True


class _Interval:
    """Per-column constraint region derived from a conjunction."""

    __slots__ = ("lo", "lo_strict", "hi", "hi_strict", "ne")

    def __init__(self):
        self.lo = None
        self.lo_strict = False
        self.hi = None
        self.hi_strict = False
        self.ne: set = set()

    def add(self, atom: Atom) -> bool:
        """Tighten with ``atom``; returns False if now unsatisfiable."""
        v = atom.value
        if atom.op == Op.EQ:
            self._raise_lo(v, False)
            self._raise_hi(v, False)
        elif atom.op == Op.NE:
            self.ne.add(v)
        elif atom.op == Op.LT:
            self._raise_hi(v, True)
        elif atom.op == Op.LE:
            self._raise_hi(v, False)
        elif atom.op == Op.GT:
            self._raise_lo(v, True)
        elif atom.op == Op.GE:
            self._raise_lo(v, False)
        return self.satisfiable()

    def _raise_lo(self, v, strict: bool):
        if self.lo is None or v > self.lo or (v == self.lo and strict):
            self.lo, self.lo_strict = v, strict

    def _raise_hi(self, v, strict: bool):
        if self.hi is None or v < self.hi or (v == self.hi and strict):
            self.hi, self.hi_strict = v, strict

    def satisfiable(self) -> bool:
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                return False
            if self.lo == self.hi and (self.lo_strict or self.hi_strict):
                return False
            if self.lo == self.hi and self.lo in self.ne:
                return False
        return True

    def entails(self, atom: Atom) -> bool:
        """Is region(self) contained in region(atom)?"""
        v = atom.value
        try:
            if atom.op == Op.LT:
                return self.hi is not None and (self.hi < v or (self.hi == v and self.hi_strict))
            if atom.op == Op.LE:
                return self.hi is not None and self.hi <= v
            if atom.op == Op.GT:
                return self.lo is not None and (self.lo > v or (self.lo == v and self.lo_strict))
            if atom.op == Op.GE:
                return self.lo is not None and self.lo >= v
            if atom.op == Op.EQ:
                return (
                    self.lo is not None
                    and self.hi is not None
                    and self.lo == self.hi == v
                    and not self.lo_strict
                    and not self.hi_strict
                )
            if atom.op == Op.NE:
                if v in self.ne:
                    return True
                if self.hi is not None and (self.hi < v or (self.hi == v and self.hi_strict)):
                    return True
                if self.lo is not None and (self.lo > v or (self.lo == v and self.lo_strict)):
                    return True
                return False
        except TypeError:
            return False  # incomparable constant types: give up soundly
        return False


def _intervals(atoms: frozenset[Atom]) -> dict[str, _Interval] | None:
    """Column -> interval; None when the conjunction is unsatisfiable."""
    out: dict[str, _Interval] = {}
    for atom in atoms:
        iv = out.setdefault(atom.column, _Interval())
        try:
            ok = iv.add(atom)
        except TypeError:
            continue  # mixed types on one column; skip tightening
        if not ok:
            return None
    return out


# ---------------------------------------------------------------------------
# The per-table predicate cache
# ---------------------------------------------------------------------------


class PredicateCache:
    """Maps page ids to the set of predicates known to match zero rows.

    ``max_per_page`` bounds memory (oldest entries evicted first), which
    also keeps the persisted footprint in line with the paper's
    ~250 MB/node observation.
    """

    def __init__(self, max_per_page: int = 16):
        self.max_per_page = max_per_page
        self._cache: dict[int, list[ScanPredicate]] = {}
        self.hits = 0
        self.probes = 0

    def record_empty(self, page_id: int, pred: ScanPredicate) -> None:
        if pred.is_empty:
            return
        preds = self._cache.setdefault(page_id, [])
        if pred in preds:
            return
        preds.append(pred)
        if len(preds) > self.max_per_page:
            preds.pop(0)

    def can_skip(self, page_id: int, pred: ScanPredicate) -> bool:
        self.probes += 1
        preds = self._cache.get(page_id)
        if not preds or pred.is_empty:
            return False
        for cached in preds:
            if pred == cached or pred.implies(cached):
                self.hits += 1
                return True
        return False

    def skippable(self, asked: np.ndarray, pred: ScanPredicate) -> list[int]:
        """The sets among those ``asked`` marks that are proven empty for
        ``pred``. Only sets holding an entry are probed."""
        if pred.is_empty:
            return []
        n = len(asked)
        return [
            page_id
            for page_id in list(self._cache)  # scans may record concurrently
            if page_id < n and asked[page_id] and self.can_skip(page_id, pred)
        ]

    def clear(self) -> None:
        """Called on table reorganization."""
        self._cache.clear()

    def forget_from(self, first: int) -> bool:
        """Drop the entries of sets ``first`` onwards (a merge replaced
        them); did any exist?"""
        doomed = [pid for pid in list(self._cache) if pid >= first]
        for pid in doomed:
            self._cache.pop(pid, None)
        return bool(doomed)

    # -- persistence (paper: caches are periodically persisted) -----------------
    def to_bytes(self) -> bytes:
        payload = {
            pid: [(sorted((a.column, a.op.value, a.value) for a in p.atoms), sorted(p.opaque)) for p in preds]
            for pid, preds in self._cache.items()
        }
        return pickle.dumps(payload, protocol=4)

    @classmethod
    def from_bytes(cls, blob: bytes, max_per_page: int = 16) -> "PredicateCache":
        payload = pickle.loads(blob)
        if not isinstance(payload, dict):
            raise StorageError("corrupt predicate cache")
        out = cls(max_per_page)
        for pid, preds in payload.items():
            out._cache[pid] = [
                ScanPredicate((Atom(c, Op(o), v) for c, o, v in atoms), opaque)
                for atoms, opaque in preds
            ]
        return out

    @property
    def nbytes(self) -> int:
        return len(self.to_bytes())

    @property
    def n_entries(self) -> int:
        return sum(len(v) for v in self._cache.values())


# ---------------------------------------------------------------------------
# Min-max page statistics (small materialized aggregates)
# ---------------------------------------------------------------------------


#: per atom operator: which sets' (lo, hi) prove it matches no row
_MINMAX_EMPTY = {
    Op.EQ: lambda lo, hi, v: (lo > v) | (hi < v),
    Op.LT: lambda lo, hi, v: lo >= v,
    Op.LE: lambda lo, hi, v: lo > v,
    Op.GT: lambda lo, hi, v: hi <= v,
    Op.GE: lambda lo, hi, v: hi < v,
}


class PageMinMax:
    """Per-set min/max per column, the static scheme the paper
    generalizes: per column one array of minima and one of maxima, whose
    ``i``-th entries describe set ``i`` (strings as object arrays, so
    they compare as Python strings do)."""

    def __init__(self, columns: Mapping[str, tuple[np.ndarray, np.ndarray]] | None = None):
        self._cols: dict[str, tuple[np.ndarray, np.ndarray]] = dict(columns or {})

    def extended(self, sets: Sequence[Mapping[str, tuple[object, object]]]) -> "PageMinMax":
        """A copy with the next sets' (min, max) per column added, one
        mapping a set. Arrays are replaced, never written, so a reader
        of this one keeps whole ones (and treats sets past their end as
        unknown)."""
        out = PageMinMax(self._cols)
        if not sets:
            return out
        for col in sets[0]:
            lo = [s[col][0] for s in sets]
            hi = [s[col][1] for s in sets]
            dtype = object if isinstance(lo[0], str) else None
            new_lo, new_hi = np.array(lo, dtype=dtype), np.array(hi, dtype=dtype)
            old = self._cols.get(col)
            if old is not None:
                new_lo = np.concatenate([old[0], new_lo])
                new_hi = np.concatenate([old[1], new_hi])
            out._cols[col] = (new_lo, new_hi)
        return out

    def merged(self, lo: int, hi: int) -> "PageMinMax":
        """A copy in which sets ``lo`` to ``hi - 1`` are one set, whose
        range covers theirs (unknown unless all of theirs are known)."""
        out = {}
        for col, (mins, maxs) in self._cols.items():
            head_lo, head_hi = mins[:lo], maxs[:lo]
            if len(mins) >= hi:
                head_lo = np.append(head_lo, np.array([min(mins[lo:hi].tolist())], dtype=mins.dtype))
                head_hi = np.append(head_hi, np.array([max(maxs[lo:hi].tolist())], dtype=maxs.dtype))
            out[col] = (head_lo, head_hi)
        return PageMinMax(out)

    def skippable(self, n_sets: int, pred: ScanPredicate) -> np.ndarray:
        """Per set of the first ``n_sets``: does some atom fall outside
        its range?"""
        out = None
        for atom in pred.atoms:
            arrays = self._cols.get(atom.column)
            empty = _MINMAX_EMPTY.get(atom.op)
            if arrays is None or empty is None:
                continue
            try:
                hit = empty(arrays[0][:n_sets], arrays[1][:n_sets], atom.value)
            except (TypeError, OverflowError):
                continue  # incomparable constant: this atom cannot skip
            out = hit if out is None else out | hit
        if out is None:
            return np.zeros(n_sets, dtype=bool)
        if len(out) < n_sets:  # sets whose min/max is not recorded yet are kept
            out = np.concatenate([out, np.zeros(n_sets - len(out), dtype=bool)])
        return out

    def columns(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The arrays, for persisting (``PageMinMax(columns)`` reloads)."""
        return dict(self._cols)

    def clear(self) -> None:
        self._cols.clear()
