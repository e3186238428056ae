"""Parallel (striped) buffer manager.

The paper's buffer pool is partitioned into *stripes*, each managed by a
stripe manager; pages map to stripes by a hash of the page number, and a
lightweight wrapper hides the striping from clients. Eviction is a clock
variant where table scans *pre-declare* upcoming pages, which the clock
then prioritizes — effective when most traffic is concurrent OLAP scans.

This implementation keeps those structures and policies faithfully:

* striped frame tables with per-stripe locks (stripe managers),
* dirty tracking (per stripe, a set of keys, so a commit's write-back
  costs the pages it dirtied, not the pool) and write-back on eviction,
* clock-hand second-chance eviction,
* ``declare_scan`` hints that shield announced pages from eviction until
  consumed (one shielding per declaration).

Readers get immutable ``bytes``, so evicting a frame never invalidates
a page a reader holds, and frames need no pin counts.

The manager also owns its worker's decoded cache (``decoded``): the
fragment columns and page dictionaries decoded from those pages, under
a byte cap of their own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from ..common.errors import BufferPoolError
from .col_page import _ByteLRU
from .page import PagedFile

PageKey = tuple[str, int]  # (file path, page number)


@dataclass
class _Frame:
    key: PageKey
    payload: bytes
    referenced: bool = True
    declared: bool = False  # pre-declared by a scan; shielded once


class _Stripe:
    """One stripe manager: a clock over its own frame table."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.frames: dict[PageKey, _Frame] = {}
        #: frames whose payload the file does not hold yet
        self.dirty: set[PageKey] = set()
        self.ring: list[PageKey] = []
        self.hand = 0
        self.lock = threading.RLock()

    def _evict_one(self, writeback: Callable[[PageKey, bytes], None]) -> None:
        """Advance the clock hand until a victim is found (within three
        sweeps: a frame is spared once per declaration and once per
        reference)."""
        if not self.ring:
            raise BufferPoolError("stripe has no evictable frames")
        while True:
            self.hand %= len(self.ring)
            key = self.ring[self.hand]
            frame = self.frames[key]
            if frame.declared:
                # pre-declared by a scan: spare it once
                frame.declared = False
            elif frame.referenced:
                frame.referenced = False
            else:
                if key in self.dirty:
                    writeback(key, frame.payload)
                    self.dirty.discard(key)
                del self.frames[key]
                self.ring.pop(self.hand)
                return
            self.hand += 1


class BufferManager:
    """Facade over the stripe managers (the paper's lightweight wrapper)."""

    def __init__(self, n_stripes: int, capacity_pages: int, decoded_bytes: int = 64 << 20):
        if n_stripes < 1 or capacity_pages < n_stripes:
            raise BufferPoolError("capacity must allow >=1 page per stripe")
        per = capacity_pages // n_stripes
        self.stripes = [_Stripe(per) for _ in range(n_stripes)]
        self._files: dict[str, PagedFile] = {}
        self.decoded = _ByteLRU(decoded_bytes)
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- file registry -----------------------------------------------------------
    def register_file(self, f: PagedFile) -> None:
        self._files[f.path] = f

    def close_file(self, path: str) -> None:
        """Drop a file's frames, dirty ones unwritten (its data is being
        dropped), and close and unregister it if it is registered."""
        self.invalidate(path)
        f = self._files.pop(path, None)
        if f is not None:
            f.close()

    def file(self, path: str) -> PagedFile:
        try:
            return self._files[path]
        except KeyError:
            raise BufferPoolError(f"file not registered with buffer manager: {path}") from None

    # -- stripe routing ------------------------------------------------------------
    def _stripe_of(self, key: PageKey) -> _Stripe:
        return self.stripes[hash(key[1]) % len(self.stripes)]

    def _writeback(self, key: PageKey, payload: bytes) -> None:
        self._files[key[0]].write_page(key[1], payload)
        self.evictions += 1

    # -- public API ---------------------------------------------------------------
    def get(self, path: str, page_no: int) -> bytes:
        """Fetch a page (from cache or disk)."""
        key = (path, page_no)
        stripe = self._stripe_of(key)
        with stripe.lock:
            frame = stripe.frames.get(key)
            if frame is None:
                self.misses += 1
                payload = self.file(path).read_page(page_no)
                while len(stripe.frames) >= stripe.capacity:
                    stripe._evict_one(self._writeback)
                frame = _Frame(key, payload)
                stripe.frames[key] = frame
                stripe.ring.append(key)
            else:
                self.hits += 1
                frame.referenced = True
                frame.declared = False  # the declaration has been consumed
            return frame.payload

    def get_many(self, path: str, page_nos: list[int]) -> list[bytes]:
        """Fetch several pages in one call.

        Hot scan path: one page set's column pages per call, so the
        per-page function/dispatch overhead of :meth:`get` is paid once
        per set instead of once per column."""
        stripes = self.stripes
        n = len(stripes)
        out: list[bytes] = []
        for page_no in page_nos:
            key = (path, page_no)
            stripe = stripes[hash(page_no) % n]
            with stripe.lock:
                frame = stripe.frames.get(key)
                if frame is None:
                    self.misses += 1
                    payload = self.file(path).read_page(page_no)
                    while len(stripe.frames) >= stripe.capacity:
                        stripe._evict_one(self._writeback)
                    frame = _Frame(key, payload)
                    stripe.frames[key] = frame
                    stripe.ring.append(key)
                else:
                    self.hits += 1
                    frame.referenced = True
                    frame.declared = False
                out.append(frame.payload)
        return out

    def put(self, path: str, page_no: int, payload: bytes) -> None:
        """Install a new/updated page image and mark it dirty."""
        key = (path, page_no)
        stripe = self._stripe_of(key)
        with stripe.lock:
            frame = stripe.frames.get(key)
            if frame is None:
                while len(stripe.frames) >= stripe.capacity:
                    stripe._evict_one(self._writeback)
                frame = _Frame(key, payload)
                stripe.frames[key] = frame
                stripe.ring.append(key)
            else:
                frame.payload = payload
                frame.referenced = True
            stripe.dirty.add(key)

    def declare_scan(self, path: str, page_nos: list[int]) -> None:
        """Pre-declare pages a scan will request soon (clock prioritizes)."""
        # group by stripe so each stripe lock is taken once per scan,
        # not once per declared page
        by_stripe: dict[int, list[int]] = {}
        n = len(self.stripes)
        for page_no in page_nos:
            by_stripe.setdefault(hash(page_no) % n, []).append(page_no)
        for idx, nos in by_stripe.items():
            stripe = self.stripes[idx]
            with stripe.lock:
                frames = stripe.frames
                for page_no in nos:
                    frame = frames.get((path, page_no))
                    if frame is not None:
                        frame.declared = True

    def flush(self, path: str | None = None) -> None:
        """Write back dirty frames (all files, or one file)."""
        for stripe in self.stripes:
            with stripe.lock:
                done = [k for k in stripe.dirty if path is None or k[0] == path]
                for key in sorted(done):
                    self._files[key[0]].write_page(key[1], stripe.frames[key].payload)
                stripe.dirty.difference_update(done)

    def invalidate(self, path: str) -> None:
        """Drop all frames of a file (after truncate/reorganize)."""
        for stripe in self.stripes:
            with stripe.lock:
                doomed = [k for k in stripe.frames if k[0] == path]
                for k in doomed:
                    del stripe.frames[k]
                stripe.dirty.difference_update(doomed)
                stripe.ring = [k for k in stripe.ring if k[0] != path]
                stripe.hand = 0

    @property
    def cached_pages(self) -> int:
        return sum(len(s.frames) for s in self.stripes)
