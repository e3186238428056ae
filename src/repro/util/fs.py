"""Virtual filesystems.

The storage engine reads and writes through a tiny filesystem interface
so tests and the simulated cluster can run entirely in memory
(:class:`MemFS`) while the same code paths work against real disks
(:class:`LocalFS`). :class:`MemFS` files are *sparse* — the paper stores
columnar page sets in Linux sparse files so that unused page tails occupy
no disk space; here only the 4 KiB blocks a write touched are held, which
is both the space accounting and the memory the file costs.
"""

from __future__ import annotations

import os
import threading

from ..common.errors import StorageError

_SPARSE_BLOCK = 4096


class FileHandle:
    """Random-access file handle (positional read/write)."""

    def pread(self, offset: int, size: int) -> bytes:
        raise NotImplementedError

    def pwrite(self, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def size(self) -> int:
        raise NotImplementedError

    def truncate(self, size: int) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Durability barrier (WAL force)."""

    def close(self) -> None:
        pass


class FileSystem:
    """Minimal filesystem facade used by all storage components."""

    def open(self, path: str, create: bool = True) -> FileHandle:
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def delete(self, path: str) -> None:
        raise NotImplementedError

    def listdir(self, prefix: str) -> list[str]:
        raise NotImplementedError


class _SparseData:
    """One in-memory file: the 4 KiB blocks a write has touched, and the
    logical size. A block that was never written reads as zeros and
    costs nothing, like a hole in a sparse file."""

    __slots__ = ("blocks", "size")

    def __init__(self):
        self.blocks: dict[int, bytearray] = {}
        self.size = 0


_ZERO_BLOCK = bytes(_SPARSE_BLOCK)


class _MemFile(FileHandle):
    __slots__ = ("_fs", "_path")

    def __init__(self, fs: "MemFS", path: str):
        self._fs = fs
        self._path = path

    def pread(self, offset: int, size: int) -> bytes:
        if size <= 0:
            return b""
        first = offset // _SPARSE_BLOCK
        last = (offset + size - 1) // _SPARSE_BLOCK
        with self._fs._lock:
            blocks = self._fs._files[self._path].blocks
            data = b"".join([blocks.get(b, _ZERO_BLOCK) for b in range(first, last + 1)])
        start = offset - first * _SPARSE_BLOCK
        return data if start == 0 and len(data) == size else data[start : start + size]

    def pwrite(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        data = memoryview(data)
        with self._fs._lock:
            f = self._fs._files[self._path]
            f.size = max(f.size, end)
            # every 4K block the range covers is touched (an empty write
            # touches the block it points at); a partly covered block is
            # read-modify-write
            for blk in range(offset // _SPARSE_BLOCK, max(end - 1, offset) // _SPARSE_BLOCK + 1):
                base = blk * _SPARSE_BLOCK
                lo, hi = max(offset, base), min(end, base + _SPARSE_BLOCK)
                block = f.blocks.get(blk)
                if block is None:
                    block = f.blocks[blk] = bytearray(_SPARSE_BLOCK)
                block[lo - base : hi - base] = data[lo - offset : hi - offset]

    def size(self) -> int:
        with self._fs._lock:
            return self._fs._files[self._path].size

    def truncate(self, size: int) -> None:
        with self._fs._lock:
            f = self._fs._files[self._path]
            if size < f.size:
                for blk in [b for b in f.blocks if b * _SPARSE_BLOCK >= size]:
                    del f.blocks[blk]
                tail = f.blocks.get(size // _SPARSE_BLOCK)
                if tail is not None:  # what is cut off must read back as zeros
                    keep = size % _SPARSE_BLOCK
                    tail[keep:] = bytes(_SPARSE_BLOCK - keep)
            f.size = size


class MemFS(FileSystem):
    """In-memory filesystem of sparse files: only touched 4 KiB blocks are
    stored, and they are what ``total_allocated`` counts."""

    def __init__(self):
        self._files: dict[str, _SparseData] = {}
        self._lock = threading.RLock()

    def open(self, path: str, create: bool = True) -> FileHandle:
        with self._lock:
            if path not in self._files:
                if not create:
                    raise StorageError(f"no such file: {path}")
                self._files[path] = _SparseData()
        return _MemFile(self, path)

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._files

    def delete(self, path: str) -> None:
        with self._lock:
            self._files.pop(path, None)

    def listdir(self, prefix: str) -> list[str]:
        with self._lock:
            return sorted(p for p in self._files if p.startswith(prefix))

    def total_allocated(self) -> int:
        with self._lock:
            return sum(len(f.blocks) * _SPARSE_BLOCK for f in self._files.values())


class _LocalFile(FileHandle):
    __slots__ = ("_fd",)

    def __init__(self, fd: int):
        self._fd = fd

    def pread(self, offset: int, size: int) -> bytes:
        chunk = os.pread(self._fd, size, offset)
        if len(chunk) < size:
            chunk += b"\x00" * (size - len(chunk))
        return chunk

    def pwrite(self, offset: int, data: bytes) -> None:
        os.pwrite(self._fd, data, offset)

    def size(self) -> int:
        return os.fstat(self._fd).st_size

    def truncate(self, size: int) -> None:
        os.ftruncate(self._fd, size)

    def sync(self) -> None:
        os.fsync(self._fd)

    def close(self) -> None:
        os.close(self._fd)


class LocalFS(FileSystem):
    """Real-disk filesystem rooted at a directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _abs(self, path: str) -> str:
        full = os.path.join(self.root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        return full

    def open(self, path: str, create: bool = True) -> FileHandle:
        full = self._abs(path)
        flags = os.O_RDWR | (os.O_CREAT if create else 0)
        try:
            fd = os.open(full, flags, 0o644)
        except FileNotFoundError:
            raise StorageError(f"no such file: {path}") from None
        return _LocalFile(fd)

    def exists(self, path: str) -> bool:
        return os.path.exists(os.path.join(self.root, path))

    def delete(self, path: str) -> None:
        try:
            os.unlink(os.path.join(self.root, path))
        except FileNotFoundError:
            pass

    def listdir(self, prefix: str) -> list[str]:
        out: list[str] = []
        for dirpath, _, files in os.walk(self.root):
            for f in files:
                rel = os.path.relpath(os.path.join(dirpath, f), self.root)
                if rel.startswith(prefix):
                    out.append(rel)
        return sorted(out)
