"""Resumable append-only result store for sweep grids.

:class:`SweepStore` is built for million-cell grids: an append-only
record log where each finished cell costs O(1) bytes to persist and only
a ``key -> offset`` index stays in memory; values are read back lazily
and :meth:`SweepStore.iter_cells` streams the grid without materializing
it.  Completed runs compact the log into canonical sorted-key order,
which is what makes serial, parallel and resumed stores byte-identical.
Parallel workers persist to per-worker shard stores next to the main
one; :meth:`SweepStore.recover_shards` absorbs the shards a killed run
left behind.  Every grid driver (:mod:`repro.experiments.sweep` and the
per-figure harnesses) keys its cells into this one store.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.utils.checkpoint import atomic_write_lines


def dataset_fingerprint(dataset: SyntheticImageDataset) -> str:
    """Short content digest of a dataset, for cache keys.

    Covers the name, shapes, and the actual pixel/label bytes: two
    datasets that merely share a name (same generator, different seed)
    must never serve each other's cached results.
    """
    digest = hashlib.sha256()
    digest.update(dataset.name.encode())
    digest.update(repr(dataset.images.shape).encode())
    digest.update(np.ascontiguousarray(dataset.images).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return digest.hexdigest()[:12]


class SweepStoreError(RuntimeError):
    """A sweep store file exists but cannot be trusted (corrupt/foreign)."""


# On-disk format of the scalable store: line 1 is this header, every
# further line is one {"k": key, "v": value} record, last record wins.
STORE_FORMAT = "oasis-sweep-log-v1"
_STORE_HEADER = json.dumps(
    {"format": STORE_FORMAT}, sort_keys=True, separators=(",", ":")
)


def _record_line(key: str, value) -> str:
    """Canonical serialized form of one cell record."""
    return json.dumps(
        {"k": key, "v": value}, sort_keys=True, separators=(",", ":")
    )


class ShardRecovery(NamedTuple):
    """What :meth:`SweepStore.recover_shards` found: absorbed cells and
    corrupt shard files quarantined as ``*.corrupt``."""

    recovered: int
    quarantined: int


class SweepStore:
    """Resumable append-only log store of finished cells.

    Built for million-cell grids: a :meth:`put` *appends* one record line
    to the backing log — O(1) bytes per cell — and only the ``key -> byte
    offset`` index lives in memory; cell values stay on disk and are parsed
    on demand (:meth:`get`, :meth:`iter_cells`), so holding a 10^6-cell
    store open costs the index, not the grid.

    The file format is line-oriented: a header line naming
    :data:`STORE_FORMAT`, then one ``{"k": ..., "v": ...}`` JSON record
    per line, last record per key winning.  A process killed mid-append
    leaves at most one torn final line, which the next open silently drops
    (that cell simply recomputes); damage *before* intact records — which
    no crash of this writer can produce — raises :class:`SweepStoreError`
    rather than silently recomputing a large grid.  :meth:`compact`
    rewrites the log atomically in canonical sorted-key order; executors
    compact on completion, which is what keeps serial, work-stolen
    parallel, and resumed stores **byte-identical**.

    An existing file whose first line is not the :data:`STORE_FORMAT`
    header raises :class:`SweepStoreError` on open and is left
    byte-for-byte unchanged.  With ``path=None`` the store is
    memory-only — same interface, no persistence.
    """

    def __init__(self, path: "str | Path | None" = None) -> None:
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        # key -> (offset, length) into the log file, or None when the
        # value lives in _mem (memory-only store).
        self._where: "dict[str, tuple[int, int] | None]" = {}
        self._mem: dict[str, object] = {}
        self._read_handle = None
        self._append_handle = None
        self._data_end = 0  # end of the last intact record (torn tails cut)
        if self.path is not None and self.path.exists():
            self._load_existing()

    # -- loading -----------------------------------------------------------

    def _load_existing(self) -> None:
        path = self.path
        try:
            with open(path, "rb") as handle:
                first_line = handle.readline()
        except OSError as error:
            raise SweepStoreError(
                f"sweep store {path} exists but cannot be read: {error}"
            ) from error
        try:
            header = json.loads(first_line)
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
            raise SweepStoreError(
                f"sweep store {path} does not start with the "
                f"{STORE_FORMAT!r} header (first line: "
                f"{first_line[:80].decode('utf-8', 'replace')!r}); refusing "
                "to read or overwrite a file this module did not write — "
                "delete or move it first"
            )
        self._where, self._data_end = self._scan_log(path)

    @staticmethod
    def _scan_log(path: Path) -> "tuple[dict[str, tuple[int, int]], int]":
        """Index a log file: ``key -> (offset, length)`` plus the end of
        the last intact record.

        A final line that is incomplete (no newline) or unparsable is a
        torn append from a crash and is dropped; a damaged line with
        intact records *after* it means the file was edited or corrupted
        by something other than this writer, and raises.
        """
        where: "dict[str, tuple[int, int]]" = {}
        with open(path, "rb") as handle:
            header = handle.readline()
            offset = len(header)
            data_end = offset
            torn_at: Optional[int] = None
            while True:
                line = handle.readline()
                if not line:
                    break
                if torn_at is not None:
                    raise SweepStoreError(
                        f"sweep store {path} is corrupt: damaged record at "
                        f"byte {torn_at} with intact records after it — "
                        "this writer's crashes only ever tear the final "
                        "line; delete or restore the file"
                    )
                start = offset
                offset += len(line)
                if not line.endswith(b"\n"):
                    torn_at = start
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    torn_at = start
                    continue
                if not (
                    isinstance(record, dict)
                    and isinstance(record.get("k"), str)
                    and "v" in record
                ):
                    torn_at = start
                    continue
                where[record["k"]] = (start, len(line))
                data_end = offset
        return where, data_end

    # -- reads -------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._where

    def __len__(self) -> int:
        return len(self._where)

    def get(self, key: str):
        """Return the cached value for ``key`` (None on miss), counting."""
        if key not in self._where:
            self.misses += 1
            return None
        self.hits += 1
        return self._value(key)

    def _value(self, key: str):
        location = self._where[key]
        if location is None:
            return self._mem[key]
        offset, length = location
        if self._read_handle is None:
            self._read_handle = open(self.path, "rb")
        self._read_handle.seek(offset)
        return json.loads(self._read_handle.read(length))["v"]

    def keys(self) -> list[str]:
        """All cached cell keys (file order; sorted after a compaction)."""
        return list(self._where)

    def iter_cells(self):
        """Stream ``(key, value)`` pairs in sorted key order.

        Values are read from disk one record at a time, so iterating a
        million-cell store never materializes the grid; this is what
        streaming reporting builds on.
        """
        for key in sorted(self._where):
            yield key, self._value(key)

    # -- writes ------------------------------------------------------------

    def put(self, key: str, value) -> None:
        """Record ``key``, appending one log record (O(1) bytes)."""
        if self.path is None:
            self._mem[key] = value
            self._where[key] = None
            return
        self._append({key: value})

    def update(self, mapping: dict) -> None:
        """Record many cells with a single buffered append."""
        if not mapping:
            return
        if self.path is None:
            self._mem.update(mapping)
            self._where.update(dict.fromkeys(mapping))
            return
        self._append(mapping)

    def _append(self, mapping: dict) -> None:
        handle = self._appender()
        offset = self._data_end
        buffer = bytearray()
        for key, value in mapping.items():
            line = (_record_line(key, value) + "\n").encode("utf-8")
            self._where[key] = (offset, len(line))
            offset += len(line)
            buffer += line
        handle.seek(self._data_end)
        handle.write(buffer)
        handle.flush()
        self._data_end = offset

    def _appender(self):
        if self._append_handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                # repro-lint: disable=no-raw-write -- the append-only log is the one deliberate non-atomic writer: a put() appends O(1) bytes, a crash tears at most the final line (dropped on the next open), and compact() IS the atomic rewrite (atomic_write_lines)
                self._append_handle = open(self.path, "r+b")
                # Cut any torn tail a crash left so the next record
                # starts on a clean line.
                if self.path.stat().st_size > self._data_end:
                    self._append_handle.truncate(self._data_end)
            else:
                # repro-lint: disable=no-raw-write -- creating the fresh log file for O(1) appends; same crash contract as above, compaction is the atomic path
                self._append_handle = open(self.path, "w+b")
                header = (_STORE_HEADER + "\n").encode("utf-8")
                self._append_handle.write(header)
                self._append_handle.flush()
                self._data_end = len(header)
        return self._append_handle

    def compact(self) -> None:
        """Atomically rewrite the log in canonical sorted-key order.

        Executors call this once per completed run: compaction is what
        turns "same mapping" into "same bytes", making serial, parallel,
        and resumed stores byte-identical regardless of the order cells
        finished (and it drops superseded duplicate records).
        """
        if self.path is None:
            return
        if not self._where and not self.path.exists():
            return  # nothing ever persisted; don't create an empty file
        keys = sorted(self._where)
        new_where: "dict[str, tuple[int, int] | None]" = {}

        def lines():
            offset = len(_STORE_HEADER) + 1
            yield _STORE_HEADER
            for key in keys:
                line = _record_line(key, self._value(key))
                length = len(line.encode("utf-8")) + 1
                new_where[key] = (offset, length)
                offset += length
                yield line

        atomic_write_lines(self.path, lines())
        self.close()
        self._where = new_where
        self._data_end = (
            len(_STORE_HEADER) + 1
            + sum(length for _, length in new_where.values())
        )

    def close(self) -> None:
        """Close file handles (reopened lazily on the next access)."""
        for handle in (self._read_handle, self._append_handle):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._read_handle = None
        self._append_handle = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # -- shard support (parallel execution / crash recovery) ---------------

    @staticmethod
    def shard_directory_for(path: "str | Path") -> Path:
        """The shard directory belonging to a store at ``path``."""
        path = Path(path)
        return path.with_name(path.name + ".shards")

    def shard_directory(self) -> Optional[Path]:
        """Where parallel workers persist this store's in-flight shards."""
        if self.path is None:
            return None
        return self.shard_directory_for(self.path)

    def recover_shards(self) -> ShardRecovery:
        """Absorb shards left behind by a killed parallel run.

        Every cell found in a readable shard is a finished result; each
        shard is merged into this store (existing keys win — they are the
        same results) and its file is removed **only after** the absorbing
        append has durably landed in the main store, so a crash or a
        failed persist mid-recovery never deletes results it has not
        saved.  A shard that cannot be parsed (beyond the torn final line
        every crash may leave, which is dropped silently) is quarantined —
        renamed to ``<shard>.corrupt`` — instead of abandoning the
        readable shards behind it.  Returns both counts; memory-only
        stores have no shards and recover nothing.
        """
        directory = self.shard_directory()
        if directory is None or not directory.is_dir():
            return ShardRecovery(0, 0)
        recovered = 0
        quarantined = 0
        for shard in sorted(directory.glob("shard-*.json")):
            try:
                shard_store = SweepStore(shard)
                fresh = {
                    key: value
                    for key, value in shard_store.iter_cells()
                    if key not in self._where
                }
                shard_store.close()
            except SweepStoreError as error:
                quarantine = shard.with_name(shard.name + ".corrupt")
                shard.rename(quarantine)
                quarantined += 1
                warnings.warn(
                    f"quarantined corrupt sweep shard {shard} -> "
                    f"{quarantine}: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            self.update(fresh)  # raises before the unlink on a failed persist
            recovered += len(fresh)
            if self.path is not None:
                shard.unlink()
        try:
            directory.rmdir()
        except OSError:
            pass  # quarantined/unrelated files present; leave the directory
        return ShardRecovery(recovered, quarantined)
