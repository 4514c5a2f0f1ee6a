"""Content-addressed artifact store, in process memory or on disk.

``ArtifactStore(root=None)`` keeps every entry in process memory: the
default for a resident daemon, so re-submitting a module is a lookup
rather than a re-solve. ``ArtifactStore(root)`` keeps entries
one-per-file under ``<root>/objects/<aa>/<hash>.json`` (two hex
characters of sharding keeps directories small at repository scale) and
adds persistence across restarts. Both backends share one entry index,
one byte budget with one eviction implementation, one set of stats and
fault seams; they differ only in where the payload lives — on the
index's :class:`_Entry` record, or in the entry's file.

The store is deliberately boring and failure-proof:

* **Atomic writes** (disk) — payloads are written to a temp file in the
  target directory and ``os.replace``d into place, so readers never
  observe a half-written entry, including concurrent writers across
  processes (the last writer wins with an identical payload: entries are
  content-addressed, so two writers of one key are writing the same
  bytes). Temp names embed the writer's pid plus a per-process counter,
  so concurrent writers — including forked children racing their parent
  — can never collide on the scratch file itself.
* **Optionally durable** (disk) — ``durable=True`` fsyncs the temp file
  before the rename and the directory after it, so a machine crash
  immediately after :meth:`put` returns cannot leave a hole or a garbage
  entry where the rename landed. The default stays non-durable: the
  store is a cache, and a lost entry is just a future miss.
* **Versioned** — every payload embeds :data:`STORE_VERSION`; any other
  version reads as a corrupt miss, so format changes never need a
  migration tool.
* **Corruption-tolerant** — unreadable, unparsable or mis-shaped entries
  (truncated JSON, zero-byte files, wrong version, non-dict payloads)
  are misses, never errors; the offending file is unlinked best-effort.
  A cache must not be able to take the service down.
* **Budget-governed** — ``budget_bytes`` caps the store's footprint,
  counted in serialized payload bytes (the file size on disk). A
  memory store given no budget is capped at
  :data:`DEFAULT_MEMORY_BUDGET_BYTES`, so a resident process stays
  bounded however many edits it sees. Every :meth:`put` enforces the cap
  before returning by evicting the least-recently-accessed entries
  first; a negative budget is a ``ValueError``. An evicted entry is
  indistinguishable from one that was never written: the next
  :meth:`get` is a clean miss and the producer simply re-solves. The
  index keeps entries in access order; on disk it is seeded from file
  ``mtime`` (which :meth:`get` bumps via ``os.utime``), so the ordering
  survives process restarts.

**Every hit is a fresh parse.** A memory store keeps each entry as its
serialized text, exactly the bytes a disk store would write, so the
budget counts what the process really holds: held as parsed objects,
the same payloads take about eight times the memory. Callers may keep
or change what :meth:`get` returns.

Both endpoints are fault-injection seams (``store.read`` /
``store.write``, see :mod:`repro.reliability.faults`); the ``torn`` kind
is implemented here by deliberately writing a truncated payload to the
final path — simulating the non-atomic writer this store refuses to be —
which the next :meth:`get` must classify as a corrupt miss. A torn
memory write stores nothing.

The store knows nothing about detection; payload schemas live with their
producers (:mod:`repro.cache.detection`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..reliability import faults

#: Bump on any payload schema change; old entries become misses.
STORE_VERSION = 2

#: Byte budget of a memory store built without one (serialized payload
#: bytes): a resident process must stay bounded.
DEFAULT_MEMORY_BUDGET_BYTES = 64 * 1024 * 1024

_HEX = set("0123456789abcdef")

#: Per-process temp-name counter. Combined with the pid at use time (not
#: import time — a fork after import must not clone the discriminator),
#: it makes every writer's scratch file unique without consulting the
#: filesystem.
_TMP_COUNTER = itertools.count()


@dataclass
class StoreStats:
    """Hit/miss accounting for one store instance (observability and the
    tests' only-mutated-functions-resolved assertions)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    write_errors: int = 0
    #: Current footprint in bytes (a gauge, refreshed by the store
    #: whenever its entry index changes) and the number of entries the
    #: byte budget has evicted (a counter).
    bytes_stored: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "write_errors": self.write_errors,
            "bytes_stored": self.bytes_stored,
            "evictions": self.evictions,
        }


class _Entry:
    """Index record for one entry."""

    __slots__ = ("size", "atime", "data")

    def __init__(self, size: int, atime: float, data: str | None = None):
        self.size = size
        self.atime = atime
        #: The serialized payload (memory backend only).
        self.data = data


class ArtifactStore:
    """Content-addressed JSON store: on disk under ``root``, or in
    process memory when ``root`` is None (see the module docstring).

    Thread-safe: lookups run from detection worker threads."""

    def __init__(self, root: str | None = None, durable: bool = False,
                 budget_bytes: int | None = None):
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(f"negative store budget {budget_bytes!r}")
        #: The objects directory's parent; None keeps entries in memory.
        self.root = root
        self.stats = StoreStats()
        #: fsync temp file + directory around the rename (crash
        #: durability; disk only).
        self.durable = durable
        #: Byte cap; None disables eviction on disk. Enforced before
        #: every :meth:`put` returns — the footprint never exceeds it.
        self.budget_bytes = (DEFAULT_MEMORY_BUDGET_BYTES
                             if root is None and budget_bytes is None
                             else budget_bytes)
        #: Serializes stats and index updates — lookups run from
        #: DetectionSession worker threads, and unsynchronized ``+=``
        #: would lose counts.
        self._lock = threading.Lock()
        #: key -> _Entry in access order (least recent first); on disk
        #: built lazily by a stat-only scan of the objects tree.
        self._index: OrderedDict[str, _Entry] | None = \
            OrderedDict() if root is None else None

    def __repr__(self) -> str:
        return (f"ArtifactStore(root={self.root!r}, "
                f"budget_bytes={self.budget_bytes!r})")

    @staticmethod
    def _check_key(key: str) -> None:
        if len(key) < 3 or not set(key) <= _HEX:
            raise ValueError(f"malformed artifact key {key!r}")

    def _path(self, key: str) -> str:
        self._check_key(key)
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    # -- entry index (per-entry byte size + last access) -----------------------
    def _ensure_index(self) -> OrderedDict:
        """The key -> :class:`_Entry` map (call under ``_lock``).

        On disk it is built on first use by a stat-only walk of the
        objects tree: sizes from ``st_size``, access order from
        ``st_mtime`` (which :meth:`get` keeps bumped via ``os.utime``),
        so LRU ordering carries across process restarts."""
        if self._index is None:
            found = []
            objects = os.path.join(self.root, "objects")
            for dirpath, _, files in os.walk(objects):
                for fname in files:
                    if not fname.endswith(".json"):
                        continue
                    try:
                        st = os.stat(os.path.join(dirpath, fname))
                    except OSError:
                        continue
                    found.append((st.st_mtime, fname[:-5], st.st_size))
            found.sort()
            self._index = OrderedDict(
                (key, _Entry(size, mtime)) for mtime, key, size in found)
            self.stats.bytes_stored = sum(size for _, _, size in found)
        return self._index

    def _note_write(self, key: str, size: int,
                    data: str | None = None) -> None:
        index = self._ensure_index()
        old = index.pop(key, None)
        if old is not None:
            self.stats.bytes_stored -= old.size
        index[key] = _Entry(size, time.time(), data)
        self.stats.bytes_stored += size

    def _note_access(self, key: str, size: int) -> None:
        index = self._ensure_index()
        entry = index.get(key)
        if entry is None:
            # Written by another process since the scan: adopt it.
            entry = index[key] = _Entry(size, 0.0)
            self.stats.bytes_stored += size
        else:
            index.move_to_end(key)
        entry.atime = time.time()

    def _forget(self, key: str) -> None:
        if self._index is None:
            return
        entry = self._index.pop(key, None)
        if entry is not None:
            self.stats.bytes_stored -= entry.size

    def _enforce_budget(self) -> None:
        """Evict (call under ``_lock``) until the footprint fits the
        budget. The index is in access order, so the least recently
        accessed entries go first."""
        if self.budget_bytes is None:
            return
        index = self._ensure_index()
        if self.stats.bytes_stored <= self.budget_bytes:
            return
        for key in list(index):
            if self.stats.bytes_stored <= self.budget_bytes:
                break
            if self.root is not None:
                self._unlink(self._path(key))
            self.stats.bytes_stored -= index.pop(key).size
            self.stats.evictions += 1

    def total_bytes(self) -> int:
        """Current footprint per the entry index."""
        with self._lock:
            self._ensure_index()
            return self.stats.bytes_stored

    def entry_info(self, key: str) -> tuple[int, float] | None:
        """(byte size, last-access time) of one entry, or None."""
        with self._lock:
            entry = self._ensure_index().get(key)
            return None if entry is None else (entry.size, entry.atime)

    def describe(self) -> dict:
        """Stats plus backend, footprint and budget — the ``store``
        section of the detection service's stats payload."""
        return dict(self.stats.as_dict(),
                    backend="memory" if self.root is None else "disk",
                    total_bytes=self.total_bytes(),
                    budget_bytes=self.budget_bytes)

    # -- reads ----------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or None (miss).

        Every failure mode — absent entry, I/O error, invalid JSON,
        non-dict payload, version mismatch — is a miss. Files whose
        *content* is provably invalid are removed so they are not
        re-parsed on every lookup; a transient I/O error (fd exhaustion,
        a briefly unreadable shared mount, an injected read fault) says
        nothing about the content, so the entry is left alone."""
        self._check_key(key)
        try:
            faults.maybe_fire("store.read", key)
        except faults.InjectedFault:
            with self._lock:
                self.stats.misses += 1
            return None
        if self.root is None:
            with self._lock:
                entry = self._index.get(key)
                if entry is None:
                    self.stats.misses += 1
                    return None
                self.stats.hits += 1
                self._note_access(key, entry.size)
            return json.loads(entry.data)
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
                self._forget(key)
            return None
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            payload = json.loads(data)
        except ValueError:
            payload = None
        if not isinstance(payload, dict) or \
                payload.get("version") != STORE_VERSION:
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
                self._forget(key)
            self._unlink(path)
            return None
        self._touch(path)
        with self._lock:
            self.stats.hits += 1
            self._note_access(key, len(data))
        return payload

    # -- writes ---------------------------------------------------------------
    def put(self, key: str, payload: dict) -> bool:
        """Persist ``payload`` under ``key``, atomically on disk.

        The version and ``meta`` (payload byte size + stamp time) fields
        are stamped here so producers cannot forget them. Write failures
        (full disk, read-only mount, permissions, injected faults) are
        swallowed: a store that cannot persist degrades to a cold run, it
        does not break detection. The byte budget, when set, is enforced
        before returning — the store's footprint never exceeds it.
        Returns whether the write landed (a write evicted to fit a tiny
        budget still returns True; the next get is simply a miss)."""
        self._check_key(key)
        # JSON with the default ensure_ascii stays pure ASCII, so
        # len(data) is the entry's byte size.
        data = json.dumps(self._stamp(payload), separators=(",", ":"))
        try:
            directive = faults.maybe_fire("store.write", key)
            if directive is not None and \
                    getattr(directive, "kind", None) == "torn":
                # Simulate the non-atomic writer dying mid-write: half
                # the bytes land at the *final* path. Readers must see a
                # corrupt miss, never an error or a partial payload. In
                # memory there is no partial state: nothing is stored.
                if self.root is not None:
                    torn = data[:max(1, len(data) // 2)]
                    self._write_file(self._path(key), torn)
                    with self._lock:
                        self._note_write(key, len(torn))
                with self._lock:
                    self.stats.write_errors += 1
                return False
            if self.root is not None:
                self._replace(self._path(key), data)
        except (OSError, faults.InjectedFault):
            with self._lock:
                self.stats.write_errors += 1
            return False
        with self._lock:
            self.stats.writes += 1
            self._note_write(key, len(data),
                             data if self.root is None else None)
            self._enforce_budget()
        return True

    @staticmethod
    def _stamp(payload: dict) -> dict:
        """Stamp version + the meta record. ``meta.bytes`` measures the
        producer payload itself (version included, meta excluded), so
        consumers can account entry sizes without a stat; ``meta.atime``
        is the stamp instant."""
        body = dict(payload, version=STORE_VERSION)
        body.pop("meta", None)
        size = len(json.dumps(body, separators=(",", ":")))
        return dict(body, meta={"bytes": size, "atime": int(time.time())})

    def _replace(self, path: str, data: str) -> None:
        """Atomic write: unique temp name, optional fsync, rename."""
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(
            directory,
            f".{os.path.basename(path)}.{os.getpid()}."
            f"{next(_TMP_COUNTER)}.tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(data)
                if self.durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
            if self.durable:
                self._sync_dir(directory)
        except BaseException:
            self._unlink(tmp)
            raise

    @staticmethod
    def _write_file(path: str, data: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(data)

    @staticmethod
    def _touch(path: str) -> None:
        """Bump mtime so LRU ordering survives into fresh index scans."""
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _sync_dir(directory: str) -> None:
        """fsync the directory so the rename itself is on stable storage
        (best-effort: not every filesystem allows O_RDONLY dir fds)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- maintenance -----------------------------------------------------------
    def invalidate(self, key: str) -> None:
        """Drop an entry whose *payload* a consumer found undecodable
        (it was already counted as a hit by :meth:`get`): reclassify the
        lookup as a corrupt miss and discard the entry so it is not
        re-parsed on every lookup."""
        with self._lock:
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._forget(key)
        if self.root is not None:
            self._unlink(self._path(key))

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def entry_count(self) -> int:
        """Number of entries (on disk this walks the tree, so entries
        other processes wrote count too; diagnostics only)."""
        if self.root is None:
            with self._lock:
                return len(self._index)
        objects = os.path.join(self.root, "objects")
        count = 0
        for _, _, files in os.walk(objects):
            count += sum(1 for f in files if f.endswith(".json"))
        return count
