"""Filesystem-backed content-addressed result store.

A :class:`ResultStore` maps a content key (:mod:`repro.store.keys`) to one
serialised payload on disk.  The layout under the store root is::

    <root>/objects/<kk>/<key>.payload     # the payload bytes (hashed content)
    <root>/objects/<kk>/<key>.meta.json   # index sidecar (provenance)

where ``<kk>`` is the first two hex digits of the key (keeps directories
small).  The sidecar carries everything that must stay *outside* the hashed
payload — creation timestamp, payload digest/size/codec, the code-version
salt and free-form provenance (config hash, index range, experiment kind) —
so equal configs always produce bitwise-equal payload files.

Durability and correctness guarantees:

* **Atomic writes** — payload and sidecar are written to a temp file in the
  target directory and ``os.replace``-d into place, so readers never observe
  a half-written entry; the sidecar is written last and acts as the commit
  marker.
* **Self-healing reads** — :meth:`ResultStore.get` verifies the sidecar's
  SHA-256 digest against the payload bytes and treats any mismatch,
  truncation, missing sidecar or undecodable payload as a *miss* (evicting
  the broken entry) so corruption degrades to recomputation, never to a
  crash or a wrong result.
* **Concurrent use** — there is no global index file to contend on; two
  processes racing to publish the same key both write equal payloads and the
  last rename wins.
* **One memo route** — :meth:`ResultStore.get_or_compute` is the only code
  that reads, claims, computes and publishes a memo (reports, serving
  models, stage-1 shards, decision priors, fits): single-flight across
  processes, best-effort writes (an unwritable cache never discards a
  computed value) and stale payloads treated as misses.
* **LRU lifecycle** — every hit stamps ``last_access_unix`` into the sidecar
  (best-effort, atomically), and :meth:`ResultStore.prune` evicts by that
  recency (creation time for never-read entries), so hot entries survive;
  :meth:`ResultStore.evict` removes the payload before the sidecar and only
  reports success when the entry is fully gone — a partial deletion leaves a
  visible, retryable entry rather than an invisible orphan payload.

Payload codecs: ``"json"`` for plain-dict payloads (experiment reports) and
``"pickle"`` for the numpy-laden stage-1 shard payloads (which already cross
process boundaries, so picklability is guaranteed).  The store only ever
unpickles files it wrote itself under the local cache root — treat the cache
directory with the same trust as the working tree.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import METRICS
from repro.store.keys import version_salt

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_root() -> Path:
    """The store root used when none is given.

    ``$REPRO_CACHE_DIR`` when set (and non-empty), else
    ``~/.cache/repro`` (``$XDG_CACHE_HOME/repro`` when that is set).
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write *data* to *path* via temp-file + rename (atomic on POSIX)."""
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _identity(value: object) -> object:
    return value


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


class StoreError(ValueError):
    """Misuse of the result store (bad key / unknown codec)."""


class ResultStore:
    """Content-addressed result cache rooted at a directory.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first :meth:`put`.  Defaults to
        :func:`default_cache_root` (``$REPRO_CACHE_DIR`` override).
    """

    #: Supported payload codecs (name -> (encode, decode)).
    #:
    #: The json codec deliberately differs from the strict key canonicaliser
    #: (:func:`repro.store.keys.canonical_json`): payloads are never hashed
    #: for addressing, so they keep the producer's dict order (a rehydrated
    #: report prints exactly like a fresh one) and allow NaN/Infinity (a
    #: report with a non-finite metric must cache, not fail after computing).
    #: The bytes are still deterministic — dict construction order is.
    CODECS = {
        "json": (
            lambda payload: json.dumps(
                payload, separators=(",", ":"), ensure_ascii=True
            ).encode("ascii"),
            lambda data: json.loads(data.decode("ascii")),
        ),
        "pickle": (
            lambda payload: pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            lambda data: pickle.loads(data),
        ),
    }

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def __repr__(self) -> str:
        return f"ResultStore(root={str(self.root)!r})"

    # ------------------------------------------------------------------ paths
    @staticmethod
    def _check_key(key: str) -> str:
        if not isinstance(key, str) or len(key) < 8 or any(
            c not in "0123456789abcdef" for c in key
        ):
            raise StoreError(f"store keys are lowercase hex digests, got {key!r}")
        return key

    def _payload_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.payload"

    def _meta_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.meta.json"

    # ------------------------------------------------------------------- I/O
    def put(
        self,
        key: str,
        payload: object,
        codec: str = "json",
        provenance: Optional[Dict[str, object]] = None,
    ) -> None:
        """Publish *payload* under *key* (atomically; overwrites any entry).

        ``provenance`` is free-form index metadata (config hash, experiment
        kind, index range, ...) recorded in the sidecar only — it never
        influences the payload bytes or the key.
        """
        self._check_key(key)
        if codec not in self.CODECS:
            raise StoreError(
                f"unknown payload codec {codec!r}; available: {', '.join(self.CODECS)}"
            )
        encode, _ = self.CODECS[codec]
        data = encode(payload)
        meta = {
            "key": key,
            "codec": codec,
            "size_bytes": len(data),
            "sha256": _sha256(data),
            "version_salt": version_salt(),
            "created_unix": time.time(),  # repro: allow[det-wallclock] -- created_unix sidecar metadata, excluded from keys and payloads
            "provenance": dict(provenance or {}),
        }
        payload_path = self._payload_path(key)
        payload_path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_bytes(payload_path, data)
        # Sidecar last: its presence marks the entry complete.
        _atomic_write_bytes(
            self._meta_path(key),
            (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("ascii"),
        )
        METRICS.counter("store.put.count").inc()
        METRICS.counter("store.put.bytes").inc(len(data))

    def get(self, key: str, codec: str = "json") -> Optional[object]:
        """Return the payload stored under *key*, or ``None`` on a miss.

        Incomplete, corrupted or codec-mismatched entries are evicted and
        reported as a miss, so callers can always fall back to recomputing.
        """
        self._check_key(key)
        payload_path = self._payload_path(key)
        meta_path = self._meta_path(key)
        try:
            meta_text = meta_path.read_text()
        except FileNotFoundError:
            # Plain miss: nothing committed (the sidecar is the commit
            # marker and it is written last).  Evicting here would race a
            # concurrent put of the same key — a miss read before the
            # publish must not destroy the entry right after it lands.
            METRICS.counter("store.get.misses").inc()
            return None
        except OSError:
            self.evict(key)
            METRICS.counter("store.get.misses").inc()
            return None
        try:
            meta = json.loads(meta_text)
            data = payload_path.read_bytes()
        except (OSError, ValueError):
            # Committed but broken (unreadable sidecar JSON, or a payload
            # missing behind a live sidecar — an interrupted evict): safe
            # to self-heal, because put writes the payload before the
            # sidecar, so a readable sidecar never means publish-in-flight.
            self.evict(key)
            METRICS.counter("store.get.misses").inc()
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("codec") != codec
            or meta.get("sha256") != _sha256(data)
        ):
            self.evict(key)
            METRICS.counter("store.get.misses").inc()
            return None
        _, decode = self.CODECS[codec]
        try:
            value = decode(data)
        except Exception:
            self.evict(key)
            METRICS.counter("store.get.misses").inc()
            return None
        self._touch(key, meta)
        METRICS.counter("store.get.hits").inc()
        METRICS.counter("store.get.bytes").inc(len(data))
        return value

    def _touch(self, key: str, meta: Dict[str, object]) -> None:
        """Best-effort last-access stamp on a hit (the LRU input of prune).

        Rewrites the sidecar atomically with ``last_access_unix`` set; any
        failure (read-only cache dir, disk full) is swallowed — a hit must
        never fail because bookkeeping could not be written, the entry just
        keeps its previous access time.
        """
        meta = dict(meta)
        meta["last_access_unix"] = time.time()  # repro: allow[det-wallclock] -- LRU last-access bookkeeping, excluded from keys and payloads
        try:
            if not self._payload_path(key).exists():
                # A concurrent evict/prune removed the entry between our
                # payload read and now (payload goes first, sidecar second).
                # Rewriting the sidecar here would resurrect a ghost entry
                # with no payload behind it — skip the stamp instead.
                return
            _atomic_write_bytes(
                self._meta_path(key),
                (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("ascii"),
            )
            if not self._payload_path(key).exists():
                # The eviction raced us between the check above and the
                # write: undo the resurrection.
                self._meta_path(key).unlink(missing_ok=True)
        except OSError:
            pass

    def __contains__(self, key: str) -> bool:
        self._check_key(key)
        return self._meta_path(key).exists() and self._payload_path(key).exists()

    # ----------------------------------------------------------- single-flight
    #
    # Lock files under <root>/locks/<key>.lock make computation single-flight
    # across processes: whoever creates the lock (O_CREAT|O_EXCL, atomic on
    # every filesystem that matters) computes; everyone else waits for the
    # entry to appear and re-reads.  The lock records the claimant's pid so a
    # dead producer's lock can be broken by any waiter, and waiting is always
    # bounded — a waiter that times out (or finds a released-but-unpublished
    # key) falls back to computing itself, so single-flight can duplicate
    # work under crashes but can never deadlock or lose it.

    def _lock_path(self, key: str) -> Path:
        return self.root / "locks" / f"{key}.lock"

    @staticmethod
    def _lock_is_stale(lock_path: Path) -> bool:
        """True when the lock's recorded producer process is gone.

        An unreadable lock (claimant crashed between create and write, or a
        concurrent unlink) is *not* reported stale — waiters handle that via
        their timeout instead of fighting over a lock they cannot attribute.
        """
        try:
            info = json.loads(lock_path.read_text())
            pid = int(info["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (PermissionError, OSError):
            return False  # exists but owned elsewhere; treat as alive
        return False

    def try_claim(self, key: str) -> bool:
        """Atomically claim *key* for computation; ``True`` when we hold it.

        A claim left by a process that no longer exists is broken and
        re-contended.  The holder must :meth:`release` when done (success or
        failure) — typically via ``try/finally``.  An unwritable lock
        directory raises ``OSError``: nobody can hold the key, so
        :meth:`get_or_compute` computes it unclaimed instead of waiting.
        """
        self._check_key(key)
        lock_path = self._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        record = json.dumps(
            {"pid": os.getpid(), "created_unix": time.time()}  # repro: allow[det-wallclock] -- lock bookkeeping, never enters keys or payloads
        )
        for _ in range(8):  # bounded re-contention after breaking stale locks
            try:
                fd = os.open(str(lock_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._lock_is_stale(lock_path):
                    METRICS.counter("store.singleflight.stale_broken").inc()
                    try:
                        lock_path.unlink()
                    except OSError:
                        pass
                    continue
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(record)
            METRICS.counter("store.singleflight.claims").inc()
            return True
        return False

    def release(self, key: str) -> bool:
        """Release a claim taken with :meth:`try_claim` (idempotent)."""
        self._check_key(key)
        lock_path = self._lock_path(key)
        try:
            info = json.loads(lock_path.read_text())
            if int(info.get("pid", -1)) != os.getpid():
                return False  # not ours (already broken and re-claimed)
        except (OSError, ValueError, TypeError):
            return False
        try:
            lock_path.unlink()
            return True
        except OSError:
            return False

    def wait_for(
        self,
        key: str,
        codec: str = "json",
        timeout: float = 120.0,
        poll: float = 0.05,
    ) -> Optional[object]:
        """Wait for another process to publish *key*; the value or ``None``.

        Returns as soon as the entry appears, or ``None`` when the claim
        disappears without a publication (the producer failed/crashed) or
        the timeout expires — in both cases the caller should compute the
        value itself.
        """
        self._check_key(key)
        lock_path = self._lock_path(key)
        deadline = time.monotonic() + max(0.0, timeout)  # repro: allow[det-wallclock] -- wait deadline, scheduling only
        while True:
            value = self.get(key, codec=codec)
            if value is not None:
                return value
            if not lock_path.exists() or self._lock_is_stale(lock_path):
                # Released (or the producer died) without publishing: one
                # final re-read closes the release-after-publish race, then
                # the caller takes over.
                return self.get(key, codec=codec)
            if time.monotonic() >= deadline:  # repro: allow[det-wallclock] -- wait deadline, scheduling only
                return None
            time.sleep(poll)

    def get_or_compute(
        self,
        keys: Sequence[str],
        compute: Callable[[List[int]], Sequence[object]],
        codec: str = "json",
        provenance: Optional[Sequence[Dict[str, object]]] = None,
        encode: Callable[[object], object] = _identity,
        decode: Callable[[object], object] = _identity,
        timeout: float = 120.0,
    ) -> Tuple[List[object], List[bool]]:
        """The one memo route: ``(values, hits)`` of *keys*, each computed
        at most once across concurrent callers.

        A stored payload is served as ``decode(payload)``; one that
        ``decode`` rejects with ``KeyError``/``TypeError``/``ValueError``
        (stale or foreign) is a miss.  Misses are claimed, computed by
        **one** ``compute(indices)`` call (values in *indices* order),
        published as ``encode(value)`` with ``provenance[index]`` and
        released in ``finally``.  Keys another caller holds are waited for
        and rescued with ``compute([index])`` when that producer dies or
        the wait times out.  Claims and publishes are best-effort: an
        ``OSError``/:class:`StoreError` (an unwritable cache) is counted on
        ``store.put.errors`` and never discards a computed value.
        ``hits[i]`` tells whether value *i* came from the store.  Values
        must not encode to ``None`` (reserved for misses).
        """
        keys = list(keys)
        values: List[object] = [None] * len(keys)
        hits = [False] * len(keys)

        def served(index: int, payload: object) -> bool:
            if payload is None:
                return False
            try:
                values[index] = decode(payload)
            except (KeyError, TypeError, ValueError):
                return False
            hits[index] = True
            return True

        def publish(indices: List[int], computed: Sequence[object]) -> None:
            for index, value in zip(indices, computed):
                values[index] = value
                payload = encode(value)
                try:
                    self.put(keys[index], payload, codec=codec,
                             provenance=provenance[index] if provenance else None)
                except (OSError, StoreError):
                    METRICS.counter("store.put.errors").inc()

        missing = [i for i, key in enumerate(keys) if not served(i, self.get(key, codec))]
        METRICS.counter("store.singleflight.hits").inc(len(keys) - len(missing))
        claimed, held, waiting = [], [], []
        for index in missing:
            try:
                if not self.try_claim(keys[index]):
                    waiting.append(index)
                    continue
                held.append(index)
            except (OSError, StoreError):
                METRICS.counter("store.put.errors").inc()  # compute unclaimed
            claimed.append(index)
        try:
            # Re-check under the lock: the previous holder may have
            # published between our miss and our claim.
            todo = [i for i in claimed if not served(i, self.get(keys[i], codec))]
            if todo:
                METRICS.counter("store.singleflight.computes").inc(len(todo))
                publish(todo, compute(todo))
        finally:
            for index in held:
                self.release(keys[index])
        for index in waiting:
            if served(index, self.wait_for(keys[index], codec, timeout=timeout)):
                METRICS.counter("store.singleflight.waits").inc()
            else:
                METRICS.counter("store.singleflight.rescues").inc()
                publish([index], compute([index]))
        return values, hits

    # ------------------------------------------------------------- management
    def evict(self, key: str) -> bool:
        """Remove one entry; ``True`` only when it is fully removed.

        The payload is unlinked *before* the sidecar: the sidecar is the
        entry's commit marker, so a deletion that fails part-way leaves a
        still-visible entry (retryable via :meth:`entries` / :meth:`get`
        self-healing) instead of an orphan payload no index operation can
        see.  Any unlink failure other than the file already being gone
        aborts the eviction and returns ``False``.
        """
        self._check_key(key)
        existed = False
        for path in (self._payload_path(key), self._meta_path(key)):
            try:
                path.unlink()
                existed = True
            except FileNotFoundError:
                pass
            except OSError:
                return False
        if existed:
            METRICS.counter("store.evict.count").inc()
        return existed

    def clear(self) -> int:
        """Remove every entry; returns the number of complete entries removed.

        Wipes the whole ``objects/`` tree, so orphans a crash can leave
        behind (payloads without a sidecar, abandoned temp files) are
        reclaimed too — they are invisible to :meth:`entries` / the
        per-entry :meth:`evict`.
        """
        removed = len(self.entries())
        shutil.rmtree(self.root / "objects", ignore_errors=True)
        shutil.rmtree(self.root / "locks", ignore_errors=True)
        return removed

    def entries(self) -> List[Dict[str, object]]:
        """The index: every entry's sidecar dict, sorted by key.

        Unreadable sidecars are skipped (their entries will be evicted on
        the next :meth:`get`).
        """
        out: List[Dict[str, object]] = []
        for meta_path in self._iter_meta_paths():
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(meta, dict):
                out.append(meta)
        return sorted(out, key=lambda meta: str(meta.get("key", "")))

    def stats(self) -> Dict[str, object]:
        """Aggregate view: entry count and payload bytes under the root."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "n_entries": len(entries),
            "payload_bytes": sum(int(meta.get("size_bytes", 0)) for meta in entries),
        }

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict least-recently-*used* entries until both bounds hold (LRU).

        ``max_entries`` bounds the entry count; ``max_bytes`` bounds the
        summed payload bytes.  Either may be ``None`` (unbounded), but at
        least one bound must be given.  Recency is the ``last_access_unix``
        stamp :meth:`get` records on every hit, falling back to
        ``created_unix`` for never-read entries (with creation time as the
        tie-break), so a hot entry survives even when it is old.  Returns
        the number of entries evicted.
        """
        if max_entries is None and max_bytes is None:
            raise StoreError("prune needs max_entries and/or max_bytes")
        if max_entries is not None and max_entries < 0:
            raise StoreError(f"max_entries must be >= 0, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")

        def recency(meta: Dict[str, object]):
            created = float(meta.get("created_unix", 0.0))
            accessed = meta.get("last_access_unix")
            return (float(accessed) if accessed is not None else created, created)

        entries = sorted(self.entries(), key=recency)
        n_entries = len(entries)
        total_bytes = sum(int(meta.get("size_bytes", 0)) for meta in entries)
        removed = 0
        for meta in entries:
            over_entries = max_entries is not None and n_entries > max_entries
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            if not over_entries and not over_bytes:
                break
            if self.evict(str(meta["key"])):
                removed += 1
                n_entries -= 1
                total_bytes -= int(meta.get("size_bytes", 0))
        METRICS.counter("store.prune.evicted").inc(removed)
        return removed

    def _iter_meta_paths(self):
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for sub in sorted(objects.iterdir()):
            if sub.is_dir():
                yield from sorted(sub.glob("*.meta.json"))
