"""Persistent, content-addressed result cache for simulation campaigns.

Every campaign task (one ``simulate`` call or one SPDP-B PD sweep) is
identified by a *stable key*: the SHA-256 of a canonical JSON rendering
of everything that determines its outcome — benchmark name, trace seed
and scale (or a scenario spec's digest), the design key and its
parameters, every :class:`GPUConfig` field, and a code-version salt
derived from ``repro.__version__``.  The key is therefore stable
across process restarts and machines, and any change to an input
produces a different key (i.e. an automatic invalidation).

Entries are stored one-file-per-result under a two-character shard
directory, each file carrying a magic header and a SHA-256 checksum of
its pickled payload::

    <root>/ab/abcdef....pkl     = MAGIC + sha256(body) + pickle(payload)

Writes are atomic (temp file + ``os.replace``), so a crashed or killed
run can never leave a half-written entry that poisons later runs;
corrupted or truncated files fail the checksum and are treated as
misses, never as errors.  Damaged entries are not silently discarded:
they are *quarantined* — moved to ``<root>/quarantine/<key>.pkl``
(``<key>.<n>.pkl`` when the key was quarantined before, so repeated
corruption never overwrites earlier evidence) and counted — so disk rot
stays visible in campaign manifests while the engine transparently
recomputes the result.  Quarantine destinations are claimed with
``O_EXCL`` before the move, so concurrent processes quarantining the
same key land in distinct files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Mapping, Optional, Union

__all__ = [
    "MISS",
    "CACHE_SCHEMA",
    "QUARANTINE_DIR",
    "ResultCache",
    "stable_hash",
    "config_fingerprint",
    "default_salt",
]

#: Bump to invalidate every existing cache entry after a format change.
CACHE_SCHEMA = 1

#: Magic header identifying a cache entry file (and its layout version).
_MAGIC = b"RPROCACHE1\n"

#: Pinned pickle protocol so entry bytes are reproducible run-to-run.
_PICKLE_PROTOCOL = 4

#: Sentinel returned by :meth:`ResultCache.get` when a key is absent.
MISS = object()

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"


def default_salt() -> str:
    """Code-version salt folded into every cache key.

    Derived from the package version plus the cache schema, so releasing
    a new ``repro`` version (or bumping :data:`CACHE_SCHEMA`) orphans old
    entries instead of serving results computed by different code.
    """
    from repro import __version__

    return f"repro-{__version__}-schema{CACHE_SCHEMA}"


def _jsonify(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def stable_hash(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``payload``.

    Keys are sorted and separators pinned, so the digest is independent
    of dict insertion order, ``PYTHONHASHSEED`` and the process that
    computes it.  Dataclasses (e.g. :class:`GPUConfig`) are flattened to
    their field dicts; tuples and lists hash identically.
    """
    canon = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonify
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def config_fingerprint(config: Any) -> Mapping[str, Any]:
    """Nested field dict of a (frozen) config dataclass, for hashing."""
    return dataclasses.asdict(config)


class ResultCache:
    """On-disk result store with hit/miss/corruption counters.

    Args:
        root: Cache directory; created on first write.  ``None`` builds
            a disabled cache (every get misses, every put is dropped) —
            the ``--no-cache`` execution path.
        readonly: Serve hits but never write (useful for forensics).
    """

    def __init__(
        self, root: Optional[Union[str, os.PathLike]], readonly: bool = False
    ) -> None:
        self.root: Optional[Path] = Path(root) if root is not None else None
        self.readonly = readonly
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self.quarantined = 0
        #: Damaged entries that could not be moved to quarantine/ and
        #: were unlinked instead (counted separately so ``quarantined``
        #: only ever reports preserved evidence, never under-reports it).
        self.quarantine_dropped = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path_for(self, key: str) -> Path:
        """Entry file for ``key`` (two-character shard layout)."""
        if self.root is None:
            raise ValueError("cache is disabled (root=None)")
        return self.root / key[:2] / f"{key}.pkl"

    @property
    def quarantine_root(self) -> Path:
        """Directory corrupt entries are moved to (may not exist yet)."""
        if self.root is None:
            raise ValueError("cache is disabled (root=None)")
        return self.root / QUARANTINE_DIR

    def quarantine_path_for(self, key: str) -> Path:
        """First quarantine destination for ``key`` (later ones are
        suffixed ``<key>.<n>.pkl``; see :meth:`quarantine_paths_for`)."""
        return self.quarantine_root / f"{key}.pkl"

    def quarantine_paths_for(self, key: str) -> list:
        """Every quarantined blob for ``key``, oldest-first by suffix."""
        root = self.quarantine_root
        if not root.is_dir():
            return []
        return sorted(root.glob(f"{key}*.pkl"))

    def __contains__(self, key: str) -> bool:
        return self.enabled and self.path_for(key).exists()

    def __len__(self) -> int:
        if not self.enabled or not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.pkl"))

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        """Payload for ``key``, or :data:`MISS`.

        A file that is missing, truncated, checksum-mismatched or
        unpicklable counts as a miss — a damaged cache degrades to
        recomputation, never to a crash or a wrong result.  Damaged
        files are moved to ``quarantine/`` (best-effort) and counted,
        so corruption is observable and the evidence survives for
        forensics instead of vanishing as a silent miss.
        """
        if not self.enabled:
            self.misses += 1
            return MISS
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return MISS
        payload = self._decode(blob)
        if payload is MISS:
            self.corrupt += 1
            self.misses += 1
            self._quarantine(key, path)
            return MISS
        self.hits += 1
        return payload

    def _quarantine(self, key: str, path: Path) -> None:
        """Move a damaged entry aside so the slot is clean for re-put.

        Each quarantine lands in its own file: the destination is claimed
        with ``O_EXCL`` (first free of ``<key>.pkl``, ``<key>.1.pkl``, …)
        before the move, so a second corruption of the same key — or a
        concurrent process quarantining it — never overwrites earlier
        forensic evidence.  When the move itself is impossible the entry
        is unlinked instead and counted under ``quarantine_dropped``, so
        ``quarantined`` only ever reports blobs that really survived.
        """
        claimed: Optional[Path] = None
        try:
            root = self.quarantine_root
            root.mkdir(parents=True, exist_ok=True)
            dest = self.quarantine_path_for(key)
            n = 0
            while True:
                try:
                    os.close(os.open(dest, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                    claimed = dest
                    break
                except FileExistsError:
                    n += 1
                    dest = root / f"{key}.{n}.pkl"
            os.replace(path, dest)
            self.quarantined += 1
        except OSError:
            # The move failed (another process may have raced the entry
            # away, or quarantine/ is unwritable).  Release the claimed
            # placeholder so it never reads as evidence, then fall back
            # to unlinking; the slot must not keep serving rot.
            if claimed is not None:
                try:
                    os.unlink(claimed)
                except OSError:
                    pass
            try:
                path.unlink()
                self.quarantine_dropped += 1
            except OSError:
                pass

    def get_bytes(self, key: str) -> Optional[bytes]:
        """Raw entry bytes (checksum included) — for byte-identity tests."""
        if not self.enabled:
            return None
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, payload: Any) -> None:
        """Store ``payload`` under ``key`` atomically (temp + replace)."""
        if not self.enabled or self.readonly:
            return
        body = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(body).digest() + body
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1

    def invalidate(self, key: Optional[str] = None) -> int:
        """Drop one entry (``key``) or every entry; returns live entries
        removed.

        Quarantined blobs for the invalidated key(s) are swept too —
        ``--invalidate`` must really clear a key's on-disk footprint, not
        leave stale forensic copies behind — but they never count toward
        the return value (they were never live entries).
        """
        if not self.enabled or not self.root.is_dir():
            return 0
        if key is not None:
            victims = [self.path_for(key)]
            stale = self.quarantine_paths_for(key)
        else:
            victims = list(self.root.glob("??/*.pkl"))
            stale = (
                list(self.quarantine_root.glob("*.pkl"))
                if self.quarantine_root.is_dir()
                else []
            )
        removed = 0
        for path in victims:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in stale:
            try:
                path.unlink()
            except OSError:
                pass
        return removed

    @staticmethod
    def _decode(blob: bytes) -> Any:
        if not blob.startswith(_MAGIC):
            return MISS
        digest = blob[len(_MAGIC) : len(_MAGIC) + 32]
        body = blob[len(_MAGIC) + 32 :]
        if len(digest) != 32 or hashlib.sha256(body).digest() != digest:
            return MISS
        try:
            return pickle.loads(body)
        except Exception:
            return MISS

    def counter_snapshot(self) -> Mapping[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "quarantine_dropped": self.quarantine_dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = str(self.root) if self.enabled else "disabled"
        return f"<ResultCache {state}: {self.hits} hits / {self.misses} misses>"
