"""The persistent tier of the simulator's two-tier result cache.

A :class:`DiskResultCache` stores :class:`~repro.api.result.SimResult`
payloads under one directory, keyed — exactly like the in-memory tier —
by ``(design.content_hash, options)``, so every CLI invocation,
benchmark run, and exploration sharing a ``cache_dir`` starts warm.

On-disk format
--------------
One JSON file per key, named by the SHA-256 of the key and of the
:func:`model_fingerprint` (so entries written by other model code are
never found), carrying the versioned :data:`DISK_CACHE_SCHEMA` tag.
Loads are corruption-tolerant: a truncated, unparseable, or
schema-mismatched entry is a miss, never an exception (corrupt files are
swept away; files with a foreign schema are left for whoever owns
them).  Writes go through a temp file and
``os.replace``, so concurrent sessions sharing a directory always read
complete entries and last-writer-wins races are benign — both writers
hold identical content for identical keys.

Eviction is LRU by file mtime (bumped on every hit): when a write
pushes the directory over ``max_bytes``, the oldest entries are removed
down to a low-water mark (90% of the bound), so a cache running at
capacity isn't re-scanned on every write.  The directory size is
tracked as a cheap running estimate between full scans — one scan per
eviction pass, O(1) bookkeeping per put — which keeps the bound
best-effort under concurrent writers (each session enforces it against
its own view, refreshed on every pass).  Hit/miss/eviction counters are
per-session and surface through :meth:`repro.api.Simulator.cache_info`.
"""

from __future__ import annotations

import errno
import functools
import hashlib
import json
import os
import pathlib
import re
import threading
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.api.result import SimOptions, SimResult
from repro.exceptions import CamJError, ConfigurationError
from repro.resilience.faults import get_injector

#: Version tag of the on-disk entry format.  Bump on any incompatible
#: change; entries with any other tag are treated as misses.
DISK_CACHE_SCHEMA = "repro.diskcache/1"

#: Default size bound of one cache directory.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Eviction drains to this fraction of ``max_bytes``, so back-to-back
#: writes at capacity don't trigger a directory scan each.
LOW_WATER_FRACTION = 0.9

#: Environment variable naming a default cache directory for every
#: :class:`~repro.api.Simulator` that does not set ``cache_dir``.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: What the model fingerprint covers, relative to the ``repro`` package:
#: the packages and modules whose code computes a result's numbers.
MODEL_SOURCES = ("hw", "sw", "sim", "energy", "tech", "area", "memlib",
                 "noise", "columns.py", "units.py")

#: What a cache entry's filename looks like (the SHA-256 key digest).
#: ``clear`` and eviction touch nothing else, so pointing a cache at a
#: directory holding other JSON files never deletes them.
_ENTRY_NAME = re.compile(r"^[0-9a-f]{64}\.json$")

#: Errnos that mean the directory itself is unusable (full, read-only,
#: forbidden, dying media): one of these downgrades the session to
#: memory-only immediately — retrying every key would just repeat it.
_HARD_ERRNOS = frozenset(
    code for code in (
        errno.ENOSPC, getattr(errno, "EDQUOT", None), errno.EROFS,
        errno.EACCES, errno.EPERM, errno.EIO)
    if code is not None)

#: How many *soft* disk errors (corrupt entries, transient I/O noise)
#: one session tolerates before concluding the tier is doing more harm
#: than good and downgrading anyway.
_SOFT_ERROR_LIMIT = 8


@dataclass(frozen=True)
class DiskCacheInfo:
    """State and per-session counters of one disk cache.

    ``errors`` counts I/O and corruption incidents this session
    absorbed; ``disabled`` reports whether they (or one hard error —
    disk full, read-only, permission denied) downgraded the session to
    memory-only.  A disabled tier is never an exception: simulations
    keep succeeding without persistence.
    """

    directory: str
    entries: int
    total_bytes: int
    max_bytes: int
    hits: int
    misses: int
    evictions: int
    errors: int = 0
    disabled: bool = False


class DiskResultCache:
    """Size-bounded, LRU-evicted result store under one directory.

    Parameters
    ----------
    directory:
        Where entries live; created (with parents) if missing.
    max_bytes:
        Total-size bound enforced after each write; ``None`` means
        :data:`DEFAULT_MAX_BYTES`.

    The cache is safe to share between threads of one process and
    between processes sharing the directory; all coordination happens
    through atomic filesystem operations.
    """

    def __init__(self, directory, max_bytes: Optional[int] = None):
        max_bytes = DEFAULT_MAX_BYTES if max_bytes is None else max_bytes
        if max_bytes < 1:
            raise ConfigurationError(
                f"cache max_bytes must be >= 1, got {max_bytes}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_errors = 0
        #: True once this session gave up on the tier (hard I/O error
        #: or too much corruption).  Probes and writes become no-ops.
        self._disabled = False
        #: Running directory-size estimate; None until the first write
        #: scans, refreshed exactly by every eviction pass.
        self._approx_bytes: Optional[int] = None

    # --- key layout -------------------------------------------------------

    def entry_path(self, design_hash: str, options: SimOptions
                   ) -> pathlib.Path:
        """Where the entry for one ``(design_hash, options)`` key lives
        under the current :func:`model_fingerprint`."""
        canonical = json.dumps(options.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(
            f"{model_fingerprint()}\n{design_hash}\n{canonical}"
            .encode("utf-8")).hexdigest()
        return self.directory / f"{digest}.json"

    # --- lookups ----------------------------------------------------------

    def get(self, design_hash: str, options: SimOptions
            ) -> Optional[SimResult]:
        """The persisted result for one key, or ``None`` on a miss.

        Every failure mode — missing file, truncated write from a
        crashed process, malformed JSON, unknown schema version, a
        payload the current code cannot rebuild — counts as a miss.
        """
        if self._disabled:
            return self._miss()
        path = self.entry_path(design_hash, options)
        injector = get_injector()
        try:
            if injector.active:
                injector.before_disk("get", path.name)
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return self._miss()
        except OSError as error:
            self._note_disk_error("read", error)
            return self._miss()
        except (ValueError, UnicodeDecodeError) as error:
            self._discard(path)  # corrupt entry: sweep, don't crash
            self._note_disk_error("decode", error)
            return self._miss()
        if not isinstance(payload, dict) \
                or payload.get("schema") != DISK_CACHE_SCHEMA:
            # A different (possibly newer) format owns this file; reject
            # the entry but leave the file alone.
            return self._miss()
        try:
            result = SimResult.from_dict(payload["result"])
        except (KeyError, TypeError, CamJError) as error:
            self._discard(path)
            self._note_disk_error("rebuild", error)
            return self._miss()
        try:
            os.utime(path)  # bump recency for LRU eviction
        except OSError:
            pass
        with self._lock:
            self._hits += 1
        return result

    def put(self, design_hash: str, options: SimOptions,
            result: SimResult) -> bool:
        """Persist one result; returns whether the write landed.

        Cache-write failures (read-only directory, disk full, an
        unserializable payload) are soft: the simulation already
        succeeded, so the caller never sees an exception.  A hard
        failure (or enough soft ones) disables the tier for the rest of
        the session — see :meth:`_note_disk_error`.
        """
        if self._disabled:
            return False
        path = self.entry_path(design_hash, options)
        document = {
            "schema": DISK_CACHE_SCHEMA,
            "design_hash": design_hash,
            "result": result.to_dict(),
        }
        try:
            encoded = json.dumps(document, sort_keys=True)
        except (TypeError, ValueError):
            return False
        temp = path.with_name(f"{path.name}.tmp.{os.getpid()}."
                              f"{threading.get_ident()}")
        injector = get_injector()
        try:
            if injector.active:
                injector.before_disk("put", path.name)
            temp.write_text(encoded + "\n", encoding="utf-8")
            os.replace(temp, path)
        except OSError as error:
            try:
                temp.unlink()
            except OSError:
                pass
            self._note_disk_error("write", error)
            return False
        with self._lock:
            if self._approx_bytes is None:
                self._approx_bytes = sum(
                    size for _, _, size in self._entries())
            else:
                self._approx_bytes += len(encoded) + 1
            over_bound = self._approx_bytes > self.max_bytes
        if over_bound:
            self._evict_over_bound()
        return True

    # --- maintenance ------------------------------------------------------

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for path, _, _ in self._entries():
            if self._discard(path):
                removed += 1
        with self._lock:
            self._approx_bytes = 0
        return removed

    def info(self) -> DiskCacheInfo:
        """Current directory state plus this session's counters."""
        entries = self._entries()
        with self._lock:
            return DiskCacheInfo(
                directory=str(self.directory),
                entries=len(entries),
                total_bytes=sum(size for _, _, size in entries),
                max_bytes=self.max_bytes,
                hits=self._hits, misses=self._misses,
                evictions=self._evictions,
                errors=self._disk_errors,
                disabled=self._disabled)

    @property
    def disabled(self) -> bool:
        """Whether this session downgraded the tier to memory-only."""
        return self._disabled

    # --- internals --------------------------------------------------------

    def _miss(self) -> None:
        with self._lock:
            self._misses += 1
        return None

    def _note_disk_error(self, operation: str,
                         error: BaseException) -> None:
        """Record one disk incident; downgrade the tier when warranted.

        Hard errors (:data:`_HARD_ERRNOS` — the directory is full,
        read-only, forbidden, or the media is failing) disable the tier
        at once; soft ones (corruption, transient I/O noise) disable it
        after :data:`_SOFT_ERROR_LIMIT` strikes.  Exactly one warning is
        emitted at the downgrade; the session continues memory-only.
        """
        hard = isinstance(error, OSError) and error.errno in _HARD_ERRNOS
        with self._lock:
            self._disk_errors += 1
            if self._disabled:
                return
            if not hard and self._disk_errors < _SOFT_ERROR_LIMIT:
                return
            self._disabled = True
        warnings.warn(
            f"disk result cache at {self.directory} disabled after "
            f"{operation} failure ({error}); continuing memory-only",
            RuntimeWarning, stacklevel=4)

    def _discard(self, path: pathlib.Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:  # already gone (concurrent sweep) or unwritable
            return False

    def _entries(self) -> List[Tuple[pathlib.Path, float, int]]:
        """All current entries as ``(path, mtime, size)`` triples."""
        entries = []
        try:
            listing = list(os.scandir(self.directory))
        except OSError:
            return entries
        for item in listing:
            if not _ENTRY_NAME.match(item.name):
                continue  # temp files and foreign content are not entries
            try:
                stat = item.stat()
            except OSError:  # unlinked by a concurrent session mid-scan
                continue
            entries.append((pathlib.Path(item.path),
                            stat.st_mtime, stat.st_size))
        return entries

    def _evict_over_bound(self) -> None:
        """Drop least-recently-used entries until under the low-water mark.

        One full directory scan per pass; the exact total it computes
        replaces the running estimate, so concurrent sessions' writes
        are folded in here.
        """
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        evicted = 0
        if total > self.max_bytes:
            floor = self.max_bytes * LOW_WATER_FRACTION
            for path, _, size in sorted(entries,
                                        key=lambda entry: entry[1]):
                if self._discard(path):
                    total -= size
                    evicted += 1
                if total <= floor:
                    break
        with self._lock:
            self._approx_bytes = total
            self._evictions += evicted


@functools.lru_cache(maxsize=None)
def model_fingerprint() -> str:
    """SHA-256 of the model's source: every ``.py`` file of
    :data:`MODEL_SOURCES`, by relative path and content.

    A formula change gives new cache keys, so a persistent cache never
    serves energies the current code would not compute.  Computed on
    first use of a disk cache, once per process.  A source missing from
    the installation (a bytecode-only install) hashes as absent.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for name in MODEL_SOURCES:
        source = root / name
        files = sorted(source.rglob("*.py")) if source.is_dir() \
            else [source] if source.is_file() else []
        for path in files:
            content = path.read_bytes()
            digest.update(f"{path.relative_to(root).as_posix()}\n"
                          f"{len(content)}\n".encode("utf-8"))
            digest.update(content)
    return digest.hexdigest()


def default_cache_dir() -> Optional[str]:
    """The :data:`CACHE_DIR_ENV` directory, or ``None`` when unset."""
    directory = os.environ.get(CACHE_DIR_ENV, "").strip()
    return directory or None
