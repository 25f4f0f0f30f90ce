"""Content-addressed on-disk result cache for experiment runs.

A cache entry is keyed by ``(experiment id, registry code hash, config
hash)`` — the config hash covers the fully-resolved parameter dict, the
code hash covers every ``repro.harness`` source file — so a re-run of an
unchanged experiment is a near-free disk read, while any code or parameter
change misses cleanly.

Entries live at ``<root>/<key[:2]>/<key>.json``.  A corrupted or
truncated entry (interrupted write, disk fault) is treated as a miss and
deleted, so the next run repairs the cache automatically.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from .artifacts import canonical_json

__all__ = [
    "CacheEntry",
    "CacheEntryInfo",
    "GcResult",
    "ResultCache",
    "StoreStats",
    "cache_key",
    "config_hash",
]


def config_hash(params: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a resolved param dict."""
    text = json.dumps(params, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def cache_key(
    experiment_id: str, code_hash: str, cfg_hash: str, engine: str = ""
) -> str:
    """Entry address; ``engine`` is the ``REPRO_ENGINE`` mode the result
    was computed under (contended fast and kernel runs differ)."""
    digest = hashlib.sha256()
    for part in (experiment_id, code_hash, cfg_hash, engine):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    experiment: str
    params: dict
    code_hash: str
    config_hash: str
    result: object

    def payload(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "code_hash": self.code_hash,
            "config_hash": self.config_hash,
            "result": self.result,
        }


class ResultCache:
    """Directory of content-addressed experiment results."""

    # A .tmp this old cannot be a write in flight; gc may reclaim it.
    TMP_ORPHAN_AGE_S = 60.0

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str, experiment_id: str | None = None) -> CacheEntry | None:
        """Load an entry, or ``None`` on miss *or* corruption (self-healing)."""
        path = self.path_for(key)
        try:
            raw = json.loads(path.read_text())
            entry = CacheEntry(
                experiment=raw["experiment"],
                params=raw["params"],
                code_hash=raw["code_hash"],
                config_hash=raw["config_hash"],
                result=raw["result"],
            )
        except FileNotFoundError:
            obs.inc("cache.result.miss")
            return None
        except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
            # Corrupted entry: drop it so the re-run rewrites a good one.
            path.unlink(missing_ok=True)
            obs.inc("cache.result.corrupt")
            obs.inc("cache.result.miss")
            return None
        if experiment_id is not None and entry.experiment != experiment_id:
            path.unlink(missing_ok=True)
            obs.inc("cache.result.miss")
            return None
        obs.inc("cache.result.hit")
        return entry

    def put(self, key: str, entry: CacheEntry) -> Path:
        obs.inc("cache.result.put")
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(canonical_json(entry.payload()))
        tmp.replace(path)  # atomic: a crashed write never corrupts an entry
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def _scan(self) -> list[tuple[Path, int, float]]:
        """(path, size, mtime) of every entry, newest first — stat only.

        Entries unlinked between glob and stat (a concurrent gc or sweep)
        are skipped; ties on mtime break by path for a deterministic order.
        """
        found = []
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            found.append((path, stat.st_size, stat.st_mtime))
        return sorted(found, key=lambda e: (-e[2], str(e[0])))

    def list_entries(self) -> list["CacheEntryInfo"]:
        """Metadata of every entry, newest first (for ``repro cache ls``).

        Corrupted entries are listed too, as experiment ``"<corrupt>"``
        (``get()`` self-heals them on access; ``gc`` removes them when
        they age out of the keep window like any other entry).
        """
        infos = []
        for path, size, mtime in self._scan():
            experiment, params = "<corrupt>", {}
            try:
                raw = json.loads(path.read_text())
                experiment = str(raw["experiment"])
                raw_params = raw.get("params")
                params = raw_params if isinstance(raw_params, dict) else {}
            except FileNotFoundError:
                continue  # unlinked since the scan (concurrent gc)
            except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
                pass
            infos.append(CacheEntryInfo(
                path=path,
                key=path.stem,
                experiment=experiment,
                params=params,
                size_bytes=size,
                mtime=mtime,
            ))
        return infos

    def gc(self, keep_latest: int) -> "GcResult":
        """Delete all but the ``keep_latest`` most recent entries.

        Long sweep campaigns write one entry per grid point, so the cache
        grows unboundedly without this.  Victims are picked from the
        stat-only scan (no payload parsing).  Empty shard directories left
        behind are pruned.  Returns kept/removed counts and freed bytes.
        """
        if keep_latest < 0:
            raise ValueError("keep_latest must be >= 0")
        entries = self._scan()
        doomed = entries[keep_latest:]
        freed = 0
        removed = len(doomed)
        for path, size, _ in doomed:
            freed += size
            path.unlink(missing_ok=True)
        # Orphaned .tmp files from a crashed put() never become entries;
        # collect them too, but only once stale — a fresh one may belong
        # to a write in flight.
        cutoff = time.time() - self.TMP_ORPHAN_AGE_S
        for tmp in self.root.glob("*/*.tmp"):
            try:
                stat = tmp.stat()
            except FileNotFoundError:
                continue
            if stat.st_mtime < cutoff:
                freed += stat.st_size
                removed += 1
                tmp.unlink(missing_ok=True)
        for shard in self.root.glob("*"):
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass  # non-empty, or a concurrent writer repopulated it
        obs.inc("cache.result.evict", removed)
        return GcResult(
            kept=len(entries) - len(doomed),
            removed=removed,
            freed_bytes=freed,
        )

    def stats(self) -> "StoreStats":
        """Entry count and total bytes (stat-only scan, no payload reads).

        Also publishes the numbers as gauges (``cache.result.entries`` /
        ``cache.result.bytes``) when metrics are on, so a registry dump
        records cache shape alongside the hit/miss counters.
        """
        entries = self._scan()
        stats = StoreStats(
            store="result",
            entries=len(entries),
            total_bytes=sum(size for _, size, _ in entries),
        )
        obs.set_gauge("cache.result.entries", stats.entries)
        obs.set_gauge("cache.result.bytes", stats.total_bytes)
        return stats


@dataclass(frozen=True)
class CacheEntryInfo:
    """Metadata of one on-disk cache entry (no result payload)."""

    path: Path
    key: str
    experiment: str
    params: dict
    size_bytes: int
    mtime: float


@dataclass(frozen=True)
class GcResult:
    """Outcome of one cache garbage collection."""

    kept: int
    removed: int
    freed_bytes: int


@dataclass(frozen=True)
class StoreStats:
    """Shape of one cache store (``repro cache ls --stats``)."""

    store: str
    entries: int
    total_bytes: int
