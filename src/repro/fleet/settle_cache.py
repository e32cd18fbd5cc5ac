"""The fleet engine's settle cache, and bounded memos for the others.

The fleet engine settles every distinct ``(config fingerprint, seed,
placement, mode, f_target)`` coordinate through the sweep runner.  Those
settles are pure functions of their key, so :class:`FleetSettleCache`
memoizes them process-wide.  It is an
:class:`~repro.sim.cache.OperatingPointCache` — the same memory LRU and
the same checksummed, quarantining, atomic-JSON disk layer — that stores
whole :class:`~repro.sim.results.RunResult` settles and differs only in:

* its keys: the engine's hashable settle tuples, kept as-is in memory
  (no fingerprinting on the hot hit path); a disk entry is named
  ``settle-<fingerprint>.json``, computed only when disk is consulted;
* its counters: the ``fleet_settle_cache_*`` family;
* an ``enabled`` gate: ``False`` turns every lookup into a miss and every
  store into a no-op — the knob the digest-invariance tests flip.

Disk hits round-trip floats exactly, so the event-log SHA-256 of a fleet
day is invariant with the cache hot, cold, disabled or shared across
shard workers — enforced by test.

The process-global instance is reached through :func:`fleet_settle_cache`
and reconfigured with :func:`configure_fleet_settle_cache`; shard workers
inherit the parent's disk directory through the spec-batch payload.  The
``REPRO_FLEET_SETTLE_DIR`` environment variable seeds the default
directory, so long-lived services can point every process at one warm
directory without code changes.

:class:`BoundedMemo` is the same LRU without the disk layer or the
codec — a drop-in replacement for the other process-wide fleet memos
(job rates, per-socket frequency minima, placement plans) whose values
are not JSON-serializable but whose growth must still be bounded.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Hashable, Optional

from ..sim.cache import CacheMetrics, OperatingPointCache, fingerprint
from ..sim.results import RunResult

#: Default in-memory entry cap.  A settled :class:`RunResult` is a few
#: kilobytes; a 10k-server heterogeneous day reaches a few thousand
#: distinct (placement, mode, f_target) coordinates, so the default
#: holds a region-scale working set while bounding a pathological one.
DEFAULT_MAX_ENTRIES = 8192

#: Environment knob for the default disk directory (service deployments;
#: tests use the configure call).
ENV_DIR = "REPRO_FLEET_SETTLE_DIR"


class BoundedMemo:
    """A dict-shaped LRU: the unbounded-module-dict antidote.

    Supports exactly the idioms the fleet memos use — ``get``, ``in``,
    item get/set, ``clear``, ``len`` — and silently evicts the least
    recently used entry past ``max_entries``.  Correctness never depends
    on an entry being present (memos only skip recomputation of pure
    functions), so eviction is always safe.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        return default

    def __getitem__(self, key: Hashable) -> Any:
        self._entries.move_to_end(key)
        return self._entries[key]

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class FleetSettleCache(OperatingPointCache):
    """The operating-point cache, storing whole fleet settles.

    See the module docstring for what differs from the base class.
    """

    value_type = RunResult
    metrics = CacheMetrics.family("fleet_settle_cache")

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[str] = None,
        enabled: bool = True,
    ) -> None:
        super().__init__(max_entries=max_entries, disk_dir=disk_dir)
        self.enabled = enabled

    def get(self, key: Hashable) -> Optional[RunResult]:
        """The cached settle for ``key``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        return self._lookup(key)

    def put(self, key: Hashable, result: RunResult) -> None:
        """Store one settle under ``key`` (memory, then shared disk)."""
        if self.enabled:
            self._store(key, result)

    def _disk_name(self, key: Hashable) -> str:
        return f"settle-{fingerprint(key)}"


# ----------------------------------------------------------------------
# The process-global instance
# ----------------------------------------------------------------------
_cache: Optional[FleetSettleCache] = None


def fleet_settle_cache() -> FleetSettleCache:
    """The process-global settle cache (created on first use).

    The disk directory defaults to ``REPRO_FLEET_SETTLE_DIR`` when set,
    else the cache is memory-only.
    """
    global _cache
    if _cache is None:
        _cache = FleetSettleCache(disk_dir=os.environ.get(ENV_DIR) or None)
    return _cache


def configure_fleet_settle_cache(
    max_entries: Optional[int] = None,
    disk_dir: Optional[str] = None,
    enabled: bool = True,
) -> FleetSettleCache:
    """Replace the process-global settle cache (fresh stats, empty memory).

    Shard workers call this (through the spec-batch payload) to point
    their cache at the parent's shared directory; tests use it to pin a
    tiny ``max_entries`` or to disable caching outright.
    """
    global _cache
    _cache = FleetSettleCache(
        max_entries=(
            DEFAULT_MAX_ENTRIES if max_entries is None else max_entries
        ),
        disk_dir=disk_dir,
        enabled=enabled,
    )
    return _cache


def ensure_settle_cache_dir(disk_dir: Optional[str]) -> FleetSettleCache:
    """Make the global cache share ``disk_dir`` (idempotent).

    The in-process shard path calls this with the directory the parent
    already uses — a no-op that keeps the warm memory layer; a pool
    worker starts cold and gets rebuilt against the shared directory.
    """
    cache = fleet_settle_cache()
    if cache.disk_dir != disk_dir:
        cache = configure_fleet_settle_cache(
            max_entries=cache.max_entries,
            disk_dir=disk_dir,
            enabled=cache.enabled,
        )
    return cache
