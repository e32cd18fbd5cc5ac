"""Keyed operating-point cache backing the batch sweep runner.

Every settled measurement in this codebase is a pure function of
``(server config, workload profile, placement, guardband mode, f_target,
runtime-model parameters, die seed)``.  The figure builders and benchmarks
replay large grids over exactly those coordinates — and many grids overlap
(Fig. 3 is a slice of Fig. 5; Fig. 7 re-settles Fig. 5's static points;
both Fig. 5 passes share all their static halves).  This module caches the
settled :class:`~repro.sim.results.SteadyState` per coordinate so each
point is solved once per process — or once per machine, with the optional
JSON disk layer under ``.repro_cache/``.

Components
----------
:func:`fingerprint`
    Stable short hash of any JSON-able structure (configs, task
    descriptors).  Process- and platform-independent: canonical JSON with
    sorted keys through SHA-256.
:func:`encode_steady_state` / :func:`decode_steady_state`
    Loss-free JSON codec for the nested result dataclasses (floats
    round-trip exactly through ``repr``-based JSON serialization, so a
    disk hit is bit-identical to the original measurement).
:class:`OperatingPointCache`
    In-memory LRU with hit/miss counters plus the optional checksummed,
    quarantining disk layer.  :class:`~repro.fleet.settle_cache.FleetSettleCache`
    is the same store holding whole fleet settles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import OrderedDict
from typing import Any, Dict, Hashable, NamedTuple, Optional

from ..chip.power import PowerBreakdown
from ..guardband import GuardbandMode
from ..guardband.controller import OperatingPoint
from ..obs import observability
from ..pdn.delivery import DropBreakdown
from ..workloads.profile import WorkloadProfile
from .results import RunResult, SteadyState
from .server import ServerOperatingPoint
from .socket import SocketSolution

#: Default directory of the disk layer, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Default in-memory entry cap.  One entry is a few kilobytes; the full
#: figure suite settles ~2000 distinct points, so the default holds it all.
DEFAULT_MAX_ENTRIES = 4096

#: Suffix quarantined (failing-validation) disk entries are renamed to,
#: so a persistently bad file never costs a decode attempt twice.
QUARANTINE_SUFFIX = ".corrupt"


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def canonical_json(value: Any) -> str:
    """Canonical (sorted-key, compact) JSON of a plain structure."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def fingerprint(value: Any) -> str:
    """Stable 16-hex-digit digest of any JSON-able structure.

    Dataclasses (e.g. :class:`~repro.config.ServerConfig`) are flattened
    with their type name mixed in, so two configs that happen to share
    field values but differ in type still key apart.
    """
    return hashlib.sha256(
        canonical_json(_plain(value)).encode("utf-8")
    ).hexdigest()[:16]


def _plain(value: Any) -> Any:
    """Recursively reduce a value to JSON-able plain structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **body}
    if isinstance(value, GuardbandMode):
        return value.value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


# ----------------------------------------------------------------------
# JSON codec for the result dataclasses
# ----------------------------------------------------------------------
#: Dataclasses the codec round-trips.  Keyed by class name in the JSON.
_CODEC_TYPES = {
    cls.__name__: cls
    for cls in (
        RunResult,
        SteadyState,
        ServerOperatingPoint,
        OperatingPoint,
        SocketSolution,
        DropBreakdown,
        PowerBreakdown,
        WorkloadProfile,
    )
}

#: Fields that are tuples in the dataclasses but lists in JSON.
_TUPLE_SENTINEL = "__tuple__"


def _encode(value: Any) -> Any:
    if isinstance(value, GuardbandMode):
        return {"__mode__": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _CODEC_TYPES:
            raise TypeError(f"no JSON codec for dataclass {name}")
        return {
            "__dc__": name,
            "fields": {
                field.name: _encode(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {_TUPLE_SENTINEL: [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise TypeError(f"no JSON codec for {type(value).__name__}")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__mode__" in value:
            return GuardbandMode(value["__mode__"])
        if _TUPLE_SENTINEL in value:
            return tuple(_decode(v) for v in value[_TUPLE_SENTINEL])
        if "__dc__" in value:
            cls = _CODEC_TYPES[value["__dc__"]]
            fields = {k: _decode(v) for k, v in value["fields"].items()}
            return cls(**fields)
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def encode_steady_state(state: SteadyState) -> Dict[str, Any]:
    """JSON-able dict of one settled measurement."""
    return _encode(state)


def decode_steady_state(payload: Dict[str, Any]) -> SteadyState:
    """Rebuild a :class:`SteadyState` from :func:`encode_steady_state`."""
    state = _decode(payload)
    if not isinstance(state, SteadyState):
        raise TypeError(
            f"payload decodes to {type(state).__name__}, expected SteadyState"
        )
    return state


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_errors: int = 0
    #: Disk entries that failed validation (torn/garbage) and were
    #: quarantined — a subset of ``disk_errors``.
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def summary(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"{self.hits}/{self.lookups} hits ({self.hit_rate:.0%}), "
            f"{self.stores} stores, {self.disk_hits} from disk, "
            f"{self.evictions} evictions"
        )
        if self.disk_errors:
            line += f", {self.disk_errors} disk errors"
        if self.corrupt:
            line += f" ({self.corrupt} quarantined)"
        return line


class CacheMetrics(NamedTuple):
    """The counter names one cache class records under."""

    lookups: str
    stores: str
    evictions: str
    disk_errors: str
    corrupt: str

    @classmethod
    def family(cls, prefix: str) -> "CacheMetrics":
        """``<prefix>_<field>_total`` for every field."""
        return cls(*(f"{prefix}_{name}_total" for name in cls._fields))


def _payload_checksum(encoded: Any) -> str:
    """SHA-256 over the canonical JSON of an encoded cache value."""
    return hashlib.sha256(canonical_json(encoded).encode("utf-8")).hexdigest()


class OperatingPointCache:
    """LRU cache of settled values, with an optional checksummed disk layer.

    Parameters
    ----------
    max_entries:
        In-memory entry cap; least recently used entries are evicted.
    disk_dir:
        When given, every store is also persisted as one JSON file
        ``<_disk_name(key)>.json`` under this directory, and in-memory
        misses fall through to disk.  Writes are atomic (pid-suffixed
        temp + ``os.replace``), so workers can share one directory.
        Each file holds ``{"checksum", "result"}``: an unreadable file
        counts as a miss (``disk_errors``); a torn, garbage or
        checksum-failing one is also quarantined to ``*.corrupt``
        (``corrupt``) so it is recomputed, never decoded twice.

    Subclasses cache other values by overriding :attr:`value_type`,
    :attr:`metrics` and :meth:`_disk_name`.
    """

    #: What a disk entry must decode to.
    value_type: type = SteadyState

    #: Counter names, precomputed so the hit path builds no strings.
    metrics = CacheMetrics.family("opcache")

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[str] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._disk_dir = disk_dir
        self.stats = CacheStats()
        # Deterministic chaos hook: while armed, every Nth disk write is
        # torn mid-payload (see arm_corruption / CacheCorruptionFault).
        self._corrupt_every: Optional[int] = None
        self._writes_since_armed = 0

    @property
    def disk_dir(self) -> Optional[str]:
        """Directory of the disk layer (``None`` = memory only)."""
        return self._disk_dir

    def __len__(self) -> int:
        return len(self._entries)

    # get/put only delegate: a subclass's own get/put reuse _lookup and
    # _store instead of nesting a call to these.
    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key``, or ``None`` on a miss."""
        return self._lookup(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Store one value under ``key`` (memory, then disk)."""
        self._store(key, value)

    def clear(self) -> None:
        """Drop the in-memory layer (disk files are left in place)."""
        self._entries.clear()

    def arm_corruption(self, every_n: Optional[int]) -> Optional[int]:
        """Arm (``every_n >= 1``) or disarm (``None``) write tearing.

        While armed, every ``every_n``-th disk write is truncated
        mid-payload after the atomic replace — a deterministic stand-in
        for torn writes (power loss, full disk).  Returns the previous
        setting so callers can restore it; the write counter restarts on
        every call, keeping the tear sequence a pure function of the
        write order since arming.
        """
        if every_n is not None and every_n < 1:
            raise ValueError(f"every_n must be >= 1, got {every_n}")
        previous = self._corrupt_every
        self._corrupt_every = every_n
        self._writes_since_armed = 0
        return previous

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lookup(self, key: Hashable) -> Optional[Any]:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self._record_lookup("hit")
            return self._entries[key]
        value = self._disk_get(key)
        if value is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._record_lookup("disk_hit")
            self._remember(key, value)
            return value
        self.stats.misses += 1
        self._record_lookup("miss")
        return None

    def _store(self, key: Hashable, value: Any) -> None:
        self._remember(key, value)
        self.stats.stores += 1
        observability().count(
            self.metrics.stores, help_text="Values stored into the cache."
        )
        self._disk_put(key, value)

    def _record_lookup(self, result: str) -> None:
        observability().count(
            self.metrics.lookups,
            help_text="Cache lookups by outcome.",
            result=result,
        )

    def _record_disk_error(self, op: str) -> None:
        observability().count(
            self.metrics.disk_errors,
            help_text="Disk-layer faults absorbed as misses.",
            op=op,
        )

    def _remember(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            observability().count(
                self.metrics.evictions,
                help_text="LRU evictions from the in-memory layer.",
            )

    def _disk_name(self, key: Hashable) -> str:
        """File stem of ``key``'s disk entry (the key itself here)."""
        return key

    def _disk_path(self, key: Hashable) -> str:
        return os.path.join(self._disk_dir, f"{self._disk_name(key)}.json")

    def _disk_get(self, key: Hashable) -> Optional[Any]:
        if self._disk_dir is None:
            return None
        path = self._disk_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            encoded = payload["result"]
            if _payload_checksum(encoded) != payload["checksum"]:
                raise ValueError("checksum mismatch")
            value = _decode(encoded)
            if not isinstance(value, self.value_type):
                raise TypeError(
                    f"payload decodes to {type(value).__name__}, "
                    f"expected {self.value_type.__name__}"
                )
            return value
        except FileNotFoundError:
            return None
        except OSError:
            self.stats.disk_errors += 1
            self._record_disk_error("read")
            return None
        except (ValueError, KeyError, TypeError):
            # Torn, truncated, garbage or checksum-failing: the file is bad.
            self._quarantine(path)
            return None

    def _quarantine(self, path: str) -> None:
        """Count one corrupt disk entry and move it out of the namespace.

        Renaming (not deleting) keeps the evidence for post-mortems while
        guaranteeing the next lookup recomputes instead of re-decoding a
        known-bad file.
        """
        self.stats.disk_errors += 1
        self.stats.corrupt += 1
        self._record_disk_error("read")
        observability().count(
            self.metrics.corrupt,
            help_text=(
                "Disk entries that failed validation (torn, truncated "
                "or garbage) and were quarantined."
            ),
        )
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            pass

    def _disk_put(self, key: Hashable, value: Any) -> None:
        if self._disk_dir is None:
            return
        path = self._disk_path(key)
        # The temp name carries the pid so workers sharing one cache
        # directory never clobber each other's in-flight writes.
        tmp = path + f".{os.getpid()}.tmp"
        try:
            os.makedirs(self._disk_dir, exist_ok=True)
            encoded = _encode(value)
            payload = {"checksum": _payload_checksum(encoded), "result": encoded}
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
            finally:
                # A dump that died mid-write (encoder TypeError, ENOSPC,
                # kill between write and replace) must not strand the temp
                # file forever; the rename already removed it on success.
                if os.path.exists(tmp):
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
        except (OSError, TypeError, ValueError):
            self.stats.disk_errors += 1
            self._record_disk_error("write")
            return
        if self._corrupt_every:
            self._writes_since_armed += 1
            if self._writes_since_armed % self._corrupt_every == 0:
                self._tear(path)

    def _tear(self, path: str) -> None:
        """Truncate a just-written entry mid-payload (the armed fault)."""
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
        except OSError:
            return
        observability().count(
            "faults_injected_total",
            help_text="Fault injections applied, by fault kind.",
            kind="cache_fault",
        )
