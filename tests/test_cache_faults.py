"""Operating-point cache fault paths: disk corruption and LRU accounting.

The disk layer's contract is *absorb, never raise*: a truncated, corrupt,
or unreadable cache file must count as a miss (and a ``disk_errors``
tick), so a damaged cache directory can never take down a sweep.
"""

import json
import os

import pytest

from repro.api import measure
from repro.guardband import GuardbandMode
from repro.obs import Observability, install
from repro.sim.batch import SweepRunner, SweepTask
from repro.sim.cache import OperatingPointCache, encode_steady_state
from repro.workloads import get_profile


@pytest.fixture(scope="module")
def steady_state():
    """One real settled measurement to feed through the cache."""
    return measure("raytrace", n_threads=1).adaptive


@pytest.fixture
def disk_cache(tmp_path):
    disk_dir = tmp_path / "cache"
    disk_dir.mkdir()
    return OperatingPointCache(disk_dir=str(disk_dir))


def _disk_file(cache, key):
    return cache.disk_dir + f"/{key}.json"


class TestDiskFaults:
    def test_round_trip_baseline(self, disk_cache, steady_state):
        disk_cache.put("k", steady_state)
        fresh = OperatingPointCache(disk_dir=disk_cache.disk_dir)
        hit = fresh.get("k")
        assert hit == steady_state
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.disk_errors == 0

    def test_truncated_file_is_a_miss(self, disk_cache, steady_state):
        disk_cache.put("k", steady_state)
        path = _disk_file(disk_cache, "k")
        content = open(path).read()
        with open(path, "w") as fh:
            fh.write(content[: len(content) // 2])
        fresh = OperatingPointCache(disk_dir=disk_cache.disk_dir)
        assert fresh.get("k") is None
        assert fresh.stats.disk_errors == 1
        assert fresh.stats.misses == 1

    def test_non_json_garbage_is_a_miss(self, disk_cache):
        with open(_disk_file(disk_cache, "k"), "w") as fh:
            fh.write("not json at all {{{")
        assert disk_cache.get("k") is None
        assert disk_cache.stats.disk_errors == 1

    def test_valid_json_missing_state_key_is_a_miss(self, disk_cache):
        with open(_disk_file(disk_cache, "k"), "w") as fh:
            json.dump({"key": "k"}, fh)
        assert disk_cache.get("k") is None
        assert disk_cache.stats.disk_errors == 1

    def test_state_of_wrong_type_is_a_miss(self, disk_cache):
        # decodes cleanly, but to a GuardbandMode rather than a SteadyState
        with open(_disk_file(disk_cache, "k"), "w") as fh:
            json.dump({"key": "k", "state": {"__mode__": "undervolt"}}, fh)
        assert disk_cache.get("k") is None
        assert disk_cache.stats.disk_errors == 1

    def test_unknown_dataclass_in_state_is_a_miss(self, disk_cache):
        with open(_disk_file(disk_cache, "k"), "w") as fh:
            json.dump(
                {"key": "k", "state": {"__dc__": "Bogus", "fields": {}}}, fh
            )
        assert disk_cache.get("k") is None
        assert disk_cache.stats.disk_errors == 1

    def test_pre_checksum_entry_is_quarantined_and_recomputed(self, tmp_path):
        # An entry in the format written before checksums existed
        # ({"key", "state"}) is quarantined once and recomputed.
        task = SweepTask.consolidated(
            get_profile("raytrace"), 1, GuardbandMode.STATIC
        )
        disk_dir = str(tmp_path / "cache")
        writer = SweepRunner(cache=OperatingPointCache(disk_dir=disk_dir))
        (expected,) = writer.run_results([task])
        (name,) = os.listdir(disk_dir)
        key = name[: -len(".json")]
        with open(os.path.join(disk_dir, name), "w") as fh:
            json.dump(
                {"key": key, "state": encode_steady_state(expected.static)}, fh
            )
        cache = OperatingPointCache(disk_dir=disk_dir)
        (result,) = SweepRunner(cache=cache).run_results([task])
        assert result == expected
        assert cache.stats.corrupt == 1
        assert cache.stats.stores == 1
        assert os.path.exists(os.path.join(disk_dir, name + ".corrupt"))
        # The recomputed entry was rewritten in the checksummed format.
        assert OperatingPointCache(disk_dir=disk_dir).get(key) == expected.static

    def test_write_failure_is_absorbed(self, tmp_path, steady_state):
        # disk_dir collides with an existing *file*: every disk write fails
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        cache = OperatingPointCache(disk_dir=str(blocker))
        cache.put("k", steady_state)  # must not raise
        assert cache.stats.disk_errors == 1
        assert cache.stats.stores == 1
        assert cache.get("k") == steady_state  # memory layer still serves

    def test_mid_write_failure_leaves_no_tmp_orphan(
        self, disk_cache, steady_state, monkeypatch
    ):
        # json.dump dying mid-stream (encoder bug, ENOSPC) used to strand
        # the half-written ``.tmp`` file forever.  It must be unlinked,
        # absorbed, and counted under the write disk-error metric.
        import repro.sim.cache as cache_mod

        def exploding_dump(payload, fh, *args, **kwargs):
            fh.write('{"partial":')
            raise ValueError("simulated mid-write failure")

        monkeypatch.setattr(cache_mod.json, "dump", exploding_dump)
        disk_cache.put("k", steady_state)  # must not raise
        assert disk_cache.stats.disk_errors == 1
        leftovers = [
            name
            for name in __import__("os").listdir(disk_cache.disk_dir)
            if name.endswith(".tmp")
        ]
        assert leftovers == []
        assert disk_cache.get("k") == steady_state  # memory layer intact

    def test_unencodable_state_is_absorbed(self, disk_cache, steady_state):
        # A state the JSON codec rejects (TypeError) must behave like any
        # other disk fault: memory layer serves, no exception, no orphan.
        import dataclasses as _dc
        import os

        @_dc.dataclass
        class Alien:
            x: int = 1

        bad = _dc.replace(steady_state, point=Alien())  # type: ignore[arg-type]
        disk_cache.put("k", bad)
        assert disk_cache.stats.disk_errors == 1
        assert not any(
            name.endswith(".tmp") for name in os.listdir(disk_cache.disk_dir)
        )
        assert disk_cache.get("k") is bad

    def test_faults_emit_disk_error_metrics(self, disk_cache):
        obs = Observability(enabled=True)
        previous = install(obs)
        try:
            with open(_disk_file(disk_cache, "k"), "w") as fh:
                fh.write("garbage")
            assert disk_cache.get("k") is None
        finally:
            install(previous)
        family = obs.metrics.get("opcache_disk_errors_total")
        assert family.labels(op="read").value == 1.0
        lookups = obs.metrics.get("opcache_lookups_total")
        assert lookups.labels(result="miss").value == 1.0


class TestLruAccounting:
    def test_eviction_count_matches_entry_cap(self, steady_state):
        cache = OperatingPointCache(max_entries=2)
        for key in ("a", "b", "c", "d"):
            cache.put(key, steady_state)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.stats.stores == 4

    def test_least_recently_used_goes_first(self, steady_state):
        cache = OperatingPointCache(max_entries=2)
        cache.put("a", steady_state)
        cache.put("b", steady_state)
        assert cache.get("a") is not None  # refresh "a"
        cache.put("c", steady_state)      # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_rejects_nonpositive_entry_cap(self):
        with pytest.raises(ValueError):
            OperatingPointCache(max_entries=0)

    def test_clear_keeps_disk_layer(self, disk_cache, steady_state):
        disk_cache.put("k", steady_state)
        disk_cache.clear()
        assert len(disk_cache) == 0
        assert disk_cache.get("k") is not None  # served from disk
        assert disk_cache.stats.disk_hits == 1
