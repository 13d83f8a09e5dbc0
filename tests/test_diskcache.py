"""Tests for the persistent (disk) tier of the simulator result cache."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import SimOptions, Simulator, diskcache
from repro.api.diskcache import (
    DISK_CACHE_SCHEMA,
    DiskResultCache,
    default_cache_dir,
)
from repro.api.result import SimResult
from repro.exceptions import SerializationError, TimingError
from repro.explore import choice, explore, product
from repro.usecases import UseCaseConfig, build_rhythmic
from repro.usecases.fig5 import build_fig5_design

#: An FPS no digital pipeline in this repo can satisfy.
_IMPOSSIBLE_FPS = 1e7


def _entry_files(cache):
    return sorted(cache.directory.glob("*.json"))


class TestDiskCacheRoundTrip:
    def test_round_trip_preserves_the_report(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        design = build_fig5_design()
        result = Simulator(cache=False).run(design)
        assert cache.put(design.content_hash, result.options, result)
        loaded = cache.get(design.content_hash, result.options)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert loaded.report.total_energy == result.report.total_energy

    def test_failures_round_trip_as_the_same_type(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        design = build_fig5_design()
        options = SimOptions(frame_rate=_IMPOSSIBLE_FPS)
        result = Simulator(cache=False).run(design, options)
        assert not result.ok
        cache.put(design.content_hash, options, result)
        loaded = cache.get(design.content_hash, options)
        assert loaded.error_type == "TimingError"
        with pytest.raises(TimingError):
            loaded.unwrap()

    def test_options_are_part_of_the_key(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        design = build_fig5_design()
        result = Simulator(cache=False).run(design)
        cache.put(design.content_hash, result.options, result)
        assert cache.get(design.content_hash,
                         SimOptions(frame_rate=60.0)) is None

    def test_model_fingerprint_is_part_of_the_key(self, tmp_path,
                                                  monkeypatch):
        """An entry written by other model code is a miss."""
        cache = DiskResultCache(tmp_path)
        design = build_fig5_design()
        result = Simulator(cache=False).run(design)
        current = diskcache.model_fingerprint()
        monkeypatch.setattr(diskcache, "model_fingerprint",
                            lambda: "0" * 64)
        assert cache.put(design.content_hash, result.options, result)
        assert cache.get(design.content_hash, result.options) is not None
        monkeypatch.setattr(diskcache, "model_fingerprint", lambda: current)
        assert cache.get(design.content_hash, result.options) is None
        assert len(_entry_files(cache)) == 1

    def test_model_fingerprint_covers_the_model_sources(self):
        diskcache.model_fingerprint.cache_clear()
        fingerprint = diskcache.model_fingerprint()
        assert len(fingerprint) == 64
        assert diskcache.model_fingerprint() == fingerprint
        root = Path(diskcache.__file__).resolve().parent.parent
        for name in diskcache.MODEL_SOURCES:
            assert (root / name).exists(), name

    def test_model_fingerprint_is_lazy(self, tmp_path):
        """Importing repro and running without a disk tier never hash
        the model sources; the first disk probe does."""
        code = (
            "import repro\n"
            "from repro.api import Simulator, diskcache\n"
            "from repro.usecases.fig5 import build_fig5_design\n"
            "fingerprints = diskcache.model_fingerprint.cache_info\n"
            "Simulator(cache_dir=None).run(build_fig5_design())\n"
            "assert fingerprints().misses == 0, fingerprints()\n"
            f"Simulator(cache_dir={str(tmp_path)!r}).run("
            "build_fig5_design())\n"
            "assert fingerprints().misses == 1, fingerprints()\n")
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_unknown_error_type_degrades_to_camjerror(self, tmp_path):
        """A persisted failure type later renamed still unwraps."""
        from repro.exceptions import CamJError

        payload = Simulator(cache=False).run(
            build_fig5_design(), SimOptions(frame_rate=_IMPOSSIBLE_FPS)
        ).to_dict()
        payload["error"]["type"] = "ErrorFromTheFuture"
        loaded = SimResult.from_dict(payload)
        with pytest.raises(CamJError):
            loaded.unwrap()

    def test_result_payload_must_pick_report_or_error(self):
        payload = Simulator(cache=False).run(build_fig5_design()).to_dict()
        payload["error"] = {"type": "TimingError", "message": "both set"}
        with pytest.raises(SerializationError):
            SimResult.from_dict(payload)
        payload["report"] = None
        payload["error"] = None
        with pytest.raises(SerializationError):
            SimResult.from_dict(payload)


class TestDiskCacheCorruption:
    def _primed(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        design = build_fig5_design()
        result = Simulator(cache=False).run(design)
        cache.put(design.content_hash, result.options, result)
        return cache, design, result

    def test_version_mismatch_rejected(self, tmp_path):
        cache, design, result = self._primed(tmp_path)
        path = cache.entry_path(design.content_hash, result.options)
        payload = json.loads(path.read_text())
        payload["schema"] = "repro.diskcache/99"
        path.write_text(json.dumps(payload))
        assert cache.get(design.content_hash, result.options) is None
        # Foreign-schema files are rejected but not deleted.
        assert path.exists()

    def test_truncated_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache, design, result = self._primed(tmp_path)
        path = cache.entry_path(design.content_hash, result.options)
        path.write_text(path.read_text()[:40])  # simulate a torn write
        assert cache.get(design.content_hash, result.options) is None
        assert not path.exists()  # corrupt entries are swept

    def test_garbage_json_entry_is_a_miss(self, tmp_path):
        cache, design, result = self._primed(tmp_path)
        path = cache.entry_path(design.content_hash, result.options)
        path.write_text(json.dumps({"schema": DISK_CACHE_SCHEMA,
                                    "result": {"nonsense": True}}))
        assert cache.get(design.content_hash, result.options) is None
        assert not path.exists()

    def test_miss_counters(self, tmp_path):
        cache, design, result = self._primed(tmp_path)
        cache.get(design.content_hash, SimOptions(frame_rate=99.0))
        assert cache.info().misses == 1
        cache.get(design.content_hash, result.options)
        assert cache.info().hits == 1


class TestDiskCacheEviction:
    def test_lru_eviction_order(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        design = build_fig5_design()
        simulator = Simulator(cache=False)
        rates = [15.0, 30.0, 60.0, 120.0]
        paths = {}
        for rate in rates:
            options = SimOptions(frame_rate=rate)
            result = simulator.run(design, options)
            cache.put(design.content_hash, options, result)
            path = cache.entry_path(design.content_hash, options)
            paths[rate] = path
        # Establish an unambiguous recency order, oldest first, then
        # touch 15.0 so it becomes the most recently used entry.
        for index, rate in enumerate(rates + [15.0]):
            import os
            os.utime(paths[rate], (1000.0 + index, 1000.0 + index))

        entry_bytes = paths[15.0].stat().st_size
        # Bound the cache so only ~2 entries fit, then trigger eviction.
        cache.max_bytes = 2 * entry_bytes + 1
        cache._evict_over_bound()

        survivors = {rate for rate, path in paths.items() if path.exists()}
        assert 15.0 in survivors  # most recently used survives
        assert 30.0 not in survivors and 60.0 not in survivors  # oldest go
        assert cache.info().evictions >= 2

    def test_put_triggers_eviction(self, tmp_path):
        design = build_fig5_design()
        simulator = Simulator(cache=False)
        result = simulator.run(design)
        size = len(json.dumps({"schema": DISK_CACHE_SCHEMA,
                               "design_hash": design.content_hash,
                               "result": result.to_dict()},
                              sort_keys=True)) + 1
        cache = DiskResultCache(tmp_path, max_bytes=2 * size + 2)
        for rate in (15.0, 30.0, 60.0, 120.0):
            options = SimOptions(frame_rate=rate)
            cache.put(design.content_hash, options,
                      simulator.run(design, options))
        info = cache.info()
        assert info.entries <= 2
        assert info.total_bytes <= cache.max_bytes
        assert info.evictions >= 2

    def test_max_bytes_validated(self, tmp_path):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            DiskResultCache(tmp_path, max_bytes=0)


class TestSimulatorDiskTier:
    def test_new_session_starts_warm_from_disk(self, tmp_path):
        design = build_fig5_design()
        first = Simulator(cache_dir=tmp_path)
        cold = first.run(design)
        assert not cold.cached

        second = Simulator(cache_dir=tmp_path)
        warm = second.run(build_fig5_design())
        assert warm.cached
        assert warm.report.to_dict() == cold.report.to_dict()
        info = second.cache_info()
        assert info.hits == 1 and info.disk_hits == 1
        assert info.disk_entries == 1 and info.disk_bytes > 0

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        design = build_fig5_design()
        Simulator(cache_dir=tmp_path).run(design)
        session = Simulator(cache_dir=tmp_path)
        session.run(build_fig5_design())
        session.run(build_fig5_design())
        info = session.cache_info()
        assert info.hits == 2
        assert info.disk_hits == 1  # second hit came from memory

    def test_run_many_served_from_disk_without_a_pool(self, tmp_path):
        designs = [build_fig5_design(),
                   build_rhythmic(UseCaseConfig("2D-In", 65))]
        with Simulator(cache_dir=tmp_path) as cold:
            assert all(r.ok for r in cold.run_many(designs))
        with Simulator(cache_dir=tmp_path) as warm:
            results = warm.run_many(designs)
            assert all(r.cached for r in results)
            stats = warm.last_batch_stats
            assert stats.cache_hits == len(designs)
            assert stats.workers_used == 0

    def test_fresh_session_replays_an_expensive_explore_from_disk(
            self, tmp_path, streaming_builder):
        """104 cycle-exact points (13 designs x 8 rates) re-served from
        ``cache_dir`` by a fresh session: identical points, every one a
        disk hit, at >= 5x the cold wall time."""
        space = product(choice("size", list(range(32, 45))),
                        choice("options.frame_rate",
                               [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0,
                                45.0]))

        def explore_once():
            with Simulator(SimOptions(cycle_accurate=True),
                           cache_dir=tmp_path) as session:
                started = time.perf_counter()
                result = explore(space, streaming_builder,
                                 objectives=("energy_per_frame",),
                                 simulator=session, annotate=False)
                elapsed = time.perf_counter() - started
                return result, elapsed, session.cache_info()

        def energies(result):
            return [(tuple(sorted(point.params.items())),
                     point.metrics.get("energy_per_frame"))
                    for point in result.points]

        cold, cold_s, _ = explore_once()
        warm, warm_s, warm_info = explore_once()
        assert len(cold.points) == 13 * 8
        assert cold.infeasible_points == []
        assert energies(warm) == energies(cold)
        assert warm_info.disk_hits == len(warm.points)
        assert warm_info.disk_entries == len(warm.points)
        assert cold_s / warm_s >= 5.0

    def test_cache_false_disables_the_disk_tier(self, tmp_path):
        session = Simulator(cache=False, cache_dir=tmp_path)
        session.run(build_fig5_design())
        assert _entry_files(DiskResultCache(tmp_path)) == []

    def test_env_var_enables_the_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)
        Simulator().run(build_fig5_design())
        assert len(_entry_files(DiskResultCache(tmp_path))) == 1
        # Explicit None opts out even when the variable is set.
        assert Simulator(cache_dir=None)._disk_cache is None

    def test_env_var_unset_means_no_disk_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() is None
        assert Simulator()._disk_cache is None

    def test_failures_persist_across_sessions(self, tmp_path):
        options = SimOptions(frame_rate=_IMPOSSIBLE_FPS)
        Simulator(cache_dir=tmp_path).run(build_fig5_design(), options)
        warm = Simulator(cache_dir=tmp_path).run(build_fig5_design(),
                                                 options)
        assert warm.cached and warm.error_type == "TimingError"

    def test_clear_cache_disk_flag(self, tmp_path):
        session = Simulator(cache_dir=tmp_path)
        session.run(build_fig5_design())
        session.clear_cache()  # memory only
        assert session.cache_info().disk_entries == 1
        session.clear_cache(disk=True)
        assert session.cache_info().disk_entries == 0


class TestForeignFilesAreSafe:
    def test_clear_and_eviction_only_touch_entry_files(self, tmp_path):
        """A shared directory's other JSON files are never deleted."""
        foreign = tmp_path / "BENCH_results.json"
        foreign.write_text('{"mine": true}')
        nested_name = tmp_path / "notes.json"
        nested_name.write_text("not a cache entry")
        cache = DiskResultCache(tmp_path, max_bytes=1)
        design = build_fig5_design()
        simulator = Simulator(cache=False)
        for rate in (15.0, 30.0):
            options = SimOptions(frame_rate=rate)
            cache.put(design.content_hash, options,
                      simulator.run(design, options))  # forces eviction
        assert cache.clear() >= 0
        assert foreign.exists() and nested_name.exists()
        assert cache.info().entries == 0


class TestUnusableDirectories:
    def test_env_cache_dir_failure_degrades_to_memory_only(
            self, tmp_path, monkeypatch):
        """An ambient REPRO_CACHE_DIR must never break a session."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("file where a directory should be")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_DIR"):
            session = Simulator()
        assert session._disk_cache is None
        assert session.run(build_fig5_design()).ok  # memory tier works

    def test_explicit_cache_dir_failure_is_a_typed_error(self, tmp_path):
        from repro.exceptions import ConfigurationError

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("file where a directory should be")
        with pytest.raises(ConfigurationError, match="cache_dir"):
            Simulator(cache_dir=blocker / "cache")


class TestColdBatchDiskProbes:
    def test_disk_probed_once_per_unique_cold_key(self, tmp_path):
        designs = [build_fig5_design(),
                   build_rhythmic(UseCaseConfig("2D-In", 65))]
        with Simulator(cache_dir=tmp_path) as session:
            assert all(r.ok for r in session.run_many(designs))
            info = session.cache_info()
        assert info.disk_misses == len(designs)  # no double probe


class TestConcurrentWriters:
    def test_two_sessions_share_one_directory(self, tmp_path):
        """Concurrent sessions writing the same keys never corrupt them."""
        designs = [build_fig5_design(),
                   build_rhythmic(UseCaseConfig("2D-In", 65)),
                   build_rhythmic(UseCaseConfig("2D-Off", 65))]
        items = [(design, SimOptions(frame_rate=rate))
                 for design in designs for rate in (15.0, 30.0, 60.0)]
        sessions = [Simulator(cache_dir=tmp_path) for _ in range(2)]
        failures = []

        def body(session):
            try:
                results = session.run_many(items)
                assert all(result.ok for result in results)
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=body, args=(session,))
                   for session in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for session in sessions:
            session.close()
        assert not failures
        cache = DiskResultCache(tmp_path)
        assert len(_entry_files(cache)) == len(items)
        # Every persisted entry loads back cleanly in a third session.
        reader = Simulator(cache_dir=tmp_path)
        results = reader.run_many(items)
        assert all(result.cached for result in results)
        assert reader.last_batch_stats.workers_used == 0


class TestCacheCli:
    def _prime(self, directory):
        Simulator(cache_dir=directory).run(build_fig5_design())

    def test_info_and_clear(self, tmp_path, capsys):
        from repro.__main__ import main

        self._prime(tmp_path)
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries          1" in out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info", "--dir", str(tmp_path)]) == 0
        assert "entries          0" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        self._prime(tmp_path)
        assert main(["--json", "cache", "info", "--dir",
                     str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["directory"] == str(tmp_path)
        assert main(["--json", "cache", "clear", "--dir",
                     str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 1

    def test_env_var_default_directory(self, tmp_path, monkeypatch,
                                       capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._prime(tmp_path)
        assert main(["cache", "info"]) == 0
        assert "entries          1" in capsys.readouterr().out

    def test_no_directory_fails_cleanly(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "info"]) == 1
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_missing_directory_is_not_created(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = tmp_path / "typo" / "cache"
        assert main(["cache", "info", "--dir", str(missing)]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()
