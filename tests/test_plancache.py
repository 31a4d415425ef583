"""The content-addressed compiled-plan cache (repro.core.plancache)."""

import pickle
import threading
import time

import pytest

from repro.algorithms import build_algorithm
from repro.core import ResCCLCompiler
from repro.core.plancache import (
    CACHE_FORMAT_VERSION,
    PlanCache,
    configure,
    get_cache,
)
from repro.obs.metrics import collecting
from repro.topology import Cluster


@pytest.fixture
def cluster():
    return Cluster(nodes=2, gpus_per_node=4)


@pytest.fixture
def program(cluster):
    return build_algorithm("ring-allreduce", cluster)


class TestMemoTier:
    def test_hit_returns_same_object(self, cluster, program):
        cache = PlanCache()
        compiler = ResCCLCompiler()
        first = cache.compile(compiler, program, cluster)
        second = cache.compile(compiler, program, cluster)
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_key_covers_source(self, cluster, program):
        cache = PlanCache()
        compiler = ResCCLCompiler()
        other = build_algorithm("ring-allgather", cluster)
        a = cache.compile(compiler, program, cluster)
        b = cache.compile(compiler, other, cluster)
        assert a is not b
        assert cache.stats.misses == 2

    def test_key_covers_scheduler(self, cluster, program):
        cache = PlanCache()
        a = cache.compile(ResCCLCompiler(scheduler="hpds"), program, cluster)
        b = cache.compile(ResCCLCompiler(scheduler="rr"), program, cluster)
        assert a is not b
        assert a.scheduler == "hpds" and b.scheduler == "rr"

    def test_key_covers_topology(self, cluster, program):
        cache = PlanCache()
        compiler = ResCCLCompiler()
        degraded = cluster.degraded([cluster.edges[0]], 0.5)
        a = cache.compile(compiler, program, cluster)
        b = cache.compile(compiler, program, degraded)
        assert a is not b

    def test_equivalent_clusters_share_entry(self, program):
        # Two distinct-but-identical Cluster objects hash to one key —
        # exactly the aliasing the old id()-keyed cache could not see.
        cache = PlanCache()
        compiler = ResCCLCompiler()
        a = cache.compile(compiler, program, Cluster(2, 4))
        b = cache.compile(compiler, program, Cluster(2, 4))
        assert a is b

    def test_source_and_program_alias(self, cluster, program):
        cache = PlanCache()
        compiler = ResCCLCompiler()
        a = cache.compile(compiler, program, cluster)
        b = cache.compile(compiler, program.to_source(), cluster)
        assert a is b

    def test_lru_eviction(self, cluster):
        cache = PlanCache(capacity=1)
        compiler = ResCCLCompiler()
        ar = build_algorithm("ring-allreduce", cluster)
        ag = build_algorithm("ring-allgather", cluster)
        cache.compile(compiler, ar, cluster)
        cache.compile(compiler, ag, cluster)  # evicts ar
        assert len(cache) == 1
        cache.compile(compiler, ar, cluster)
        assert cache.stats.misses == 3

    def test_frontend_reuse_across_schedulers(self, cluster, program):
        cache = PlanCache()
        a = cache.compile(ResCCLCompiler(scheduler="hpds"), program, cluster)
        b = cache.compile(ResCCLCompiler(scheduler="rr"), program, cluster)
        assert cache.stats.frontend_hits == 1
        # The reused front end is the same parsed program + DAG.
        assert b.program is a.program
        assert b.dag is a.dag
        assert b.phase_times_us["parsing"] == 0.0
        assert b.phase_times_us["analysis"] == 0.0


class TestDiskTier:
    def test_round_trip(self, tmp_path, cluster, program):
        compiler = ResCCLCompiler()
        writer = PlanCache(cache_dir=tmp_path)
        compiled = writer.compile(compiler, program, cluster)
        assert writer.stats.disk_writes == 1
        assert list(tmp_path.glob("*.pkl"))

        reader = PlanCache(cache_dir=tmp_path)
        loaded = reader.compile(compiler, program, cluster)
        assert reader.stats.disk_hits == 1
        assert reader.stats.hits == 1
        assert loaded is not compiled  # new object, same content
        assert loaded.scheduler == compiled.scheduler
        assert loaded.pipeline.task_count == compiled.pipeline.task_count
        assert loaded.dag.preds == compiled.dag.preds
        assert (
            loaded.pipeline.ordered_task_ids()
            == compiled.pipeline.ordered_task_ids()
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path, cluster, program):
        compiler = ResCCLCompiler()
        writer = PlanCache(cache_dir=tmp_path)
        writer.compile(compiler, program, cluster)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        reader = PlanCache(cache_dir=tmp_path)
        result = reader.compile(compiler, program, cluster)
        assert result is not None
        assert reader.stats.disk_hits == 0
        assert reader.stats.misses == 1

    def test_version_mismatch_is_a_miss(self, tmp_path, cluster, program):
        compiler = ResCCLCompiler()
        writer = PlanCache(cache_dir=tmp_path)
        compiled = writer.compile(compiler, program, cluster)
        for entry in tmp_path.glob("*.pkl"):
            key = entry.stem
            entry.write_bytes(
                pickle.dumps(
                    {
                        "version": CACHE_FORMAT_VERSION + 1,
                        "key": key,
                        "result": compiled,
                    }
                )
            )
        reader = PlanCache(cache_dir=tmp_path)
        reader.compile(compiler, program, cluster)
        assert reader.stats.disk_hits == 0
        assert reader.stats.misses == 1


class TestDiskQuarantine:
    def _poison(self, tmp_path, cluster, program):
        compiler = ResCCLCompiler()
        writer = PlanCache(cache_dir=tmp_path)
        writer.compile(compiler, program, cluster)
        entries = list(tmp_path.glob("*.pkl"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"not a pickle")
        return compiler, entries

    def test_corrupt_entry_is_quarantined(self, tmp_path, cluster, program):
        compiler, entries = self._poison(tmp_path, cluster, program)
        reader = PlanCache(cache_dir=tmp_path)
        result = reader.compile(compiler, program, cluster)
        assert result is not None  # recompiled, not crashed
        assert reader.stats.disk_corrupt == 1
        for entry in entries:
            # The poisoned bytes moved aside for post-mortem inspection
            # (the recompile then repopulates the .pkl slot).
            quarantined = entry.with_suffix(".corrupt")
            assert quarantined.exists()
            assert quarantined.read_bytes() == b"not a pickle"

    def test_quarantined_slot_is_rewritten(self, tmp_path, cluster, program):
        compiler, entries = self._poison(tmp_path, cluster, program)
        reader = PlanCache(cache_dir=tmp_path)
        reader.compile(compiler, program, cluster)
        # The recompile repopulated the .pkl slot next to the .corrupt.
        for entry in entries:
            assert entry.exists()
            assert entry.with_suffix(".corrupt").exists()
        fresh = PlanCache(cache_dir=tmp_path)
        fresh.compile(compiler, program, cluster)
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.disk_corrupt == 0

    def test_corrupt_counter_published(self, tmp_path, cluster, program):
        compiler, _ = self._poison(tmp_path, cluster, program)
        reader = PlanCache(cache_dir=tmp_path)
        with collecting() as registry:
            reader.compile(compiler, program, cluster)
        assert registry.counter("compile_cache_corrupt_total").value() == 1

    def test_key_mismatch_is_quarantined(self, tmp_path, cluster, program):
        compiler = ResCCLCompiler()
        writer = PlanCache(cache_dir=tmp_path)
        compiled = writer.compile(compiler, program, cluster)
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(pickle.dumps({
                "version": CACHE_FORMAT_VERSION,
                "key": "someone-else",
                "result": compiled,
            }))
        reader = PlanCache(cache_dir=tmp_path)
        reader.compile(compiler, program, cluster)
        assert reader.stats.disk_corrupt == 1
        assert list(tmp_path.glob("*.corrupt"))

    def test_summary_reports_quarantines(self, tmp_path, cluster, program):
        compiler, _ = self._poison(tmp_path, cluster, program)
        reader = PlanCache(cache_dir=tmp_path)
        assert "quarantined" not in reader.stats.summary()
        reader.compile(compiler, program, cluster)
        assert "1 corrupt entr" in reader.stats.summary()


class TestDiskLocking:
    """Concurrent disk-tier mutations of one key (the fcntl entry lock).

    Unlocked, two same-pid writers collide on the shared tmp name (one
    renames a file the other is still writing -> a torn ``.pkl`` that
    gets quarantined on the next read), and a quarantine can sweep a
    concurrent writer's fresh good entry into ``.corrupt``.  The
    per-key advisory lock serializes the mutations; this hammers the
    old races and asserts the entry stays clean and readable.
    """

    def test_two_writers_one_key_stay_clean(self, tmp_path, cluster,
                                            program):
        compiler = ResCCLCompiler()
        cache = PlanCache(cache_dir=tmp_path)
        compiled = cache.compile(compiler, program, cluster)
        path = next(tmp_path.glob("*.pkl"))
        key = path.stem
        barrier = threading.Barrier(3)

        def writer():
            barrier.wait()
            for _ in range(20):
                cache._disk_put(key, compiled)

        def deleter():
            # Forces real rewrites (the content-addressed skip would
            # otherwise make every later put a no-op) and interleaves
            # replace/unlink with in-flight writes.
            barrier.wait()
            for _ in range(20):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
                time.sleep(0.001)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=writer),
                   threading.Thread(target=deleter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        cache._disk_put(key, compiled)  # settle: the entry exists again
        assert not list(tmp_path.glob("*.corrupt"))
        assert not list(tmp_path.glob("*.tmp.*"))  # no torn leftovers
        assert list(tmp_path.glob("*.lock"))  # the lock file is real
        fresh = PlanCache(cache_dir=tmp_path)
        restored = fresh._disk_get(key)
        assert restored is not None
        assert fresh.stats.disk_corrupt == 0
        assert restored.scheduler == compiled.scheduler

    def test_quarantine_and_rewrite_serialize(self, tmp_path, cluster,
                                              program):
        compiler = ResCCLCompiler()
        cache = PlanCache(cache_dir=tmp_path)
        compiled = cache.compile(compiler, program, cluster)
        path = next(tmp_path.glob("*.pkl"))
        key = path.stem
        barrier = threading.Barrier(2)

        def quarantiner():
            barrier.wait()
            for _ in range(20):
                cache._quarantine(path)

        def writer():
            barrier.wait()
            for _ in range(20):
                cache._disk_put(key, compiled)

        threads = [threading.Thread(target=quarantiner),
                   threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Whatever interleaving happened, a final write must land a
        # readable entry (the quarantine never renames a half-written
        # file, and never wins against a fresh replacement mid-write).
        cache._disk_put(key, compiled)
        fresh = PlanCache(cache_dir=tmp_path)
        assert fresh._disk_get(key) is not None
        assert fresh.stats.disk_corrupt == 0


class TestFingerprint:
    def test_stable_for_equivalent_clusters(self):
        assert Cluster(2, 4).fingerprint() == Cluster(2, 4).fingerprint()

    def test_shape_sensitivity(self):
        assert Cluster(2, 4).fingerprint() != Cluster(4, 4).fingerprint()
        assert Cluster(2, 4).fingerprint() != Cluster(2, 8).fingerprint()

    def test_degraded_differs(self):
        cluster = Cluster(2, 4)
        degraded = cluster.degraded([cluster.edges[0]], 0.5)
        assert cluster.fingerprint() != degraded.fingerprint()


class TestProcessWideCache:
    def test_configure_and_disable(self, tmp_path, cluster, program):
        compiler = ResCCLCompiler()
        try:
            cache = configure(cache_dir=tmp_path)
            assert get_cache() is cache
            cache.compile(compiler, program, cluster)
            assert cache.stats.disk_writes == 1

            disabled = configure(enabled=False)
            a = disabled.compile(compiler, program, cluster)
            b = disabled.compile(compiler, program, cluster)
            assert a is not b
            assert disabled.stats.hits == 0
        finally:
            configure()  # restore an ordinary in-process cache

    def test_hits_published_to_ambient_registry(self, cluster, program):
        cache = PlanCache()
        compiler = ResCCLCompiler()
        with collecting() as registry:
            cache.compile(compiler, program, cluster)
            cache.compile(compiler, program, cluster)
        assert registry.counter("compile_cache_misses_total").value() == 1
        assert registry.counter("compile_cache_hits_total").value() == 1
