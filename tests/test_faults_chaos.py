"""Chaos harness: deterministic faults across store/exec/serve.

The contract under test (see ``docs/TESTING.md``, "Chaos testing"):

* a run that *completes* under injected faults produces reports
  **byte-identical** to the fault-free run — the soak over the whole
  check corpus proves it at three fixed seeds;
* a run the faults keep from completing degrades *loudly* — a typed
  error, a counted miss, a recorded ingest error — never a silent
  drop;
* every degradation replays bit-for-bit from (seed, fault plan), so
  chaos findings check into the failure corpus like any other bug.
"""

import json
from pathlib import Path

import pytest

from repro.check import load_corpus_entry
from repro.check.campaign import CampaignConfig, run_campaign
from repro.exec import EngineConfig, ExperimentEngine
from repro.exec.cache import ResultCache
from repro.faults import (
    FaultPlan,
    FaultSpec,
    activate,
    is_active,
    replay_chaos_entry,
    run_net_soak,
    run_soak,
)
from repro.offline import capture_trace
from repro.serve import ProfilingService, ServiceClient, ServiceConfig
from repro.serve.protocol import STATUS_ERROR, STATUS_OK
from repro.store import ArtifactCorruptError
from repro.telemetry import capture
from repro.workloads import run_scene1

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: The satellite soak contract: full corpus x mixed plan x fixed seeds.
SOAK_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def scene_trace():
    run = run_scene1()
    return capture_trace(run.system, run.eandroid)


def _service(tmp_path, **overrides) -> ProfilingService:
    config = dict(telemetry=False, store_dir=str(tmp_path / "store"), **overrides)
    return ProfilingService(ServiceConfig(**config))


def _plan(site, kind, probability=1.0, max_injections=None, delay_ms=2.0):
    return FaultPlan(
        specs=(
            FaultSpec(
                site=site,
                kind=kind,
                probability=probability,
                max_injections=max_injections,
                delay_ms=delay_ms,
            ),
        )
    )


# ----------------------------------------------------------------------
# the corpus soak: byte-identity + zero silent drops
# ----------------------------------------------------------------------
class TestCorpusSoak:
    @pytest.mark.parametrize("seed", SOAK_SEEDS)
    def test_soak_passes_at_fixed_seeds(self, seed):
        result = run_soak(CORPUS_DIR, seed, FaultPlan.mixed(0.05))
        assert result.passed, "\n".join(result.problems)
        # Accounting closes: every source became a session or a record,
        # every query came back, every ok answer matched byte-for-byte.
        assert result.chaos_sessions + result.ingest_errors == result.sources
        assert result.ok == result.ok_identical
        assert result.ok + result.typed_errors == result.queries

    def test_soak_is_deterministic(self):
        first = run_soak(CORPUS_DIR, 1, FaultPlan.mixed(0.05))
        second = run_soak(CORPUS_DIR, 1, FaultPlan.mixed(0.05))
        assert first.as_dict() == second.as_dict()

    def test_plane_deactivates_after_soak(self):
        run_soak(CORPUS_DIR, 2, FaultPlan.mixed(0.05))
        assert not is_active()


# ----------------------------------------------------------------------
# the transport soak: net.* sites armed over a real TCP server
# ----------------------------------------------------------------------
class TestNetSoak:
    def test_latency_plan_degrades_to_typed_deadline_errors(self):
        plan = _plan(
            "net.latency", "latency", max_injections=2, delay_ms=1500.0
        )
        result = run_net_soak(CORPUS_DIR, 0, plan)
        assert result.passed, "\n".join(result.problems)
        assert result.injected.get("net.latency:latency", 0) >= 1
        # Starved queries come back as typed errors naming the deadline;
        # everything that answered ok is byte-identical to fault-free.
        assert result.typed_errors >= 1
        assert result.ok == result.ok_identical
        assert result.ok + result.typed_errors == result.queries

    def test_connection_faults_resubmit_to_identical_answers(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("net.accept", "io-error", 1.0, max_injections=1),
                FaultSpec("net.read", "io-error", 1.0, max_injections=1),
                FaultSpec("net.write", "io-error", 1.0, max_injections=1),
            )
        )
        result = run_net_soak(CORPUS_DIR, 0, plan)
        assert result.passed, "\n".join(result.problems)
        assert sum(result.injected.values()) >= 1
        # Every killed connection was survived by reconnect + resubmit:
        # all queries end ok and byte-identical, none lost.
        assert result.ok == result.ok_identical == result.queries

    def test_plane_deactivates_after_net_soak(self):
        _ = run_net_soak(
            CORPUS_DIR, 1, _plan("net.latency", "latency", max_injections=1)
        )
        assert not is_active()


# ----------------------------------------------------------------------
# chaos corpus entries replay bit-for-bit
# ----------------------------------------------------------------------
CHAOS_ENTRIES = [
    path
    for path in sorted(CORPUS_DIR.glob("*.json"))
    if "chaos" in load_corpus_entry(path)
]


def test_chaos_corpus_has_a_seeded_example():
    assert CHAOS_ENTRIES, "corpus must keep at least one chaos finding"


@pytest.mark.parametrize("path", CHAOS_ENTRIES, ids=lambda p: p.stem)
def test_chaos_entry_replays_green(path):
    result = replay_chaos_entry(path)
    assert result.passed, "\n".join(result.problems)
    assert sum(result.injected.values()) >= 1, (
        "the recorded plan must actually fire during replay"
    )
    # Store-fault entries answer everything identically; transport-fault
    # entries may trade answers for typed deadline errors — but every ok
    # answer is byte-identical and every query is accounted for.
    assert result.ok == result.ok_identical
    assert result.ok + result.typed_errors == result.queries


def test_net_chaos_entry_pins_the_deadline_path():
    """The checked-in net entry must actually starve the deadline."""
    (entry,) = [p for p in CHAOS_ENTRIES if p.stem.startswith("chaos-net")]
    result = replay_chaos_entry(entry)
    assert result.passed, "\n".join(result.problems)
    assert result.injected.get("net.latency:latency", 0) >= 1
    assert result.typed_errors >= 1, (
        "injected transport latency must surface as typed deadline errors"
    )


def test_replay_chaos_entry_rejects_plain_entries(tmp_path):
    plain = next(
        path
        for path in sorted(CORPUS_DIR.glob("*.json"))
        if "chaos" not in load_corpus_entry(path)
    )
    with pytest.raises(ValueError, match="no chaos section"):
        replay_chaos_entry(plain)


# ----------------------------------------------------------------------
# satellite 1: corrupt cache entries are repaired durably
# ----------------------------------------------------------------------
class TestCacheCorruptionRepair:
    PARAMS = {"alpha": 1}
    OUTCOME = {"name": "exp", "claim_holds": True, "text": "ok", "metrics": {}}

    def _seed_entry(self, cache: ResultCache) -> str:
        cache.store("exp", self.PARAMS, self.OUTCOME, wall_time_s=0.1)
        digest = cache.store_backend.get_ref("exec", cache._ref_name("exp", self.PARAMS))
        assert digest is not None
        return digest

    def test_corrupt_entry_degrades_to_miss_and_event(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = self._seed_entry(cache)
        blob = cache.store_backend.object_path(digest)
        blob.write_bytes(blob.read_bytes()[:-4])  # torn tail
        with capture() as recorder:
            assert cache.load("exp", self.PARAMS) is None
        assert cache.stats.corruptions == 1
        assert any(
            type(event).__name__ == "CacheCorruptionEvent"
            for event in recorder.events
        )
        # The torn blob is evicted, so a re-store is not a no-op.
        assert not blob.exists()

    def test_replacement_write_is_durable_and_cannot_tear(self, tmp_path):
        """Regression: the repair of a corrupt entry fsyncs.

        Under a 100% torn-write plan every *non-durable* store write is
        truncated.  The replacement write for an entry that was seen
        corrupt goes down the durable path, which a torn-write fault
        cannot touch — so the repaired entry must read back whole even
        with the plan armed.
        """
        cache = ResultCache(tmp_path / "cache")
        digest = self._seed_entry(cache)
        blob = cache.store_backend.object_path(digest)
        blob.write_bytes(b"\x00garbled\x00")
        assert cache.load("exp", self.PARAMS) is None  # marks the repair
        with activate(_plan("store.write", "torn-write"), seed=3):
            cache.store("exp", self.PARAMS, self.OUTCOME, wall_time_s=0.1)
            payload = cache.load("exp", self.PARAMS)
        assert payload is not None and payload["outcome"] == self.OUTCOME
        assert cache.stats.hits == 1

    def test_non_durable_write_does_tear_under_the_same_plan(self, tmp_path):
        # The contrast case proving the plan above had teeth.
        cache = ResultCache(tmp_path / "cache")
        with activate(_plan("store.write", "torn-write"), seed=3):
            cache.store("exp", self.PARAMS, self.OUTCOME, wall_time_s=0.1)
        digest = cache.store_backend.get_ref(
            "exec", cache._ref_name("exp", self.PARAMS)
        )
        if digest is None:
            return  # the ref write itself tore: also a loud failure
        with pytest.raises(ArtifactCorruptError):
            cache.store_backend.get_bytes(digest)

    def test_injected_read_corruption_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._seed_entry(cache)
        with activate(_plan("store.read", "corrupt"), seed=0):
            assert cache.load("exp", self.PARAMS) is None
        assert cache.stats.corruptions == 1
        assert cache.load("exp", self.PARAMS) is None  # evicted, recompute

    def test_write_io_error_leaves_the_result_uncached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with activate(_plan("store.write", "io-error"), seed=0):
            cache.store("exp", self.PARAMS, self.OUTCOME, wall_time_s=0.1)
        assert cache.stats.write_errors == 1
        assert cache.load("exp", self.PARAMS) is None

    def test_io_errors_exhaust_retries_then_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._seed_entry(cache)
        with activate(_plan("store.read", "io-error"), seed=0):
            assert cache.load("exp", self.PARAMS) is None
        assert cache.stats.io_errors == 1
        assert cache.stats.misses == 1
        # Transient flake: one injected failure, then the retry lands.
        with activate(_plan("store.read", "io-error", max_injections=1), seed=0):
            assert cache.load("exp", self.PARAMS) is not None


# ----------------------------------------------------------------------
# serve degradation: lenient ingest, spill, restore
# ----------------------------------------------------------------------
class TestServeDegradation:
    def test_lenient_ingest_records_errors_per_source(self, tmp_path, scene_trace):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.json").write_text(scene_trace.to_json(), encoding="utf-8")
        (corpus / "bad.json").write_text("{not json", encoding="utf-8")
        svc = _service(tmp_path)
        names = svc.ingest(corpus, strict=False)
        assert names == ["good"]
        assert len(svc.ingest_errors) == 1
        assert "bad.json" in svc.ingest_errors[0].source
        assert svc.stats.ingest_errors == 1
        manifest = svc.manifest()
        assert manifest["ingest_errors"][0]["source"].endswith("bad.json")

    def test_parse_fault_is_recorded_per_source(self, tmp_path, scene_trace):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a", "b"):
            (corpus / f"{name}.json").write_text(
                scene_trace.to_json(), encoding="utf-8"
            )
        svc = _service(tmp_path)
        with activate(_plan("serve.parse", "io-error", max_injections=1), seed=0):
            names = svc.ingest(corpus, strict=False)
        assert names == ["b"]
        (error,) = svc.ingest_errors
        assert error.source.endswith("a.json") and "InjectedIOError" in error.error

    def test_strict_ingest_still_raises(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.json").write_text("{not json", encoding="utf-8")
        svc = _service(tmp_path)
        with pytest.raises(Exception):
            svc.ingest(corpus)

    def test_spill_failure_keeps_session_in_memory(self, tmp_path, scene_trace):
        svc = _service(tmp_path, spill=True)
        with activate(_plan("serve.spill", "io-error"), seed=0):
            record = svc.ingest_trace("scene", scene_trace, "test")
        assert not record.spilled
        assert svc.stats.spill_failures == 1
        # The session still answers queries.
        report = ServiceClient(svc).query("scene", "eandroid")
        assert report["backend"] == "eandroid"

    def test_restore_retries_through_a_transient_read_fault(
        self, tmp_path, scene_trace
    ):
        svc = _service(tmp_path, spill=True)
        record = svc.ingest_trace("scene", scene_trace, "test")
        assert record.spilled
        client = ServiceClient(svc)
        with activate(_plan("store.read", "io-error", max_injections=1), seed=0):
            report = client.query("scene", "eandroid")
        assert report["backend"] == "eandroid"

    def test_restore_exhaustion_is_a_typed_error(self, tmp_path, scene_trace):
        svc = _service(tmp_path, spill=True)
        svc.ingest_trace("scene", scene_trace, "test")
        client = ServiceClient(svc)
        (query,) = client.build("scene", "eandroid")
        with activate(_plan("store.read", "io-error"), seed=0):
            response = svc.submit(query)
        assert response.status != STATUS_OK
        assert response.error  # typed, never silent
        assert svc.stats.received == svc.stats.answered + svc.stats.errors + svc.stats.shed

    def test_restore_site_exhaustion_is_a_typed_error(self, tmp_path, scene_trace):
        svc = _service(tmp_path, spill=True)
        svc.ingest_trace("scene", scene_trace, "test")
        (query,) = ServiceClient(svc).build("scene", "eandroid")
        with activate(_plan("serve.restore", "io-error"), seed=0):
            response = svc.submit(query)
        assert response.status == STATUS_ERROR
        assert "RetriesExhaustedError" in response.error
        assert svc.stats.errors == 1

    def test_query_fault_is_a_typed_error(self, scene_trace):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        svc.ingest_trace("scene", scene_trace, "test")
        (query,) = ServiceClient(svc).build("scene", "energy")
        with activate(_plan("serve.query", "io-error"), seed=0):
            response = svc.submit(query)
        assert response.status == STATUS_ERROR and response.error
        assert svc.stats.errors == 1
        assert svc.submit(query).status == STATUS_OK  # nothing cached

    def test_corrupt_memoized_replay_degrades_to_resimulation(self, tmp_path):
        """Regression: a corrupt memoized replay blob used to abort the
        whole ingest batch; it must evict, note the corruption, and
        re-simulate."""
        from repro.serve import REPLAY_REF_NAMESPACE
        from repro.serve.ingest import scenario_digest

        entry = next(
            path
            for path in sorted(CORPUS_DIR.glob("*.json"))
            if "chaos" not in load_corpus_entry(path)
        )
        staged = tmp_path / "corpus"
        staged.mkdir()
        (staged / entry.name).write_bytes(entry.read_bytes())

        first = _service(tmp_path)
        assert first.ingest(staged)  # memoizes the replay
        store = first.store
        key = scenario_digest(load_corpus_entry(entry))
        digest = store.get_ref(REPLAY_REF_NAMESPACE, key)
        assert digest is not None
        blob = store.object_path(digest)
        blob.write_bytes(blob.read_bytes()[: len(blob.read_bytes()) // 2])

        second = _service(tmp_path)
        with capture() as recorder:
            names = second.ingest(staged)
        assert len(names) == 1  # re-simulated, batch intact
        assert any(
            type(event).__name__ == "CacheCorruptionEvent"
            for event in recorder.events
        )


# ----------------------------------------------------------------------
# exec degradation: crash, requeue, serial fallback
# ----------------------------------------------------------------------
class TestExecDegradation:
    def test_injected_crash_requeues_then_succeeds(self, tmp_path):
        engine = ExperimentEngine(
            EngineConfig(cache_dir=str(tmp_path / "cache"), use_cache=False)
        )
        with activate(_plan("exec.dispatch", "crash", max_injections=1), seed=0):
            run = engine.run([("fuzz", {"seeds": [5], "ops": 8})])
        (result,) = run.results
        assert result.outcome.error is None
        assert result.attempts == 2

    def test_exhausted_crashes_surface_as_deviation(self, tmp_path):
        engine = ExperimentEngine(
            EngineConfig(cache_dir=str(tmp_path / "cache"), use_cache=False)
        )
        with activate(_plan("exec.dispatch", "crash"), seed=0):
            run = engine.run([("fuzz", {"seeds": [5], "ops": 8})])
        (result,) = run.results
        assert result.outcome.error is not None
        assert not result.outcome.claim_holds
        assert "InjectedWorkerCrash" in result.outcome.error

    def test_result_channel_crash_requeues_then_deviates(self, tmp_path):
        engine = ExperimentEngine(
            EngineConfig(cache_dir=str(tmp_path / "cache"), use_cache=False)
        )
        job = [("fuzz", {"seeds": [5], "ops": 8})]
        with activate(_plan("exec.result", "crash", max_injections=1), seed=0):
            (requeued,) = engine.run(job).results
        assert requeued.outcome.error is None and requeued.attempts == 2
        with activate(_plan("exec.result", "crash"), seed=0):
            (lost,) = engine.run(job).results
        assert not lost.outcome.claim_holds
        assert "result channel failed" in lost.outcome.error

    def test_spawn_failure_falls_back_to_serial(self, tmp_path):
        engine = ExperimentEngine(
            EngineConfig(
                parallel=2, cache_dir=str(tmp_path / "cache"), use_cache=False
            )
        )
        with activate(_plan("exec.spawn", "io-error"), seed=0):
            run = engine.run(
                [("fuzz", {"seeds": [5], "ops": 8}), ("fuzz", {"seeds": [6], "ops": 8})]
            )
        assert all(r.outcome.error is None for r in run.results)


# ----------------------------------------------------------------------
# the check --chaos campaign surface
# ----------------------------------------------------------------------
class TestChaosCampaign:
    def test_campaign_passes_and_reports_identity(self, tmp_path):
        config = CampaignConfig(
            fuzz=4, seed=5, ops=12, chaos=True, save_dir=str(tmp_path / "save")
        )
        report = run_campaign(config)
        assert report.chaos is not None
        chaos = report.chaos
        assert chaos["passed"] is True
        assert report.passed
        assert (
            chaos["identical"] + chaos["degraded"] == chaos["compared"]
        )
        assert chaos["compared"] + chaos["incomplete"] == chaos["scenarios"]
        assert chaos["mismatched_seeds"] == []
        # The chaos section lands in the saved manifest.
        manifest = json.loads(
            (tmp_path / "save" / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["chaos"]["seed"] == 5
        assert manifest["chaos"]["plan"]["kind"] == "repro-fault-plan"

    def test_campaign_is_deterministic(self):
        config = CampaignConfig(fuzz=3, seed=9, ops=10, chaos=True)
        first = run_campaign(config).chaos
        second = run_campaign(config).chaos
        assert first == second

    def test_campaign_with_explicit_plan_file(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        _plan("exec.dispatch", "crash", max_injections=1).save(plan_path)
        config = CampaignConfig(
            fuzz=3, seed=9, ops=10, chaos=True, faults_path=str(plan_path)
        )
        report = run_campaign(config)
        assert report.chaos["passed"] is True
        assert report.chaos["injection"]["injected"] == {
            "exec.dispatch:crash": 1
        }
