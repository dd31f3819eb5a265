"""The artifact store: blobs, refs, gc, migrations, cache clients."""

import json
from pathlib import Path

import pytest

from repro.exec.cache import CACHE_REF_NAMESPACE, CacheStats, ResultCache
from repro.offline import capture_trace
from repro.store import (
    CODECS,
    MIGRATIONS,
    ArtifactCorruptError,
    ArtifactNotFoundError,
    ArtifactStore,
    Codec,
    CodecError,
    content_digest,
    decode_artifact,
    get_codec,
    migrate_store,
    migration_path,
    register_codec,
    register_migration,
)
from repro.telemetry import (
    ArtifactStoredEvent,
    CacheCorruptionEvent,
    Category,
    capture,
)
from repro.workloads import run_attack1


@pytest.fixture(scope="module")
def trace():
    run = run_attack1(30.0)
    return capture_trace(run.system, run.eandroid)


# ----------------------------------------------------------------------
# blobs + manifests
# ----------------------------------------------------------------------
class TestBlobs:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        info = store.put({"answer": 42}, "json", meta={"origin": "test"})
        assert info.digest == content_digest(b'{"answer":42}')
        assert info.kind == "document"
        assert info.codec == "json"
        assert store.get(info.digest) == {"answer": 42}
        assert store.info(info.digest).meta == {"origin": "test"}

    def test_put_is_idempotent_by_digest(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = store.put({"a": 1}, "json")
        second = store.put({"a": 1}, "json")
        assert first.digest == second.digest
        assert store.stats()["objects"] == 1

    def test_get_bytes_detects_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        info = store.put({"a": 1}, "json")
        blob = store.object_path(info.digest)
        blob.write_bytes(b'{"a":2}')
        with pytest.raises(ArtifactCorruptError):
            store.get_bytes(info.digest)
        # verify=False returns whatever is on disk.
        assert store.get_bytes(info.digest, verify=False) == b'{"a":2}'

    def test_missing_digest_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ArtifactNotFoundError):
            store.get_bytes("0" * 64)
        with pytest.raises(ArtifactNotFoundError):
            store.info("0" * 64)

    def test_trace_codecs_store_device_traces(self, tmp_path, trace):
        store = ArtifactStore(tmp_path / "store")
        via_json = store.put(trace, "trace-json")
        via_bin = store.put(trace, "trace-bin")
        assert via_json.kind == via_bin.kind == "device-trace"
        expected = json.loads(trace.to_json())
        assert json.loads(store.get(via_json.digest).to_json()) == expected
        assert json.loads(store.get(via_bin.digest).to_json()) == expected

    def test_artifacts_iterates_manifests(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        digests = {store.put({"i": i}, "json").digest for i in range(3)}
        assert {info.digest for info in store.artifacts()} == digests

    def test_read_only_store_creates_no_directory(self, tmp_path):
        root = tmp_path / "never"
        store = ArtifactStore(root)
        assert store.get_ref("exec", "nope") is None
        assert store.refs() == {}
        assert list(store.artifacts()) == []
        assert store.gc().scanned == 0
        assert not root.exists()

    def test_put_publishes_stored_event(self, tmp_path):
        with capture(categories=[Category.STORE]) as recorder:
            store = ArtifactStore(tmp_path / "store")
            info = store.put({"a": 1}, "json")
        events = [e for e in recorder.events if isinstance(e, ArtifactStoredEvent)]
        assert len(events) == 1
        assert events[0].digest == info.digest
        assert events[0].codec == "json"
        assert events[0].size == info.size


# ----------------------------------------------------------------------
# refs + gc
# ----------------------------------------------------------------------
class TestRefs:
    def test_set_get_delete(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        info = store.put({"a": 1}, "json")
        store.set_ref("manual", "mine", info.digest)
        assert store.get_ref("manual", "mine") == info.digest
        assert store.refs("manual") == {("manual", "mine"): info.digest}
        assert store.delete_ref("manual", "mine") is True
        assert store.delete_ref("manual", "mine") is False
        assert store.get_ref("manual", "mine") is None

    def test_awkward_names_are_percent_encoded(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        info = store.put({"a": 1}, "json")
        name = "weird/name with spaces:1"
        store.set_ref("manual", name, info.digest)
        assert store.get_ref("manual", name) == info.digest
        assert ("manual", name) in store.refs()

    def test_malformed_ref_reads_as_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        path = store.ref_path("manual", "bad")
        path.parent.mkdir(parents=True)
        path.write_text("not json", encoding="utf-8")
        assert store.get_ref("manual", "bad") is None
        assert store.refs() == {}

    def test_gc_keeps_referenced_objects(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        kept = store.put({"keep": True}, "json")
        dropped = store.put({"keep": False}, "json")
        store.set_ref("manual", "kept", kept.digest)
        report = store.gc()
        assert report.scanned == 2
        assert report.live == 1
        assert report.removed == 1
        assert report.removed_digests == [dropped.digest]
        assert store.has(kept.digest)
        assert not store.has(dropped.digest)
        assert not store.meta_path(dropped.digest).exists()

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        info = store.put({"a": 1}, "json")
        report = store.gc(dry_run=True)
        assert report.removed == 1
        assert report.dry_run is True
        assert store.has(info.digest)

    def test_verify_reports_every_problem(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.verify() == []
        ok = store.put({"fine": True}, "json")
        bad = store.put({"fine": False}, "json")
        store.object_path(bad.digest).write_bytes(b"garbled")
        store.set_ref("manual", "dangling", "f" * 64)
        problems = store.verify()
        assert any(bad.digest in p and "corrupt" in p for p in problems)
        assert any("dangling" in p for p in problems)
        assert not any(ok.digest in p for p in problems)


# ----------------------------------------------------------------------
# the on-disk layout
# ----------------------------------------------------------------------
class TestLayout:
    """The string-built locations keep the layout ``pathlib`` wrote."""

    DIGEST = content_digest(b'{"layout":1}')

    def test_paths_match_the_pathlib_composition(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        digest = self.DIGEST
        assert store.object_path(digest) == root / "objects" / digest[:2] / digest
        assert store.meta_path(digest) == root / "meta" / f"{digest}.json"
        assert store.ref_path("exec", "plain") == root / "refs" / "exec" / "plain.json"
        name = "weird/name with spaces:1%"
        assert (
            store.ref_path("manual", name)
            == root / "refs" / "manual" / "weird%2Fname%20with%20spaces%3A1%25.json"
        )

    def test_relative_root_matches_too(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ArtifactStore("store")
        digest = self.DIGEST
        assert store.object_path(digest) == Path("store") / "objects" / digest[:2] / digest

    def test_store_written_with_pathlib_reads_back(self, tmp_path):
        # Lay a store out by hand, as the pathlib-built store wrote it.
        root = tmp_path / "store"
        data = b'{"layout":1}'
        digest = content_digest(data)
        blob = root / "objects" / digest[:2] / digest
        blob.parent.mkdir(parents=True)
        blob.write_bytes(data)
        (root / "meta").mkdir()
        (root / "meta" / f"{digest}.json").write_text(
            json.dumps(
                {
                    "schema": 1,
                    "digest": digest,
                    "kind": "document",
                    "codec": "json",
                    "version": 1,
                    "size": len(data),
                    "created_at": 0.0,
                    "meta": {"origin": "pathlib"},
                }
            ),
            encoding="utf-8",
        )
        ref = root / "refs" / "manual" / "a%2Fb.json"
        ref.parent.mkdir(parents=True)
        ref.write_text(json.dumps({"digest": digest}), encoding="utf-8")

        store = ArtifactStore(root)
        assert store.has(digest)
        assert store.get(digest) == {"layout": 1}
        assert store.info(digest).meta == {"origin": "pathlib"}
        assert store.get_ref("manual", "a/b") == digest
        assert store.refs() == {("manual", "a/b"): digest}
        assert store.verify() == []

    def test_writes_create_parents_lazily(self, tmp_path):
        root = tmp_path / "fresh" / "store"
        store = ArtifactStore(root)
        assert not root.exists()
        info = store.put({"a": 1}, "json")
        assert store.object_path(info.digest).is_file()
        assert store.meta_path(info.digest).is_file()
        store.set_ref("first-space", "one", info.digest)
        store.set_ref("second-space", "two", info.digest)
        assert store.refs() == {
            ("first-space", "one"): info.digest,
            ("second-space", "two"): info.digest,
        }
        # No temporary file is left behind by any of the writes.
        assert not [p for p in root.rglob("*.tmp")]

    def test_durable_writes_create_parents_lazily(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        info = store.put({"a": 1}, "json", durable=True)
        store.set_ref("durable", "x", info.digest, durable=True)
        assert store.get_ref("durable", "x") == info.digest
        assert store.get(info.digest) == {"a": 1}


# ----------------------------------------------------------------------
# codec versioning + migrations
# ----------------------------------------------------------------------
class _V2Codec(Codec):
    name = "test-v2"
    kind = "test-doc"
    version = 2

    def encode(self, obj):
        return json.dumps({"v": 2, "payload": obj}, sort_keys=True).encode()

    def decode(self, data):
        document = json.loads(data.decode("utf-8"))
        if document.get("v") != 2:
            raise CodecError(f"not a v2 document: {document!r}")
        return document["payload"]


@pytest.fixture()
def v2_codec():
    register_codec(_V2Codec())
    yield get_codec("test-v2")
    CODECS.pop("test-v2", None)
    MIGRATIONS.pop(("test-v2", 1), None)


class TestMigrations:
    def test_decode_walks_the_migration_chain(self, v2_codec):
        v1_bytes = json.dumps({"v": 1, "data": [1, 2]}).encode()

        def upgrade(data: bytes) -> bytes:
            old = json.loads(data.decode("utf-8"))
            return v2_codec.encode(old["data"])

        register_migration("test-v2", 1, upgrade)
        assert migration_path("test-v2", 1) == [1]
        assert migration_path("test-v2", 2) == []
        assert decode_artifact("test-v2", v1_bytes, 1) == [1, 2]

    def test_missing_migration_step_raises(self, v2_codec):
        with pytest.raises(CodecError, match="no migration"):
            decode_artifact("test-v2", b"{}", 1)
        assert migration_path("test-v2", 1) == []

    def test_newer_version_than_codec_raises(self, v2_codec):
        with pytest.raises(CodecError, match="newer"):
            decode_artifact("test-v2", b"{}", 3)

    def test_store_get_runs_migrations(self, tmp_path, v2_codec):
        register_migration(
            "test-v2",
            1,
            lambda data: v2_codec.encode(json.loads(data.decode())["data"]),
        )
        store = ArtifactStore(tmp_path / "store")
        v1_bytes = json.dumps({"v": 1, "data": "old"}).encode()
        info = store.put_bytes(v1_bytes, "test-doc", "test-v2", 1)
        assert store.get(info.digest) == "old"

    def test_migrate_store_transcodes_and_repoints(self, tmp_path, trace):
        store = ArtifactStore(tmp_path / "store")
        info = store.put(trace, "trace-json")
        store.set_ref("manual", "t", info.digest)
        report = migrate_store(store, "trace-bin")
        assert len(report["migrated"]) == 1
        assert report["refs_repointed"] == 1
        new_digest = store.get_ref("manual", "t")
        assert new_digest != info.digest
        assert store.info(new_digest).codec == "trace-bin"
        assert json.loads(store.get(new_digest).to_json()) == json.loads(
            trace.to_json()
        )


# ----------------------------------------------------------------------
# the exec cache as a store client
# ----------------------------------------------------------------------
class TestCacheStoreClient:
    def test_entries_are_store_refs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        blob = cache.store("exp", {"n": 1}, {"metrics": {"x": 1.0}})
        assert blob.is_file()
        refs = cache.store_backend.refs(CACHE_REF_NAMESPACE)
        assert len(refs) == 1
        (namespace, name), digest = next(iter(refs.items()))
        assert namespace == CACHE_REF_NAMESPACE
        assert name.startswith("exp-")
        assert cache.store_backend.object_path(digest) == blob

    def test_corrupt_entry_is_a_counted_observable_miss(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache", verbose=True)
        blob = cache.store("exp", {"n": 1}, {"metrics": {}})
        with capture(categories=[Category.STORE]) as recorder:
            cache_again = ResultCache(tmp_path / "cache", verbose=True)
            blob.write_bytes(b"\x00 garbled \xff")
            assert cache_again.load("exp", {"n": 1}) is None
        assert cache_again.stats.misses == 1
        assert cache_again.stats.corruptions == 1
        assert cache_again.stats.as_dict()["corruptions"] == 1
        events = [e for e in recorder.events if isinstance(e, CacheCorruptionEvent)]
        assert len(events) == 1
        assert events[0].path == str(blob)
        assert str(blob) in capsys.readouterr().err

    def test_plain_miss_is_not_a_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.load("exp", {"n": 1}) is None
        assert cache.stats.misses == 1
        assert cache.stats.corruptions == 0
        assert "corruptions" not in cache.stats.as_dict()

    def test_clear_spares_other_namespaces(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store("exp", {"n": 1}, {"metrics": {}})
        pinned = cache.store_backend.put({"keep": True}, "json")
        cache.store_backend.set_ref("manual", "pin", pinned.digest)
        assert cache.clear() == 1
        assert cache.load("exp", {"n": 1}) is None
        assert cache.store_backend.has(pinned.digest)

    def test_stats_dict_shape_is_stable(self):
        # The manifest equality tests depend on exactly these keys.
        assert CacheStats(hits=1, misses=2, stores=3).as_dict() == {
            "hits": 1,
            "misses": 2,
            "stores": 3,
        }
