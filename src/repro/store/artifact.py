"""The content-addressed artifact store.

One directory holds every durable artifact the system produces —
device traces, experiment results, corpus entries — as digest-keyed
blobs plus human-meaningful *refs* pointing at them:

* ``objects/<d2>/<digest>`` — the raw codec bytes; the file name is the
  SHA-256 of the content, so identical artifacts dedupe for free and a
  flipped bit is detected on read instead of silently decoded.
* ``meta/<digest>.json`` — the artifact manifest: which codec wrote it,
  at which format version, how big it is, plus free-form metadata.
* ``refs/<namespace>/<name>.json`` — a named pointer to a digest
  (exec-cache keys, serve sessions, memoized corpus replays).  Refs are
  the GC roots: :meth:`ArtifactStore.gc` deletes every object no ref
  reaches.

Writes are atomic (tmp file + rename) and idempotent by digest.  The
default location is ``$REPRO_STORE_DIR``, else
``$XDG_DATA_HOME/repro/store``, else ``~/.local/share/repro/store``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union
from urllib.parse import quote, unquote

from ..faults import fault_point, filter_read, filter_write
from .codecs import decode_artifact, get_codec

PathLike = Union[str, Path]

STORE_ENV_VAR = "REPRO_STORE_DIR"
STORE_SCHEMA = 1


def default_store_dir() -> Path:
    """The store directory used when none is given explicitly."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_DATA_HOME")
    base = Path(xdg) if xdg else Path.home() / ".local" / "share"
    return base / "repro" / "store"


class StoreError(RuntimeError):
    """Something about the store itself went wrong."""


class ArtifactNotFoundError(StoreError):
    """A digest has no object in this store."""

    def __init__(self, digest: str) -> None:
        super().__init__(f"no artifact {digest!r} in the store")
        self.digest = digest


class ArtifactCorruptError(StoreError):
    """An object's bytes no longer hash to its digest."""

    def __init__(self, digest: str, actual: str) -> None:
        super().__init__(
            f"artifact {digest!r} is corrupt: content hashes to {actual!r}"
        )
        self.digest = digest
        self.actual = actual


@dataclass(frozen=True)
class ArtifactInfo:
    """One artifact's manifest record."""

    digest: str
    kind: str
    codec: str
    version: int
    size: int
    created_at: float
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what ``meta/<digest>.json`` holds)."""
        return {
            "schema": STORE_SCHEMA,
            "digest": self.digest,
            "kind": self.kind,
            "codec": self.codec,
            "version": self.version,
            "size": self.size,
            "created_at": self.created_at,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ArtifactInfo":
        """Rebuild from :meth:`to_dict` data."""
        return cls(
            digest=str(data["digest"]),
            kind=str(data["kind"]),
            codec=str(data["codec"]),
            version=int(data["version"]),
            size=int(data["size"]),
            created_at=float(data.get("created_at", 0.0)),
            meta=dict(data.get("meta", {})),
        )


@dataclass
class GcReport:
    """What one garbage-collection pass did (or would do)."""

    scanned: int = 0
    live: int = 0
    removed: int = 0
    freed_bytes: int = 0
    dry_run: bool = False
    removed_digests: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (for the CLI)."""
        return {
            "scanned": self.scanned,
            "live": self.live,
            "removed": self.removed,
            "freed_bytes": self.freed_bytes,
            "dry_run": self.dry_run,
            "removed_digests": list(self.removed_digests),
        }


def content_digest(data: bytes) -> str:
    """The store's content address: SHA-256 hex of the raw bytes."""
    return hashlib.sha256(data).hexdigest()


def _fsync_dir(directory: str) -> None:
    """Flush a directory entry (rename durability); no-op where unsupported."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir fsync
        pass
    finally:
        os.close(fd)


class ArtifactStore:
    """Digest-keyed blobs + typed codecs + named refs under one root."""

    def __init__(self, directory: Optional[PathLike] = None) -> None:
        self.directory = Path(directory) if directory else default_store_dir()
        # The read/write path formats plain strings under this root:
        # pathlib's parsing on every ``/`` is most of a memo probe's cost.
        self._root = str(self.directory)
        self._bus = None  # lazily created so capture() can hook it

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _object_file(self, digest: str) -> str:
        return f"{self._root}/objects/{digest[:2]}/{digest}"

    def _meta_file(self, digest: str) -> str:
        return f"{self._root}/meta/{digest}.json"

    def _ref_file(self, namespace: str, name: str) -> str:
        return f"{self._root}/refs/{namespace}/{quote(name, safe='')}.json"

    def object_path(self, digest: str) -> Path:
        """Where a digest's blob lives."""
        return Path(self._object_file(digest))

    def meta_path(self, digest: str) -> Path:
        """Where a digest's manifest lives."""
        return Path(self._meta_file(digest))

    def ref_path(self, namespace: str, name: str) -> Path:
        """Where a named pointer lives (name percent-encoded)."""
        return Path(self._ref_file(namespace, name))

    # ------------------------------------------------------------------
    # blobs
    # ------------------------------------------------------------------
    def put_bytes(
        self,
        data: bytes,
        kind: str,
        codec: str,
        version: int,
        meta: Optional[Dict[str, Any]] = None,
        durable: bool = False,
    ) -> ArtifactInfo:
        """Store raw codec output; idempotent by content digest.

        ``durable=True`` fsyncs the blob and manifest (file and
        directory) before the publish — the write survives a crash and
        cannot be torn, at the cost of the syncs.
        """
        digest = content_digest(data)
        info = ArtifactInfo(
            digest=digest,
            kind=kind,
            codec=codec,
            version=version,
            size=len(data),
            created_at=time.time(),
            meta=dict(meta or {}),
        )
        blob = self._object_file(digest)
        if not os.path.exists(blob):
            self._atomic_write(blob, data, durable=durable)
        manifest = self._meta_file(digest)
        if not os.path.exists(manifest):
            self._atomic_write(
                manifest,
                json.dumps(info.to_dict(), indent=2, sort_keys=True).encode("utf-8"),
                durable=durable,
            )
        self._publish_stored(info)
        return info

    def put(
        self,
        obj: Any,
        codec_name: str,
        meta: Optional[Dict[str, Any]] = None,
        durable: bool = False,
    ) -> ArtifactInfo:
        """Encode ``obj`` with a registered codec and store the bytes."""
        codec = get_codec(codec_name)
        return self.put_bytes(
            codec.encode(obj), codec.kind, codec.name, codec.version, meta,
            durable=durable,
        )

    def evict(self, digest: str) -> bool:
        """Drop one object (blob + manifest) so a re-put can rewrite it.

        The repair path for detected corruption: :meth:`put_bytes` is
        idempotent by digest and will not overwrite an existing — possibly
        torn — blob, so the bad bytes must be evicted first.  Returns
        whether a blob existed.
        """
        blob = self.object_path(digest)
        existed = blob.is_file()
        blob.unlink(missing_ok=True)
        self.meta_path(digest).unlink(missing_ok=True)
        return existed

    def has(self, digest: str) -> bool:
        """Whether a blob for ``digest`` exists."""
        return os.path.isfile(self._object_file(digest))

    def get_bytes(self, digest: str, verify: bool = True) -> bytes:
        """Read a blob back, verifying its content address by default."""
        try:
            with open(self._object_file(digest), "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise ArtifactNotFoundError(digest) from exc
        data = filter_read("store.read", data)
        if verify:
            actual = content_digest(data)
            if actual != digest:
                raise ArtifactCorruptError(digest, actual)
        return data

    def info(self, digest: str) -> ArtifactInfo:
        """An artifact's manifest record."""
        try:
            with open(self._meta_file(digest), "rb") as handle:
                data = json.loads(handle.read())
        except OSError as exc:
            raise ArtifactNotFoundError(digest) from exc
        except (ValueError, KeyError) as exc:
            raise StoreError(f"manifest for {digest!r} is malformed: {exc}") from exc
        try:
            return ArtifactInfo.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"manifest for {digest!r} is malformed: {exc}") from exc

    def get(self, digest: str) -> Any:
        """Load and decode one artifact (running migrations as needed)."""
        info = self.info(digest)
        data = self.get_bytes(digest)
        return decode_artifact(info.codec, data, info.version)

    def artifacts(self) -> Iterator[ArtifactInfo]:
        """Every artifact manifest in the store (sorted by digest)."""
        meta_dir = self.directory / "meta"
        if not meta_dir.is_dir():
            return
        for path in sorted(meta_dir.glob("*.json")):
            try:
                yield ArtifactInfo.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError, KeyError, TypeError):
                continue  # surfaced by verify(), not by iteration

    # ------------------------------------------------------------------
    # refs
    # ------------------------------------------------------------------
    def set_ref(
        self, namespace: str, name: str, digest: str, durable: bool = False
    ) -> Path:
        """Point ``refs/<namespace>/<name>`` at ``digest``."""
        path = self._ref_file(namespace, name)
        self._atomic_write(
            path,
            json.dumps(
                {"digest": digest, "updated_at": time.time()}, sort_keys=True
            ).encode("utf-8"),
            durable=durable,
        )
        return Path(path)

    def get_ref(self, namespace: str, name: str) -> Optional[str]:
        """The digest a ref points at, or None (malformed counts as None)."""
        try:
            with open(self._ref_file(namespace, name), "rb") as handle:
                data = json.loads(handle.read())
            return str(data["digest"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def delete_ref(self, namespace: str, name: str) -> bool:
        """Remove a ref; returns whether it existed."""
        path = self.ref_path(namespace, name)
        if path.is_file():
            path.unlink()
            return True
        return False

    def refs(self, namespace: Optional[str] = None) -> Dict[Tuple[str, str], str]:
        """Every ref (optionally one namespace) as ``(ns, name) -> digest``."""
        refs_dir = self.directory / "refs"
        out: Dict[Tuple[str, str], str] = {}
        if not refs_dir.is_dir():
            return out
        spaces = (
            [refs_dir / namespace]
            if namespace is not None
            else sorted(p for p in refs_dir.iterdir() if p.is_dir())
        )
        for space in spaces:
            if not space.is_dir():
                continue
            for path in sorted(space.glob("*.json")):
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                    digest = str(data["digest"])
                except (OSError, ValueError, KeyError, TypeError):
                    continue
                out[(space.name, unquote(path.stem))] = digest
        return out

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def gc(self, dry_run: bool = False) -> GcReport:
        """Delete every object no ref reaches; refs are the only roots."""
        live = set(self.refs().values())
        report = GcReport(dry_run=dry_run)
        objects_dir = self.directory / "objects"
        if not objects_dir.is_dir():
            return report
        for blob in sorted(objects_dir.glob("*/*")):
            if not blob.is_file():
                continue
            report.scanned += 1
            digest = blob.name
            if digest in live:
                report.live += 1
                continue
            report.removed += 1
            report.freed_bytes += blob.stat().st_size
            report.removed_digests.append(digest)
            if not dry_run:
                blob.unlink(missing_ok=True)
                self.meta_path(digest).unlink(missing_ok=True)
        return report

    def verify(self) -> List[str]:
        """Re-hash every object and cross-check refs; returns problems."""
        problems: List[str] = []
        objects_dir = self.directory / "objects"
        seen = set()
        if objects_dir.is_dir():
            for blob in sorted(objects_dir.glob("*/*")):
                if not blob.is_file():
                    continue
                digest = blob.name
                seen.add(digest)
                actual = content_digest(blob.read_bytes())
                if actual != digest:
                    problems.append(
                        f"object {digest} is corrupt (hashes to {actual})"
                    )
                elif not self.meta_path(digest).is_file():
                    problems.append(f"object {digest} has no manifest")
        for (namespace, name), digest in self.refs().items():
            if digest not in seen:
                problems.append(
                    f"ref {namespace}/{name} dangles (no object {digest})"
                )
        return problems

    def stats(self) -> Dict[str, Any]:
        """Object/ref counts and total payload bytes (for manifests)."""
        objects = 0
        total = 0
        objects_dir = self.directory / "objects"
        if objects_dir.is_dir():
            for blob in objects_dir.glob("*/*"):
                if blob.is_file():
                    objects += 1
                    total += blob.stat().st_size
        return {
            "directory": str(self.directory),
            "objects": objects,
            "bytes": total,
            "refs": len(self.refs()),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _atomic_write(path: str, data: bytes, durable: bool = False) -> None:
        data = filter_write("store.write", data, durable=durable)
        tmp = path + ".tmp"
        try:
            handle = open(tmp, "wb")
        except FileNotFoundError:
            # First write into this directory: create it, then retry.
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle = open(tmp, "wb")
        with handle:
            handle.write(data)
            if durable:
                fault_point("store.fsync")
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if durable:
            _fsync_dir(os.path.dirname(path))

    def _publish_stored(self, info: ArtifactInfo) -> None:
        from ..telemetry import ArtifactStoredEvent, TelemetryBus

        if self._bus is None:
            self._bus = TelemetryBus()
        self._bus.publish(
            ArtifactStoredEvent(
                time=0.0,
                digest=info.digest,
                kind=info.kind,
                codec=info.codec,
                size=info.size,
            )
        )
