"""Content-addressed on-disk result store.

Layout (all JSON, human-inspectable)::

    <root>/objects/<key[:2]>/<key>.json

where ``key`` is the job's content hash (:meth:`repro.harness.job.Job.key`).
Because the schema version is baked into the hash, a version bump
simply stops finding old entries; :meth:`ResultCache.get` additionally
verifies the stored schema/key so a corrupt or foreign file degrades
to a miss, never to a wrong result.

Writes are atomic (temp file in the destination directory, then
``os.replace``), so concurrent writers -- e.g. two batch runs sharing
a cache -- can only ever race to install identical bytes.

A blob that fails validation anyway (a crashed writer on a filesystem
without atomic-rename durability, a truncating copy, a flipped bit)
is **quarantined**: moved aside into ``<root>/quarantine/`` and
counted as a miss, so the serve worker never re-trips on the same
corrupt file and an operator can inspect what went wrong.  Artifacts
get the same treatment via a ``<name>.sha256`` sidecar written next
to every artifact blob.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.harness.job import CACHE_SCHEMA_VERSION, canonical_json

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Summary of what the store currently holds (results and named
    artifacts are counted separately)."""

    root: str
    entries: int
    total_bytes: int
    artifacts: int = 0
    artifact_bytes: int = 0

    def format(self) -> str:
        """One-line human rendering."""
        kib = self.total_bytes / 1024
        akib = self.artifact_bytes / 1024
        return (
            f"{self.entries} cached result(s), {kib:.1f} KiB + "
            f"{self.artifacts} artifact(s), {akib:.1f} KiB "
            f"under {self.root} (schema v{CACHE_SCHEMA_VERSION})"
        )


def _unlink_quiet(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _atomic_write(path: Path, blob: bytes) -> Path:
    """Install ``blob`` at ``path`` atomically (temp file in the
    destination directory, then ``os.replace``).

    Safe under concurrent multi-process writers: two processes racing
    on one key each write a private temp file and the final rename is
    atomic, so readers only ever see a complete record.  A concurrent
    ``clear()`` can delete the parent directory between our ``mkdir``
    and the write/rename -- that surfaces as ``FileNotFoundError``, and
    we simply re-create the directory and retry.
    """
    last_error: Optional[BaseException] = None
    for _ in range(5):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError as exc:
            # exist_ok's own is_dir() recheck races against a
            # concurrent clear(): treat it like any other retryable
            # directory churn.
            last_error = exc
            continue
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except FileNotFoundError as exc:  # parent raced away: retry
            last_error = exc
            continue
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
            return path
        except FileNotFoundError as exc:  # ditto, between mkstemp/replace
            _unlink_quiet(tmp)
            last_error = exc
            continue
        except BaseException:
            _unlink_quiet(tmp)
            raise
    raise last_error  # repeated strikes: the directory will not stay put


class ResultCache:
    """Content-addressed JSON blob store keyed by job hash."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    @property
    def objects_dir(self) -> Path:
        """Directory holding the sharded result blobs."""
        return self.root / "objects"

    def path_for(self, key: str) -> Path:
        """Blob path for a job hash."""
        return self.objects_dir / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt blobs are moved aside for inspection."""
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> None:
        """Move a failed-validation file out of the lookup path so it
        reads as a clean miss forever after (best-effort: a concurrent
        quarantine of the same file wins the rename race).  The
        destination name folds in the parent directories so artifacts
        named identically under different keys cannot collide."""
        try:
            relative = path.relative_to(self.root)
        except ValueError:
            relative = Path(path.name)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / "_".join(relative.parts))
        except OSError:
            pass

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Cached result for ``key``, or ``None`` on any kind of miss.
        A file that exists but fails validation -- truncated JSON from
        a crashed writer, foreign schema, mismatched key -- is
        quarantined, never raised.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            return None
        if (not isinstance(record, dict)
                or record.get("schema") != CACHE_SCHEMA_VERSION
                or record.get("key") != key
                or "result" not in record):
            self._quarantine(path)
            return None
        return record["result"]

    def put(self, key: str, fn: str, result: Any) -> Path:
        """Atomically store ``result`` under ``key``.

        The record is canonical JSON of deterministic fields only, so
        the same job always produces a byte-identical blob regardless
        of which process or machine computed it.
        """
        record = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "fn": fn,
            "result": result,
        }
        blob = canonical_json(record)
        return _atomic_write(self.path_for(key), blob)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # artifacts: named blobs riding alongside a keyed result (traces,
    # heatmaps, Chrome exports) -- opaque bytes, not schema-checked

    @property
    def artifacts_dir(self) -> Path:
        """Directory holding per-key artifact files."""
        return self.root / "artifacts"

    def artifact_path(self, key: str, name: str) -> Path:
        """On-disk path of artifact ``name`` for result ``key``."""
        if "/" in name or name.startswith("."):
            raise ValueError(f"invalid artifact name {name!r}")
        return self.artifacts_dir / key[:2] / key / name

    #: Sidecar suffix carrying each artifact's content hash.
    ARTIFACT_DIGEST_SUFFIX = ".sha256"

    def put_artifact(self, key: str, name: str, data) -> Path:
        """Atomically store an artifact (``bytes`` or ``str``) plus a
        ``<name>.sha256`` integrity sidecar.

        Artifacts are opaque bytes, so unlike result blobs they carry
        no self-validating structure; the sidecar is what lets
        :meth:`get_artifact` tell a truncated blob (crashed writer,
        torn copy) from a healthy one."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        path = self.artifact_path(key, name)
        _atomic_write(path, data)
        digest = hashlib.sha256(data).hexdigest()
        _atomic_write(path.with_name(name + self.ARTIFACT_DIGEST_SUFFIX),
                      digest.encode("ascii"))
        return path

    def get_artifact(self, key: str, name: str) -> Optional[bytes]:
        """Stored artifact bytes, or ``None`` when absent/unreadable.

        When an integrity sidecar exists and disagrees with the blob's
        actual hash, both files are quarantined and the read counts as
        a miss (pre-sidecar artifacts, with no sidecar at all, are
        served as-is)."""
        path = self.artifact_path(key, name)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        sidecar = path.with_name(name + self.ARTIFACT_DIGEST_SUFFIX)
        try:
            expected = sidecar.read_text(encoding="ascii").strip()
        except (OSError, UnicodeDecodeError):
            return blob  # no (readable) sidecar: legacy artifact
        if hashlib.sha256(blob).hexdigest() != expected:
            self._quarantine(path)
            self._quarantine(sidecar)
            return None
        return blob

    # ------------------------------------------------------------------

    @staticmethod
    def _walk(base: Path, pattern: str):
        """``base.rglob(pattern)``, tolerant of directories a concurrent
        ``clear()`` deletes mid-walk (pathlib only swallows
        ``PermissionError``; a vanished directory must be a no-op too)."""
        try:
            yield from sorted(base.rglob(pattern))
        except FileNotFoundError:
            return

    def _artifact_files(self, include_sidecars: bool = True):
        if not self.artifacts_dir.is_dir():
            return
        for path in self._walk(self.artifacts_dir, "*"):
            if not path.is_file() or path.suffix == ".tmp":
                continue
            if (not include_sidecars
                    and path.suffix == self.ARTIFACT_DIGEST_SUFFIX):
                continue
            yield path

    def _stray_tmp_files(self):
        """Orphaned ``.tmp`` files (a writer died mid-``put``)."""
        for base in (self.objects_dir, self.artifacts_dir):
            if not base.is_dir():
                continue
            for path in self._walk(base, "*.tmp"):
                if path.is_file():
                    yield path

    def _blobs(self):
        if not self.objects_dir.is_dir():
            return
        try:
            shards = sorted(self.objects_dir.iterdir())
        except FileNotFoundError:
            return
        for shard in shards:
            if not shard.is_dir():
                continue
            for blob in self._walk(shard, "*.json"):
                yield blob

    def stats(self) -> CacheStats:
        """Entry/artifact counts and on-disk footprint."""
        entries = 0
        total = 0
        for blob in self._blobs():
            try:
                total += blob.stat().st_size
            except OSError:
                continue
            entries += 1
        artifacts = 0
        artifact_bytes = 0
        for path in self._artifact_files(include_sidecars=False):
            try:
                artifact_bytes += path.stat().st_size
            except OSError:
                continue
            artifacts += 1
        return CacheStats(str(self.root), entries, total,
                          artifacts, artifact_bytes)

    def clear(self) -> int:
        """Delete every stored result and artifact (plus any orphaned
        temp files and quarantined blobs); returns the count of files
        removed (integrity sidecars ride along uncounted)."""
        removed = 0
        for blob in list(self._blobs()):
            try:
                blob.unlink()
            except OSError:
                continue
            removed += 1
        if self.quarantine_dir.is_dir():
            for path in list(self._walk(self.quarantine_dir, "*")):
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
            try:
                self.quarantine_dir.rmdir()
            except OSError:
                pass
        for path in list(self._artifact_files()):
            counted = path.suffix != self.ARTIFACT_DIGEST_SUFFIX
            try:
                path.unlink()
            except OSError:
                continue
            if counted:
                removed += 1
        for path in list(self._stray_tmp_files()):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if self.objects_dir.is_dir():
            for shard in reversed(list(self._walk(self.objects_dir, "*"))):
                try:
                    shard.rmdir()
                except OSError:
                    pass
        if self.artifacts_dir.is_dir():
            # prune now-empty <shard>/<key> directories bottom-up
            for directory in reversed(list(self._walk(self.artifacts_dir,
                                                      "*"))):
                try:
                    directory.rmdir()
                except OSError:
                    pass
        return removed


class NullCache:
    """Cache stand-in that never hits and never stores (``--no-cache``)."""

    def get(self, key: str):  # noqa: D102 -- trivial
        return None

    def put(self, key: str, fn: str, result: Any):  # noqa: D102
        return None

    def put_artifact(self, key: str, name: str, data):  # noqa: D102
        return None

    def get_artifact(self, key: str, name: str):  # noqa: D102
        return None

    def __contains__(self, key: str) -> bool:
        return False
