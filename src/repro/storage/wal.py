"""Durable storage for session databases: snapshot + changeset WAL.

The paper's bargain is a heavy preprocessing phase bought once so that
enumeration is constant-delay forever after — which makes losing that
investment to a process restart especially galling.  :class:`DurableStore`
makes a :class:`repro.session.Database` restartable with the classic
snapshot-plus-write-ahead-log design:

``MANIFEST.json``
    Points at the current snapshot and records its lineage position
    (version, generation) and content fingerprint.  Swapped atomically
    (write to a temp file, fsync, ``os.replace``), so a crash during
    checkpoint leaves either the old or the new manifest — never a torn
    one.

``wal.00001.jsonl``, ``wal.00002.jsonl``, …
    The write-ahead log, segmented so a busy tail never outgrows one
    file: appends roll to a fresh segment once the active one passes
    ``segment_bytes``.  Each line is one JSON record per committed
    changeset — the PR 5 JSONL changeset format, framed with the
    commit's version interval and a CRC so a torn tail is detectable.
    Appends are flushed and fsync'd *before* the commit is acknowledged;
    recovery replays every intact record past the snapshot across all
    segments in order and truncates at the first torn record (an
    unacknowledged commit, by construction).  A checkpoint retires
    whole segments.  A pre-segmentation ``wal.jsonl`` is still read
    (oldest first) for stores written by earlier builds.

``warm-<version>.pickle``
    Optional spill of the warm pipeline cache (preprocessing output) so
    a reopened database answers its first query without re-running
    Proposition 3.4.  Strictly an accelerator: it is validated against
    the manifest lineage and silently ignored when stale, unreadable or
    of another format (``WARM_FORMAT``; format 6 keys each pipeline by
    ``(normalized formula, order)`` and pickles the immutable
    colored-graph nodes, the graph's free-id list, its link-radius
    balls and one degree per node — and no adjacency, which format 5
    still carried).  The spill is
    *incremental*: each cached pipeline is pickled into its own blob
    (with the head structure factored out via a pickle persistent id),
    and a checkpoint re-pickles only the plans whose durable state
    changed since the last one — clean plans reuse their previous blob
    byte-for-byte.

The crash-safety contract: a commit is durable once ``db.apply()`` /
``Transaction.commit()`` returns.  Kill the process at any byte of any
WAL segment and :meth:`repro.session.Database.open` restores exactly the
acknowledged prefix of commits — fingerprint- and answer-identical to
the pre-crash state.

Replication readers use the *read-only* surface — :meth:`load_snapshot`
and :meth:`records_since` — which never truncates, rotates, or otherwise
mutates the directory: a follower may tail a leader's live store without
racing its appends.

Named crash points (:func:`repro.util.faults.crash_point`) mark the
moments where a process death is most damaging — ``wal.append.before`` /
``wal.append.torn`` / ``wal.append.after-sync``, ``checkpoint.
after-snapshot`` / ``checkpoint.after-manifest`` / ``checkpoint.done`` —
so the fault-injection suite can kill a store at each of them and prove
recovery.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import re
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import DurabilityError, DurabilityWarning
from repro.structures import serialize
from repro.structures.structure import Structure
from repro.util.faults import crash_point

Element = Hashable
UpdateOp = Tuple[bool, str, Tuple[Element, ...]]

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.jsonl"  # pre-segmentation log, still read for old stores
FORMAT_VERSION = 1
WARM_FORMAT = 6
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^wal\.(\d{5,})\.jsonl$")


def segment_name(index: int) -> str:
    return f"wal.{index:05d}.jsonl"


def _decode_element(value):
    """JSON round-trip for elements: lists come back as tuples.

    Structure elements must be hashable; JSON has no tuple, so tuple
    elements (e.g. grid coordinates) are stored as lists and restored
    here.  Durable databases therefore require JSON-representable
    elements — ints, strings, and (nested) tuples thereof.
    """
    if isinstance(value, list):
        return tuple(_decode_element(item) for item in value)
    return value


def _encode_ops(ops: Sequence[UpdateOp]) -> list:
    return [
        [1 if insert else 0, relation, list(elements)]
        for insert, relation, elements in ops
    ]


def _decode_ops(raw) -> Tuple[UpdateOp, ...]:
    ops = []
    for insert, relation, elements in raw:
        ops.append(
            (bool(insert), relation, tuple(_decode_element(e) for e in elements))
        )
    return tuple(ops)


def _record_crc(payload: dict) -> int:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


@dataclass(frozen=True)
class WalRecord:
    """One acknowledged commit: the version interval it spans, the
    lineage generation it landed on, and its effective ops."""

    version_before: int
    version_after: int
    generation: int
    ops: Tuple[UpdateOp, ...]

    def to_line(self) -> str:
        payload = {
            "b": self.version_before,
            "v": self.version_after,
            "g": self.generation,
            "ops": _encode_ops(self.ops),
        }
        payload["c"] = _record_crc(
            {k: payload[k] for k in ("b", "v", "g", "ops")}
        )
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_line(line: str) -> Optional["WalRecord"]:
        """Parse one WAL line; ``None`` when torn or corrupt."""
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            crc = payload["c"]
            body = {k: payload[k] for k in ("b", "v", "g", "ops")}
        except (KeyError, TypeError):
            return None
        if _record_crc(body) != crc:
            return None
        try:
            ops = _decode_ops(body["ops"])
        except (TypeError, ValueError):
            return None
        return WalRecord(
            version_before=body["b"],
            version_after=body["v"],
            generation=body["g"],
            ops=ops,
        )


@dataclass(frozen=True)
class RestoredState:
    """What :meth:`DurableStore.restore` hands back to the session."""

    structure: Structure
    warm_structure: Optional[Structure]
    warm_entries: Tuple[tuple, ...]
    records: Tuple[WalRecord, ...]
    truncated_bytes: int


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of one checkpoint: the snapshot's lineage position, how
    many warm pipelines were spilled (and how many reused their previous
    blob unchanged), and how many WAL records/bytes/segments the
    rotation retired."""

    version: int
    generation: int
    fingerprint: str
    warm_entries: int
    wal_records_retired: int
    path: str
    wal_bytes_retired: int = 0
    wal_segments_retired: int = 0
    warm_reused: int = 0


# Evaluator memo caches and armed enumerators rebuild on demand; they
# must never reach a spill blob, or a reused blob would resurrect memos
# computed against an older structure state.
_VOLATILE_EVALUATOR_ATTRS = ("_ball_cache", "_memo", "_unary_cache")


@contextmanager
def _volatile_stripped(pipeline):
    """Temporarily detach a pipeline's query-time caches for pickling.

    The live objects are swapped out (not cleared), so concurrent
    readers keep their warm caches; the pickled bytes see empty ones.
    """
    saved = []
    evaluator = getattr(pipeline, "evaluator", None)
    if evaluator is not None:
        for attr in _VOLATILE_EVALUATOR_ATTRS:
            current = getattr(evaluator, attr, None)
            if isinstance(current, dict) and current:
                saved.append((evaluator, attr, current))
                setattr(evaluator, attr, {})
    armed = pipeline.__dict__.pop("_armed_branches", None)
    try:
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
        if armed is not None:
            pipeline.__dict__.setdefault("_armed_branches", armed)


_HEAD_PID = "repro-head-structure"


def _dumps_with_head(obj, head: Structure) -> bytes:
    """Pickle ``obj`` with the head structure factored out by reference,
    so per-entry blobs stay valid across checkpoints of a moving head."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda o: _HEAD_PID if o is head else None
    pickler.dump(obj)
    return buffer.getvalue()


def _loads_with_head(blob: bytes, head: Structure):
    unpickler = pickle.Unpickler(io.BytesIO(blob))

    def persistent_load(pid):
        if pid == _HEAD_PID:
            return head
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")

    unpickler.persistent_load = persistent_load
    return unpickler.load()


class DurableStore:
    """A directory holding one database: manifest, snapshot, WAL, spill.

    ``sync=False`` trades the fsync-per-commit durability guarantee for
    speed (data still reaches the OS on every append) — useful for tests
    and benchmarks; production stores should keep the default.
    ``segment_bytes`` bounds one WAL segment: appends roll to a fresh
    ``wal.NNNNN.jsonl`` once the active segment passes it.
    """

    def __init__(
        self,
        path,
        sync: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        self.path = os.fspath(path)
        self.sync = sync
        self.segment_bytes = max(1, int(segment_bytes))
        self._wal_handle: Optional[io.TextIOWrapper] = None
        self._active_index = 0
        self._active_bytes = 0
        # Records since the last checkpoint; lazily seeded from the files
        # so stats() stays O(1) on the append path.
        self._wal_records: Optional[int] = None
        # Incremental spill: (normalized, order) -> last pickled
        # blob, seeded from the warm file on restore and refreshed
        # per checkpoint; clean plans reuse their blob byte-for-byte.
        self._warm_blobs: Dict[tuple, bytes] = {}

    # -- lifecycle ------------------------------------------------------

    def exists(self) -> bool:
        return os.path.isfile(os.path.join(self.path, MANIFEST_NAME))

    def close(self) -> None:
        if self._wal_handle is not None:
            try:
                self._wal_handle.close()
            finally:
                self._wal_handle = None
                self._active_index = 0
                self._active_bytes = 0

    # -- low-level file helpers -----------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.path, segment_name(index))

    def segment_indices(self) -> List[int]:
        """Sorted indices of the numbered segments on disk."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        indices = []
        for name in names:
            match = _SEGMENT_RE.match(name)
            if match:
                indices.append(int(match.group(1)))
        indices.sort()
        return indices

    def wal_paths(self) -> List[str]:
        """Every WAL file in replay order (legacy single file first)."""
        paths = []
        legacy = os.path.join(self.path, WAL_NAME)
        if os.path.isfile(legacy):
            paths.append(legacy)
        paths.extend(self._segment_path(i) for i in self.segment_indices())
        return paths

    def _write_atomic(self, name: str, data: bytes) -> None:
        target = os.path.join(self.path, name)
        tmp = target + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
        os.replace(tmp, target)
        if self.sync:
            self._sync_dir()

    def _sync_dir(self) -> None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return  # e.g. Windows: directories are not fsync-able
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _read_manifest(self) -> dict:
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise DurabilityError(
                f"unreadable manifest at {self._manifest_path()}: {error}"
            ) from None
        if manifest.get("format") != FORMAT_VERSION:
            raise DurabilityError(
                f"unsupported store format {manifest.get('format')!r} "
                f"(this build reads format {FORMAT_VERSION})"
            )
        return manifest

    def manifest_version(self) -> int:
        """The snapshot base version (read-only; for tailing followers)."""
        return self._read_manifest()["version"]

    # -- checkpoint / initialize ----------------------------------------

    def initialize(self, structure: Structure) -> CheckpointResult:
        """Create the store directory with an initial snapshot."""
        os.makedirs(self.path, exist_ok=True)
        if self.exists():
            raise DurabilityError(f"{self.path} already holds a database")
        return self.checkpoint(structure, ())

    def checkpoint(
        self,
        structure: Structure,
        warm_entries: Sequence[tuple],
        dirty_keys: Optional[set] = None,
    ) -> CheckpointResult:
        """Rotate the log into a fresh snapshot (plus warm spill).

        Write order is the crash-safety argument: (1) snapshot and spill
        land under new names, (2) the manifest swaps atomically to point
        at them, (3) the WAL segments are removed, (4) superseded files
        are removed.  A crash between (2) and (3) leaves WAL records at
        or below the snapshot version; recovery skips them by version
        interval.

        ``warm_entries`` are ``(normalized, order, pipeline)`` tuples;
        ``dirty_keys`` names the ``(normalized, order)`` pairs whose
        plan state changed since the previous checkpoint —
        everything else reuses its previous blob.  ``None`` (the default
        for legacy callers) re-pickles everything.
        """
        os.makedirs(self.path, exist_ok=True)
        fingerprint = structure.content_fingerprint()
        version, generation = structure.version, structure.generation
        snapshot_name = f"snapshot-{version}.struct"
        self._write_atomic(
            snapshot_name, serialize.dumps(structure).encode("utf-8")
        )
        crash_point("checkpoint.after-snapshot")
        warm_name, spilled, reused = self._spill_warm(
            structure, warm_entries, dirty_keys, fingerprint
        )

        previous = None
        if self.exists():
            previous = self._read_manifest()
        pre = self.stats()
        manifest = {
            "format": FORMAT_VERSION,
            "snapshot": snapshot_name,
            "warm": warm_name,
            "version": version,
            "generation": generation,
            "fingerprint": fingerprint,
        }
        self._write_atomic(
            MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        )
        crash_point("checkpoint.after-manifest")
        self._reset_wal()
        self._remove_superseded(previous, manifest)
        crash_point("checkpoint.done")
        return CheckpointResult(
            version=version,
            generation=generation,
            fingerprint=fingerprint,
            warm_entries=spilled,
            wal_records_retired=pre["wal_records"],
            path=self.path,
            wal_bytes_retired=pre["wal_bytes"],
            wal_segments_retired=pre["wal_segments"],
            warm_reused=reused,
        )

    def _spill_warm(
        self,
        structure: Structure,
        warm_entries: Sequence[tuple],
        dirty_keys: Optional[set],
        fingerprint: str,
    ) -> Tuple[Optional[str], int, int]:
        """Write the incremental warm spill; returns
        ``(file name or None, entries spilled, blobs reused)``."""
        if not warm_entries:
            self._warm_blobs.clear()
            return None, 0, 0
        version, generation = structure.version, structure.generation
        try:
            structure_blob = pickle.dumps(
                structure, protocol=pickle.HIGHEST_PROTOCOL
            )
        except (
            pickle.PicklingError,
            TypeError,
            AttributeError,
            RecursionError,
        ) as error:
            # The spill is an accelerator, never a durability
            # requirement: unpicklable structures degrade to a cold
            # reopen.
            warnings.warn(
                f"dropping warm spill warm-{version}.pickle: the head "
                f"structure could not be pickled ({error!r}); the store "
                "stays durable but reopens cold",
                DurabilityWarning,
                stacklevel=3,
            )
            self._warm_blobs.clear()
            return None, 0, 0
        blobs: Dict[tuple, bytes] = {}
        entries = []
        reused = 0
        dropped = 0
        for entry in warm_entries:
            try:
                normalized, order_names, pipeline = entry
            except (TypeError, ValueError):
                dropped += 1
                warnings.warn(
                    f"warm spill skips one malformed cache entry "
                    f"({entry!r})",
                    DurabilityWarning,
                    stacklevel=3,
                )
                continue
            key = (normalized, order_names)
            blob = None
            if (
                dirty_keys is not None
                and key not in dirty_keys
                and key in self._warm_blobs
            ):
                blob = self._warm_blobs[key]
                reused += 1
            else:
                try:
                    with _volatile_stripped(pipeline):
                        blob = _dumps_with_head(pipeline, structure)
                except (
                    pickle.PicklingError,
                    TypeError,
                    AttributeError,
                    RecursionError,
                ) as error:
                    dropped += 1
                    warnings.warn(
                        f"warm spill skips one cached pipeline "
                        f"({normalized!r}): it could not be pickled "
                        f"({error!r})",
                        DurabilityWarning,
                        stacklevel=3,
                    )
                    continue
            blobs[key] = blob
            entries.append([normalized, order_names, blob])
        self._warm_blobs = blobs
        if not entries:
            return None, 0, 0
        bundle = {
            "format": WARM_FORMAT,
            "fingerprint": fingerprint,
            "version": version,
            "generation": generation,
            "structure": structure_blob,
            "entries": entries,
        }
        warm_name = f"warm-{version}.pickle"
        self._write_atomic(
            warm_name, pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        )
        return warm_name, len(entries), reused

    def _remove_superseded(
        self, previous: Optional[dict], current: dict
    ) -> None:
        if not previous:
            return
        for key in ("snapshot", "warm"):
            name = previous.get(key)
            if name and name not in (current.get("snapshot"), current.get("warm")):
                try:
                    os.remove(os.path.join(self.path, name))
                except OSError:
                    pass

    # -- WAL append ------------------------------------------------------

    def append(self, record: WalRecord) -> None:
        """Durably log one acknowledged commit (fsync before return)."""
        crash_point("wal.append.before")
        if self._wal_records is None:
            self._wal_records = self._count_wal_records()
        line = record.to_line()
        handle = self._active_handle(len(line.encode("utf-8")))
        # A torn append writes a partial record and dies — exactly what a
        # power cut mid-write leaves behind; recovery must truncate it.
        crash_point(
            "wal.append.torn",
            lambda: (handle.write(line[: max(1, len(line) // 2)]), handle.flush()),
        )
        written = handle.write(line)
        handle.flush()
        if self.sync:
            os.fsync(handle.fileno())
        crash_point("wal.append.after-sync")
        self._wal_records += 1
        self._active_bytes += written

    def _active_handle(self, incoming_bytes: int) -> io.TextIOWrapper:
        """The open active segment, rolling to a new one when full.

        Legacy ``wal.jsonl`` files are never appended to: the first
        append on an old store starts ``wal.00001.jsonl`` and the legacy
        file stays as the oldest history until a checkpoint retires it.
        """
        if (
            self._wal_handle is not None
            and self._active_bytes + incoming_bytes > self.segment_bytes
            and self._active_bytes > 0
        ):
            self.close()
        if self._wal_handle is None:
            indices = self.segment_indices()
            index = indices[-1] if indices else 1
            try:
                size = os.path.getsize(self._segment_path(index))
            except OSError:
                size = 0
            if size > 0 and size + incoming_bytes > self.segment_bytes:
                index += 1
                size = 0
            os.makedirs(self.path, exist_ok=True)
            self._wal_handle = open(
                self._segment_path(index), "a", encoding="utf-8", newline=""
            )
            self._active_index = index
            self._active_bytes = size
        return self._wal_handle

    def _reset_wal(self) -> None:
        """Retire every WAL file (checkpoint made them redundant)."""
        self.close()
        for path in self.wal_paths():
            try:
                os.remove(path)
            except OSError:
                pass
        if self.sync:
            self._sync_dir()
        self._wal_records = 0

    def _count_wal_records(self) -> int:
        total = 0
        for path in self.wal_paths():
            try:
                with open(path, "rb") as handle:
                    total += sum(1 for _ in handle)
            except OSError:
                pass
        return total

    def stats(self) -> dict:
        """WAL accumulation since the last checkpoint rotation.

        ``wal_records`` counts acknowledged commits sitting in the log,
        ``wal_bytes`` their on-disk size across ``wal_segments`` files —
        the recovery debt a reopen would replay, and the signal for
        *when to checkpoint*.  All drop to zero when :meth:`checkpoint`
        rotates the log.
        """
        if self._wal_records is None:
            self._wal_records = self._count_wal_records()
        if self._wal_handle is not None:
            self._wal_handle.flush()
        paths = self.wal_paths()
        wal_bytes = 0
        for path in paths:
            try:
                wal_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "wal_records": self._wal_records,
            "wal_bytes": wal_bytes,
            "wal_segments": len(paths),
            "path": self.path,
        }

    # -- restore ---------------------------------------------------------

    def _scan_file(self, path: str) -> Tuple[List[WalRecord], int, int]:
        """Parse one WAL file: intact records, valid bytes, total bytes.

        The valid prefix ends at the first record that is unterminated,
        unparsable, or CRC-mismatched — a torn tail from a crash
        mid-append; everything after it was never acknowledged.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return [], 0, 0
        records: List[WalRecord] = []
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                break  # unterminated final line: torn
            line = data[offset : newline + 1]
            try:
                record = WalRecord.from_line(line.decode("utf-8"))
            except UnicodeDecodeError:
                record = None
            if record is None:
                break
            records.append(record)
            offset = newline + 1
        return records, offset, len(data)

    def _scan_wal(self):
        """Scan every segment in order, stopping at the first torn file.

        Returns ``(records, scans)`` where ``scans`` is a list of
        ``(path, valid_bytes, total_bytes, dropped_whole_file)`` — the
        truncation plan :meth:`restore` executes.  Once one file tears,
        every later segment is dropped whole: its records postdate an
        unacknowledged write and were never acknowledged either.
        """
        records: List[WalRecord] = []
        scans = []
        torn = False
        for path in self.wal_paths():
            if torn:
                scans.append((path, 0, None, True))
                continue
            file_records, valid, total = self._scan_file(path)
            scans.append((path, valid, total, False))
            records.extend(file_records)
            if valid < total:
                torn = True
        return records, scans

    def records_since(
        self, after_version: int, limit: Optional[int] = None
    ) -> Tuple[List[WalRecord], bool]:
        """Read-only tail for replication: every intact record with
        ``version_after > after_version``, in order, without touching
        the files (no truncation — a live leader may own them).

        Returns ``(records, more)`` where ``more`` flags a hit ``limit``
        (further records exist).  Parsing stops at the first torn line
        — an in-flight append the follower will pick up next poll.
        """
        records: List[WalRecord] = []
        more = False
        for path in self.wal_paths():
            file_records, valid, total = self._scan_file(path)
            for record in file_records:
                if record.version_after <= after_version:
                    continue
                if limit is not None and len(records) >= limit:
                    more = True
                    return records, more
                records.append(record)
            if valid < total:
                break  # torn in-flight tail: stop, never skip past it
        return records, more

    def load_snapshot(self) -> Tuple[Structure, dict]:
        """Read-only snapshot load: manifest + validated structure.

        Shared by :meth:`restore` and by replication followers seeding
        from a leader's live directory — it never truncates the WAL or
        otherwise writes, so it is safe against a store another process
        is appending to.
        """
        manifest = self._read_manifest()
        snapshot_path = os.path.join(self.path, manifest["snapshot"])
        try:
            structure = serialize.load_file(snapshot_path)
        except Exception as error:
            raise DurabilityError(
                f"unreadable snapshot {snapshot_path}: {error}"
            ) from None
        if structure.content_fingerprint() != manifest["fingerprint"]:
            raise DurabilityError(
                f"snapshot {manifest['snapshot']} does not match the "
                "manifest fingerprint; the store is corrupt"
            )
        if (
            structure.version != manifest["version"]
            or structure.generation != manifest["generation"]
        ):
            raise DurabilityError(
                f"snapshot lineage ({structure.version}, "
                f"{structure.generation}) disagrees with the manifest "
                f"({manifest['version']}, {manifest['generation']})"
            )
        return structure, manifest

    def restore(self, load_warm: bool = True) -> RestoredState:
        """Load the snapshot (warm spill when valid) and the intact WAL
        tail, truncating any torn suffix left by a crash."""
        structure, manifest = self.load_snapshot()

        warm_structure: Optional[Structure] = None
        warm_entries: Tuple[tuple, ...] = ()
        if load_warm and manifest.get("warm"):
            warm_structure, warm_entries = self._load_warm(
                manifest, os.path.join(self.path, manifest["warm"])
            )

        records, scans = self._scan_wal()
        self._wal_records = len(records)
        truncated = 0
        for path, valid, total, drop_whole in scans:
            if drop_whole:
                try:
                    truncated += os.path.getsize(path)
                    os.remove(path)
                except OSError:
                    pass
            elif total is not None and valid < total:
                # Drop the torn tail so future appends start on a record
                # boundary.  The dropped bytes were never acknowledged.
                truncated += total - valid
                with open(path, "rb+") as handle:
                    handle.truncate(valid)
                    handle.flush()
                    if self.sync:
                        os.fsync(handle.fileno())
        return RestoredState(
            structure=structure,
            warm_structure=warm_structure,
            warm_entries=warm_entries,
            records=tuple(records),
            truncated_bytes=truncated,
        )

    def _load_warm(
        self, manifest: dict, warm_path: str
    ) -> Tuple[Optional[Structure], Tuple[tuple, ...]]:
        try:
            with open(warm_path, "rb") as handle:
                bundle = pickle.load(handle)
            # Another format pickles another graph layout: ignored like a
            # stale spill.
            if (
                bundle.get("format") != WARM_FORMAT
                or bundle["fingerprint"] != manifest["fingerprint"]
                or bundle["version"] != manifest["version"]
                or bundle["generation"] != manifest["generation"]
            ):
                return None, ()
            structure = pickle.loads(bundle["structure"])
            if structure.content_fingerprint() != manifest["fingerprint"]:
                return None, ()
            entries = []
            blobs: Dict[tuple, bytes] = {}
            for normalized, order_names, blob in bundle["entries"]:
                pipeline = _loads_with_head(blob, structure)
                entries.append((normalized, order_names, pipeline))
                blobs[(normalized, order_names)] = blob
            # Seed the reuse cache: plans that stay clean keep these
            # exact bytes at the next checkpoint.
            self._warm_blobs = blobs
            return structure, tuple(entries)
        except Exception as error:
            # Spill corruption must never block recovery — anything can
            # go wrong inside pickle.load of a damaged file (OSError,
            # EOFError, UnpicklingError, arbitrary errors from unpickled
            # content), so the breadth here is deliberate; the warning
            # keeps it from being silent.
            warnings.warn(
                "ignoring unreadable warm spill "
                f"{os.path.basename(warm_path)} ({error!r}); recovery "
                "continues cold from snapshot + WAL",
                DurabilityWarning,
                stacklevel=2,
            )
            return None, ()
