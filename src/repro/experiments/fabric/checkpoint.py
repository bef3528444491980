"""Atomic, verified per-shard checkpoints and the sweep journal.

Checkpoint contract
-------------------
One file per completed shard, ``<sweep_dir>/shards/<shard_id>.ckpt``,
holding the shard's ``RunSummary`` list.  The write
is **atomic** (temp file in the same directory, then ``os.replace``)
so a SIGKILL mid-write can never leave a half-checkpoint under the
final name; the payload is **self-verifying** (a header carrying the
shard id and the SHA-256 of the pickle bytes) so a truncated or
bit-rotten file is *detected* at load time and simply re-queued by
the supervisor instead of corrupting the merged sweep.

The presence of a valid checkpoint **is** the completion record: the
supervisor never trusts in-memory bookkeeping across restarts, it
re-derives "done" from the files.  That is what makes
``repro sweep --resume`` work after any kind of death — worker,
supervisor, or whole host.

Journal
-------
:class:`SweepJournal` is an append-only JSONL event log
(``<sweep_dir>/journal.jsonl``) for observability: dispatches,
completions, retries, timeouts, quarantines, pool rebuilds.  It is
*never read back for control decisions* — checkpoints are the source
of truth — so a torn final line (supervisor killed mid-append) is
harmless and tolerated by :func:`read_journal`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from typing import Dict, List, Optional, Sequence

CHECKPOINT_MAGIC = b"repro-shard-ckpt"
CHECKPOINT_VERSION = 1
SHARDS_DIRNAME = "shards"
QUARANTINE_DIRNAME = "quarantine"
JOURNAL_NAME = "journal.jsonl"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, truncated, corrupt, or mismatched.

    Callers treat this as "shard not done" — the shard is re-queued —
    never as a fatal sweep error.
    """


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file-then-rename.

    The temp file lives in the target directory (``os.replace`` is
    only atomic within a filesystem) and carries the pid so two
    processes writing the same checkpoint cannot collide mid-write;
    the final ``replace`` makes the last writer win wholesale.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def shards_dir(sweep_dir: str) -> str:
    return os.path.join(sweep_dir, SHARDS_DIRNAME)


def quarantine_dir(sweep_dir: str) -> str:
    return os.path.join(sweep_dir, QUARANTINE_DIRNAME)


def checkpoint_path(sweep_dir: str, shard_id: str) -> str:
    return os.path.join(shards_dir(sweep_dir), f"{shard_id}.ckpt")


def write_shard_checkpoint(sweep_dir: str, shard_id: str,
                           summaries: Sequence[object]) -> str:
    """Persist a completed shard's summaries; returns the path."""
    payload = pickle.dumps(list(summaries),
                           protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = (f"{CHECKPOINT_MAGIC.decode()} v{CHECKPOINT_VERSION} "
              f"{shard_id} {digest} {len(payload)}\n").encode("ascii")
    path = checkpoint_path(sweep_dir, shard_id)
    atomic_write_bytes(path, header + payload)
    return path


def load_shard_checkpoint(sweep_dir: str, shard_id: str) -> List[object]:
    """Load and verify one shard checkpoint.

    Raises :class:`CheckpointError` when the file is absent, its
    header is malformed, the shard id does not match, the payload is
    truncated, or the SHA-256 disagrees with the header.
    """
    path = checkpoint_path(sweep_dir, shard_id)
    if not os.path.isfile(path):
        raise CheckpointError(f"no checkpoint for shard "
                              f"{shard_id[:16]} at {path}")
    with open(path, "rb") as handle:
        header = handle.readline()
        payload = handle.read()
    parts = header.decode("ascii", errors="replace").split()
    if (len(parts) != 5 or parts[0] != CHECKPOINT_MAGIC.decode()
            or parts[1] != f"v{CHECKPOINT_VERSION}"):
        raise CheckpointError(f"checkpoint {path} has a malformed "
                              f"header {header!r}")
    if parts[2] != shard_id:
        raise CheckpointError(f"checkpoint {path} belongs to shard "
                              f"{parts[2][:16]}, expected "
                              f"{shard_id[:16]}")
    try:
        expected_len = int(parts[4])
    except ValueError:
        raise CheckpointError(f"checkpoint {path} has a malformed "
                              f"length field {parts[4]!r}")
    if len(payload) != expected_len:
        raise CheckpointError(f"checkpoint {path} truncated: "
                              f"{len(payload)} of {expected_len} "
                              f"payload bytes")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != parts[3]:
        raise CheckpointError(f"checkpoint {path} failed sha256 "
                              f"verification (corrupt)")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # corrupt pickle despite intact hash is
        # near-impossible, but version skew (class moved/renamed
        # between writer and reader) lands here too.
        raise CheckpointError(f"checkpoint {path} failed to "
                              f"unpickle: {exc!r}") from exc


def scan_checkpoints(sweep_dir: str, shard_ids: Sequence[str]
                     ) -> "tuple[Dict[str, List[object]], List[str]]":
    """(valid shard_id -> summaries, corrupt shard ids).

    Corrupt/truncated checkpoints are removed from disk — their shard
    is about to be re-run, and a half-file under the final name must
    not shadow the fresh result if that re-run is itself interrupted.
    """
    done: Dict[str, List[object]] = {}
    corrupt: List[str] = []
    for shard_id in shard_ids:
        path = checkpoint_path(sweep_dir, shard_id)
        if not os.path.isfile(path):
            continue
        try:
            done[shard_id] = load_shard_checkpoint(sweep_dir, shard_id)
        except CheckpointError:
            corrupt.append(shard_id)
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - fs race
                pass
    return done, corrupt


# ----------------------------------------------------------------------
# Quarantine records
# ----------------------------------------------------------------------
def quarantine_path(sweep_dir: str, shard_id: str) -> str:
    return os.path.join(quarantine_dir(sweep_dir), f"{shard_id}.json")


def write_quarantine(sweep_dir: str, shard_id: str, index: int,
                     attempts: int, error: str) -> str:
    """Record a poison shard: id, attempts burned, last exception."""
    path = quarantine_path(sweep_dir, shard_id)
    atomic_write_bytes(path, (json.dumps({
        "shard_id": shard_id,
        "index": index,
        "attempts": attempts,
        "error": error,
    }, sort_keys=True, indent=1) + "\n").encode("utf-8"))
    return path


def load_quarantine(sweep_dir: str) -> Dict[str, dict]:
    """``shard_id -> record`` for every quarantined shard on disk."""
    directory = quarantine_dir(sweep_dir)
    records: Dict[str, dict] = {}
    if not os.path.isdir(directory):
        return records
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), "r",
                  encoding="utf-8") as handle:
            try:
                record = json.load(handle)
            except json.JSONDecodeError:
                continue  # torn write: shard simply counts as pending
        records[record["shard_id"]] = record
    return records


def clear_quarantine(sweep_dir: str, shard_id: str) -> None:
    """Drop a quarantine record (the shard is being re-queued)."""
    try:
        os.remove(quarantine_path(sweep_dir, shard_id))
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class SweepJournal:
    """Append-only JSONL event log for one sweep directory.

    Purely observational: the supervisor *writes* it so an operator
    (or a test) can reconstruct what happened, but never reads it back
    for control flow — resume state comes from checkpoint files.
    """

    def __init__(self, sweep_dir: str):
        self.path = os.path.join(sweep_dir, JOURNAL_NAME)
        os.makedirs(sweep_dir, exist_ok=True)
        self._seq = 0

    def record(self, event: str, **fields: object) -> None:
        """Append one event line (flushed immediately)."""
        self._seq += 1
        entry = {"event": event, "seq": self._seq,
                 "wall": round(time.time(), 3)}  # simlint: disable=SL002 -- journal timestamps are real sweep wall-time, not simulated time
        entry.update(fields)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()


def read_journal(sweep_dir: str,
                 event: Optional[str] = None) -> List[dict]:
    """All journal entries (optionally filtered by event name).

    A torn final line — the supervisor was killed mid-append — is
    skipped silently; everything before it is intact by construction.
    """
    path = os.path.join(sweep_dir, JOURNAL_NAME)
    if not os.path.isfile(path):
        return []
    entries: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if event is None or entry.get("event") == event:
                entries.append(entry)
    return entries
