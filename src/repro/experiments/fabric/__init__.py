"""Fault-tolerant sweep execution fabric (docs/SWEEPS.md).

Layered over the picklable :class:`~repro.experiments.parallel.RunSpec`
/ :class:`~repro.experiments.parallel.RunSummary` halves:

* :mod:`~repro.experiments.fabric.manifest` — deterministic,
  content-addressed sharding of a spec matrix;
* :mod:`~repro.experiments.fabric.checkpoint` — atomic, sha256-verified
  per-shard checkpoints plus the append-only sweep journal;
* :mod:`~repro.experiments.fabric.supervisor` — dispatch with retries,
  backoff, timeouts, quarantine, and pool rebuild on worker death;
* :mod:`~repro.experiments.fabric.sweep` — the public
  :func:`run_specs_fabric` / :func:`resume_sweep` surface, merged in
  spec order and bit-identical to serial ``run_specs``.
"""

from repro.experiments.fabric.checkpoint import (
    CheckpointError,
    SweepJournal,
    load_shard_checkpoint,
    read_journal,
    scan_checkpoints,
    write_shard_checkpoint,
)
from repro.experiments.fabric.manifest import (
    DEFAULT_SHARD_SIZE,
    FABRIC_VERSION,
    ManifestError,
    Shard,
    SweepManifest,
    build_manifest,
    canonical_json,
    decode_value,
    encode_value,
    load_manifest,
    spec_digest,
    write_manifest,
)
from repro.experiments.fabric.supervisor import (
    DEFAULT_RETRY_BUDGET,
    SHARD_RETRY_BASE_S,
    SHARD_RETRY_CAP_S,
    SweepError,
    SweepOutcome,
    SweepStats,
    SweepSupervisor,
    execute_shard,
)
from repro.experiments.fabric.sweep import (
    ENV_SWEEP_DIR,
    SweepIncomplete,
    resolve_sweep_dir,
    resume_sweep,
    run_specs_fabric,
    sweep_subdir,
)

__all__ = [
    "CheckpointError",
    "SweepJournal",
    "load_shard_checkpoint",
    "read_journal",
    "scan_checkpoints",
    "write_shard_checkpoint",
    "DEFAULT_SHARD_SIZE",
    "FABRIC_VERSION",
    "ManifestError",
    "Shard",
    "SweepManifest",
    "build_manifest",
    "canonical_json",
    "decode_value",
    "encode_value",
    "load_manifest",
    "spec_digest",
    "write_manifest",
    "DEFAULT_RETRY_BUDGET",
    "SHARD_RETRY_BASE_S",
    "SHARD_RETRY_CAP_S",
    "SweepError",
    "SweepOutcome",
    "SweepStats",
    "SweepSupervisor",
    "execute_shard",
    "ENV_SWEEP_DIR",
    "SweepIncomplete",
    "resolve_sweep_dir",
    "resume_sweep",
    "run_specs_fabric",
    "sweep_subdir",
]
