"""The fabric's public face: ``run_specs_fabric`` and resume.

``run_specs_fabric(specs)`` is where
:func:`repro.experiments.parallel.run_specs` sends every sweep it does
not run serially in-process: same input, same output (summaries in
spec order, bit-identical to serial execution), but the work flows
through a manifest → supervisor → checkpoint pipeline, so

* a dead worker costs at most one shard of work,
* a killed *sweep* resumes from its directory with
  :func:`resume_sweep` / ``repro sweep --resume``, re-running only the
  shards without a valid checkpoint,
* a poison spec quarantines its shard instead of wedging the matrix.

When no ``sweep_dir`` is given the fabric still runs — against a
throwaway temp directory — so callers get the retry/rebuild robustness
without committing to on-disk state.  The ``REPRO_SWEEP_DIR``
environment knob routes every ``run_specs`` caller (``run_many``, the
figure sweeps, ``repro compare`` / ``chaos``) to a persistent
directory without plumbing an argument through every layer.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import List, Optional, Sequence

from repro.experiments.fabric.manifest import (
    DEFAULT_SHARD_SIZE,
    ManifestError,
    SweepManifest,
    build_manifest,
    load_manifest,
    write_manifest,
)
from repro.experiments.fabric.supervisor import (
    DEFAULT_RETRY_BUDGET,
    SweepError,
    SweepOutcome,
    SweepSupervisor,
    execute_shard,
)

#: Environment knob: when set (and no explicit ``sweep_dir`` is
#: passed), fabric-aware sweeps persist their state under this parent
#: directory, one subdirectory per sweep id.
ENV_SWEEP_DIR = "REPRO_SWEEP_DIR"


class SweepIncomplete(SweepError):
    """The sweep finished with quarantined shards.

    Carries enough to act on: ``sweep_dir`` (resume after fixing the
    cause; None for a temp-directory sweep, which leaves nothing to
    resume), ``quarantined`` (shard_id -> record with the last
    exception), and ``partial`` (summaries in spec order with ``None``
    holes for the quarantined shards).
    """

    def __init__(self, message: str, sweep_dir: str,
                 quarantined: dict, partial: List[object]):
        super().__init__(message)
        self.sweep_dir = sweep_dir
        self.quarantined = quarantined
        self.partial = partial


def resolve_sweep_dir(sweep_dir: Optional[str]) -> Optional[str]:
    """Explicit argument, else the ``REPRO_SWEEP_DIR`` knob, else None."""
    if sweep_dir is not None:
        return sweep_dir
    env = os.environ.get(ENV_SWEEP_DIR, "").strip()
    return env or None


def sweep_subdir(parent: str, specs: Sequence[object],
                 shard_size: int = DEFAULT_SHARD_SIZE) -> str:
    """A per-matrix subdirectory of ``parent``, named by sweep id.

    Lets many different sweeps (per protocol, per figure) share one
    parent directory without their manifests colliding: the same spec
    matrix always maps to the same subdirectory, so resume finds it.
    """
    manifest = build_manifest(specs, shard_size=shard_size)
    return os.path.join(parent, manifest.sweep_id[:16])


def _merge(manifest: SweepManifest, outcome: SweepOutcome,
           sweep_dir: Optional[str], allow_partial: bool) -> List[object]:
    """Checkpointed shard results, concatenated in spec order.

    ``sweep_dir`` is None for a temp-directory sweep: its state is
    deleted on return, so there is nothing to resume."""
    merged: List[object] = []
    for shard in manifest.shards:
        summaries = outcome.results.get(shard.shard_id)
        if summaries is not None:
            merged.extend(summaries)
        else:
            merged.extend([None] * len(shard.specs))
    if outcome.quarantined and not allow_partial:
        reasons = "; ".join(
            f"shard {record['index']} ({shard_id[:12]}): "
            f"{record['error']}"
            for shard_id, record in sorted(
                outcome.quarantined.items(),
                key=lambda kv: kv[1]["index"]))
        hint = (f"  Fix the cause and resume with "
                f"`repro sweep --resume {sweep_dir}`"
                if sweep_dir is not None else "")
        raise SweepIncomplete(
            f"{len(outcome.quarantined)} of {len(manifest.shards)} "
            f"shard(s) quarantined after exhausting their retry "
            f"budget — {reasons}.{hint}",
            sweep_dir=sweep_dir,
            quarantined=dict(outcome.quarantined),
            partial=merged)
    return merged


def run_specs_fabric(specs: Optional[Sequence[object]] = None,
                     workers: Optional[int] = None,
                     sweep_dir: Optional[str] = None,
                     resume: bool = False,
                     shard_size: int = DEFAULT_SHARD_SIZE,
                     retry_budget: int = DEFAULT_RETRY_BUDGET,
                     shard_timeout_s: Optional[float] = None,
                     worker_kill=None,
                     allow_partial: bool = False,
                     journal=None,
                     task_fn=execute_shard) -> List[object]:
    """Execute a spec matrix through the fault-tolerant fabric.

    Returns summaries in spec order, bit-identical to
    ``run_specs(specs)`` (and to any other worker count).  With
    ``resume=True``, ``specs`` may be omitted — the matrix is loaded
    from the sweep directory's manifest; if given, it must describe
    the *same* matrix (checked by sweep id) or :class:`ManifestError`
    is raised rather than silently merging the wrong work.

    Quarantined shards raise :class:`SweepIncomplete` unless
    ``allow_partial=True``, in which case their spec positions hold
    ``None``.
    """
    sweep_dir = resolve_sweep_dir(sweep_dir)
    tmp_dir: Optional[str] = None
    if sweep_dir is None:
        if resume:
            raise SweepError("resume=True requires a sweep_dir: a "
                             "temp-directory sweep leaves nothing to "
                             "resume from")
        tmp_dir = tempfile.mkdtemp(prefix="repro-sweep-")
        sweep_dir = tmp_dir
    try:
        if resume:
            manifest = load_manifest(sweep_dir)
            if specs is not None:
                expected = build_manifest(
                    list(specs), shard_size=manifest.shard_size)
                if expected.sweep_id != manifest.sweep_id:
                    raise ManifestError(
                        f"{sweep_dir} holds sweep "
                        f"{manifest.sweep_id[:16]}, but the given "
                        f"specs describe {expected.sweep_id[:16]}; "
                        f"refusing to resume a different matrix")
        else:
            if specs is None:
                raise SweepError(
                    "specs are required unless resume=True")
            manifest = build_manifest(list(specs),
                                      shard_size=shard_size)
            # Idempotent for the identical matrix (re-running the same
            # command continues from its checkpoints); refuses a
            # different one.
            write_manifest(manifest, sweep_dir)
        supervisor = SweepSupervisor(
            manifest, sweep_dir, workers=workers,
            shard_timeout_s=shard_timeout_s,
            retry_budget=retry_budget, worker_kill=worker_kill,
            journal=journal, task_fn=task_fn)
        outcome = supervisor.run()
        return _merge(manifest, outcome,
                      sweep_dir if tmp_dir is None else None,
                      allow_partial)
    finally:
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)


def resume_sweep(sweep_dir: str,
                 workers: Optional[int] = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 shard_timeout_s: Optional[float] = None,
                 allow_partial: bool = False,
                 journal=None) -> List[object]:
    """Pick up a killed sweep from its directory.

    Shards with valid checkpoints are loaded, corrupt checkpoints and
    quarantine records are re-queued, and only the missing work runs.
    Returns the complete merged summary list, identical to what the
    uninterrupted sweep would have returned.
    """
    return run_specs_fabric(specs=None, workers=workers,
                            sweep_dir=sweep_dir, resume=True,
                            retry_budget=retry_budget,
                            shard_timeout_s=shard_timeout_s,
                            allow_partial=allow_partial,
                            journal=journal)
