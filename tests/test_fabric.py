"""Tests for the fault-tolerant sweep fabric (docs/SWEEPS.md).

The contract under test: ``run_specs_fabric`` merges checkpointed
shard results **bit-identical** to serial ``run_specs`` — through any
worker count, through SIGKILLed workers, through a killed-and-resumed
sweep, through corrupt checkpoints — and every failure mode degrades
(retry, quarantine, rebuild) instead of wedging or corrupting.
"""

import os
import pickle
import signal
import time
from dataclasses import make_dataclass, replace

import pytest

from repro.experiments.fabric import (
    DEFAULT_SHARD_SIZE,
    FABRIC_VERSION,
    CheckpointError,
    ManifestError,
    SweepError,
    SweepIncomplete,
    SweepJournal,
    SweepSupervisor,
    build_manifest,
    decode_value,
    encode_value,
    load_manifest,
    load_shard_checkpoint,
    read_journal,
    resume_sweep,
    run_specs_fabric,
    scan_checkpoints,
    spec_digest,
    sweep_subdir,
    write_manifest,
    write_shard_checkpoint,
)
from repro.experiments.fabric.checkpoint import (
    atomic_write_bytes,
    checkpoint_path,
    load_quarantine,
)
from repro.experiments.parallel import (
    ParallelExecutionError,
    RunSpec,
    run_specs,
)
from repro.faults import (FaultPlan, NetworkPartition, PeerCrash,
                          WorkerKill, chaos_spec)

#: Tiny but real runs: ~3 ms each, so even the 200-spec acceptance
#: sweep stays cheap.
SPEC = RunSpec(protocol="tchain", leechers=3, pieces=2)


def _specs(n, **overrides):
    return [replace(SPEC, seed=seed, **overrides) for seed in range(n)]


# -- synthetic shard tasks (module-level so they pickle) ---------------
def _echo_task(task):
    """Succeeds immediately; returns the shard's specs as results."""
    return task["shard_id"], list(task["specs"])


def _flaky_task(task):
    """Fails on the first attempt of every shard, succeeds after."""
    if task["attempt"] == 0:
        raise RuntimeError(f"transient glitch in shard {task['index']}")
    return task["shard_id"], list(task["specs"])


def _poison_task(task):
    if task["index"] == 1:
        raise ValueError(f"poison shard {task['index']}")
    return task["shard_id"], list(task["specs"])


def _die_first_attempt_task(task):
    """Hard-kills the worker on shard 1's first attempt (no Python
    exception — the real BrokenProcessPool path)."""
    if task["index"] == 1 and task["attempt"] == 0:
        os._exit(21)
    return task["shard_id"], list(task["specs"])


def _hang_task(task):
    if task["index"] == 0:
        time.sleep(60.0)
    return task["shard_id"], list(task["specs"])


def _fast_supervisor(manifest, sweep_dir, **kwargs):
    kwargs.setdefault("retry_base_s", 0.01)
    kwargs.setdefault("retry_cap_s", 0.05)
    return SweepSupervisor(manifest, sweep_dir, **kwargs)


# ----------------------------------------------------------------------
# Canonical encoding and manifests
# ----------------------------------------------------------------------
class TestCanonicalEncoding:
    def test_runspec_roundtrip(self):
        from repro.attacks.freerider import FreeRiderOptions
        spec = RunSpec(protocol="bittorrent", seed=9, leechers=7,
                       freerider_fraction=0.25,
                       freerider_options=FreeRiderOptions(
                           large_view=True, collude=True),
                       config_overrides=(("real_crypto", True),))
        assert decode_value(encode_value(spec)) == spec

    def test_chaos_spec_roundtrip(self):
        plan = FaultPlan(control_loss_prob=0.05,
                         crashes=(PeerCrash(at_s=20.0),
                                  PeerCrash(at_s=45.0, peer_id="L3")),
                         partitions=(NetworkPartition(
                             at_s=10.0, groups=(("dc2",),),
                             heal_s=30.0),))
        spec = RunSpec(leechers=9, pieces=5, seed=3, max_time=200.0,
                       sanitize=True, fault_plan=plan)
        assert decode_value(encode_value(spec)) == spec
        assert spec_digest(spec) != spec_digest(
            replace(spec, fault_plan=replace(plan, crashes=())))

    def test_containers_roundtrip(self):
        value = {"a": (1, 2.5, None), "b": [True, "x"], "c": {"d": ()}}
        assert decode_value(encode_value(value)) == value

    def test_digest_stable_and_discriminating(self):
        assert spec_digest(SPEC) == spec_digest(replace(SPEC))
        assert spec_digest(SPEC) != spec_digest(replace(SPEC, seed=99))

    def test_unencodable_value_rejected(self):
        with pytest.raises(ManifestError):
            encode_value(object())
        with pytest.raises(ManifestError):
            encode_value({1: "non-string key"})
        # The spec classes are a fixed table: no other dataclass.
        with pytest.raises(ManifestError, match="not manifest-encodable"):
            encode_value(make_dataclass("RunSpec", ["seed"])(seed=1))
        with pytest.raises(ManifestError, match="unknown dataclass"):
            decode_value({"__dataclass__": "Elsewhere", "fields": {}})

    def test_untagged_dict_rejected_on_decode(self):
        with pytest.raises(ManifestError):
            decode_value({"sneaky": 1})


class TestManifest:
    def test_shard_ids_deterministic(self):
        specs = _specs(10)
        first = build_manifest(specs, shard_size=3)
        second = build_manifest(list(specs), shard_size=3)
        assert [s.shard_id for s in first.shards] \
            == [s.shard_id for s in second.shards]
        assert first.sweep_id == second.sweep_id
        assert [len(s.specs) for s in first.shards] == [3, 3, 3, 1]
        assert first.specs == specs

    def test_different_matrix_different_ids(self):
        base = build_manifest(_specs(4), shard_size=2)
        other = build_manifest(_specs(4, leechers=4), shard_size=2)
        assert base.sweep_id != other.sweep_id

    def test_write_load_roundtrip(self, tmp_path):
        manifest = build_manifest(_specs(5), shard_size=2)
        write_manifest(manifest, str(tmp_path))
        loaded = load_manifest(str(tmp_path))
        assert loaded == manifest

    def test_rewrite_identical_is_idempotent(self, tmp_path):
        manifest = build_manifest(_specs(4), shard_size=2)
        write_manifest(manifest, str(tmp_path))
        write_manifest(manifest, str(tmp_path))  # no error

    def test_different_manifest_refused(self, tmp_path):
        write_manifest(build_manifest(_specs(4)), str(tmp_path))
        with pytest.raises(ManifestError, match="different spec matrix"):
            write_manifest(build_manifest(_specs(6)), str(tmp_path))

    def test_tampered_manifest_detected(self, tmp_path):
        manifest = build_manifest(_specs(4), shard_size=2)
        path = write_manifest(manifest, str(tmp_path))
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace('"seed": 1', '"seed": 41'))
        with pytest.raises(ManifestError, match="id mismatch"):
            load_manifest(str(tmp_path))

    def test_version_skew_detected(self, tmp_path):
        manifest = build_manifest(_specs(2))
        path = write_manifest(manifest, str(tmp_path))
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(f'"fabric_version": {FABRIC_VERSION}',
                                  '"fabric_version": 99'))
        with pytest.raises(ManifestError, match="fabric_version"):
            load_manifest(str(tmp_path))

    def test_missing_manifest_clear_error(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest"):
            load_manifest(str(tmp_path))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ManifestError):
            build_manifest([])
        with pytest.raises(ManifestError):
            build_manifest(_specs(2), shard_size=0)


# ----------------------------------------------------------------------
# Checkpoints and the journal
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        summaries = [{"seed": 1}, {"seed": 2}]
        write_shard_checkpoint(str(tmp_path), "abc123", summaries)
        assert load_shard_checkpoint(str(tmp_path), "abc123") \
            == summaries

    def test_missing_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_shard_checkpoint(str(tmp_path), "nope")

    def test_truncation_detected(self, tmp_path):
        path = write_shard_checkpoint(str(tmp_path), "s1", [1, 2, 3])
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_shard_checkpoint(str(tmp_path), "s1")

    def test_bit_rot_detected(self, tmp_path):
        path = write_shard_checkpoint(str(tmp_path), "s1", [1, 2, 3])
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(CheckpointError, match="sha256"):
            load_shard_checkpoint(str(tmp_path), "s1")

    def test_shard_id_mismatch_detected(self, tmp_path):
        write_shard_checkpoint(str(tmp_path), "right", [1])
        os.rename(checkpoint_path(str(tmp_path), "right"),
                  checkpoint_path(str(tmp_path), "wrong"))
        with pytest.raises(CheckpointError, match="belongs to shard"):
            load_shard_checkpoint(str(tmp_path), "wrong")

    def test_malformed_header_detected(self, tmp_path):
        atomic_write_bytes(checkpoint_path(str(tmp_path), "s1"),
                           b"not a checkpoint at all\n" + b"\x00" * 10)
        with pytest.raises(CheckpointError, match="malformed"):
            load_shard_checkpoint(str(tmp_path), "s1")

    def test_scan_removes_corrupt_files(self, tmp_path):
        write_shard_checkpoint(str(tmp_path), "good", ["ok"])
        bad = write_shard_checkpoint(str(tmp_path), "bad", ["oops"])
        with open(bad, "wb") as fh:
            fh.write(b"repro-shard-ckpt v1 bad deadbeef 999\n")
        done, corrupt = scan_checkpoints(str(tmp_path),
                                         ["good", "bad", "absent"])
        assert done == {"good": ["ok"]}
        assert corrupt == ["bad"]
        assert not os.path.exists(bad)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = str(tmp_path / "out.bin")
        atomic_write_bytes(target, b"payload")
        assert os.listdir(str(tmp_path)) == ["out.bin"]

    def test_journal_roundtrip_and_torn_tail(self, tmp_path):
        journal = SweepJournal(str(tmp_path))
        journal.record("shard_done", shard="a", index=0)
        journal.record("shard_failed", shard="b", error="boom")
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "torn mid-wri')  # killed mid-append
        entries = read_journal(str(tmp_path))
        assert [e["event"] for e in entries] \
            == ["shard_done", "shard_failed"]
        assert read_journal(str(tmp_path),
                            event="shard_failed")[0]["error"] == "boom"


# ----------------------------------------------------------------------
# Supervisor semantics (synthetic tasks: no simulation, no flakiness)
# ----------------------------------------------------------------------
class TestSupervisor:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_completes_all_shards(self, tmp_path, workers):
        manifest = build_manifest(list(range(7)), shard_size=2)
        outcome = _fast_supervisor(manifest, str(tmp_path),
                                   workers=workers,
                                   task_fn=_echo_task).run()
        assert outcome.complete
        assert outcome.stats.executed == 4
        assert sorted(sum(outcome.results.values(), [])) \
            == list(range(7))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flaky_shard_retries_with_backoff(self, tmp_path, workers):
        manifest = build_manifest(list(range(4)), shard_size=2)
        outcome = _fast_supervisor(manifest, str(tmp_path),
                                   workers=workers,
                                   task_fn=_flaky_task).run()
        assert outcome.complete
        assert outcome.stats.retries == 2  # one per shard
        failed = read_journal(str(tmp_path), event="shard_failed")
        assert all(f["kind"] == "exception" for f in failed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_poison_shard_quarantined(self, tmp_path, workers):
        manifest = build_manifest(list(range(6)), shard_size=2)
        outcome = _fast_supervisor(manifest, str(tmp_path),
                                   workers=workers, retry_budget=2,
                                   task_fn=_poison_task).run()
        assert not outcome.complete
        assert len(outcome.quarantined) == 1
        record = next(iter(outcome.quarantined.values()))
        assert record["index"] == 1
        assert "poison shard 1" in record["error"]
        assert record["attempts"] == 3  # budget 2 = 3 executions
        # The other shards still completed; the record is on disk.
        assert outcome.stats.executed == 2
        assert load_quarantine(str(tmp_path)) == outcome.quarantined

    def test_quarantined_shard_requeued_on_resume(self, tmp_path):
        manifest = build_manifest(list(range(6)), shard_size=2)
        _fast_supervisor(manifest, str(tmp_path), workers=1,
                         retry_budget=0, task_fn=_poison_task).run()
        # Second supervisor with a healthy task: quarantine cleared,
        # shard re-run, checkpointed results untouched.
        outcome = _fast_supervisor(manifest, str(tmp_path), workers=1,
                                   task_fn=_echo_task).run()
        assert outcome.complete
        assert outcome.stats.requeued_quarantined == 1
        assert outcome.stats.resumed_from_checkpoint == 2
        assert outcome.stats.executed == 1
        assert load_quarantine(str(tmp_path)) == {}

    def test_worker_death_rebuilds_pool_and_completes(self, tmp_path):
        manifest = build_manifest(list(range(8)), shard_size=2)
        outcome = _fast_supervisor(manifest, str(tmp_path), workers=2,
                                   task_fn=_die_first_attempt_task
                                   ).run()
        assert outcome.complete
        assert outcome.stats.pool_rebuilds >= 1
        deaths = read_journal(str(tmp_path), event="shard_failed")
        assert any(f["kind"] == "worker_death" for f in deaths)
        assert sorted(sum(outcome.results.values(), [])) \
            == list(range(8))

    def test_shard_timeout_quarantines_hung_shard(self, tmp_path):
        manifest = build_manifest(list(range(4)), shard_size=2)
        outcome = _fast_supervisor(manifest, str(tmp_path), workers=2,
                                   shard_timeout_s=0.3, retry_budget=0,
                                   task_fn=_hang_task).run()
        assert len(outcome.quarantined) == 1
        record = next(iter(outcome.quarantined.values()))
        assert record["index"] == 0
        assert "timeout" in record["error"]
        assert outcome.stats.timeouts >= 1
        assert outcome.stats.pool_rebuilds >= 1
        # The healthy shard still finished.
        assert outcome.stats.executed == 1

    def test_worker_kill_refused_in_serial_mode(self, tmp_path):
        manifest = build_manifest(list(range(2)))
        with pytest.raises(SweepError, match="serial"):
            SweepSupervisor(manifest, str(tmp_path), workers=1,
                            worker_kill=WorkerKill(prob=1.0))

    def test_negative_retry_budget_rejected(self, tmp_path):
        manifest = build_manifest(list(range(2)))
        with pytest.raises(SweepError, match="retry_budget"):
            SweepSupervisor(manifest, str(tmp_path), retry_budget=-1)


# ----------------------------------------------------------------------
# WorkerKill fault
# ----------------------------------------------------------------------
class TestWorkerKill:
    def test_decision_is_deterministic(self):
        kill = WorkerKill(prob=0.5, seed=11)
        draws = [kill.should_kill("shard-a", 0, 0, i) for i in range(64)]
        again = [kill.should_kill("shard-a", 0, 0, i) for i in range(64)]
        assert draws == again
        assert any(draws) and not all(draws)

    def test_kills_stop_after_max_attempts(self):
        kill = WorkerKill(prob=1.0, seed=1)
        assert kill.should_kill("s", 0, 0, 0)
        assert not kill.should_kill("s", 0, 1, 0)  # retry runs clean

    def test_shard_index_pinning(self):
        kill = WorkerKill(prob=1.0, seed=1, shard_indices=(2,))
        assert not kill.should_kill("s", 0, 0, 0)
        assert kill.should_kill("s", 2, 0, 0)

    def test_zero_probability_never_kills(self):
        assert not WorkerKill().should_kill("s", 0, 0, 0)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            WorkerKill(prob=1.5)


# ----------------------------------------------------------------------
# Bit-identical merge (real simulations)
# ----------------------------------------------------------------------
class TestBitIdentical:
    def test_serial_fabric_matches_run_specs(self):
        specs = _specs(5)
        assert run_specs_fabric(specs, workers=1, shard_size=2) \
            == run_specs(specs, workers=1)

    def test_parallel_fabric_matches_run_specs(self, tmp_path):
        specs = _specs(6)
        fabric = run_specs_fabric(specs, workers=3,
                                  sweep_dir=str(tmp_path), shard_size=2)
        assert fabric == run_specs(specs, workers=1)

    def test_chaos_specs_flow_through_fabric(self, tmp_path):
        specs = [chaos_spec(leechers=8, pieces=6, seed=seed, crashes=1,
                            max_time=400.0)
                 for seed in (0, 1)]
        fabric = run_specs_fabric(specs, workers=2, shard_size=1,
                                  sweep_dir=str(tmp_path))
        assert fabric == run_specs(specs, workers=1)
        assert load_manifest(str(tmp_path)).specs == specs
        assert all(summary.sanitizer_checks > 0 for summary in fabric)

    def test_merge_loads_from_checkpoints(self, tmp_path):
        # Complete a sweep, then resume with nothing pending: every
        # summary travels disk -> pickle -> merge and must still
        # compare equal.
        specs = _specs(4)
        first = run_specs_fabric(specs, workers=2,
                                 sweep_dir=str(tmp_path), shard_size=2)
        resumed = resume_sweep(str(tmp_path), workers=1)
        assert resumed == first

    def test_run_specs_routes_through_fabric(self, tmp_path):
        specs = [RunSpec(protocol="tchain", seed=seed, leechers=3,
                         pieces=2) for seed in range(3)]
        plain = run_specs(specs, workers=2)
        routed = run_specs(specs, workers=2, sweep_dir=str(tmp_path))
        assert routed == plain
        # One spec per shard, whatever the worker count: a re-run on
        # another count finds the same sweep subdirectory.
        assert run_specs(specs, workers=1,
                         sweep_dir=str(tmp_path)) == plain
        subdirs = os.listdir(str(tmp_path))
        assert len(subdirs) == 1  # one matrix, one sweep subdir
        assert load_manifest(os.path.join(str(tmp_path),
                                          subdirs[0])).n_specs == 3

    def test_run_specs_env_knob(self, tmp_path, monkeypatch):
        from repro.experiments.fabric import ENV_SWEEP_DIR
        monkeypatch.setenv(ENV_SWEEP_DIR, str(tmp_path))
        run_specs([RunSpec(protocol="tchain", seed=seed, leechers=3,
                           pieces=2) for seed in range(2)], workers=1)
        assert os.listdir(str(tmp_path))  # fabric state persisted

    def test_sweep_subdir_stable(self):
        specs = _specs(4)
        assert sweep_subdir("/parent", specs) \
            == sweep_subdir("/parent", list(specs))
        assert sweep_subdir("/parent", specs) \
            != sweep_subdir("/parent", _specs(5))


# ----------------------------------------------------------------------
# Crash-mid-sweep resume (the tentpole's acceptance behaviour)
# ----------------------------------------------------------------------
class TestKillResume:
    N_SPECS = 12
    SHARD_SIZE = 2  # -> 6 shards

    @pytest.fixture(scope="class")
    def serial(self):
        return run_specs(_specs(self.N_SPECS), workers=1)

    @pytest.mark.parametrize("k", [0, 3, 5],
                             ids=["first", "mid", "last"])
    def test_kill_shard_k_then_resume(self, tmp_path, serial, k):
        specs = _specs(self.N_SPECS)
        kill = WorkerKill(prob=1.0, seed=13, shard_indices=(k,))
        with pytest.raises(SweepIncomplete) as info:
            run_specs_fabric(specs, workers=2, sweep_dir=str(tmp_path),
                             shard_size=self.SHARD_SIZE,
                             retry_budget=0, worker_kill=kill)
        # The killed shard (at least) is quarantined and its spec
        # positions are holes in the partial merge.
        indices = {r["index"] for r in info.value.quarantined.values()}
        assert k in indices
        partial = info.value.partial
        assert partial[k * self.SHARD_SIZE] is None
        assert any(s is not None for s in partial) or len(indices) == 6
        # Resume runs clean (no kill plan persisted in the manifest).
        resumed = resume_sweep(str(tmp_path), workers=2)
        assert resumed == serial

    def test_single_invocation_survives_kills(self, tmp_path, serial):
        # With a retry budget, one invocation absorbs the SIGKILLs:
        # kills fire only on first attempts (max_kill_attempts=1).
        kill = WorkerKill(prob=1.0, seed=13, shard_indices=(1, 4))
        merged = run_specs_fabric(_specs(self.N_SPECS), workers=2,
                                  sweep_dir=str(tmp_path),
                                  shard_size=self.SHARD_SIZE,
                                  retry_budget=3, worker_kill=kill)
        assert merged == serial
        rebuilt = read_journal(str(tmp_path), event="pool_rebuilt")
        assert rebuilt  # the death was real, not a no-op

    def test_resume_after_deleted_checkpoint(self, tmp_path, serial):
        specs = _specs(self.N_SPECS)
        run_specs_fabric(specs, workers=2, sweep_dir=str(tmp_path),
                         shard_size=self.SHARD_SIZE)
        manifest = load_manifest(str(tmp_path))
        victim = manifest.shards[2].shard_id
        os.remove(checkpoint_path(str(tmp_path), victim))
        resumed = resume_sweep(str(tmp_path), workers=2)
        assert resumed == serial
        finished = read_journal(str(tmp_path), event="sweep_finished")
        assert finished[-1]["stats"]["executed"] == 1  # only shard 2

    def test_resume_after_corrupt_checkpoint(self, tmp_path, serial):
        specs = _specs(self.N_SPECS)
        run_specs_fabric(specs, workers=2, sweep_dir=str(tmp_path),
                         shard_size=self.SHARD_SIZE)
        manifest = load_manifest(str(tmp_path))
        victim = checkpoint_path(str(tmp_path),
                                 manifest.shards[4].shard_id)
        data = bytearray(open(victim, "rb").read())
        data[len(data) // 2] ^= 0xFF  # bit rot in the payload
        with open(victim, "wb") as fh:
            fh.write(bytes(data))
        resumed = resume_sweep(str(tmp_path), workers=2)
        assert resumed == serial
        corrupt = read_journal(str(tmp_path),
                               event="checkpoint_corrupt")
        assert len(corrupt) == 1

    def test_resume_refuses_different_matrix(self, tmp_path):
        run_specs_fabric(_specs(4), workers=1, sweep_dir=str(tmp_path),
                         shard_size=2)
        with pytest.raises(ManifestError, match="different matrix"):
            run_specs_fabric(_specs(6), workers=1, resume=True,
                             sweep_dir=str(tmp_path))

    def test_temp_dir_sweep_offers_no_resume(self, monkeypatch):
        # The temp directory is gone by the time the error surfaces, so
        # the message must not point at it.
        from repro.experiments.fabric import ENV_SWEEP_DIR
        monkeypatch.delenv(ENV_SWEEP_DIR, raising=False)
        kill = WorkerKill(prob=1.0, seed=13, shard_indices=(0,))
        with pytest.raises(SweepIncomplete) as info:
            run_specs_fabric(_specs(4), workers=2, shard_size=2,
                             retry_budget=0, worker_kill=kill)
        assert info.value.sweep_dir is None
        assert "--resume" not in str(info.value)

    def test_resume_needs_a_directory(self):
        with pytest.raises(SweepError, match="resume"):
            run_specs_fabric(resume=True)
        with pytest.raises(SweepError, match="specs are required"):
            run_specs_fabric(None)

    def test_allow_partial_returns_holes(self, tmp_path):
        specs = _specs(4)
        kill = WorkerKill(prob=1.0, seed=13, shard_indices=(0,))
        partial = run_specs_fabric(specs, workers=2,
                                   sweep_dir=str(tmp_path),
                                   shard_size=2, retry_budget=0,
                                   worker_kill=kill, allow_partial=True)
        assert len(partial) == 4
        assert partial[0] is None and partial[1] is None


class TestAcceptanceSweep:
    """The ISSUE acceptance bar: >= 200 specs, SIGKILLed workers,
    resume, bit-identical to serial."""

    def test_200_spec_kill_resume_bit_identical(self, tmp_path):
        specs = [replace(SPEC, seed=seed) for seed in range(200)]
        serial = run_specs(specs, workers=1)
        kill = WorkerKill(prob=1.0, seed=29,
                          shard_indices=(0, 7, 13, 24))
        with pytest.raises(SweepIncomplete) as info:
            run_specs_fabric(specs, workers=4, sweep_dir=str(tmp_path),
                             shard_size=8, retry_budget=0,
                             worker_kill=kill)
        assert info.value.quarantined  # the kills landed
        resumed = resume_sweep(str(tmp_path), workers=4)
        assert len(resumed) == 200
        assert resumed == serial


# ----------------------------------------------------------------------
# Satellites: from_kwargs purity, CLI
# ----------------------------------------------------------------------
class TestFromKwargsPurity:
    def test_error_path_keeps_kwargs_intact(self):
        kwargs = {"seed": 1, "setup": object(), "leechers": 4}
        with pytest.raises(ParallelExecutionError):
            RunSpec.from_kwargs(**kwargs)
        assert set(kwargs) == {"seed", "setup", "leechers"}
        # Dropping the offender, the same dict builds a spec cleanly.
        del kwargs["setup"]
        assert RunSpec.from_kwargs(**kwargs).seed == 1

    def test_none_valued_unspecable_keys_tolerated(self):
        spec = RunSpec.from_kwargs(seed=2, setup=None, fault_plan=None)
        assert spec.seed == 2
        # ... and they never leak into the overrides (which would
        # poison spec digests and kwargs round-trips).
        assert spec.config_overrides == ()
        assert "setup" not in spec.kwargs()

    def test_reusable_across_seed_loop(self):
        kwargs = dict(protocol="tchain", leechers=4, setup=None)
        specs = [RunSpec.from_kwargs(seed=s, **kwargs)
                 for s in range(3)]
        assert [s.seed for s in specs] == [0, 1, 2]
        assert kwargs == dict(protocol="tchain", leechers=4, setup=None)


class TestCLI:
    def test_sweep_verify_roundtrip(self, capsys):
        from repro.cli import main
        code = main(["sweep", "--protocols", "tchain", "--seeds", "3",
                     "--leechers", "3", "--pieces", "2",
                     "--workers", "2", "--shard-size", "2",
                     "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out

    def test_sweep_kill_then_resume(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["sweep", "--protocols", "tchain", "--seeds", "6",
                     "--leechers", "3", "--pieces", "2",
                     "--sweep-dir", str(tmp_path), "--workers", "2",
                     "--shard-size", "2", "--retry-budget", "0",
                     "--kill-prob", "1.0", "--kill-seed", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "quarantined" in captured.err
        code = main(["sweep", "--resume", str(tmp_path),
                     "--workers", "2", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out

    def test_sweep_table_counts_runs_without_a_finisher(self, capsys):
        """A run where no compliant leecher finished has no mean
        completion time: the table leaves it out of the mean and says
        so, next to the pooled compliant completion rate."""
        from repro.cli import main
        code = main(["sweep", "--protocols", "tchain", "--seeds", "2",
                     "--leechers", "4", "--pieces", "3",
                     "--max-time", "8"])
        out = capsys.readouterr().out
        assert code == 0
        header = next(line for line in out.splitlines()
                      if line.startswith("protocol"))
        assert "completion rate" in header
        assert "runs with no finisher" in header
        row = next(line for line in out.splitlines()
                   if line.startswith("tchain")).split()
        # protocol, runs, mean over finishers, rate, runs dropped
        assert row[1] == "2" and row[4] == "1"
        assert 0.0 < float(row[3]) < 1.0

    def test_kill_prob_requires_sweep_dir(self, capsys):
        from repro.cli import main
        assert main(["sweep", "--kill-prob", "0.5",
                     "--workers", "2"]) == 2
        assert "--sweep-dir" in capsys.readouterr().err

    def test_kill_prob_requires_two_workers(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.cli import main
        from repro.experiments.parallel import ENV_WORKERS
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        sweep_dir = tmp_path / "kp"
        assert main(["sweep", "--kill-prob", "0.5",
                     "--sweep-dir", str(sweep_dir), "--seeds", "2",
                     "--leechers", "3", "--pieces", "2"]) == 2
        assert "error: --kill-prob needs --workers >= 2" \
            in capsys.readouterr().err
        assert not sweep_dir.exists()

    def test_resume_without_manifest_is_an_argument_error(self, tmp_path,
                                                          capsys):
        from repro.cli import main
        assert main(["sweep", "--resume", str(tmp_path)]) == 2
        assert "error: no manifest" in capsys.readouterr().err
        assert os.listdir(str(tmp_path)) == []

    def test_resume_refuses_kill_prob(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["sweep", "--resume", str(tmp_path),
                     "--kill-prob", "0.5"]) == 2

    def test_compare_sweep_dir_persists_state(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["compare", "--protocols", "tchain", "bittorrent",
                     "--leechers", "3", "--pieces", "2",
                     "--workers", "2", "--sweep-dir", str(tmp_path)])
        assert code == 0
        assert os.listdir(str(tmp_path))

    def test_workers_help_names_cpu_semantics(self):
        # Satellite: CLI help drift — every worker flag documents the
        # `0 = one per CPU` behaviour resolve_workers implements.
        from repro.cli import build_parser
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0])))
        for name in ("compare", "figure", "chaos", "sweep"):
            sub = subparsers.choices[name]
            workers = next(a for a in sub._actions
                           if "--workers" in a.option_strings)
            assert "0 = one per CPU" in workers.help, name
