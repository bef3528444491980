"""Result persistence: JSON summaries and CSV metric dumps.

A swarm run produces a :class:`repro.experiments.runner.RunResult`;
these helpers serialize it so sweeps can be archived, diffed across
code versions, and post-processed outside the simulator (the CLI's
``--out`` flag uses them).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
from typing import Union

PathLike = Union[str, pathlib.Path]

#: bump when the serialized layout changes
SCHEMA_VERSION = 1


def run_summary(result) -> dict:
    """A JSON-safe summary of one run."""
    metrics = result.metrics
    summary = {
        "schema": SCHEMA_VERSION,
        "protocol": result.protocol,
        "config": dataclasses.asdict(result.config),
        "population": {
            "compliant": result.n_compliant,
            "freeriders": result.n_freeriders,
        },
        "results": {
            "mean_completion_s": metrics.mean_completion_time("leecher"),
            "completion_rate": metrics.completion_rate("leecher"),
            "mean_utilization": metrics.mean_utilization("leecher"),
            "freerider_completion_rate":
                metrics.completion_rate("freerider"),
            "freerider_mean_completion_s":
                metrics.mean_completion_time("freerider"),
            "optimal_completion_s": result.optimal_time(),
            "simulated_seconds": result.swarm.sim.now,
            "events_fired": result.swarm.sim.events_fired,
        },
    }
    state = result.tchain_state
    if state is not None:
        summary["tchain"] = {
            "chains_total": state.registry.total_count,
            "chains_by_seeder": state.registry.created_by_seeder,
            "chains_by_leechers": state.registry.created_by_leechers,
            "transactions_completed":
                state.ledger.completed_transactions,
            "transactions_aborted": state.ledger.aborted_transactions,
            "transactions_forgiven":
                state.ledger.forgiven_transactions,
            "collusion_successes": state.ledger.collusion_successes,
        }
    return summary


def save_run_json(result, path: PathLike) -> pathlib.Path:
    """Write the run summary as JSON; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run_summary(result), indent=2,
                               sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_run_json(path: PathLike) -> dict:
    """Read a summary written by :func:`save_run_json`."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema {data.get('schema')!r} in {path}")
    return data


PEER_CSV_FIELDS = [
    "peer_id", "kind", "capacity_kbps", "join_time", "finish_time",
    "leave_time", "kb_uploaded", "kb_downloaded", "pieces_uploaded",
    "pieces_downloaded", "pieces_completed", "utilization",
]


def save_peers_csv(result, path: PathLike) -> pathlib.Path:
    """Write per-peer records as CSV; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=PEER_CSV_FIELDS)
        writer.writeheader()
        for record in result.metrics.records:
            writer.writerow({field: getattr(record, field)
                             for field in PEER_CSV_FIELDS})
    return path


def load_peers_csv(path: PathLike) -> list:
    """Read rows written by :func:`save_peers_csv` (values as str)."""
    with pathlib.Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
