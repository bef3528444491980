"""Deterministic, content-addressed sweep manifests.

A sweep starts life as a flat ``RunSpec`` list.
Before any work runs, the fabric shards that list into a
:class:`SweepManifest` — fixed-size slices of the matrix, each with a
**stable, content-addressed shard id**: the SHA-256 of the canonical
JSON encoding of the shard's position and specs.  Because the encoding
is canonical (sorted keys, explicit dataclass tags, no floats mangled,
no wall-clock anywhere), the same spec list always shards to the same
ids — which is what lets a killed sweep resume from its manifest and
lets checkpoints be verified against the work they claim to hold.

The manifest is written to ``<sweep_dir>/manifest.json`` atomically
before the first shard is dispatched, so the sweep directory is
self-describing from the first instant: ``repro sweep --resume <dir>``
needs nothing but the directory.

Spec encoding is invertible for a fixed table of frozen dataclasses
(:func:`spec_classes`: ``RunSpec``, ``FreeRiderOptions``, ``FaultPlan``,
``PeerCrash``, ``NetworkPartition``); anything else in a spec must be a
JSON scalar, tuple or dict of the same.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, fields, is_dataclass
from typing import Dict, List, Sequence, Tuple, Type

#: Manifest format version, bumped on any encoding change so a resume
#: against an incompatible manifest fails loudly instead of merging
#: garbage.  v2: ``RunSpec`` gained ``fault_plan``.
FABRIC_VERSION = 2

#: Default specs per shard.  Small enough that losing a worker costs
#: little work; large enough that checkpoint/IPC overhead amortizes.
DEFAULT_SHARD_SIZE = 16

MANIFEST_NAME = "manifest.json"


class ManifestError(ValueError):
    """A manifest could not be built, encoded, or verified."""


# ----------------------------------------------------------------------
# Canonical spec encoding
# ----------------------------------------------------------------------
@functools.cache
def spec_classes() -> Dict[str, Type]:
    """name -> class, for every dataclass allowed inside a manifest."""
    # Imported lazily to keep module import order flexible (parallel
    # imports nothing from fabric, so this cannot cycle).
    from repro.attacks.freerider import FreeRiderOptions
    from repro.experiments.parallel import RunSpec
    from repro.faults.plan import FaultPlan, NetworkPartition, PeerCrash
    return {cls.__name__: cls for cls in (
        RunSpec, FreeRiderOptions, FaultPlan, PeerCrash, NetworkPartition)}


def encode_value(value: object) -> object:
    """``value`` as a JSON-able tree with explicit type tags.

    Scalars pass through; tuples and registered dataclasses get tagged
    wrappers so :func:`decode_value` can rebuild the exact object.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__list__": [encode_value(v) for v in value]}
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if spec_classes().get(name) is not type(value):
            raise ManifestError(
                f"dataclass {name} is not manifest-encodable")
        return {"__dataclass__": name,
                "fields": {f.name: encode_value(getattr(value, f.name))
                           for f in fields(value)}}
    if isinstance(value, dict):
        encoded = {}
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ManifestError(
                    f"non-string dict key {key!r} is not "
                    f"manifest-encodable")
            encoded[key] = encode_value(sub)
        return {"__dict__": encoded}
    raise ManifestError(f"value {value!r} ({type(value).__name__}) is "
                        f"not manifest-encodable")


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(decode_value(v) for v in value["__tuple__"])
        if "__list__" in value:
            return [decode_value(v) for v in value["__list__"]]
        if "__dict__" in value:
            return {k: decode_value(v)
                    for k, v in value["__dict__"].items()}
        if "__dataclass__" in value:
            name = value["__dataclass__"]
            cls = spec_classes().get(name)
            if cls is None:
                raise ManifestError(
                    f"manifest references unknown dataclass {name!r}")
            kwargs = {k: decode_value(v)
                      for k, v in value["fields"].items()}
            return cls(**kwargs)
        raise ManifestError(f"untagged dict in manifest: {value!r}")
    return value


def canonical_json(value: object) -> str:
    """The one true JSON rendering of an encoded tree: sorted keys,
    no whitespace — byte-stable across runs and platforms."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def spec_digest(spec: object) -> str:
    """SHA-256 hex of one spec's canonical encoding."""
    return hashlib.sha256(
        canonical_json(encode_value(spec)).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Shards and manifests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the spec matrix.

    ``shard_id`` is content-addressed: the SHA-256 of the canonical
    encoding of ``(fabric version, index, specs)``.  Including the
    index keeps ids unique even when a sweep repeats identical spec
    slices, while staying fully deterministic.
    """

    index: int
    shard_id: str
    specs: Tuple[object, ...]

    @staticmethod
    def compute_id(index: int, specs: Sequence[object]) -> str:
        payload = canonical_json({
            "fabric": FABRIC_VERSION,
            "index": index,
            "specs": [encode_value(s) for s in specs],
        })
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def build(cls, index: int, specs: Sequence[object]) -> "Shard":
        specs = tuple(specs)
        return cls(index=index, shard_id=cls.compute_id(index, specs),
                   specs=specs)


@dataclass(frozen=True)
class SweepManifest:
    """The complete, deterministic description of one sweep."""

    sweep_id: str
    shard_size: int
    n_specs: int
    shards: Tuple[Shard, ...]

    @property
    def specs(self) -> List[object]:
        """The flat spec list, in original order."""
        return [spec for shard in self.shards for spec in shard.specs]


def build_manifest(specs: Sequence[object],
                   shard_size: int = DEFAULT_SHARD_SIZE) -> SweepManifest:
    """Shard ``specs`` into a manifest with stable shard ids."""
    specs = list(specs)
    if not specs:
        raise ManifestError("cannot build a manifest for zero specs")
    if shard_size < 1:
        raise ManifestError(f"shard_size must be >= 1: {shard_size}")
    shards = tuple(
        Shard.build(index, specs[start:start + shard_size])
        for index, start in enumerate(range(0, len(specs), shard_size)))
    sweep_id = hashlib.sha256(
        canonical_json([s.shard_id for s in shards]).encode("utf-8")
    ).hexdigest()
    return SweepManifest(sweep_id=sweep_id, shard_size=shard_size,
                         n_specs=len(specs), shards=shards)


def manifest_path(sweep_dir: str) -> str:
    return os.path.join(sweep_dir, MANIFEST_NAME)


def write_manifest(manifest: SweepManifest, sweep_dir: str) -> str:
    """Write ``manifest.json`` atomically; returns its path.

    An existing manifest for a *different* sweep is refused — a sweep
    directory belongs to exactly one spec matrix, and silently mixing
    two would corrupt every resume that follows.
    """
    from repro.experiments.fabric.checkpoint import atomic_write_bytes
    os.makedirs(sweep_dir, exist_ok=True)
    path = manifest_path(sweep_dir)
    if os.path.exists(path):
        existing = load_manifest(sweep_dir)
        if existing.sweep_id != manifest.sweep_id:
            raise ManifestError(
                f"{sweep_dir} already holds manifest "
                f"{existing.sweep_id[:16]} for a different spec matrix; "
                f"use a fresh directory (or --resume for this one)")
        return path  # identical manifest already on disk
    payload = {
        "fabric_version": FABRIC_VERSION,
        "sweep_id": manifest.sweep_id,
        "shard_size": manifest.shard_size,
        "n_specs": manifest.n_specs,
        "shards": [{
            "index": shard.index,
            "shard_id": shard.shard_id,
            "specs": [encode_value(s) for s in shard.specs],
        } for shard in manifest.shards],
    }
    atomic_write_bytes(
        path, (json.dumps(payload, sort_keys=True, indent=1) + "\n")
        .encode("utf-8"))
    return path


def load_manifest(sweep_dir: str) -> SweepManifest:
    """Read and *verify* the manifest of ``sweep_dir``.

    Every shard id is recomputed from the decoded specs; any mismatch
    (bit rot, hand edits, version skew) raises :class:`ManifestError`
    rather than letting a resume merge the wrong work.
    """
    path = manifest_path(sweep_dir)
    if not os.path.isfile(path):
        raise ManifestError(f"no manifest at {path}; not a sweep "
                            f"directory (or the sweep never started)")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest {path} is not valid JSON: "
                                f"{exc}") from exc
    version = payload.get("fabric_version")
    if version != FABRIC_VERSION:
        raise ManifestError(f"manifest {path} has fabric_version "
                            f"{version!r}; this build speaks "
                            f"{FABRIC_VERSION}")
    shards = []
    for entry in payload["shards"]:
        specs = tuple(decode_value(s) for s in entry["specs"])
        shard = Shard.build(entry["index"], specs)
        if shard.shard_id != entry["shard_id"]:
            raise ManifestError(
                f"manifest {path} shard {entry['index']} id mismatch: "
                f"recorded {entry['shard_id'][:16]}, recomputed "
                f"{shard.shard_id[:16]} — manifest corrupt or built "
                f"by an incompatible encoder")
        shards.append(shard)
    manifest = SweepManifest(sweep_id=payload["sweep_id"],
                             shard_size=payload["shard_size"],
                             n_specs=payload["n_specs"],
                             shards=tuple(shards))
    expected = hashlib.sha256(
        canonical_json([s.shard_id for s in manifest.shards])
        .encode("utf-8")).hexdigest()
    if expected != manifest.sweep_id:
        raise ManifestError(f"manifest {path} sweep_id mismatch")
    return manifest
