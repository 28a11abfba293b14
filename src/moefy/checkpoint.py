"""Checkpoint serialization: JSON manifest + one little-endian float32 blob.

Layout: magic "LTE1", 8-byte little-endian manifest length, canonical JSON
manifest (tensor table with name/shape/offset/nbytes/precision, the model
config, partitions, stage tag, metadata), then the raw blob. Canonical JSON
plus a fixed tensor order make identical states serialize byte-identically.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .grouping import ExpertPartition
from .model import ModelConfig, TransformerParams
from .routing import RouterLayer
from .autograd import param

MAGIC = b"LTE1"


@dataclass
class CheckpointBundle:
    config: ModelConfig
    params: TransformerParams
    partitions: Optional[list[ExpertPartition]] = None
    routers: Optional[list[RouterLayer]] = None
    stage: str = "base"  # base | moefied | stage1 | stage2
    meta: dict = field(default_factory=dict)


def _partition_to_json(p: ExpertPartition) -> dict:
    return {
        "layer_index": p.layer_index,
        "n_experts": p.n_experts,
        "expert_size": p.expert_size,
        "assignment": p.assignment.tolist(),
        "permutation": p.permutation.tolist(),
        "method": p.method,
    }


def _partition_from_json(d: dict) -> ExpertPartition:
    return ExpertPartition(
        layer_index=d["layer_index"],
        n_experts=d["n_experts"],
        expert_size=d["expert_size"],
        assignment=np.asarray(d["assignment"], dtype=np.int64),
        permutation=np.asarray(d["permutation"], dtype=np.int64),
        method=d["method"],
    ).validate()


def save_checkpoint(path: str, bundle: CheckpointBundle) -> None:
    tensors: list[tuple[str, np.ndarray]] = [
        (name, bundle.params[name].data) for name in bundle.params.names()
    ]
    if bundle.routers is not None:
        for i, r in enumerate(bundle.routers):
            tensors.append((f"router.{i}.Wg", r.Wg.data))

    table = []
    offset = 0
    blobs = []
    for name, arr in tensors:
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        table.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
                "precision": "f32",
            }
        )
        blobs.append(raw)
        offset += len(raw)

    manifest = {
        "config": asdict(bundle.config),
        "stage": bundle.stage,
        "partitions": None
        if bundle.partitions is None
        else [_partition_to_json(p) for p in bundle.partitions],
        "tensors": table,
        "meta": bundle.meta,
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    # write beside the target, then rename: a failed write never clobbers `path`
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(mbytes)))
            fh.write(mbytes)
            for raw in blobs:
                fh.write(raw)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> CheckpointBundle:
    """Read a checkpoint; a truncated or malformed file raises ValueError naming it."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        (mlen,) = struct.unpack("<Q", header)
        mbytes = fh.read(mlen)
        blob = fh.read()
    try:
        manifest = json.loads(mbytes.decode())
        return _bundle_from(manifest, blob, path)
    except KeyError as exc:
        raise ValueError(f"{path}: manifest is missing key {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: unreadable manifest ({exc})") from None


def _bundle_from(manifest: dict, blob: bytes, path: str) -> CheckpointBundle:
    try:
        cfg = ModelConfig(**manifest["config"]).validate()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model config ({exc})") from None
    entries = manifest["tensors"]
    expected = sum(e["nbytes"] for e in entries)
    if len(blob) != expected:
        raise ValueError(f"{path}: tensor data is {len(blob)} bytes, manifest lists {expected}")
    tensors: dict[str, np.ndarray] = {}
    a = 0
    for entry in entries:
        if entry["offset"] != a:
            raise ValueError(f"{path}: tensor {entry['name']} starts at byte {entry['offset']}, "
                             f"expected {a}")
        if entry["nbytes"] != 4 * math.prod(entry["shape"]):
            raise ValueError(f"{path}: tensor {entry['name']} has {entry['nbytes']} bytes "
                             f"for shape {entry['shape']}")
        b = a + entry["nbytes"]
        arr = np.frombuffer(blob[a:b], dtype="<f4").reshape(entry["shape"]).copy()
        tensors[entry["name"]] = arr
        a = b

    router_names = sorted(
        (n for n in tensors if n.startswith("router.")),
        key=lambda n: int(n.split(".")[1]),
    )
    routers = None
    if router_names:
        routers = [RouterLayer(Wg=param(tensors.pop(n))) for n in router_names]

    params = TransformerParams(cfg, {n: param(a) for n, a in tensors.items()})
    partitions = None
    if manifest["partitions"] is not None:
        partitions = [_partition_from_json(d) for d in manifest["partitions"]]
    return CheckpointBundle(
        config=cfg,
        params=params,
        partitions=partitions,
        routers=routers,
        stage=manifest["stage"],
        meta=manifest.get("meta", {}),
    )
