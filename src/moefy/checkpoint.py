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
from .model import ModelConfig, TransformerParams, param_shapes
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
    """Read a checkpoint; a truncated or malformed file raises ValueError naming it.

    The model tensors must carry the names and shapes of
    `model.param_shapes` for the manifest's config; partitions and routers,
    when present, must number n_layers and fit the model config, and
    partition i must carry layer_index i.
    """
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
        return _bundle_from(manifest, blob)
    except KeyError as exc:
        raise ValueError(f"{path}: manifest is missing key {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: unreadable manifest ({exc})") from None
    except (TypeError, IndexError) as exc:
        # a manifest value of the wrong type or length
        raise ValueError(f"{path}: malformed manifest ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _bundle_from(manifest: dict, blob: bytes) -> CheckpointBundle:
    try:
        cfg = ModelConfig(**manifest["config"]).validate()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad model config ({exc})") from None
    entries = manifest["tensors"]
    expected = sum(e["nbytes"] for e in entries)
    if len(blob) != expected:
        raise ValueError(f"tensor data is {len(blob)} bytes, manifest lists {expected}")
    tensors: dict[str, np.ndarray] = {}
    a = 0
    for entry in entries:
        if entry["offset"] != a:
            raise ValueError(f"tensor {entry['name']} starts at byte {entry['offset']}, "
                             f"expected {a}")
        if entry["nbytes"] != 4 * math.prod(entry["shape"]):
            raise ValueError(f"tensor {entry['name']} has {entry['nbytes']} bytes "
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

    _check_model_tensors(cfg, tensors)
    params = TransformerParams(cfg, {n: param(a) for n, a in tensors.items()})
    partitions = None
    if manifest["partitions"] is not None:
        partitions = [_partition_from_json(d) for d in manifest["partitions"]]
    _check_routing(cfg, partitions, routers)
    return CheckpointBundle(
        config=cfg,
        params=params,
        partitions=partitions,
        routers=routers,
        stage=manifest["stage"],
        meta=manifest.get("meta", {}),
    )


def _check_model_tensors(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> None:
    """The model tensors match `param_shapes(cfg)`: no name missing or extra, no shape off."""
    shapes = param_shapes(cfg)
    problems = {
        "missing": [n for n in shapes if n not in tensors],
        "unexpected": [n for n in tensors if n not in shapes],
        "misshapen": [f"{n} {list(a.shape)} (config: {list(shapes[n])})"
                      for n, a in tensors.items() if n in shapes and a.shape != shapes[n]],
    }
    found = [f"{what} {', '.join(names)}" for what, names in problems.items() if names]
    if found:
        raise ValueError(f"model tensors do not fit the config: {'; '.join(found)}")


def _check_routing(cfg: ModelConfig, partitions, routers) -> None:
    """Partitions and routers, if any: one per layer, fitting cfg; partition i has layer_index i."""
    for what, items in (("partitions", partitions), ("routers", routers)):
        if items is not None and len(items) != cfg.n_layers:
            raise ValueError(f"{len(items)} {what} for n_layers={cfg.n_layers}")
    for i, p in enumerate(partitions or ()):
        if p.layer_index != i:
            raise ValueError(f"partition {i} has layer_index {p.layer_index}")
        if (p.n_experts, p.expert_size) != (cfg.n_experts, cfg.expert_size):
            raise ValueError(f"partition {i} has {p.n_experts} experts of {p.expert_size}, "
                             f"the config {cfg.n_experts} of {cfg.expert_size}")
    for i, r in enumerate(routers or ()):
        if r.Wg.data.shape != (cfg.d_model, cfg.n_experts):
            raise ValueError(f"router {i} Wg has shape {r.Wg.data.shape}, expected "
                             f"{(cfg.d_model, cfg.n_experts)}")
