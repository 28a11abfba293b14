"""Checkpoint serialization: JSON manifest + one little-endian float32 blob.

Layout: magic "LTE1", 8-byte little-endian manifest length, canonical JSON
manifest (the model config, partitions as layer index, method and
permutation, stage tag, metadata, and a tensor table of names and shapes),
then the raw blob. The tensors lie in the blob in table order, each
4 * prod(shape) bytes, so the table states no offsets. Canonical JSON plus a
fixed tensor order make identical states serialize byte-identically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

import numpy as np

from .grouping import METHODS, ExpertPartition
from .model import ModelConfig, TransformerParams, param_shapes
from .routing import RouterLayer
from .autograd import param

MAGIC = b"LTE1"
STAGE_TAGS = ("base", "moefied", "stage1", "stage2")


@dataclass
class CheckpointBundle:
    config: ModelConfig
    params: TransformerParams
    partitions: Optional[list[ExpertPartition]] = None
    routers: Optional[list[RouterLayer]] = None
    stage: str = "base"  # one of STAGE_TAGS
    meta: dict = field(default_factory=dict)


def _partition_to_json(p: ExpertPartition) -> dict:
    return {"layer_index": p.layer_index, "method": p.method,
            "permutation": p.permutation.tolist()}


def _partition_from_json(cfg: ModelConfig, d: dict) -> ExpertPartition:
    if type(d["layer_index"]) is not int:
        raise TypeError(f"partition layer_index {d['layer_index']!r} is not an int")
    if d["method"] not in METHODS:
        raise ValueError(f"partition {d['layer_index']} method {d['method']!r} is not one "
                         f"of {', '.join(METHODS)}")
    permutation = np.asarray(d["permutation"])
    if permutation.dtype.kind not in "iu":
        raise TypeError(f"partition {d['layer_index']} permutation is not a list of ints")
    return ExpertPartition(
        layer_index=d["layer_index"],
        n_experts=cfg.n_experts,
        expert_size=cfg.expert_size,
        permutation=permutation.astype(np.int64, copy=False),
        method=d["method"],
    ).validate()


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` beside `path`, then rename: a failed write never clobbers `path`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path: str, bundle: CheckpointBundle) -> None:
    tensors: list[tuple[str, np.ndarray]] = [
        (name, bundle.params[name].data) for name in bundle.params.names()
    ]
    if bundle.routers is not None:
        for i, r in enumerate(bundle.routers):
            tensors.append((f"router.{i}.Wg", r.Wg.data))

    table = [{"name": name, "shape": list(arr.shape)} for name, arr in tensors]
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
    write_atomic(path, itertools.chain(
        (MAGIC, struct.pack("<Q", len(mbytes)), mbytes),
        (np.ascontiguousarray(arr, dtype="<f4").tobytes() for _, arr in tensors)))


def load_checkpoint(path: str) -> CheckpointBundle:
    """Read a checkpoint; a truncated or malformed file raises ValueError naming it.

    Each name must be a string and each shape a list of non-negative ints,
    the model sizes ints, the stage one of STAGE_TAGS, a partition's
    layer_index an int, its method one of `grouping.METHODS` and its
    permutation a list of ints, and meta an object. The blob must hold
    exactly the table's tensors, no name may repeat, and the model tensors
    must carry the names and shapes of `model.param_shapes` for the
    manifest's config. Partitions and routers, when present, must
    number n_layers, partition i must carry layer_index i, router i must be
    named `router.{i}.Wg`, and routers must fit the config; a partition's
    n_experts and expert_size are the config's.
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
    if manifest["stage"] not in STAGE_TAGS:
        raise ValueError(f"stage {manifest['stage']!r} is not one of {', '.join(STAGE_TAGS)}")
    entries = manifest["tensors"]
    for e in entries:
        if type(e["name"]) is not str:
            raise TypeError(f"tensor name {e['name']!r} is not a string")
        shape = e["shape"]
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise TypeError(f"tensor {e['name']} has shape {shape!r}, not a list of "
                            f"non-negative ints")
    sizes = [math.prod(e["shape"]) for e in entries]
    if len(blob) != 4 * sum(sizes):
        raise ValueError(f"tensor data is {len(blob)} bytes, the table's shapes need "
                         f"{4 * sum(sizes)}")
    tensors: dict[str, np.ndarray] = {}
    a = 0
    for entry, n in zip(entries, sizes):
        if entry["name"] in tensors:
            raise ValueError(f"tensor {entry['name']} is listed twice")
        tensors[entry["name"]] = np.frombuffer(blob, "<f4", n, a).reshape(entry["shape"]).copy()
        a += 4 * n

    router_names = [f"router.{i}.Wg" for i in range(cfg.n_layers)]
    stray = next((n for n in tensors if n.startswith("router.") and n not in router_names), None)
    if stray is not None:
        raise ValueError(f"tensor {stray} is not a router name router.{{i}}.Wg with i < "
                         f"n_layers={cfg.n_layers}")
    routers = [RouterLayer(Wg=param(tensors.pop(n))) for n in router_names if n in tensors] or None

    _check_model_tensors(cfg, tensors)
    params = TransformerParams(cfg, {n: param(a) for n, a in tensors.items()})
    partitions = None
    if manifest["partitions"] is not None:
        partitions = [_partition_from_json(cfg, d) for d in manifest["partitions"]]
    _check_routing(cfg, partitions, routers)
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise TypeError(f"meta is {meta!r}, not an object")
    return CheckpointBundle(
        config=cfg,
        params=params,
        partitions=partitions,
        routers=routers,
        stage=manifest["stage"],
        meta=meta,
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
    """Partitions and routers, if any: one per layer; partition i at layer i; routers fit cfg."""
    for what, items in (("partitions", partitions), ("routers", routers)):
        if items is not None and len(items) != cfg.n_layers:
            raise ValueError(f"{len(items)} {what} for n_layers={cfg.n_layers}")
    for i, p in enumerate(partitions or ()):
        if p.layer_index != i:
            raise ValueError(f"partition {i} has layer_index {p.layer_index}")
    for i, r in enumerate(routers or ()):
        if r.Wg.data.shape != (cfg.d_model, cfg.n_experts):
            raise ValueError(f"router {i} Wg has shape {r.Wg.data.shape}, expected "
                             f"{(cfg.d_model, cfg.n_experts)}")
