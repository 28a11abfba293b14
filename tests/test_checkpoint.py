import builtins
import json
import re
import struct

import numpy as np
import pytest

from moefy.autograd import no_grad
from moefy.checkpoint import MAGIC, CheckpointBundle, load_checkpoint, save_checkpoint
from moefy.grouping import apply_partition, group_experts_kmeans
from moefy.model import ModelConfig, forward_lm, init_params
from moefy.numerics import Rng
from moefy.routing import router_init

from ffn_blocks import ffn_weights


def build_bundle(seed=0, with_routers=True):
    cfg = ModelConfig(vocab_size=19, d_model=8, n_heads=2, n_layers=2, d_ffn=8,
                      max_seq_len=10, expert_size=4).validate()
    params = init_params(cfg, Rng(seed))
    partitions = routers = None
    if with_routers:
        partitions, routers = [], []
        for i in range(cfg.n_layers):
            p = group_experts_kmeans(ffn_weights(params, i)["up"].T, cfg.n_experts,
                                     Rng(seed).split(f"g{i}"), layer_index=i)
            apply_partition(params, i, p)
            partitions.append(p)
            routers.append(router_init(cfg.d_model, cfg.n_experts, Rng(seed).split(f"r{i}")))
    return CheckpointBundle(config=cfg, params=params, partitions=partitions,
                            routers=routers, stage="moefied" if with_routers else "base",
                            meta={"seed": seed})


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path):
        bundle = build_bundle()
        path = tmp_path / "a.ckpt"
        save_checkpoint(str(path), bundle)
        loaded = load_checkpoint(str(path))
        assert loaded.params.names() == bundle.params.names()
        for name in bundle.params.names():
            assert np.array_equal(loaded.params[name].data, bundle.params[name].data)
        for ra, rb in zip(loaded.routers, bundle.routers):
            assert np.array_equal(ra.Wg.data, rb.Wg.data)

    def test_partitions_and_stage_preserved(self, tmp_path):
        bundle = build_bundle()
        path = tmp_path / "b.ckpt"
        save_checkpoint(str(path), bundle)
        loaded = load_checkpoint(str(path))
        assert loaded.stage == "moefied"
        assert loaded.meta["seed"] == 0
        for pa, pb in zip(loaded.partitions, bundle.partitions):
            assert np.array_equal(pa.assignment, pb.assignment)
            assert np.array_equal(pa.permutation, pb.permutation)
            assert pa.method == pb.method

    def test_forward_identical_after_reload(self, tmp_path):
        bundle = build_bundle()
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), bundle)
        loaded = load_checkpoint(str(path))
        tokens = np.array([1, 2, 3, 4])
        with no_grad():
            a = forward_lm(bundle.params, tokens).logits.data
            b = forward_lm(loaded.params, tokens).logits.data
        assert np.array_equal(a, b)

    def test_base_checkpoint_without_routers(self, tmp_path):
        bundle = build_bundle(with_routers=False)
        path = tmp_path / "d.ckpt"
        save_checkpoint(str(path), bundle)
        loaded = load_checkpoint(str(path))
        assert loaded.routers is None and loaded.partitions is None


class TestFormat:
    def test_magic_and_manifest_layout(self, tmp_path):
        path = tmp_path / "e.ckpt"
        save_checkpoint(str(path), build_bundle())
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        (mlen,) = struct.unpack("<Q", raw[4:12])
        manifest = json.loads(raw[12:12 + mlen].decode())
        assert manifest["config"]["d_model"] == 8
        names = [t["name"] for t in manifest["tensors"]]
        assert "router.0.Wg" in names and "router.1.Wg" in names
        # each fact once: offsets follow from the shapes, experts from the config
        assert all(t.keys() == {"name", "shape"} for t in manifest["tensors"])
        assert len(raw) - 12 - mlen == sum(4 * int(np.prod(t["shape"]))
                                           for t in manifest["tensors"])
        assert all(p.keys() == {"layer_index", "method", "permutation"}
                   for p in manifest["partitions"])

    def test_loads_manifest_with_derived_fields(self, tmp_path):
        # files whose manifest also states each tensor's offset, size and precision and
        # each partition's assignment and expert counts load to the same state
        bundle = build_bundle()
        path = tmp_path / "h.ckpt"
        save_checkpoint(str(path), bundle)

        def add_derived_fields(m):
            offset = 0
            for t in m["tensors"]:
                nbytes = 4 * int(np.prod(t["shape"]))
                t.update(offset=offset, nbytes=nbytes, precision="f32")
                offset += nbytes
            for d, p in zip(m["partitions"], bundle.partitions):
                d.update(assignment=(np.argsort(p.permutation) // 4).tolist(), n_experts=2,
                         expert_size=4)

        rewrite_manifest(path, add_derived_fields)
        loaded = load_checkpoint(str(path))
        assert loaded.params.names() == bundle.params.names()
        for name in bundle.params.names():
            assert np.array_equal(loaded.params[name].data, bundle.params[name].data)
        for ra, rb in zip(loaded.routers, bundle.routers, strict=True):
            assert np.array_equal(ra.Wg.data, rb.Wg.data)
        for pa, pb in zip(loaded.partitions, bundle.partitions, strict=True):
            assert (pa.layer_index, pa.n_experts, pa.expert_size, pa.method) == \
                (pb.layer_index, pb.n_experts, pb.expert_size, pb.method)
            assert np.array_equal(pa.permutation, pb.permutation)
            assert np.array_equal(pa.assignment, pb.assignment)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_save_is_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "g1.ckpt", tmp_path / "g2.ckpt"
        save_checkpoint(str(p1), build_bundle(seed=3))
        save_checkpoint(str(p2), build_bundle(seed=3))
        assert p1.read_bytes() == p2.read_bytes()


def rewrite_manifest(path, edit):
    """Apply `edit` to the manifest dict of the checkpoint at `path`, in place."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[4:12])
    manifest = json.loads(raw[12:12 + mlen].decode())
    edit(manifest)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(mbytes)) + mbytes + raw[12 + mlen:])


def drop_tensor(path, name):
    """Remove tensor `name` from the checkpoint at `path`: manifest entry and blob bytes."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[4:12])
    manifest = json.loads(raw[12:12 + mlen].decode())
    blob = raw[12 + mlen:]
    sizes = [4 * int(np.prod(t["shape"])) for t in manifest["tensors"]]
    i = [t["name"] for t in manifest["tensors"]].index(name)
    start = sum(sizes[:i])
    del manifest["tensors"][i]
    blob = blob[:start] + blob[start + sizes[i]:]
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(mbytes)) + mbytes + blob)


def edit_entry(tensor, **fields):
    """A manifest edit that updates the table entry of `tensor`."""
    return lambda m: next(t for t in m["tensors"] if t["name"] == tensor).update(fields)


class TestCorruptFiles:
    def saved(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), build_bundle())
        return path

    def test_truncated_blob_names_file(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*bytes"):
            load_checkpoint(str(path))

    def test_truncated_manifest_names_file(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    def test_missing_manifest_key_names_file_and_key(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_manifest(path, lambda m: m.pop("stage"))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*'stage'"):
            load_checkpoint(str(path))

    def test_table_shapes_must_fill_blob(self, tmp_path):
        path = self.saved(tmp_path)

        def halve_first_shape(m):
            m["tensors"][0]["shape"][0] //= 2

        rewrite_manifest(path, halve_first_shape)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*bytes.*shapes"):
            load_checkpoint(str(path))

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        # a second `wte` backed by zero bytes would otherwise replace the first
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        (mlen,) = struct.unpack("<Q", raw[4:12])
        manifest = json.loads(raw[12:12 + mlen].decode())
        wte = next(t for t in manifest["tensors"] if t["name"] == "wte")
        manifest["tensors"].append(dict(wte))
        mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        zeros = bytes(4 * int(np.prod(wte["shape"])))
        path.write_bytes(MAGIC + struct.pack("<Q", len(mbytes)) + mbytes + raw[12 + mlen:]
                         + zeros)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": tensor wte is listed twice"):
            load_checkpoint(str(path))

    def test_unknown_config_key_names_file(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_manifest(path, lambda m: m["config"].update(bogus=1))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*bogus"):
            load_checkpoint(str(path))

    @staticmethod
    def set_router_shape(m, shape):
        next(t for t in m["tensors"] if t["name"] == "router.0.Wg")["shape"] = shape

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["tensors"][0].update(shape="abc"), "malformed manifest"),
        (lambda m: m["tensors"][0].update(shape=[-1, 8]),
         r"malformed manifest \(tensor wte has shape \[-1, 8\], not a list of non-negative"),
        (lambda m: m["partitions"].__setitem__(1, None), "malformed manifest"),
        (lambda m: m.update(partitions=m["partitions"][:1]), "1 partitions for n_layers=2"),
        (lambda m: m["partitions"][0]["permutation"].__setitem__(
            0, m["partitions"][0]["permutation"][1]), "permutation is not a bijection"),
        (lambda m: m["config"].update(expert_size=2),
         r"router 0 Wg has shape \(8, 2\), expected \(8, 4\)"),
        (lambda m: TestCorruptFiles.set_router_shape(m, [2, 8]), r"router 0 Wg has shape \(2, 8\)"),
        (lambda m: m["partitions"][1].update(layer_index=0), "partition 1 has layer_index 0"),
        (lambda m: m["partitions"].reverse(), "partition 0 has layer_index 1"),
        (lambda m: m["tensors"][0].update(name=5),
         r"malformed manifest \(tensor name 5 is not a string\)"),
        (lambda m: m["config"].update(d_model=8.0),
         r"bad model config \(d_model must be an int, got 8.0\)"),
        (lambda m: m["partitions"][0].update(
            permutation=[i + 0.5 for i in m["partitions"][0]["permutation"]]),
         r"malformed manifest \(partition 0 permutation is not a list of ints\)"),
        (lambda m: m["partitions"][0].update(layer_index="0"),
         r"malformed manifest \(partition layer_index '0' is not an int\)"),
        (lambda m: m.update(meta=[1, 2]), r"malformed manifest \(meta is \[1, 2\], not an object\)"),
    ], ids=["shape_not_a_list", "negative_dimension", "null_partition", "short_partition_list",
            "permutation_not_bijective", "config_expert_size_edited",
            "router_disagrees_with_config", "partition_relabelled", "partitions_swapped",
            "name_not_a_string", "float_model_size", "fractional_permutation",
            "string_layer_index", "meta_not_an_object"])
    def test_malformed_routing_names_file(self, tmp_path, edit, message):
        path = self.saved(tmp_path)
        rewrite_manifest(path, edit)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("name", ["router.01.Wg", "router.1.extra", "router.2.Wg",
                                      "router.x.Wg", "router.1"])
    def test_malformed_router_name_rejected(self, tmp_path, name):
        # "router.01.Wg" and "router.1.extra" once loaded as layer 1's router
        path = self.saved(tmp_path)
        rewrite_manifest(path, edit_entry("router.1.Wg", name=name))
        with pytest.raises(ValueError, match=re.escape(f"{path}: tensor {name} is not a router "
                                                       "name router.{i}.Wg with i < n_layers=2")):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("defect,message", [
        (lambda p: drop_tensor(p, "block0.ffn.b2"), "missing block0.ffn.b2$"),
        (lambda p: rewrite_manifest(p, edit_entry("block0.attn.Wq", name="block0.attn.Wx")),
         "missing block0.attn.Wq; unexpected block0.attn.Wx$"),
        (lambda p: rewrite_manifest(p, edit_entry("head.b", name="head.bias")),
         "missing head.b; unexpected head.bias$"),
        (lambda p: rewrite_manifest(p, edit_entry("wte", shape=[8, 19])),
         re.escape("misshapen wte [8, 19] (config: [19, 8])")),
        (lambda p: rewrite_manifest(p, edit_entry("head.W", shape=[19, 8])),
         re.escape("misshapen head.W [19, 8] (config: [8, 19])")),
    ], ids=["dropped_tensor", "renamed_weight", "renamed_head_bias", "wte_transposed",
            "head_transposed"])
    def test_model_tensors_must_fit_config(self, tmp_path, defect, message):
        path = self.saved(tmp_path)
        defect(path)
        with pytest.raises(ValueError, match=re.escape(str(path))
                           + ": model tensors do not fit the config: .*" + message):
            load_checkpoint(str(path))


class TestAtomicSave:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "keep.ckpt"
        save_checkpoint(str(path), build_bundle(seed=1))
        before = path.read_bytes()
        budget = [len(before) // 2]  # fail halfway through the tensor data

        class FailingFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if len(data) > budget[0]:
                    self.fh.write(data[:budget[0]])
                    raise OSError("injected write failure")
                budget[0] -= len(data)
                return self.fh.write(data)

        monkeypatch.setattr("moefy.checkpoint.open",
                            lambda p, mode="r": FailingFile(builtins.open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(str(path), build_bundle(seed=2))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.ckpt"]
