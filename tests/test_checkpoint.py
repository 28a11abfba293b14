import builtins
import json
import re
import struct

import numpy as np
import pytest

from moefy.autograd import no_grad
from moefy.checkpoint import MAGIC, CheckpointBundle, load_checkpoint, save_checkpoint
from moefy.grouping import apply_partition, group_experts_kmeans
from moefy.model import ModelConfig, forward_lm, get_ffn_layer, init_params, set_ffn_layer
from moefy.numerics import Rng
from moefy.routing import router_init


def build_bundle(seed=0, with_routers=True):
    cfg = ModelConfig(vocab_size=19, d_model=8, n_heads=2, n_layers=2, d_ffn=8,
                      max_seq_len=10, expert_size=4).validate()
    params = init_params(cfg, Rng(seed))
    partitions = routers = None
    if with_routers:
        partitions, routers = [], []
        for i in range(cfg.n_layers):
            layer = get_ffn_layer(params, i)
            p = group_experts_kmeans(layer.W1.T, cfg.n_experts, Rng(seed).split(f"g{i}"),
                                     layer_index=i)
            set_ffn_layer(params, i, apply_partition(layer, p))
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
        offsets = [t["offset"] for t in manifest["tensors"]]
        assert offsets == sorted(offsets)
        for t in manifest["tensors"]:
            assert t["precision"] == "f32"
            assert t["nbytes"] == 4 * int(np.prod(t["shape"]))

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

    def test_entry_nbytes_must_match_shape(self, tmp_path):
        path = self.saved(tmp_path)

        def halve_first_shape(m):
            m["tensors"][0]["shape"][0] //= 2

        rewrite_manifest(path, halve_first_shape)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*shape"):
            load_checkpoint(str(path))


    def test_shifted_offset_rejected(self, tmp_path):
        # offsets must tile the blob; a shifted one would read a neighbour's bytes
        path = self.saved(tmp_path)

        def shift_first_offset(m):
            m["tensors"][0]["offset"] += 4

        rewrite_manifest(path, shift_first_offset)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*byte 4"):
            load_checkpoint(str(path))

    def test_unknown_config_key_names_file(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_manifest(path, lambda m: m["config"].update(bogus=1))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*bogus"):
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
