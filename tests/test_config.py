import numpy as np
import pytest

from moefy.config import (
    ConfigError,
    RunConfig,
    build_config,
    load_corpus,
    make_synthetic_corpus,
    parse_config_file,
)


class TestConfigFile:
    def test_parse_types_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\nd_model = 64\nlr=0.001\n\nffn_kind=swiglu\n")
        vals = parse_config_file(str(p))
        assert vals == {"d_model": 64, "lr": 0.001, "ffn_kind": "swiglu"}

    @pytest.mark.parametrize("key", ("warp_speed", "tie_embeddings", "vocab_size",
                                     "warmup_ratio", "weight_decay", "clip_norm"))
    def test_unknown_key_rejected(self, tmp_path, key):
        p = tmp_path / "bad.cfg"
        p.write_text(f"{key}=9\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config_file(str(p))
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_config(None, {key: 9})

    def test_bad_type_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("d_model=wide\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(p))

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("d_model 64\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(p))

    def test_precedence_override_beats_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("d_model=64\nseed=4\n")
        cfg = build_config(str(p), {"seed": 9})
        assert cfg.d_model == 64 and cfg.seed == 9

    def test_validation_divisibility(self):
        with pytest.raises(ConfigError):
            build_config(None, {"d_model": 10, "n_heads": 4})
        with pytest.raises(ConfigError):
            build_config(None, {"d_ffn": 30, "expert_size": 16})

    def test_validation_tau_and_coeffs(self):
        with pytest.raises(ConfigError):
            build_config(None, {"tau": 1.5})
        with pytest.raises(ConfigError):
            build_config(None, {"eta": -2.0})

    def test_validation_denom_guard(self):
        with pytest.raises(ConfigError, match="denom_guard"):
            build_config(None, {"denom_guard": 0.0})

    @pytest.mark.parametrize("value", ("nan", "inf"))
    @pytest.mark.parametrize("key", ("lr", "eta", "lam", "denom_guard"))
    def test_non_finite_float_rejected(self, tmp_path, key, value):
        p = tmp_path / "run.cfg"
        p.write_text(f"{key}={value}\n")
        with pytest.raises(ConfigError, match=f"^{key} must be .*finite.*, got {value}$"):
            build_config(str(p))

    def test_defaults_complete(self):
        cfg = build_config(None, None)
        assert isinstance(cfg, RunConfig)
        assert cfg.tau == 0.5 and cfg.lam == 0.5


class TestCorpus:
    def test_split_95_5(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("x" * 1000)
        c = load_corpus(str(p))
        assert c.train.shape[0] == 950 and c.val.shape[0] == 50
        assert c.data.dtype == np.uint8

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("")
        with pytest.raises(ConfigError):
            load_corpus(str(p))

    def test_tiny_corpus_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("abcde")
        with pytest.raises(ConfigError):
            load_corpus(str(p))

    def test_synthetic_deterministic(self, tmp_path):
        p1 = tmp_path / "s1.txt"
        p2 = tmp_path / "s2.txt"
        make_synthetic_corpus(str(p1), n_bytes=5000, seed=11)
        make_synthetic_corpus(str(p2), n_bytes=5000, seed=11)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.stat().st_size == 5000

    def test_hash_matches_content(self, tmp_path):
        import hashlib
        p = tmp_path / "h.txt"
        p.write_text("hello world " * 10)
        c = load_corpus(str(p))
        assert c.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
