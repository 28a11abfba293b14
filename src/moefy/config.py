"""Run configuration (flat key=value files) and corpus handling.

`RunConfig` holds every key of a run. The model shape, the optimizer and the
router objective are also settings classes of their own (`ModelConfig`,
`TrainHyper`, `LteHyperparams`); `section` builds one from the `RunConfig`
fields that share its field names, and each model, optimizer or router key
takes its default from, and is checked once by the `validate` of, the class
that owns it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .losses import LteHyperparams
from .model import ModelConfig
from .numerics import Rng
from .training import TrainHyper


class ConfigError(Exception):
    """Bad configuration: unknown key, wrong type, or invalid value."""


@dataclass
class RunConfig:
    # model (tokens are bytes, so the vocabulary is ModelConfig's 256)
    d_model: int = ModelConfig.d_model
    n_heads: int = ModelConfig.n_heads
    n_layers: int = ModelConfig.n_layers
    d_ffn: int = ModelConfig.d_ffn
    max_seq_len: int = ModelConfig.max_seq_len
    ffn_kind: str = ModelConfig.ffn_kind
    activation: str = ModelConfig.activation
    expert_size: int = ModelConfig.expert_size
    # optimization
    lr: float = TrainHyper.lr
    batch_size: int = TrainHyper.batch_size
    seq_len: int = TrainHyper.seq_len
    base_steps: int = 2000
    stage1_steps: int = 400
    stage2_steps: int = 200
    checkpoint_every: int = 0  # 0 disables periodic checkpoints
    # router objective
    eta: float = LteHyperparams.eta
    lam: float = LteHyperparams.lam
    tau: float = LteHyperparams.tau
    denom_guard: float = LteHyperparams.denom_guard
    # run
    corpus: str = ""
    seed: int = 0
    out_dir: str = "runs/out"
    eval_windows: int = 16
    group_method: str = "kmeans"

    @classmethod
    def key_types(cls) -> dict[str, type]:
        return {f.name: type(f.default) for f in fields(cls)}


def section(cls, cfg: RunConfig, **extra):
    """Settings class `cls` built from the `cfg` fields that share its field names."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(cls) if hasattr(cfg, f.name)}
    return cls(**shared, **extra)


def _coerce(key: str, raw: str, typ: type):
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """key=value per line; # comments; unknown keys rejected."""
    types = RunConfig.key_types()
    out: dict = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
            out[key] = _coerce(key, raw, types[key])
    return out


def build_config(file_path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Precedence: explicit override > config file > default."""
    values: dict = {}
    if file_path:
        values.update(parse_config_file(file_path))
    if overrides:
        types = RunConfig.key_types()
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = val
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Model, optimizer and router keys are checked by their owning classes; run-level keys here."""
    try:
        section(ModelConfig, cfg).validate()
        section(TrainHyper, cfg).validate()
        section(LteHyperparams, cfg).validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.eval_windows <= 0:
        raise ConfigError(f"eval_windows must be positive, got {cfg.eval_windows}")
    for key in ("base_steps", "stage1_steps", "stage2_steps", "checkpoint_every"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    if cfg.seq_len > cfg.max_seq_len:
        raise ConfigError("seq_len must be <= max_seq_len")
    if cfg.group_method not in ("kmeans", "random"):
        raise ConfigError(f"unknown group_method {cfg.group_method!r}")


@dataclass
class Corpus:
    data: np.ndarray  # uint8 bytes
    sha256: str

    @property
    def train(self) -> np.ndarray:
        return self.data[: self._split]

    @property
    def val(self) -> np.ndarray:
        return self.data[self._split :]

    @property
    def _split(self) -> int:
        return int(0.95 * self.data.shape[0])


def load_corpus(path: str) -> Corpus:
    with open(path, "rb") as fh:
        return _corpus(fh.read(), f"corpus {path}")


def _corpus(raw: bytes, name: str) -> Corpus:
    """`raw` as a Corpus; ConfigError if it is empty or leaves under 2 validation bytes."""
    if not raw:
        raise ConfigError(f"{name} is empty")
    c = Corpus(data=np.frombuffer(raw, dtype=np.uint8), sha256=hashlib.sha256(raw).hexdigest())
    if c.val.shape[0] < 2:
        raise ConfigError(f"{name} too small for a validation slice")
    return c


_WORDS = (
    "time year way day thing man world life hand part child eye woman place work week "
    "case point government company number group problem fact be have do say get make go "
    "know take see come think look want give use find tell ask work seem feel try leave "
    "call good new first last long great little own other old right big high different "
    "small large next early young important few public bad same able to of in for on "
    "with at by from up about into over after beneath under above the and a that I it "
    "not he as you this but his they her she or an will my one all would there their "
    "river mountain stone tower window garden winter summer silver shadow morning "
    "evening thunder whisper journey harbor lantern meadow"
).split()


def make_synthetic_corpus(path: str, n_bytes: int = 1_000_000, seed: int = 7) -> str:
    """Deterministic synthetic text with enough byte-level structure to train on:
    a few hundred word types, occasional numbers, casing, and punctuation.

    A size whose corpus `load_corpus` would reject raises ConfigError and
    writes nothing.
    """
    rng = Rng(seed)
    chunks: list[str] = []
    size = 0
    while size < n_bytes:
        k = int(rng.integers(5, 14))
        words = [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), size=k)]
        if rng.integers(0, 6) == 0:
            words.insert(int(rng.integers(0, k)), str(int(rng.integers(0, 2000))))
        s = " ".join(words)
        if rng.integers(0, 3) == 0:
            s = s.capitalize()
        s += [". ", "? ", "! ", ",\n"][int(rng.integers(0, 4))]
        chunks.append(s)
        size += len(s)
    raw = "".join(chunks)[:n_bytes].encode()
    _corpus(raw, f"a corpus of {n_bytes} bytes")
    with open(path, "wb") as fh:
        fh.write(raw)
    return path
