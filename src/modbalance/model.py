"""The assembled model: encoders, feature weighting, fusion, classifier.

One ``Model`` owns every parameter block, held in registry order in one
flat float64 vector ``theta``; their gradients fill a second vector
``grad``. Each block's ``data`` and ``grad`` are views of its slice. Each
modality's encoder blocks form one slice (``encoder_spans``) because the
balance optimizer treats them differently from everything else (they alone
receive modulated, optionally noisy updates). The forward pass works for
any nonempty modality subset: excluded modalities simply drop out of the
contraction chain, the fusion sum, and the modality count. It runs a
pack of conversations stacked row-wise and described by a
``tensor.Segments``, one conversation being a pack of one;
``encoder_grad_rows`` gives the views through which a pack's encoder nodes
write each conversation's encoder gradient into a row of one matrix.
"""

from dataclasses import dataclass

import numpy as np

from . import feature_weighting as afw
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import MODALITIES
from .encoder import EncoderConfig, EncoderParams, encode
from .errors import CheckpointError, ConfigError, check_fields
from .modality_weighting import (
    ClassifierParams,
    FusionHead,
    classify,
    fuse_modalities,
    weight_norm_trace,
)
from .tensor import Segments, Tensor

# Options removed from ModelConfig, at the only values a checkpoint may hold.
# Checkpoints still record them, so the file format does not change.
RETIRED_OPTIONS = {"positional": False, "feature_stop_grad": ""}


@dataclass
class ModelConfig:
    hidden: int = 32
    rank: int = 2
    beta: float = 0.5
    d_k: float = 0.0  # 0 means "use rank squared"
    layers: int = 2
    heads: int = 4
    ffn: int = 64
    dropout: float = 0.0
    classifier_hidden: int = 0  # 0 means "twice the class count"
    disable_afw: bool = False
    disable_amw: bool = False

    def validate(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if self.d_k < 0.0:
            raise ConfigError("d_k must be positive (or 0 for the default)")
        self.encoder_config().validate()
        return self

    def encoder_config(self):
        return EncoderConfig(hidden=self.hidden, layers=self.layers,
                             heads=self.heads, ffn=self.ffn,
                             dropout=self.dropout)

    @property
    def effective_d_k(self):
        return self.d_k if self.d_k > 0.0 else float(self.rank * self.rank)

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload):
        check_fields(payload, cls, "model options")
        return cls(**payload).validate()


@dataclass
class ForwardPass:
    """Everything one forward pass (a conversation or a pack) produces."""

    afw_state: object  # feature_weighting.AfwState, or None when disabled
    fused: Tensor  # (N, |E|) fused logits
    contributions: dict  # modality -> (N, |E|) bias-free fusion terms
    outputs: Tensor  # (N, |E|) classifier logits

    def predictions(self):
        return self.outputs.data.argmax(axis=1)

    def score_logits(self, m, bias):
        """Unimodal logits for the balance score: contribution + bias / M."""
        return self.contributions[m].data + bias / len(self.contributions)


class Model:
    def __init__(self, config, num_classes, dims, seed):
        config.validate()
        if num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        self.config = config
        self.num_classes = num_classes
        self.dims = {m: int(dims[m]) for m in MODALITIES}
        rng = np.random.default_rng(seed)
        enc_config = config.encoder_config()
        self.encoders = {
            m: EncoderParams(self.dims[m], enc_config, rng) for m in MODALITIES
        }
        self.afw_params = {
            m: afw.FeatureWeightParams(config.hidden, config.rank, rng)
            for m in MODALITIES
        }
        self.head = FusionHead(config.hidden, num_classes, MODALITIES, rng)
        hidden = config.classifier_hidden or 2 * num_classes
        self.classifier = ClassifierParams(num_classes, hidden, rng)
        self._registry = self._build_registry()

    # --- parameter registry ---

    def _build_registry(self):
        """Name -> block, encoders first; copies the blocks into ``theta``
        and makes each ``data`` and ``grad`` a view of its slice of
        ``theta`` and ``grad`` (rebinding one later would detach it)."""
        params = {}
        for m in MODALITIES:
            params.update(self.encoders[m].named_parameters(f"encoder.{m}"))
        for m in MODALITIES:
            params.update(self.afw_params[m].named_parameters(f"afw.{m}"))
        params.update(self.head.named_parameters("head"))
        params.update(self.classifier.named_parameters("classifier"))
        blocks = list(params.values())
        self.offsets = np.cumsum([0] + [p.data.size for p in blocks])
        self.theta = np.concatenate([p.data.ravel() for p in blocks])
        self.grad = np.zeros_like(self.theta)
        for p, start, stop in zip(blocks, self.offsets, self.offsets[1:]):
            p.data = self.theta[start:stop].reshape(p.data.shape)
            p.grad = self.grad[start:stop].reshape(p.data.shape)
        sizes = [sum(p.data.size for _, p in self.encoders[m].named_parameters(m))
                 for m in MODALITIES]
        self.encoder_size = sum(sizes)
        self.encoder_spans = {m: slice(int(stop) - size, int(stop)) for m, size,
                              stop in zip(MODALITIES, sizes, np.cumsum(sizes))}
        return params

    def named_parameters(self):
        """Fixed-order name -> Tensor mapping over every parameter block."""
        return dict(self._registry)

    def zero_grad(self):
        self.grad.fill(0.0)

    def encoder_grad_rows(self, rows):
        """Map each encoder block to a (len(rows), *shape) view of its
        columns of ``rows``, a (B, encoder_size) matrix laid out as the
        front of ``grad``; row i of a view is conversation i's gradient."""
        views = {}
        for p, start, stop in zip(self._registry.values(), self.offsets,
                                  self.offsets[1:]):
            if stop > self.encoder_size:
                break
            views[p] = rows[:, start:stop].reshape(len(rows), *p.data.shape)
        return views

    # --- forward ---

    def forward(self, features, active=MODALITIES, rng=None, segments=None):
        """Run a conversation, or the pack ``segments`` describes, through
        the full pipeline.

        ``features`` maps modality -> (N, d_m) arrays; ``active`` selects
        the modality subset (nonempty). Without ``segments`` the N rows are
        one conversation. AFW pools each conversation on its own.
        """
        active = tuple(active)
        if not active:
            raise ConfigError("modality subset must be nonempty")
        for m in active:
            if m not in MODALITIES:
                raise ConfigError(f"unknown modality {m!r}")
        segments = segments or Segments([np.shape(features[active[0]])[0]])
        z = {m: encode(features[m], self.encoders[m], segments, rng=rng)
             for m in active}
        if self.config.disable_afw:
            state = None
            balanced = z
        else:
            state = afw.forward(z, self.afw_params, self.config.effective_d_k,
                                self.config.beta, segments, active=active)
            balanced = state.balanced
        fused, contributions = fuse_modalities(
            balanced, self.head, active=active,
            normalized=not self.config.disable_amw)
        outputs = classify(fused, self.classifier)
        return ForwardPass(afw_state=state, fused=fused,
                           contributions=contributions, outputs=outputs)

    def weight_norms(self, active=MODALITIES):
        return weight_norm_trace(self.head, active=active)

    # --- persistence ---

    def save(self, path):
        meta = {
            "model": {**self.config.to_dict(), **RETIRED_OPTIONS},
            "num_classes": self.num_classes,
            "dims": self.dims,
        }
        arrays = {name: p.data for name, p in self.named_parameters().items()}
        save_checkpoint(path, arrays, meta)

    @classmethod
    def load(cls, path):
        meta, arrays = load_checkpoint(path)
        try:
            options = dict(meta["model"])
            for name, inert in RETIRED_OPTIONS.items():
                if options.pop(name, inert) != inert:
                    raise CheckpointError(
                        f"{path}: sets the removed model option {name!r}")
            config = ModelConfig.from_dict(options)
            model = cls(config, int(meta["num_classes"]), meta["dims"], seed=0)
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointError(f"{path}: bad metadata ({exc})") from exc
        params = model.named_parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise CheckpointError(
                f"{path}: parameter names do not match the model "
                f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})")
        for name, p in params.items():
            if arrays[name].shape != p.data.shape:
                raise CheckpointError(
                    f"{path}: {name} has shape {arrays[name].shape}, "
                    f"expected {p.data.shape}")
            p.data[...] = arrays[name]
        return model
