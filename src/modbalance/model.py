"""The assembled model: encoders, feature weighting, fusion, classifier.

One ``Model`` owns every parameter block. One ``tensor.Parameters`` makes
them, each under its name, encoders first, in the order of the seeded
draws. They are held in one flat float64 vector ``theta``, their
gradients in a second vector ``grad``, with the in-projections moved to
the front: every modality's in-projection, then every layer block of t, of
a and of v, then AFW, the fusion head and the classifier. So the
modalities' layer blocks form one C-contiguous (3, layers * layer size)
matrix, and each layer block of a modality subset is one strided view of
it (``encoder.EncoderStack``, built once per subset). Each block's
``data`` and ``grad`` are views of its slice; the registry
(``named_parameters``) and ``layout``, each block's name, shape and byte
offset, follow ``theta``'s order. A checkpoint is ``theta`` under a header
whose tensor list is ``layout`` and whose metadata holds ``ModelConfig``'s
fields; ``load`` refuses any other option, and a list that differs from
the layout its metadata gives (one in the order the blocks are made, say),
naming the first entry that differs. Each modality's encoder blocks form
two slices, its in-projection and its layer row (``encoder_spans``),
because the balance optimizer treats them differently from everything
else (they alone receive modulated, optionally noisy updates). The forward
pass works for any nonempty modality subset: excluded modalities simply
drop out of the encoder stack, the contraction chain, the fusion sum, and
the modality count. It runs a pack of conversations stacked row-wise and
described by a ``tensor.Segments``, one conversation being a pack of one;
``encoder_grad_rows`` gives the views through which a pack's encoder nodes
write each conversation's encoder gradient into a row of one matrix.
"""

from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from . import feature_weighting as afw
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import MODALITIES, parse_modalities
from .encoder import EncoderParams, EncoderStack, encode, layer_views
from .errors import (CheckpointError, ConfigError, ShapeError, check_fields,
                     check_keys, check_value)
from .modality_weighting import (
    ClassifierParams,
    FusionHead,
    classify,
    fuse_modalities,
)
from .tensor import Parameters, Segments, Tensor


def _theta_region(name):
    """Rank of the region of ``theta`` that holds block ``name``: every
    in-projection, then each modality's layer blocks in ``MODALITIES``
    order, then everything else (within a region, blocks keep the order
    they are made in)."""
    kind, _, rest = name.partition(".")
    if kind != "encoder":
        return len(MODALITIES) + 1
    m, _, key = rest.partition(".")
    return 0 if key.startswith("in_proj.") else 1 + MODALITIES.index(m)


def _subset_rows(active):
    """The basic slice of the layer matrix's rows that holds the subset
    ``active`` (in ``MODALITIES`` order): of three modalities, every
    nonempty subset is an arithmetic run (0:3, 0:2, 1:3, 0:3:2, m:m+1)."""
    index = [MODALITIES.index(m) for m in active]
    step = index[1] - index[0] if len(index) > 1 else 1
    return slice(index[0], index[-1] + 1, step)


@dataclass(frozen=True)
class ModelConfig:
    """Encoder shape (``hidden``, ``layers``, ``heads``, ``ffn``), AFW's
    tensor-ring ``rank`` (its attention scale is 1/rank) and gate
    ``beta``, and the two ablation switches. An instance is valid by
    construction: a bad value raises ConfigError naming the option."""

    hidden: int = 32
    rank: int = 2
    beta: float = 0.5
    layers: int = 2
    heads: int = 4
    ffn: int = 64
    disable_afw: bool = False
    disable_amw: bool = False

    def __post_init__(self):
        check_fields(self, "model options")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if min(self.hidden, self.rank, self.layers, self.heads, self.ffn) < 1:
            raise ConfigError(
                "hidden, rank, layers, heads and ffn must be positive")
        if self.hidden % self.heads != 0:
            raise ConfigError(
                f"hidden size {self.hidden} not divisible by {self.heads} heads")

    @classmethod
    def from_dict(cls, payload):
        check_keys(payload, cls.__dataclass_fields__, "model options")
        return cls(**payload)


@dataclass
class ForwardPass:
    """Everything one forward pass (a conversation or a pack) produces."""

    afw_state: object  # feature_weighting.AfwState, or None when disabled
    fused: Tensor  # (N, |E|) fused logits
    contributions: dict  # modality -> (N, |E|) array: its bias-free term
    outputs: Tensor  # (N, |E|) classifier logits

    def predictions(self):
        return self.outputs.data.argmax(axis=1)

    def score_logits(self, m, bias):
        """Unimodal logits for the balance score: contribution + bias / M."""
        return self.contributions[m] + bias / len(self.contributions)


class Model:
    """The parameter blocks of ``config`` for ``num_classes`` classes and
    per-modality input widths ``dims``, drawn from ``seed`` and held in
    ``theta`` (see the module note), and the forward pass over them."""

    def __init__(self, config, num_classes, dims, seed):
        if num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        for m in MODALITIES:
            if dims[m] < 1:
                raise ConfigError(f"dims.{m} must be >= 1, got {dims[m]}")
        self.config = config
        self.num_classes = num_classes
        self.dims = {m: int(dims[m]) for m in MODALITIES}
        # blocks are made, and so seeded, encoders first
        new = Parameters(np.random.default_rng(seed))
        self.encoders = {m: EncoderParams(self.dims[m], config, new,
                                          f"encoder.{m}")
                         for m in MODALITIES}
        self.afw_params = {
            m: afw.FeatureWeightParams(config.hidden, config.rank, new,
                                       f"afw.{m}")
            for m in MODALITIES
        }
        self.head = FusionHead(config.hidden, num_classes, new, "head")
        self.classifier = ClassifierParams(num_classes, 2 * num_classes, new,
                                           "classifier")
        # copy the blocks into theta in its order and make each data and
        # grad a view of its slice of theta and grad (rebinding one later
        # would detach it)
        self._registry = {name: new.blocks[name]
                          for name in sorted(new.blocks, key=_theta_region)}
        blocks = list(self._registry.values())
        self.offsets = np.cumsum([0] + [p.data.size for p in blocks])
        self.theta = np.concatenate([p.data.ravel() for p in blocks])
        self.grad = np.zeros_like(self.theta)
        self.layout = [{"name": name, "shape": list(p.data.shape),
                        "offset": 8 * int(start)}
                       for (name, p), start in zip(self._registry.items(),
                                                   self.offsets)]
        for p, start, stop in zip(blocks, self.offsets, self.offsets[1:]):
            p.data = self.theta[start:stop].reshape(p.data.shape)
            p.grad = self.grad[start:stop].reshape(p.data.shape)
        # theta opens with the in-projections, then the (3, row) matrix
        # of the modalities' layer blocks
        bounds = np.cumsum([0] + [enc.w_in.data.size + enc.b_in.data.size
                                  for enc in self.encoders.values()]).tolist()
        first = bounds[-1]
        row = sum(p.data.size for block in self.encoders["t"].blocks
                  for p in block.values())
        self.encoder_size = first + len(MODALITIES) * row
        self.encoder_spans = {
            m: (slice(bounds[i], bounds[i + 1]),
                slice(first + i * row, first + (i + 1) * row))
            for i, m in enumerate(MODALITIES)}
        self._layer_span = slice(first, self.encoder_size)
        self._layer_rows = [v[self._layer_span].reshape(len(MODALITIES), row)
                            for v in (self.theta, self.grad)]
        self._stacks = {}

    # --- parameter registry ---

    def named_parameters(self):
        """Fixed-order name -> Tensor mapping over every parameter block."""
        return dict(self._registry)

    def zero_grad(self):
        self.grad.fill(0.0)

    def block_name(self, index):
        """Name of the parameter block that holds entry ``index`` of
        ``theta`` (and of ``grad``)."""
        return list(self._registry)[
            np.searchsorted(self.offsets, index, "right") - 1]

    def encoder_stack(self, active):
        """The ``encoder.EncoderStack`` of the subset ``active`` (in
        ``MODALITIES`` order), built on its first use: its layer leaves are
        views of the subset's rows of the layer matrix."""
        stack = self._stacks.get(active)
        if stack is None:
            rows = _subset_rows(active)
            theta_rows, grad_rows = (v[rows] for v in self._layer_rows)
            stack = self._stacks[active] = EncoderStack(
                active, self.encoders, self.config, theta_rows, grad_rows)
        return stack

    def encoder_grad_rows(self, rows, active):
        """Map each encoder leaf of ``active``'s stack to a view of its
        columns of ``rows``, a (B, encoder_size) matrix laid out as the
        front of ``grad``: (B, *shape) for an in-projection block, (B, M,
        *shape) for a stacked layer block. Row i of a view is conversation
        i's gradient."""
        active = parse_modalities(active)
        stack = self.encoder_stack(active)
        b = len(rows)
        views = {}
        for m, (w, bias) in zip(active, stack.in_proj):
            span = self.encoder_spans[m][0]
            split = span.start + w.data.size
            views[w] = rows[:, span.start:split].reshape(b, *w.shape)
            views[bias] = rows[:, split:span.stop]
        layers = rows[:, self._layer_span].reshape(b, len(MODALITIES), -1)
        for block, row_block in zip(stack.blocks, layer_views(
                layers[:, _subset_rows(active)], self.config)):
            for key, leaf in block.items():
                views[leaf] = row_block[key]
        return views

    # --- forward ---

    def forward(self, features, active=MODALITIES, segments=None):
        """Run a conversation, or the pack ``segments`` describes, through
        the full pipeline.

        ``features`` maps modality -> (N, d_m) arrays; ``active`` selects
        the modality subset, which ``parse_modalities`` puts in
        ``MODALITIES`` order, so its spelling does not change the result.
        Without ``segments`` the N rows are one conversation. AFW pools
        each conversation on its own.

        This is the one place a forward's inputs are checked; the ops below
        it trust the shapes it passes on. ``active`` must be a subset that
        ``parse_modalities`` takes (else ConfigError), and each active
        modality must be in ``features`` as a 2-D array of integer or real
        floating dtype and width ``dims[m]``, with as many rows as the
        first active one and at least one (else ShapeError naming the
        modality). Inactive modalities are not read.
        """
        active = parse_modalities(active)
        n = None
        for m in active:
            if m not in features:
                raise ShapeError(f"no features for active modality {m!r}")
            try:
                array = np.asarray(features[m])
            except ValueError as exc:  # a ragged nested list
                raise ShapeError(f"modality {m!r} features are not a "
                                 f"matrix ({exc})") from exc
            if array.dtype.kind not in "iuf":
                raise ShapeError(f"modality {m!r} features must be real "
                                 f"numbers, got dtype {array.dtype}")
            shape = array.shape
            if len(shape) != 2 or shape[1] != self.dims[m]:
                raise ShapeError(f"modality {m!r} expects (N, {self.dims[m]}) "
                                 f"features, got shape {shape}")
            n = shape[0] if n is None else n
            if shape[0] != n:
                raise ShapeError(f"modality {m!r} has {shape[0]} rows, "
                                 f"{active[0]!r} has {n}")
            if not n:
                raise ShapeError(f"modality {m!r} has no rows")
        segments = segments or Segments([n])
        z = encode(features, self.encoder_stack(active), segments)
        if self.config.disable_afw:
            state = None
            balanced = z
        else:
            state = afw.forward(z, self.afw_params, self.config.beta,
                                segments, active=active)
            balanced = state.balanced
        fused, contributions = fuse_modalities(
            balanced, self.head, active=active,
            normalized=not self.config.disable_amw)
        outputs = classify(fused, self.classifier)
        return ForwardPass(afw_state=state, fused=fused,
                           contributions=contributions, outputs=outputs)

    # --- persistence ---

    def save(self, path):
        save_checkpoint(path, self.theta, self.layout, {
            "model": asdict(self.config),
            "num_classes": self.num_classes,
            "dims": self.dims,
        })

    @classmethod
    def load(cls, path):
        meta, tensors, values = load_checkpoint(path)
        try:
            config = ModelConfig.from_dict(meta["model"])
            num_classes, dims = meta["num_classes"], meta["dims"]
            check_value(num_classes, int, "num_classes")
            check_keys(dims, MODALITIES, "dims modalities")
            for m in MODALITIES:
                check_value(dims[m], int, f"dims.{m}")
            model = cls(config, num_classes, dims, seed=0)
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointError(f"{path}: bad metadata ({exc})") from exc
        if tensors != model.layout:
            index, got, want = next(
                (i, got, want) for i, (got, want) in
                enumerate(zip_longest(tensors, model.layout)) if got != want)
            raise CheckpointError(f"{path}: tensor entry {index} is {got!r}, "
                                  f"the model expects {want!r}")
        if values.size != model.theta.size:
            raise CheckpointError(
                f"{path}: payload holds {values.size} values, the model has "
                f"{model.theta.size}")
        model.theta[...] = values
        finite = np.isfinite(model.theta)
        if not finite.all():  # argmin finds the first False
            raise CheckpointError(
                f"{path}: {model.block_name(finite.argmin())} holds a "
                "non-finite value")
        return model
