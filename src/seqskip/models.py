"""The nine skip-prediction architectures over the tensor primitives.

Two families share the Episode/Batch interfaces:

* metric family (rnb1, rnb2_ue, rnbc2_ue) — embed support and query
  items independently, score all support x query pairs with a relation
  network, and reduce scores to per-query probabilities. Order-free by
  construction.
* sequence family (seq1eH, seq1HL, att_pair, transformer, snail,
  teacher) — run the merged support+query timeline through causal
  encoders and read out probabilities at every position in one pass
  (non-auto-regressive; no prediction is fed back).

Causal stacks normalize per position over channels only, never over
time, so strict causality and exact receptive fields survive
normalization. They stay channels-last, ``[B, T, W]`` like
``Batch.seq_x``, from the entry conv to the head, so every conv is one
GEMM and every norm reduces over the contiguous axis. The non-causal
support encoder of att_pair uses masked temporal instance norm instead,
where looking ahead is the point, and runs channels-first ``[B, W, S]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import nn
from . import tensor as T
from .dataio import Batch, Episode, make_batch
from .errors import ConfigurationError, ContractError, ValidationError
from .nn import CAUSAL, NONCAUSAL, Conv1dSpec
from .rng import rng_stream
from .tensor import Tensor

METRIC_KINDS = ("rnb1", "rnb2_ue", "rnbc2_ue")
SEQUENCE_KINDS = ("seq1eH", "seq1HL", "att_pair", "transformer", "snail", "teacher")
KINDS = METRIC_KINDS + SEQUENCE_KINDS

UE_KINDS = ("rnb2_ue", "rnbc2_ue")

STACK_DILATIONS = (1, 2, 4, 8, 16)
ATT_PAIR_QUERY_DILATIONS = (1, 2, 4)
ATT_PAIR_QUERY_KERNELS = (2, 2, 3)
ATT_PAIR_SUPPORT_DILATIONS = (1, 3, 9)
ATT_PAIR_SUPPORT_KERNEL = 3
MAX_POSITIONS = 20  # sessions never exceed 20 tracks

GATES = ("highway", "glu")


class Structure(NamedTuple):
    """What a kind fixes about its architecture beyond width, gate and seed."""

    stacks: int = 1  # causal conv stacks; transformer blocks
    dilations: tuple[int, ...] = ()  # per conv level of a stack
    kernels: tuple[int, ...] = ()
    heads: int = 1
    forward: str | None = None  # the Model method of a sequence kind


_WAVENET = Structure(
    dilations=STACK_DILATIONS, kernels=(2,) * len(STACK_DILATIONS), forward="_forward_conv_stacks"
)

STRUCTURE = {
    "rnb1": Structure(),
    "rnb2_ue": Structure(),
    "rnbc2_ue": Structure(),
    "seq1eH": _WAVENET,
    "seq1HL": _WAVENET._replace(stacks=2),
    "att_pair": Structure(
        dilations=ATT_PAIR_QUERY_DILATIONS,
        kernels=ATT_PAIR_QUERY_KERNELS,
        forward="_forward_att_pair",
    ),
    "transformer": Structure(stacks=2, heads=8, forward="_forward_transformer"),
    "snail": _WAVENET._replace(heads=8, forward="_forward_snail"),
    "teacher": _WAVENET._replace(stacks=2),
}

# Checkpoint meta written before the structure was derived from the kind
# stores it next to the config, under these keys. Only the fields a kind's
# build and forward read describe its model; the others never mattered.
_LEGACY_KEYS = {
    "stacks": "stack_count",
    "dilations": "dilations",
    "kernels": "kernel_sizes",
    "heads": "heads",
}
_CONV_FIELDS = ("stacks", "dilations", "kernels")
_LEGACY_READ = {
    "seq1eH": _CONV_FIELDS,
    "seq1HL": _CONV_FIELDS,
    "teacher": _CONV_FIELDS,
    "snail": ("dilations", "kernels", "heads"),
    "att_pair": ("dilations", "kernels", "heads"),
    "transformer": ("stacks", "heads"),
}


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    width: int = 256
    gate: str = "highway"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}; pick one of {KINDS}")
        if self.width < 1:
            raise ConfigurationError("width must be positive")
        if self.gate not in GATES:
            raise ConfigurationError(f"gate must be one of {GATES}, got {self.gate!r}")
        heads = self.structure.heads
        if self.width % heads:
            raise ConfigurationError(f"{self.kind}: heads={heads} must divide width={self.width}")

    @property
    def structure(self) -> Structure:
        return STRUCTURE[self.kind]

    def to_json(self) -> dict:
        return {"kind": self.kind, "width": self.width, "gate": self.gate, "seed": self.seed}

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        config = cls(
            kind=obj["kind"], width=int(obj["width"]), gate=obj["gate"], seed=int(obj["seed"])
        )
        # Old meta loads only where it states the structure its kind has:
        # a stored structure that differs describes another model.
        for name in _LEGACY_READ.get(config.kind, ()):
            key, want = _LEGACY_KEYS[name], getattr(config.structure, name)
            if key in obj and obj[key] != (list(want) if isinstance(want, tuple) else want):
                raise ValidationError(
                    f"{config.kind} checkpoint stores {key}={obj[key]!r}; the kind has {want!r}"
                )
        return config


def default_config(kind: str, width: int = 256, seed: int = 0, gate: str = "highway") -> ModelConfig:
    return ModelConfig(kind=kind, width=width, seed=seed, gate=gate)


def target_similarity(y_support, y_query) -> np.ndarray:
    """XNOR pair targets: entry (m, n) = 1 iff y_s(m) == y_q(n)."""
    ys = np.asarray(y_support)
    yq = np.asarray(y_query)
    for name, arr in (("y_support", ys), ("y_query", yq)):
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValidationError(f"{name} must be binary, got values {np.unique(arr)}")
    return (ys[:, None] == yq[None, :]).astype(np.float32)


# -- parameter initialization ------------------------------------------


class _Init:
    def __init__(self, seed: int):
        self.seed = seed
        self.params: dict[str, Tensor] = {}

    def _add(self, name: str, data: np.ndarray) -> None:
        if name in self.params:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        self.params[name] = Tensor(data.astype(np.float32), requires_grad=True)

    def uniform(self, name: str, shape: Sequence[int], fan_in: int) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        rng = rng_stream(self.seed, "init", name)
        self._add(name, rng.uniform(-bound, bound, tuple(shape)))

    def zeros(self, name: str, shape: Sequence[int]) -> None:
        self._add(name, np.zeros(tuple(shape)))

    def constant(self, name: str, shape: Sequence[int], value: float) -> None:
        self._add(name, np.full(tuple(shape), value))

    def linear(self, prefix: str, n_in: int, n_out: int) -> None:
        self.uniform(f"{prefix}.w", (n_in, n_out), n_in)
        self.zeros(f"{prefix}.b", (n_out,))

    def conv(self, prefix: str, c_in: int, c_out: int, k: int, bias: bool = True) -> None:
        self.uniform(f"{prefix}.w", (c_out, c_in, k), c_in * k)
        if bias:
            self.zeros(f"{prefix}.b", (c_out,))

    def norm(self, prefix: str, channels: int, beta_init: float = 0.0) -> None:
        self.constant(f"{prefix}.gamma", (channels,), 1.0)
        self.constant(f"{prefix}.beta", (channels,), beta_init)

    def gated_level(self, prefix: str, width: int, k: int) -> None:
        # Conv biases are omitted on normalized branches: the per-position
        # norm would cancel them; the norm betas take their place. The
        # gate beta starts at -1 so highway blocks begin carry-leaning.
        self.conv(f"{prefix}.t", width, width, k, bias=False)
        self.norm(f"{prefix}.t", width)
        self.conv(f"{prefix}.g", width, width, k, bias=False)
        self.norm(f"{prefix}.g", width, beta_init=-1.0)


def build(config: ModelConfig, in_dim: int) -> "Model":
    """Deterministically initialize a model for ``in_dim``-wide episode rows."""
    if in_dim < 3:
        raise ConfigurationError(f"in_dim must cover label+indicator channels, got {in_dim}")
    w = config.width
    structure = config.structure
    init = _Init(config.seed)
    if config.kind in METRIC_KINDS:
        d_item = in_dim - 2  # label/indicator channels are not item features
        pair = 2 * w + 1 + (w if config.kind in UE_KINDS else 0)
        init.linear("embed", d_item, w)
        init.linear("rn.fc1", pair, w)
        init.linear("rn.out", w, 1)
        if config.kind in UE_KINDS:
            init.linear("ue.fc", w + 1, w)
            init.linear("ue.out", w, w)
        if config.kind == "rnbc2_ue":
            init.linear("wsum", pair, 1)
            init.zeros("wsum.bias", (1,))
    elif config.kind in ("seq1eH", "seq1HL", "teacher"):
        init.conv("entry", in_dim, w, 1)
        for s in range(structure.stacks):
            for l, k in enumerate(structure.kernels):
                init.gated_level(f"stack{s}.level{l}", w, k)
        init.conv("head", w, 1, 1)
    elif config.kind == "snail":
        for name in ("attn.q", "attn.k", "attn.v"):
            init.linear(name, in_dim, w)
        init.linear("attn.o", w, w)
        init.conv("entry", in_dim + w, w, 1)
        for l, k in enumerate(structure.kernels):
            init.gated_level(f"stack0.level{l}", w, k)
        init.conv("head", w, 1, 1)
    elif config.kind == "transformer":
        init.linear("embed", in_dim, w)
        init.uniform("pos", (MAX_POSITIONS, w), w)
        for b in range(structure.stacks):
            init.norm(f"block{b}.ln1", w)
            for name in ("q", "k", "v", "o"):
                init.linear(f"block{b}.{name}", w, w)
            init.norm(f"block{b}.ln2", w)
            init.linear(f"block{b}.ffn.fc1", w, w)
            init.linear(f"block{b}.ffn.fc2", w, w)
        init.norm("final", w)
        init.linear("head", w, 1)
    elif config.kind == "att_pair":
        init.conv("sup.entry", in_dim, w, 1)
        for l, d in enumerate(ATT_PAIR_SUPPORT_DILATIONS):
            init.gated_level(f"sup.level{l}", w, ATT_PAIR_SUPPORT_KERNEL)
        init.conv("qry.entry", in_dim, w, 1)
        for l, k in enumerate(structure.kernels):
            init.gated_level(f"qry.level{l}", w, k)
        init.linear("comb", 2 * w, w)
        init.linear("head", w, 1)
    return Model(config, in_dim, init.params)


# -- model -------------------------------------------------------------


@dataclass
class MetricOut:
    """Training-time tensors of a metric-family forward pass."""

    r: Tensor  # [B, S, Q] relation scores in (0,1)
    probs: Tensor  # [B, Q] per-query skip probabilities in (0,1)


class Model:
    def __init__(self, config: ModelConfig, in_dim: int, params: dict[str, Tensor]):
        self.config = config
        self.in_dim = in_dim
        self.params = params

    @property
    def family(self) -> str:
        return "metric" if self.config.kind in METRIC_KINDS else "sequence"

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- shared pieces -------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _linear(self, prefix: str, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self._p(f"{prefix}.w")), self._p(f"{prefix}.b"))

    def _conv(self, prefix: str, x: Tensor, spec: Conv1dSpec, bias: bool = True) -> Tensor:
        return nn.conv1d_cl(
            x, spec, self._p(f"{prefix}.w"), self._p(f"{prefix}.b") if bias else None
        )

    def _gated_level(
        self,
        prefix: str,
        x: Tensor,
        dilation: int,
        kernel: int,
        mode: str,
        mask: np.ndarray | None = None,
    ) -> Tensor:
        """One conv level: two convs, per-branch norm, then the gate.

        Causal levels run channels-last ``[B, T, W]`` with per-position
        channel norm; the non-causal support levels run channels-first
        ``[B, W, S]`` with masked temporal instance norm.
        """
        w = self.config.width
        spec = Conv1dSpec(w, w, kernel, dilation, mode)
        branches = []
        for branch in ("t", "g"):
            p = f"{prefix}.{branch}"
            gamma, beta = self._p(f"{p}.gamma"), self._p(f"{p}.beta")
            if mode == CAUSAL:
                pre = nn.channel_norm(self._conv(p, x, spec, bias=False), gamma, beta, axis=-1)
            else:
                pre = nn.instance_norm(nn.conv1d(x, spec, self._p(f"{p}.w")), gamma, beta, mask=mask)
            branches.append(pre)
        return nn.gated_block(self.config.gate, x, *branches)

    def _causal_attention_mask(self, seq_mask: np.ndarray) -> np.ndarray:
        b, t = seq_mask.shape
        tril = np.tril(np.ones((t, t), dtype=np.float32))
        return tril[None, :, :] * seq_mask[:, None, :]

    # -- sequence family -----------------------------------------------

    def forward_sequence(self, batch: Batch) -> Tensor:
        """Per-position skip probabilities [B, T] over the merged timeline."""
        kind = self.config.kind
        forward = self.config.structure.forward
        if forward is None:
            raise ContractError(f"{kind} is a metric-family model; no sequence forward")
        if kind == "teacher" and not batch.query_logs_kept:
            raise ContractError(
                "teacher requires episodes assembled with keep_query_logs=True; "
                "this batch has zero-filled query logs"
            )
        return getattr(self, forward)(batch)

    def _head_probs(self, h: Tensor) -> Tensor:
        out = self._conv("head", h, Conv1dSpec(self.config.width, 1, 1))  # [B, T, 1]
        b, t, _ = out.shape
        return T.sigmoid(T.reshape(out, (b, t)))

    def _forward_conv_stacks(self, batch: Batch) -> Tensor:
        structure = self.config.structure
        x = Tensor(batch.seq_x)
        h = self._conv("entry", x, Conv1dSpec(self.in_dim, self.config.width, 1))  # [B, T, W]
        for s in range(structure.stacks):
            for l, (d, k) in enumerate(zip(structure.dilations, structure.kernels)):
                h = self._gated_level(f"stack{s}.level{l}", h, d, k, CAUSAL)
        return self._head_probs(h)

    def _forward_snail(self, batch: Batch) -> Tensor:
        # Attention reads the raw rows (no embedding layer in front),
        # its output is concatenated back onto them, and the causal
        # stack consumes the pair.
        structure = self.config.structure
        x = Tensor(batch.seq_x)
        q = self._linear("attn.q", x)
        k = self._linear("attn.k", x)
        v = self._linear("attn.v", x)
        att = nn.attention(
            q, k, v, mask=self._causal_attention_mask(batch.seq_mask), heads=structure.heads
        )
        att = self._linear("attn.o", att)
        h = T.concat([x, att], axis=-1)
        h = self._conv("entry", h, Conv1dSpec(self.in_dim + self.config.width, self.config.width, 1))
        for l, (d, kk) in enumerate(zip(structure.dilations, structure.kernels)):
            h = self._gated_level(f"stack0.level{l}", h, d, kk, CAUSAL)
        return self._head_probs(h)

    def _forward_transformer(self, batch: Batch) -> Tensor:
        structure = self.config.structure
        x = Tensor(batch.seq_x)
        t_len = x.shape[-2]
        if t_len > MAX_POSITIONS:
            raise ValidationError(
                f"timeline length {t_len} exceeds the positional table ({MAX_POSITIONS})"
            )
        h = self._linear("embed", x)
        h = T.add(h, T.slice_axis(self._p("pos"), 0, 0, t_len))
        mask = self._causal_attention_mask(batch.seq_mask)

        def ln(prefix: str, v: Tensor) -> Tensor:
            return nn.channel_norm(
                v, self._p(f"{prefix}.gamma"), self._p(f"{prefix}.beta"), axis=-1
            )

        for bidx in range(structure.stacks):
            p = f"block{bidx}"
            n1 = ln(f"{p}.ln1", h)
            att = nn.attention(
                self._linear(f"{p}.q", n1),
                self._linear(f"{p}.k", n1),
                self._linear(f"{p}.v", n1),
                mask=mask,
                heads=structure.heads,
            )
            h = T.add(h, self._linear(f"{p}.o", att))
            n2 = ln(f"{p}.ln2", h)
            ffn = self._linear(f"{p}.ffn.fc2", T.relu(self._linear(f"{p}.ffn.fc1", n2)))
            h = T.add(h, ffn)
        h = ln("final", h)
        logits = self._linear("head", h)
        b = logits.shape[0]
        return T.sigmoid(T.reshape(logits, (b, t_len)))

    def _forward_att_pair(self, batch: Batch) -> Tensor:
        structure = self.config.structure
        w = self.config.width
        sup_mask = batch.sup_mask[:, None, :]  # [B, 1, S]
        # Padded support columns are re-zeroed after every level: the
        # symmetric conv windows would otherwise read entry/gate bias
        # values from them, making outputs depend on the batch's padding.
        mask_t = Tensor(sup_mask)
        s_enc = self._conv("sup.entry", Tensor(batch.sup_x), Conv1dSpec(self.in_dim, w, 1))
        s_enc = T.mul(T.swap_axes(s_enc, -1, -2), mask_t)  # [B, W, S]
        for l, d in enumerate(ATT_PAIR_SUPPORT_DILATIONS):
            s_enc = self._gated_level(
                f"sup.level{l}", s_enc, d, ATT_PAIR_SUPPORT_KERNEL, NONCAUSAL, mask=sup_mask
            )
            s_enc = T.mul(s_enc, mask_t)
        q_cl = self._conv("qry.entry", Tensor(batch.seq_x), Conv1dSpec(self.in_dim, w, 1))
        for l, (d, k) in enumerate(zip(structure.dilations, structure.kernels)):
            q_cl = self._gated_level(f"qry.level{l}", q_cl, d, k, CAUSAL)  # [B, T, W]

        s_cl = T.swap_axes(s_enc, -1, -2)  # [B, S, W]
        t_len = q_cl.shape[-2]
        att_mask = np.repeat(batch.sup_mask[:, None, :], t_len, axis=1)  # [B, T, S]
        att = nn.attention(q_cl, s_cl, s_cl, mask=att_mask, heads=structure.heads)
        h = T.relu(self._linear("comb", T.concat([q_cl, att], axis=-1)))
        logits = self._linear("head", h)
        b = logits.shape[0]
        return T.sigmoid(T.reshape(logits, (b, t_len)))

    # -- metric family -------------------------------------------------

    def forward_metric(self, batch: Batch) -> MetricOut:
        kind = self.config.kind
        if kind not in METRIC_KINDS:
            raise ContractError(f"{kind} is a sequence-family model; no relation scores")
        w = self.config.width
        b, s_max, _ = batch.sup_x.shape
        q_max = batch.qry_x.shape[1]
        sup_items = Tensor(batch.sup_x[..., :-2])
        qry_items = Tensor(batch.qry_x[..., :-2])
        f_s = T.relu(self._linear("embed", sup_items))  # [B, S, W]
        f_q = T.relu(self._linear("embed", qry_items))  # [B, Q, W]

        fs_b = T.broadcast_to(T.reshape(f_s, (b, s_max, 1, w)), (b, s_max, q_max, w))
        fq_b = T.broadcast_to(T.reshape(f_q, (b, 1, q_max, w)), (b, s_max, q_max, w))
        y_col = batch.sup_y[:, :, None, None]
        y_b = Tensor(np.broadcast_to(y_col, (b, s_max, q_max, 1)).copy())
        parts = [fs_b, fq_b, y_b]
        if kind in UE_KINDS:
            u = self._user_embedding_tensor(batch, f_s=f_s)  # [B, W]
            u_b = T.broadcast_to(T.reshape(u, (b, 1, 1, w)), (b, s_max, q_max, w))
            parts.append(u_b)
        pair = T.concat(parts, axis=-1)
        hidden = T.relu(self._linear("rn.fc1", pair))  # [B, S, Q, W]
        r = T.sigmoid(self._linear("rn.out", hidden))  # [B, S, Q, 1]
        r = T.reshape(r, (b, s_max, q_max))

        if kind == "rnbc2_ue":
            # Sigmoid-squashed weights cannot collapse to zero, which would
            # cut the only gradient path into the relation scores.
            pair_w = T.sigmoid(T.reshape(self._linear("wsum", pair), (b, s_max, q_max)))
            prod = T.mul(T.mul(pair_w, r), Tensor(batch.sup_mask[:, :, None]))
            logits = T.add(T.reduce_sum(prod, axis=1), self._p("wsum.bias"))
            probs = T.sigmoid(logits)
        else:
            # Similarity-weighted label vote over valid supports.
            y_s = Tensor(batch.sup_y[:, :, None])
            agree = T.add(
                T.mul(r, y_s), T.mul(T.add(1.0, T.neg(r)), Tensor(1.0 - batch.sup_y[:, :, None]))
            )
            masked = T.mul(agree, Tensor(batch.sup_mask[:, :, None]))
            counts = batch.sup_mask.sum(axis=1, keepdims=True)  # [B, 1], >= 1
            probs = T.div(T.reduce_sum(masked, axis=1), Tensor(counts))
        return MetricOut(r=r, probs=probs)

    def _user_embedding_tensor(self, batch: Batch, f_s: Tensor | None = None) -> Tensor:
        if self.config.kind not in UE_KINDS:
            raise ContractError(f"{self.config.kind} has no user-embedding pathway")
        if f_s is None:
            f_s = T.relu(self._linear("embed", Tensor(batch.sup_x[..., :-2])))
        # Pool over the shared item embeddings so the user vector lives in
        # the same representation space the relation net compares against.
        inp = T.concat([f_s, Tensor(batch.sup_y[:, :, None])], axis=-1)
        e = T.relu(self._linear("ue.fc", inp))  # [B, S, W]
        masked = T.mul(e, Tensor(batch.sup_mask[:, :, None]))
        counts = batch.sup_mask.sum(axis=1, keepdims=True)
        pooled = T.div(T.reduce_sum(masked, axis=1), Tensor(counts))  # [B, W]
        return self._linear("ue.out", pooled)

    # -- prediction ----------------------------------------------------

    def query_probs(self, batch: Batch) -> np.ndarray:
        """Per-query probabilities [B, Q] as plain float32 (no tape use)."""
        if self.family == "metric":
            probs = self.forward_metric(batch).probs.data
            return (probs * batch.qry_mask).astype(np.float32)
        out = self.forward_sequence(batch).data  # [B, T]
        q_max = batch.qry_mask.shape[1]
        idx = batch.t_support[:, None] + np.arange(q_max)[None, :]
        idx = np.minimum(idx, out.shape[1] - 1)
        gathered = np.take_along_axis(out, idx, axis=1)
        return (gathered * batch.qry_mask).astype(np.float32)


# -- episode-level convenience API -------------------------------------


def relation_scores(model: Model, episode: Episode) -> np.ndarray:
    """All-pairs relation scores [T_s, T_q] for one episode."""
    out = model.forward_metric(make_batch([episode]))
    return out.r.data[0, : episode.t_support, : episode.t_query]


def user_embedding(model: Model, episode: Episode) -> np.ndarray:
    """The pooled per-session preference vector [width]."""
    return model._user_embedding_tensor(make_batch([episode])).data[0]


def predict_queries(model: Model, episode: Episode) -> np.ndarray:
    """Per-query skip probabilities [T_q] for one episode."""
    batch = make_batch([episode])
    return model.query_probs(batch)[0, : episode.t_query]
