"""The nine skip-prediction architectures over the tensor primitives.

Two families share the Batch interface:

* metric family (rnb1, rnb2_ue, rnbc2_ue) — embed support and query
  items independently, score all support x query pairs with a relation
  network, and reduce scores to one output per query: a label vote's
  probability (rnb1, rnb2_ue) or a logit (rnbc2_ue). Order-free by
  construction.
* sequence family (seq1eH, seq1HL, att_pair, transformer, snail,
  teacher) — run the merged support+query timeline through causal
  encoders and read out a logit at every position in one pass
  (non-auto-regressive; no prediction is fed back).

Every head but the label votes emits logits, and ``Model.query_probs``
is the one place they become probabilities.

Every encoder runs channels-last, so every conv is one GEMM. Every
sequence kind returns one logit per row of ``Batch.x [N, D]``, the
batch's real rows. The causal stacks of seq1eH, seq1HL and teacher run
on those rows (``nn.Rows.packed``); snail, att_pair and the transformer
run the padded timelines ``Batch.seq_x [B, T, D]`` and ``nn.unpad``
their head's logits back to rows, their convs with a table
(``nn.Rows.padded``) in which each padding row is a session of its own,
so no conv tap of a real row reads padding and nothing re-zeroes it.
Causal stacks normalize per position over channels only, never over
time, so strict causality and exact receptive fields survive
normalization. The non-causal support encoder of att_pair, ``[B, S, W]``,
uses masked temporal instance norm instead, where looking ahead is the
point; attention masks out padding keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import nn
from . import tensor as T
from .dataio import Batch, Halves
from .errors import ConfigurationError, ContractError, ValidationError
from .nn import CAUSAL, NONCAUSAL, Conv1dSpec
from .rng import rng_stream
from .tensor import Tensor

METRIC_KINDS = ("rnb1", "rnb2_ue", "rnbc2_ue")
SEQUENCE_KINDS = ("seq1eH", "seq1HL", "att_pair", "transformer", "snail", "teacher")
KINDS = METRIC_KINDS + SEQUENCE_KINDS

UE_KINDS = ("rnb2_ue", "rnbc2_ue")
VOTE_KINDS = ("rnb1", "rnb2_ue")  # heads that vote with labels: probabilities, not logits

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


# -- parameter initialization ------------------------------------------


class _Init:
    def __init__(self, seed: int):
        self.seed = seed
        self.params: dict[str, np.ndarray] = {}

    def _add(self, name: str, data: np.ndarray) -> None:
        if name in self.params:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        self.params[name] = data.astype(np.float32)

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
    head: Tensor  # [B, Q] per query: a vote's probability (VOTE_KINDS), else a logit


class Model:
    """Forward passes over named parameters, each ``.data`` a view into one
    float32 ``vector``: write them in place, never rebind them. A backward
    accumulates their gradients into views of one buffer laid out alike."""

    def __init__(self, config: ModelConfig, in_dim: int, arrays: dict[str, np.ndarray]):
        self.config = config
        self.in_dim = in_dim
        self.vector = np.concatenate([a.ravel() for a in arrays.values()], dtype=np.float32)
        self._grad = np.empty_like(self.vector)
        ends = np.cumsum([a.size for a in arrays.values()])[:-1]
        views = zip(np.split(self.vector, ends), np.split(self._grad, ends))
        self.params = {
            name: Tensor(value.reshape(a.shape), requires_grad=True,
                         grad_buffer=grad.reshape(a.shape))
            for (name, a), (value, grad) in zip(arrays.items(), views)
        }

    @property
    def family(self) -> str:
        return "metric" if self.config.kind in METRIC_KINDS else "sequence"

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def gradient(self) -> np.ndarray:
        """Every gradient in one flat buffer laid out like ``vector``, zeros where
        unset. A backward accumulates into it already; only a gradient assigned
        from outside is copied in. An Adam step consumes the buffer, and with
        it every ``.grad`` that is a view of it: ``zero_grad`` after the step."""
        for name, p in self.params.items():
            out = p.grad_buffer
            if p.grad is None:
                out.fill(0.0)
            elif p.grad is not out:
                if p.grad.shape != p.shape:
                    raise ConfigurationError(
                        f"gradient shape {p.grad.shape} != parameter shape {p.shape} for {name!r}"
                    )
                np.copyto(out, p.grad)
        return self._grad

    # -- shared pieces -------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _linear(self, prefix: str, x: Tensor, relu: bool = False) -> Tensor:
        return nn.linear(x, self._p(f"{prefix}.w"), self._p(f"{prefix}.b"), relu)

    def _conv(self, prefix: str, x: Tensor, spec: Conv1dSpec,
              rows: nn.Rows | None = None) -> Tensor:
        return nn.conv1d_cl(x, spec, self._p(f"{prefix}.w"), self._p(f"{prefix}.b"), rows)

    def _branches(self, prefix: str) -> list[tuple[Tensor, Tensor, Tensor]]:
        """The transform and gate branches' ``(w, gamma, beta)`` of a gated level."""
        return [
            tuple(self._p(f"{prefix}.{b}.{name}") for name in ("w", "gamma", "beta"))
            for b in ("t", "g")
        ]

    def _gated_level(self, prefix: str, x: Tensor, dilation: int, kernel: int,
                     rows: nn.Rows) -> Tensor:
        """One causal gated level with per-position channel norm, as one fused node."""
        spec = Conv1dSpec(self.config.width, self.config.width, kernel, dilation, CAUSAL)
        return nn.gated_level(self.config.gate, x, spec, *self._branches(prefix), rows)

    def _causal_attention_mask(self, seq_mask: np.ndarray) -> nn.AttentionMask:
        b, t = seq_mask.shape
        tril = np.tril(np.ones((t, t), dtype=np.float32))
        return nn.AttentionMask.of(tril[None, :, :] * seq_mask[:, None, :])

    # -- sequence family -----------------------------------------------

    def forward_sequence(self, batch: Batch) -> Tensor:
        """Skip logits ``[N]``, one per row of ``batch.x``, over the merged timelines."""
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

    def _forward_conv_stacks(self, batch: Batch) -> Tensor:
        structure, w = self.config.structure, self.config.width
        rows = nn.Rows.packed(batch.lengths, len(batch.x))
        h = self._conv("entry", Tensor(batch.x), Conv1dSpec(self.in_dim, w, 1), rows)
        for s in range(structure.stacks):
            for l, (d, k) in enumerate(zip(structure.dilations, structure.kernels)):
                h = self._gated_level(f"stack{s}.level{l}", h, d, k, rows)
        return T.reshape(self._conv("head", h, Conv1dSpec(w, 1, 1), rows), rows.shape)

    def _forward_snail(self, batch: Batch) -> Tensor:
        # Attention reads the raw rows (no embedding layer in front),
        # its output is concatenated back onto them, and the causal
        # stack consumes the pair.
        structure = self.config.structure
        seq_mask = batch.seq_mask
        x = Tensor(batch.seq_x)
        rows = nn.Rows.padded(seq_mask)
        q = self._linear("attn.q", x)
        k = self._linear("attn.k", x)
        v = self._linear("attn.v", x)
        att = nn.attention(
            q, k, v, mask=self._causal_attention_mask(seq_mask), heads=structure.heads
        )
        att = self._linear("attn.o", att)
        h = T.concat([x, att], axis=-1)
        h = self._conv("entry", h, Conv1dSpec(self.in_dim + self.config.width, self.config.width, 1))
        for l, (d, kk) in enumerate(zip(structure.dilations, structure.kernels)):
            h = self._gated_level(f"stack0.level{l}", h, d, kk, rows)
        logits = self._conv("head", h, Conv1dSpec(self.config.width, 1, 1))
        return nn.unpad(logits, seq_mask, len(batch.x))

    def _forward_transformer(self, batch: Batch) -> Tensor:
        structure = self.config.structure
        seq_mask = batch.seq_mask
        x = Tensor(batch.seq_x)
        t_len = x.shape[-2]
        if t_len > MAX_POSITIONS:
            raise ValidationError(
                f"timeline length {t_len} exceeds the positional table ({MAX_POSITIONS})"
            )
        h = self._linear("embed", x)
        h = T.add(h, T.slice_axis(self._p("pos"), 0, 0, t_len))
        mask = self._causal_attention_mask(seq_mask)  # both blocks

        def ln(prefix: str, v: Tensor) -> Tensor:
            return nn.channel_norm(v, self._p(f"{prefix}.gamma"), self._p(f"{prefix}.beta"))

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
            ffn = self._linear(f"{p}.ffn.fc2", self._linear(f"{p}.ffn.fc1", n2, relu=True))
            h = T.add(h, ffn)
        return nn.unpad(self._linear("head", ln("final", h)), seq_mask, len(batch.x))

    def _forward_att_pair(self, batch: Batch) -> Tensor:
        structure = self.config.structure
        w = self.config.width
        sup_mask = batch.sup_mask  # [B, S]
        sup_rows = nn.Rows.padded(sup_mask)
        s_enc = self._conv("sup.entry", Tensor(batch.sup_x), Conv1dSpec(self.in_dim, w, 1))
        for l, d in enumerate(ATT_PAIR_SUPPORT_DILATIONS):
            spec = Conv1dSpec(w, w, ATT_PAIR_SUPPORT_KERNEL, d, NONCAUSAL)
            pre = [
                nn.instance_norm(nn.conv1d_cl(s_enc, spec, wt, rows=sup_rows), gamma, beta,
                                 mask=sup_mask[:, :, None])
                for wt, gamma, beta in self._branches(f"sup.level{l}")
            ]
            s_enc = nn.gated_block(self.config.gate, s_enc, *pre)  # [B, S, W]
        seq_mask = batch.seq_mask
        q_cl = self._conv("qry.entry", Tensor(batch.seq_x), Conv1dSpec(self.in_dim, w, 1))
        rows = nn.Rows.padded(seq_mask)
        for l, (d, k) in enumerate(zip(structure.dilations, structure.kernels)):
            q_cl = self._gated_level(f"qry.level{l}", q_cl, d, k, rows)  # [B, T, W]

        t_len = q_cl.shape[-2]
        att_mask = np.repeat(sup_mask[:, None, :], t_len, axis=1)  # [B, T, S]
        att = nn.attention(q_cl, s_enc, s_enc, mask=nn.AttentionMask.of(att_mask),
                           heads=structure.heads)
        h = self._linear("comb", T.concat([q_cl, att], axis=-1), relu=True)
        return nn.unpad(self._linear("head", h), seq_mask, len(batch.x))

    # -- metric family -------------------------------------------------

    def forward_metric(self, views: Halves) -> MetricOut:
        """Relation scores and heads from a batch's :meth:`Batch.halves`, which a caller
        that reads them too derives once; a :class:`Batch` has the same names.

        ``embed`` and the user pool run on the support rows and on the query rows, each
        real row once with inert rows up to a multiple of ``dataio.PACK_ROWS``; the pair
        layers multiply the real rows and meet them per session (``nn.relation_logits``).
        The scores and heads keep the padded ``[B, S, Q]`` and ``[B, Q]`` layout, inert
        past each session's places."""
        kind = self.config.kind
        if kind not in METRIC_KINDS:
            raise ContractError(f"{kind} is a sequence-family model; no relation scores")
        sup, qry = views.sup, views.qry
        sup_y, sup_mask = views.sup_y, views.sup_mask
        f_s = self._linear("embed", Tensor(sup.x[:, :-2]), relu=True)  # [n_s, W]
        f_q = self._linear("embed", Tensor(qry.x[:, :-2]), relu=True)  # [n_q, W]

        u = self._user_embedding_tensor(views, f_s=f_s) if kind in UE_KINDS else None  # [B, W]

        # The relation net and wsum read each (support, query, label, user)
        # pair by parts: the pair concat is never built.
        rn = [self._p(name) for name in ("rn.fc1.w", "rn.fc1.b", "rn.out.w", "rn.out.b")]
        pairs = nn.Pairs(sup.counts, qry.counts)
        r = T.sigmoid(nn.relation_logits(f_s, f_q, sup.y, *rn, pairs, user=u))  # [B, S, Q]

        if kind == "rnbc2_ue":
            # Sigmoid-squashed weights cannot collapse to zero, which would
            # cut the only gradient path into the relation scores.
            wsum = nn.pair_linear(f_s, f_q, sup.y, self._p("wsum.w"), self._p("wsum.b"), pairs, u)
            pair_w = T.sigmoid(T.reshape(wsum, r.shape))
            prod = T.mul(T.mul(pair_w, r), Tensor(sup_mask[:, :, None]))
            head = T.add(T.reduce_sum(prod, axis=1), self._p("wsum.bias"))
        else:
            # Similarity-weighted label vote over valid supports.
            y_s = Tensor(sup_y[:, :, None])
            agree = T.add(
                T.mul(r, y_s), T.mul(T.add(1.0, T.neg(r)), Tensor(1.0 - sup_y[:, :, None]))
            )
            masked = T.mul(agree, Tensor(sup_mask[:, :, None]))
            counts = sup_mask.sum(axis=1, keepdims=True)  # [B, 1], >= 1
            head = T.div(T.reduce_sum(masked, axis=1), Tensor(counts))
        return MetricOut(r=r, head=head)

    def _user_embedding_tensor(self, views: Halves, f_s: Tensor | None = None) -> Tensor:
        if self.config.kind not in UE_KINDS:
            raise ContractError(f"{self.config.kind} has no user-embedding pathway")
        sup = views.sup
        if f_s is None:
            f_s = self._linear("embed", Tensor(sup.x[:, :-2]), relu=True)
        # Pool over the shared item embeddings so the user vector lives in
        # the same representation space the relation net compares against.
        inp = T.concat([f_s, Tensor(sup.y[:, None])], axis=-1)
        e = self._linear("ue.fc", inp, relu=True)  # [n_s, W]
        return self._linear("ue.out", nn.session_mean(e, sup.counts))  # [B, W]

    # -- prediction ----------------------------------------------------

    @T.no_grad()
    def query_probs(self, batch: Batch) -> np.ndarray:
        """Per-query probabilities [B, Q] as plain float32; records no tape.

        The one sigmoid of every head but the label votes of ``VOTE_KINDS``.
        """
        if self.family == "metric":
            views = batch.halves()
            head, qry_mask = self.forward_metric(views).head.data, views.qry_mask
        else:
            head = batch.queries(self.forward_sequence(batch).data)  # [N] -> [B, Q]
            qry_mask = batch.qry_mask
        probs = head if self.config.kind in VOTE_KINDS else T.sigmoid_array(head)
        return (probs * qry_mask).astype(np.float32)

