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

Each family's forward lays out its batch in one table, built once and
read by every layer, head and loss that needs the layout. Every sequence
kind reads the batch's real rows ``Batch.x [N, D]`` and returns one logit
per row, or per query row when scoring; its ``nn.Rows`` table of the
timeline (and att_pair's of the support rows ``Batch.sup``) keeps each
conv tap, norm and attention weight inside its session, gives the
transformer its positions and plans attention's padded block. The metric
family's ``nn.Pairs`` table lays out the (support, query) pairs for the
relation net, heads, losses and ``query_probs``. Every encoder runs
channels-last, so every conv is one GEMM. Causal stacks normalize per
position over channels only, never over time, so strict causality and
exact receptive fields survive normalization. att_pair's non-causal support encoder normalizes each
session's rows over time instead, where looking ahead is the point.
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
    dilations: tuple[int, ...] = ()  # per gated conv level of a stack
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
        if self.gate != "highway" and not self.structure.dilations:  # no level reads the gate
            raise ConfigurationError(f"{self.kind} has no gated level; its gate must be "
                                     f"'highway', got {self.gate!r}")
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
        """The config :meth:`to_json` wrote. Any other key is refused: meta that stores a
        structure (stacks, dilations, kernels, heads) next to the config predates the
        structure coming from the kind, and states a model this config may not be."""
        unknown = sorted(set(obj) - {"kind", "width", "gate", "seed"})
        if unknown:
            raise ValidationError(f"model meta has keys {unknown} that no model config holds")
        return cls(
            kind=obj["kind"], width=int(obj["width"]), gate=obj["gate"], seed=int(obj["seed"])
        )


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
    pairs: nn.Pairs  # where the batch's pairs, supports and queries sit in r and head


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

    # -- sequence family -----------------------------------------------

    def forward_sequence(self, batch: Batch, queries_only: bool = False) -> Tensor:
        """Skip logits over the merged timelines, one per row of ``batch.x`` ``[N]``, or with
        ``queries_only`` one per query row (``batch.query_index``), then inert logits up to
        a multiple of ``dataio.PACK_ROWS``. The transformer runs its last block's query
        side on the query rows alone; every other kind reads them from the logits of every
        row. The timeline's one row table is built here, and every layer of the forward
        reads it."""
        kind = self.config.kind
        forward = self.config.structure.forward
        if forward is None:
            raise ContractError(f"{kind} is a metric-family model; no sequence forward")
        if kind == "teacher" and not batch.query_logs_kept:
            raise ContractError(
                "teacher requires episodes assembled with keep_query_logs=True; "
                "this batch has zero-filled query logs"
            )
        rows = nn.Rows.packed(batch.lengths, len(batch.x))
        if kind == "transformer":
            return self._forward_transformer(batch, rows, queries_only)
        logits = getattr(self, forward)(batch, rows)
        return nn.take_rows(logits, batch.query_index) if queries_only else logits

    def _forward_conv_stacks(self, batch: Batch, rows: nn.Rows, h: Tensor | None = None) -> Tensor:
        """The entry conv on ``h`` (the batch's rows when None), the causal gated levels
        and the head conv."""
        h = self._causal_stacks(Tensor(batch.x) if h is None else h, rows)
        return T.reshape(self._conv("head", h, Conv1dSpec(self.config.width, 1, 1), rows),
                         rows.shape)

    def _causal_stacks(self, h: Tensor, rows: nn.Rows, entry: str = "entry",
                       level: str = "stack{s}.level{l}") -> Tensor:
        """The entry conv to the width, then every stack's causal gated levels, on rows."""
        structure, w = self.config.structure, self.config.width
        h = self._conv(entry, h, Conv1dSpec(h.shape[-1], w, 1), rows)
        for s in range(structure.stacks):
            for l, (d, k) in enumerate(zip(structure.dilations, structure.kernels)):
                h = self._gated_level(level.format(s=s, l=l), h, d, k, rows)
        return h

    def _forward_snail(self, batch: Batch, rows: nn.Rows) -> Tensor:
        # Attention reads the raw rows (no embedding layer in front),
        # its output is concatenated back onto them, and the causal
        # stack consumes the pair.
        x = Tensor(batch.x)
        qkv = (self._linear(f"attn.{name}", x) for name in "qkv")
        att = nn.attention(*qkv, rows, causal=True, heads=self.config.structure.heads)
        return self._forward_conv_stacks(batch, rows,
                                         T.concat([x, self._linear("attn.o", att)], -1))

    def _forward_transformer(self, batch: Batch, rows: nn.Rows,
                             queries_only: bool = False) -> Tensor:
        """Every block on the timeline's rows, except that with ``queries_only`` the last
        block's attention queries, ``o`` projection, residual, ``ln2`` and FFN, then the
        final norm and the head run on the query rows alone; its keys and values still
        cover the whole timeline."""
        structure = self.config.structure
        t_len = int(batch.lengths.max(initial=0))
        if t_len > MAX_POSITIONS:
            raise ValidationError(
                f"timeline length {t_len} exceeds the positional table ({MAX_POSITIONS})"
            )
        # Each real row's position embedding through a one-hot product, which picks it
        # exactly; inert rows add nothing.
        time = rows.time[: int(batch.lengths.sum())]
        at = np.zeros((len(batch.x), MAX_POSITIONS), batch.x.dtype)
        at[np.arange(len(time)), time] = 1
        h = T.add(self._linear("embed", Tensor(batch.x)), T.matmul(Tensor(at), self._p("pos")))

        def ln(prefix: str, v: Tensor) -> Tensor:
            return nn.channel_norm(v, self._p(f"{prefix}.gamma"), self._p(f"{prefix}.beta"))

        q_rows = rows
        for bidx in range(structure.stacks):
            p = f"block{bidx}"
            n1 = q_in = ln(f"{p}.ln1", h)
            if queries_only and bidx == structure.stacks - 1:
                read = batch.query_index
                h, q_in = nn.take_rows(h, read), nn.take_rows(n1, read)
                q_rows = nn.Rows.packed(batch.t_query, len(h.data), batch.t_support)
            qkv = (self._linear(f"{p}.{name}", x) for name, x in zip("qkv", (q_in, n1, n1)))
            att = nn.attention(*qkv, q_rows, rows, causal=True, heads=structure.heads)
            h = T.add(h, self._linear(f"{p}.o", att))
            n2 = ln(f"{p}.ln2", h)
            ffn = self._linear(f"{p}.ffn.fc2", self._linear(f"{p}.ffn.fc1", n2, relu=True))
            h = T.add(h, ffn)
        return T.reshape(self._linear("head", ln("final", h)), q_rows.shape)

    def _forward_att_pair(self, batch: Batch, rows: nn.Rows) -> Tensor:
        w = self.config.width
        sup = batch.sup
        sup_rows = nn.Rows.packed(sup.counts, len(sup.x))
        s_enc = self._conv("sup.entry", Tensor(sup.x), Conv1dSpec(self.in_dim, w, 1))
        for l, d in enumerate(ATT_PAIR_SUPPORT_DILATIONS):
            spec = Conv1dSpec(w, w, ATT_PAIR_SUPPORT_KERNEL, d, NONCAUSAL)
            pre = [
                nn.instance_norm(nn.conv1d_cl(s_enc, spec, wt, rows=sup_rows), gamma, beta,
                                 sup_rows)
                for wt, gamma, beta in self._branches(f"sup.level{l}")
            ]
            s_enc = nn.gated_block(self.config.gate, s_enc, *pre)  # [n_s, W]
        q_enc = self._causal_stacks(Tensor(batch.x), rows, "qry.entry", "qry.level{l}")
        att = nn.attention(q_enc, s_enc, s_enc, rows, sup_rows, heads=self.config.structure.heads)
        h = self._linear("comb", T.concat([q_enc, att], axis=-1), relu=True)
        return T.reshape(self._linear("head", h), rows.shape)

    # -- metric family -------------------------------------------------

    def forward_metric(self, views: Halves) -> MetricOut:
        """Relation scores and heads from a batch's :meth:`Batch.halves`, which a caller
        that reads them too derives once; a :class:`Batch` has the same names.

        ``embed`` and the user pool run on the support rows and on the query rows, each
        real row once with inert rows up to a multiple of ``dataio.PACK_ROWS``; the pair
        layers multiply the real rows and meet them per session (``nn.relation_logits``).
        The scores and heads keep the padded ``[B, S, Q]`` and ``[B, Q]`` layout, inert
        past each session's places, which the returned ``nn.Pairs`` marks."""
        kind = self.config.kind
        if kind not in METRIC_KINDS:
            raise ContractError(f"{kind} is a sequence-family model; no relation scores")
        sup, qry, sup_y = views.sup, views.qry, views.sup_y
        pairs = nn.Pairs(sup.counts, qry.counts)
        support = Tensor(pairs.support[:, :, None].astype(np.float32))  # [B, S, 1]
        f_s = self._linear("embed", Tensor(sup.x[:, :-2]), relu=True)  # [n_s, W]
        f_q = self._linear("embed", Tensor(qry.x[:, :-2]), relu=True)  # [n_q, W]

        u = self._user_embedding_tensor(views, f_s=f_s) if kind in UE_KINDS else None  # [B, W]

        # The relation net and wsum read each (support, query, label, user)
        # pair by parts: the pair concat is never built.
        rn = [self._p(name) for name in ("rn.fc1.w", "rn.fc1.b", "rn.out.w", "rn.out.b")]
        r = T.sigmoid(nn.relation_logits(f_s, f_q, sup.y, *rn, pairs, user=u))  # [B, S, Q]

        if kind == "rnbc2_ue":
            # Sigmoid-squashed weights cannot collapse to zero, which would
            # cut the only gradient path into the relation scores.
            wsum = nn.pair_linear(f_s, f_q, sup.y, self._p("wsum.w"), self._p("wsum.b"), pairs, u)
            pair_w = T.sigmoid(T.reshape(wsum, r.shape))
            prod = T.mul(T.mul(pair_w, r), support)
            head = T.add(T.reduce_sum(prod, axis=1), self._p("wsum.bias"))
        else:
            # Similarity-weighted label vote over valid supports.
            y_s = Tensor(sup_y[:, :, None])
            agree = T.add(
                T.mul(r, y_s), T.mul(T.add(1.0, T.neg(r)), Tensor(1.0 - sup_y[:, :, None]))
            )
            counts = pairs.t_support[:, None].astype(np.float32)  # [B, 1], >= 1
            head = T.div(T.reduce_sum(T.mul(agree, support), axis=1), Tensor(counts))
        return MetricOut(r=r, head=head, pairs=pairs)

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
        """Per-query probabilities ``[n_q]`` as plain float32, sessions in batch order and
        each one's queries in order; records no tape.

        The one sigmoid of every head but the label votes of ``VOTE_KINDS``.
        """
        if self.family == "metric":
            out = self.forward_metric(batch.halves())
            head = out.head.data[out.pairs.query]  # [B, Q] -> [n_q]
        else:
            n_q = int(batch.t_query.sum())
            head = self.forward_sequence(batch, queries_only=True).data[:n_q]  # [n_q]
        probs = head if self.config.kind in VOTE_KINDS else T.sigmoid_array(head)
        return probs.astype(np.float32)

