"""Small autoregressive softmax policies with a hand-written backward pass.

A policy is a stack of linear layers with tanh between them, applied
independently at each output position; the last layer gives one logit per
vocabulary token. The layer-0 input at position t of a sequence is

    [ one-hot(previous token) | one-hot(t) | prompt features | 1 ]

Every layer input ends in a constant 1 for the bias, so each position's
gradient is one rank-one matrix with no bias case. ``_inputs`` writes every
layer-0 input, constant included; ``forward`` only reads that buffer, as
``act_in[0]``, and writes each later augmented input in place.

The input at position t depends only on the prompt, t and the previous
token, so a prompt has R = 1 + (T - 1) V contexts. ``_row`` numbers them
(position 0 is row 0, (t >= 1, prev) is row 1 + (t - 1) V + prev) and
``_context`` inverts it. A ``ContextTable`` holds the logits and layer inputs
of all R contexts of P prompts, and a sequence of prompt p reads its flat row
p R + ``_row``: sampling, scoring the sampled batch and the KL read the
table, while ``greedy`` decodes position by position and GRPO re-scores by
teacher forcing. Randomness enters only as arrays of uniforms.

Every seqtask gemm has 64 rows or more, where OpenBLAS rounds each row the
same way at any row count, so a gathered table row equals a teacher-forced
one bit for bit. For the same reason ``kl_reference`` builds its table of n
rows in min(P, max(1, n // 128)) blocks of whole prompts (``np.array_split``),
each of at least 64 rows, and equals one forward's table bit for bit.

A sequence's log-probability gradient with respect to layer l is
V_b = sum_t outer(g_bt, a_bt): the back-propagated pre-activation gradient
times the augmented layer input. ``score`` returns the factors grad_out[l]
(B, T, out) and act_in[l] (B, T, in + 1), and training never forms a V_b:

    |V_b|^2            = sum_{t,s} (g_bt . g_bs)(a_bt . a_bs)    (``grad_sq_norms``)
    g_j . V_b a_j      = sum_t (g_j . g_bt)(a_bt . a_j)          (``grad_projections``)
    sum_b w_b V_b      = G^T diag(w (x) 1_T) A                   (``grad_sum``)
    <V_i, V_j>         = sum_s g_js . V_i a_js                   (``isopo.build_ntk``)

where G and A stack the factors of all B T positions; ``Scored.seq_grads``
materializes the V_b as the checks' reference. The backward's matmuls stay
batched per sequence, (B, T, .) by (., .): one flat (B T)-row gemm sums in
another blocking, which moves bandit's metrics.

A checkpoint is text: every weight in ``float.hex`` form, one line per
weight row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation

CHECKPOINT_MAGIC = "isopo-lab-checkpoint"
CHECKPOINT_VERSION = 1
# kl_reference builds a table of n rows in n // KL_BLOCK_ROWS blocks
KL_BLOCK_ROWS = 128
# (vocab, context_dim, T) -> that architecture's ``_context_template``
_TEMPLATES: dict[tuple[int, int, int], np.ndarray] = {}


@dataclass
class PolicyNet:
    """Stack of linear layers; ``weights[l]`` has shape (out_dim, in_dim + 1).

    The last column of every weight matrix is the bias (inputs are augmented
    with a constant 1). The final layer's output dimension is the vocabulary
    size. A policy copies its weights into one float64 vector ``params``, the
    layers in order, each in C order (``flatten`` and ``split`` own this
    layout), and ``weights`` is a tuple of views into it: a write through
    either reaches the other, and no layer can be rebound away from ``params``.
    """

    weights: tuple[np.ndarray, ...]
    vocab_size: int
    context_dim: int
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.weights:
            raise ContractViolation("policy needs at least one layer")
        expected_in = self.context_dim
        for i, w in enumerate(self.weights):
            if w.ndim != 2:
                raise ContractViolation(f"layer {i} weight must be 2-D")
            if w.shape[1] != expected_in + 1:
                raise ContractViolation(
                    f"layer {i} expects input dim {w.shape[1] - 1}, got {expected_in}"
                )
            expected_in = w.shape[0]
        if self.weights[-1].shape[0] != self.vocab_size:
            raise ContractViolation(
                f"final layer outputs {self.weights[-1].shape[0]} logits, "
                f"vocab is {self.vocab_size}"
            )
        self.params = self.flatten([np.asarray(w, dtype=float) for w in self.weights])
        self.weights = self.split(self.params)

    def flatten(self, per_layer) -> np.ndarray:
        """One array (..., param_count), in the layout of ``params``, of one
        weight-shaped array (..., out, in + 1) per layer."""
        return np.concatenate([x.reshape(x.shape[:-2] + (-1,)) for x in per_layer], axis=-1)

    def split(self, flat) -> tuple[np.ndarray, ...]:
        """Views (..., out, in + 1) of ``flat`` (..., param_count), one per layer."""
        lead, ends = np.shape(flat)[:-1], np.cumsum([w.size for w in self.weights])
        parts = np.split(flat, ends[:-1], axis=-1)
        return tuple(part.reshape(lead + w.shape) for part, w in zip(parts, self.weights))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def param_count(self) -> int:
        return self.params.size

    def copy(self) -> "PolicyNet":
        return PolicyNet(self.weights, self.vocab_size, self.context_dim)


@dataclass
class Scored:
    """Teacher-forced log-probabilities and gradient factors of B sequences.

    Per layer l, ``act_in[l][b, t]`` is the layer input at position t of
    sequence b augmented with a trailing 1, and ``grad_out[l][b, t]`` the
    gradient of the sequence's log-probability with respect to the layer's
    pre-activation there; the gradient of ``logprobs[b]`` with respect to
    layer l is V_b = sum_t outer(grad_out[l][b, t], act_in[l][b, t]).
    ``sq_norms`` caches every |V_b|^2 on first use, so the factor arrays are
    not to be changed after it is read.
    """

    logprobs: np.ndarray  # (B,)
    act_in: list[np.ndarray]  # per layer (B, T, in_dim + 1)
    grad_out: list[np.ndarray]  # per layer (B, T, out_dim)

    @cached_property
    def sq_norms(self) -> list[np.ndarray]:
        """Per layer (B,): the squared Frobenius norms |V_b|^2."""
        return [grad_sq_norms(g, a) for g, a in zip(self.grad_out, self.act_in)]

    @property
    def seq_grads(self) -> list[np.ndarray]:
        """Per layer (B, out_dim, in_dim + 1): every V_b, materialized on each access."""
        return [np.swapaxes(g, 1, 2) @ a for g, a in zip(self.grad_out, self.act_in)]


def grad_sq_norms(grad_out: np.ndarray, act_in: np.ndarray) -> np.ndarray:
    """|V_b|^2 for one layer's factors, from per-sequence (T, T) Gram matrices.

    A sum of Gram products can round below zero when V_b cancels, so it is
    clamped at 0; V_b counts as zero exactly when this returns 0.
    """
    gg = grad_out @ np.swapaxes(grad_out, 1, 2)
    aa = act_in @ np.swapaxes(act_in, 1, 2)
    return np.maximum(np.sum(gg * aa, axis=(1, 2)), 0.0)


def grad_projections(
    grad_out: np.ndarray, act_in: np.ndarray, g: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """(B, n) projections g_j . V_b a_j of every V_b onto n rank-one factors
    (g (n, out), a (n, in + 1)): two gemms over the B T positions."""
    n_seq, seq_len = grad_out.shape[:2]
    prod = (grad_out.reshape(n_seq * seq_len, -1) @ g.T) * (
        act_in.reshape(n_seq * seq_len, -1) @ a.T
    )
    return prod.reshape(n_seq, seq_len, -1).sum(axis=1)


def grad_sum(grad_out: np.ndarray, act_in: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_b weights[b] V_b for one layer's factors, as one gemm over the B T
    positions; the caller checks that ``weights`` is one float per sequence."""
    n_seq, seq_len, out_dim = grad_out.shape
    weighted = (grad_out * weights[:, None, None]).reshape(n_seq * seq_len, out_dim)
    return weighted.T @ act_in.reshape(n_seq * seq_len, -1)


def init_policy(
    vocab_size: int,
    seq_len: int,
    n_features: int,
    hidden: tuple[int, ...],
    rng: np.random.Generator,
) -> PolicyNet:
    """Fresh policy, input layout above, for ``seq_len`` tokens and ``n_features``
    prompt features: weights ~ U(-1/sqrt(in_dim), 1/sqrt(in_dim)), zero bias."""
    context_dim = vocab_size + seq_len + n_features
    dims = [context_dim, *hidden, vocab_size]
    shapes = [(out_dim, in_dim + 1) for in_dim, out_dim in zip(dims[:-1], dims[1:])]
    net = PolicyNet([np.zeros(shape) for shape in shapes], vocab_size, context_dim)
    for w in net.weights:  # the bias column stays zero
        scale = 1.0 / math.sqrt(w.shape[1] - 1)
        w[:, :-1] = rng.uniform(-scale, scale, size=(w.shape[0], w.shape[1] - 1))
    return net


def _normalize(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one normalization pass over the last axis: each row's maximum m,
    e = exp(logits - m) and its sum, so that softmax = e / sum and
    log softmax = logits - m - log(sum)."""
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return m, e, np.add.reduce(e, axis=-1, keepdims=True)


def forward(net: PolicyNet, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits and bias-augmented layer inputs for layer-0 inputs ``x`` of shape
    (..., context_dim + 1), the trailing constant 1 included (``_inputs``).

    ``act_in[0]`` is ``x`` itself: the forward only reads it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (net.context_dim + 1,):
        raise ContractViolation(f"input shape {x.shape}, expected (..., {net.context_dim + 1})")
    lead = x.shape[:-1]
    a = x.reshape(-1, net.context_dim + 1)
    act_in = [x]
    for l, w in enumerate(net.weights):
        z = a @ w.T
        if l == net.n_layers - 1:
            return z.reshape(lead + z.shape[1:]), act_in
        a = np.empty((len(z), w.shape[0] + 1))
        a[:, -1] = 1.0
        np.tanh(z, out=a[:, :-1])
        act_in.append(a.reshape(lead + a.shape[1:]))


def seq_len_for(net: PolicyNet, features) -> int:
    """Sequence length implied by the input layout for prompt features (..., F)."""
    n_features = np.shape(features)[-1]
    t = net.context_dim - net.vocab_size - n_features
    if t < 1:
        raise ContractViolation(
            f"context dim {net.context_dim} too small for vocab {net.vocab_size} "
            f"and {n_features} prompt features"
        )
    return t


def _inputs(net: PolicyNet, features, position, prev) -> np.ndarray:
    """Layer-0 inputs [onehot(prev) | onehot(position) | features | 1] for
    prompt features (..., F) and integer positions and previous tokens
    broadcasting with them.

    Position 0 has no previous token: its ``prev`` must still index the
    vocabulary, and its block is left zero. The one-hots are written by
    index.
    """
    features = np.asarray(features, dtype=float)
    v, seq_len = net.vocab_size, seq_len_for(net, features)
    lead = np.broadcast(np.empty(features.shape[:-1]), position, prev).shape
    x = np.zeros(lead + (net.context_dim + 1,))
    x[..., v + seq_len : -1] = features
    x[..., -1] = 1.0
    flat = x.reshape(-1)
    start = np.arange(0, flat.size, x.shape[-1]).reshape(lead)  # each input's offset
    flat[start + v + position] = 1.0
    flat[start + prev] = position > 0
    return x


def teacher_forced_inputs(net: PolicyNet, features, tokens) -> np.ndarray:
    """Teacher-forced layer-0 inputs (B, T, context_dim + 1): position t sees
    token t - 1 of its row."""
    features = np.asarray(features, dtype=float)
    tokens = np.asarray(tokens)
    seq_len = seq_len_for(net, features)
    if features.ndim != 2 or tokens.shape != (features.shape[0], seq_len):
        raise ContractViolation(
            f"features {features.shape} and tokens {tokens.shape} do not form "
            f"(B, F) and (B, {seq_len})"
        )
    if tokens.size and not (0 <= tokens.min() and tokens.max() < net.vocab_size):
        raise ContractViolation(f"tokens outside vocab {net.vocab_size}")
    positions = np.arange(seq_len)  # position t >= 1 reads token t - 1, position 0 none
    return _inputs(net, features[:, None], positions, tokens[:, positions - 1])


def greedy(net: PolicyNet, features) -> np.ndarray:
    """Argmax decoding (B, T) for prompt features (B, F), position by position; deterministic."""
    features = np.asarray(features, dtype=float)
    tokens = np.zeros((features.shape[0], seq_len_for(net, features)), dtype=np.int64)
    for t in range(tokens.shape[1]):  # position 0 does not read tokens[:, -1]
        x = _inputs(net, features, t, tokens[:, t - 1])
        tokens[:, t] = np.argmax(forward(net, x)[0], axis=-1)
    return tokens


def _sequence_logprobs(logits, m, total, rows, at) -> np.ndarray:
    """Log-probabilities (B,) of sequences whose position (b, t) reads row
    ``rows[b, t]`` of the logits (..., vocab) and of their ``_normalize``
    maximum and sum, and its token at the logits' flat entry ``at[b, t]``:
    log softmax = logits - m - log(sum), read at the tokens alone, summed
    over positions. Rows are numbered in C order over the leading axes."""
    return (logits.take(at) - m.take(rows) - np.log(total.take(rows))).sum(axis=1)


def _backward(net: PolicyNet, logits, act_in, tokens, normalized=None) -> Scored:
    """``Scored`` of sequences (B, T) from their positions' logits (B, T, vocab)
    and bias-augmented layer inputs (B, T, in + 1). ``normalized``, when
    given, is ``_normalize(logits)`` in arrays this may overwrite."""
    m, p, total = _normalize(logits) if normalized is None else normalized
    p /= total
    # d log softmax(z)[token] / dz = onehot(token) - softmax(z), written over
    # p; 0.0 - p, not -p, keeps a zero probability's entry +0.0, as onehot - p does
    g = np.subtract(0.0, p, out=p)
    rows = np.arange(tokens.size).reshape(tokens.shape)  # (b, t) is row b T + t
    at = rows * g.shape[-1] + tokens  # each position's token entry
    g.reshape(-1)[at] += 1.0
    grad_out = [g]
    for l in range(net.n_layers - 1, 0, -1):
        h = act_in[l][..., :-1]
        g = (g @ net.weights[l][:, :-1]) * (1.0 - h * h)
        grad_out.insert(0, g)
    return Scored(_sequence_logprobs(logits, m, total, rows, at), act_in, grad_out)


def score(net: PolicyNet, features, tokens, inputs=None) -> Scored:
    """Teacher-forced log-probabilities and gradients of token sequences (B, T).

    ``inputs``, when given, must equal ``teacher_forced_inputs(net, features,
    tokens)``, as a scored batch's ``act_in[0]`` does: a caller that scores
    one batch at several weights passes that buffer, which becomes the
    result's ``act_in[0]`` unchanged and uncopied.
    """
    tokens = np.asarray(tokens)
    if inputs is None:
        inputs = teacher_forced_inputs(net, features, tokens)
    logits, act_in = forward(net, inputs)
    return _backward(net, logits, act_in, tokens)


def _row(position, prev, vocab: int):
    """The ``ContextTable`` row of the context (position, previous token):
    1 + (position - 1) vocab + prev, and 0 for position 0, which has no
    previous token, whatever token ``prev`` is."""
    return np.maximum(1 + (position - 1) * vocab + prev, 0)


def _context(row, vocab: int):
    """The (position, previous token) of table rows, the inverse of ``_row``;
    row 0 gives position 0 and token vocab - 1, which position 0 does not read."""
    return (row - 1) // vocab + 1, (row - 1) % vocab


@dataclass
class ContextTable:
    """A policy's logits and layer inputs at every context of P prompts.

    Entry ``[p, r]`` of ``logits`` (P, R, vocab) and of every ``act_in[l]``
    (P, R, in + 1) belongs to prompt p (``features[p]``) in the context that
    ``_row`` numbers r, R of them for T positions. Position t of a sequence
    of prompt p reads the table's flat row p R + r, in C order over (P, R):
    ``sample`` returns these rows, and every read of the sequences shares them.
    """

    features: np.ndarray  # (P, F)
    logits: np.ndarray  # (P, R, vocab)
    act_in: list[np.ndarray]  # per layer (P, R, in_dim + 1)

    @property
    def seq_len(self) -> int:
        return _context(self.logits.shape[1] - 1, self.logits.shape[2])[0] + 1

    @cached_property
    def _normalized(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_normalize`` of the logits, which sampling and log-probabilities share."""
        return _normalize(self.logits)

    def sample(self, which, u) -> tuple[np.ndarray, np.ndarray]:
        """Tokens (B, T) of sequences of prompts ``which`` (B,) from uniforms
        (B, T), and the flat rows (B, T) they read, which[b] R +
        ``_row``(t, tokens[b, t - 1]): the index of ``logprobs`` and ``score``.

        The token at position t is the number of entries of its context's
        cumulative distribution at or below ``u[b, t]``, capped at vocab - 1,
        so each sequence depends only on its own row of uniforms.
        """
        u = np.asarray(u, dtype=float)
        n_contexts, vocab = self.logits.shape[1:]
        if u.shape != (len(which), self.seq_len):
            raise ContractViolation(f"uniforms shape {u.shape} does not match (B, T)")
        _, e, total = self._normalized
        cdf = np.cumsum(e / total, axis=-1).reshape(-1, vocab)
        tokens = np.zeros(u.shape, dtype=np.int64)
        rows = np.empty(u.shape, dtype=np.int64)
        rows[:, 0] = np.asarray(which) * n_contexts  # position 0 reads its prompt's row 0
        for t in range(u.shape[1]):
            if t:
                rows[:, t] = rows[:, 0] + _row(t, tokens[:, t - 1], vocab)
            below = cdf.take(rows[:, t], axis=0) <= u[:, t, None]
            tokens[:, t] = np.minimum(np.sum(below, axis=-1), vocab - 1)
        return tokens, rows

    def logprobs(self, rows, tokens) -> np.ndarray:
        """Log-probabilities (B,) of sequences ``tokens`` (B, T) that read ``rows``."""
        m, _, total = self._normalized
        return _sequence_logprobs(
            self.logits, m, total, rows, rows * self.logits.shape[-1] + tokens
        )

    def score(self, net: PolicyNet, rows, tokens) -> Scored:
        """``score`` of sequences ``tokens`` that read ``rows``, from those
        entries; ``net`` must be the policy the table was built from."""
        if len(self.act_in) != net.n_layers:
            raise ContractViolation("table holds no layer inputs of this policy")

        def gather(table: np.ndarray) -> np.ndarray:  # (B, T, last axis)
            return table.reshape(-1, table.shape[-1]).take(rows, axis=0)

        return _backward(
            net,
            gather(self.logits),
            [gather(a) for a in self.act_in],
            tokens,
            tuple(gather(part) for part in self._normalized),
        )


def _n_contexts(vocab: int, seq_len: int) -> int:
    """R = 1 + (T - 1) V, the number of contexts of a prompt: the last one's row + 1."""
    return int(_row(seq_len - 1, vocab - 1, vocab)) + 1


def _context_template(net: PolicyNet, seq_len: int) -> np.ndarray:
    """The read-only layer-0 inputs (R, context_dim + 1) of one prompt's R
    contexts, its feature columns zero: built by ``_inputs`` at the first
    table of each architecture (vocabulary, context dim, T) and kept for the
    process."""
    key = (net.vocab_size, net.context_dim, seq_len)
    template = _TEMPLATES.get(key)
    if template is None:
        v = net.vocab_size
        position, prev = _context(np.arange(_n_contexts(v, seq_len)), v)
        template = _inputs(net, np.zeros(net.context_dim - v - seq_len), position, prev)
        template.flags.writeable = False
        _TEMPLATES[key] = template
    return template


def _context_inputs(net: PolicyNet, features: np.ndarray) -> np.ndarray:
    """Layer-0 inputs (P, R, context_dim + 1) of every context of prompts
    (P, F), equal to ``_inputs`` of them: a copy of the template with the
    features filled in."""
    seq_len = seq_len_for(net, features)
    template = _context_template(net, seq_len)
    x = np.empty((len(features),) + template.shape)
    x[...] = template
    x[..., net.vocab_size + seq_len : -1] = features[:, None]
    return x


def context_table(net: PolicyNet, prompt_features) -> ContextTable:
    """The ``ContextTable`` of prompts (P, F): one ``forward`` over P (1 + (T - 1) V) rows."""
    features = np.asarray(prompt_features, dtype=float)
    if features.ndim != 2:
        raise ContractViolation(f"prompt features {features.shape} are not (P, F)")
    logits, act_in = forward(net, _context_inputs(net, features))
    return ContextTable(features, logits, act_in)


def sample_and_score(net: PolicyNet, prompt_features, u) -> tuple[np.ndarray, Scored]:
    """Sample sequences (B, T) from uniforms ``u`` (B, T) for prompts (P, F),
    B / P per prompt: rows p B / P to (p + 1) B / P - 1 belong to prompt p.
    They are drawn by ``ContextTable.sample``'s rule from the prompts' one
    table and scored off it."""
    n_prompts, n_seqs = len(prompt_features), len(u)
    if not n_prompts or n_seqs % n_prompts:
        raise ContractViolation(f"{n_seqs} sequences do not split over {n_prompts} prompts")
    table = context_table(net, prompt_features)
    which = np.repeat(np.arange(n_prompts), n_seqs // n_prompts)
    tokens, rows = table.sample(which, u)
    return tokens, table.score(net, rows, tokens)


def kl_reference(net: PolicyNet, prompts) -> ContextTable:
    """``net``'s table of ``prompts`` in sorted-id order, the form in which
    ``kl_from_reference`` reads both policies.

    It keeps no layer inputs, which only scoring reads, so a table kept for a
    whole run holds just its logits and, once read, their normalization. It
    is built in blocks of whole prompts, ``n_rows // KL_BLOCK_ROWS`` of them
    (at least 1, at most P), each one ``context_table`` forward of at least
    64 rows, and equals the table of one forward over all the rows.
    """
    ordered = sorted(prompts, key=lambda p: p.id)
    if not ordered:
        raise ContractViolation("need at least one prompt")
    features = np.stack([p.features for p in ordered])
    n_rows = len(features) * _n_contexts(net.vocab_size, seq_len_for(net, features))
    n_blocks = min(len(features), max(1, n_rows // KL_BLOCK_ROWS))
    blocks = np.array_split(features, n_blocks)
    logits = np.concatenate([context_table(net, block).logits for block in blocks])
    return ContextTable(features, logits, [])


def kl_from_reference(table: ContextTable, ref: ContextTable, u) -> float:
    """Monte Carlo estimate of KL(policy || reference) averaged over prompts,
    from the two policies' ``kl_reference`` tables of the same prompts and
    uniforms ``u`` (n_samples, T).

    Sample i belongs to the table's prompt i mod P, so samples are allocated
    round-robin over the prompts in sorted-id order, and it is drawn from
    row i of ``u``. Both tables come from the same ``forward`` over the same
    rows, so policies with equal weights give exactly 0.0.
    """
    if len(u) < 1:  # ``sample`` checks that each row has T uniforms
        raise ContractViolation("need at least one sample")
    if table.logits.shape != ref.logits.shape or not np.array_equal(
        table.features, ref.features
    ):
        raise ContractViolation("reference table is not of these prompts and this architecture")
    which = np.arange(len(u)) % len(table.features)
    tokens, rows = table.sample(which, u)
    return math.fsum(table.logprobs(rows, tokens) - ref.logprobs(rows, tokens)) / len(u)


def save_checkpoint(net: PolicyNet, path) -> None:
    """Text checkpoint: a header, then per layer a ``layer i rows cols`` line
    and one line per weight row, its values in ``float.hex`` form separated
    by single spaces. Round-trips bit-exactly through ``load_checkpoint``."""
    chunks = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n"]
    chunks.append(f"vocab_size {net.vocab_size}\ncontext_dim {net.context_dim}\n")
    chunks.append(f"layers {net.n_layers}\n")
    for i, (w, rows) in enumerate(zip(net.weights, _hex_rows(net))):
        chunks.append(f"layer {i} {w.shape[0]} {w.shape[1]}\n{rows}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(chunks))


def _hex_rows(net: PolicyNet) -> list[str]:
    """Per layer, its weight rows as lines of ``float.hex`` values separated
    by spaces, each line ending in a newline; byte for byte what ``float.hex``
    gives for any float64, from one numpy pass over ``net.params``.

    Value i fills column i of a fixed-width byte matrix in which 0 marks
    padding: the sign, ``0x``, the leading digit (1 if normal), ``.``, the 13
    fraction digits of its big-endian bytes in hex (just one, ``0``, for a
    zero), ``p`` and the unbiased exponent in decimal without leading zeros
    (-1022 for a subnormal, +0 for a zero), then a space or the row's
    newline. An infinity or a NaN is ``inf``, ``-inf`` or ``nan``, whatever
    the NaN's sign or payload. The padding is dropped.
    """
    n = net.param_count
    bits = net.params.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int16) & 0x7FF
    zero = bits << np.uint64(1) == 0
    exponent = np.where(biased > 0, biased - 1023, -1022)
    exponent[zero] = 0
    magnitude = np.abs(exponent)
    hex_digits = np.frombuffer(net.params.astype(">f8").tobytes().hex().encode("ascii"), np.uint8)
    rec = np.zeros((25, n), dtype=np.uint8)  # "-0x1." + 13 digits + "p+1023" + separator
    rec[0] = (bits >> np.uint64(63)).astype(np.uint8) * ord("-")
    rec[1:3] = np.frombuffer(b"0x", np.uint8)[:, None]
    rec[3] = ord("0") + (biased > 0)
    rec[4] = ord(".")
    rec[5:18] = hex_digits.reshape(n, 16)[:, 3:].T
    rec[6:18, zero] = 0
    rec[18] = ord("p")
    rec[19] = np.where(exponent < 0, ord("-"), ord("+"))
    for row, place in enumerate((1000, 100, 10), start=20):
        rec[row] = (magnitude >= place) * (ord("0") + magnitude // place % 10)
    rec[23] = ord("0") + magnitude % 10
    special = np.flatnonzero(biased == 0x7FF)
    nan = bits[special] << np.uint64(12) != 0
    rec[1:24, special] = 0
    rec[0, special[nan]] = 0
    rec[1:4, special] = np.where(
        nan, np.frombuffer(b"nan", np.uint8)[:, None], np.frombuffer(b"inf", np.uint8)[:, None]
    )
    rec[24] = ord(" ")
    for layer in net.split(rec[24]):  # views: each weight row ends in a newline
        layer[:, -1] = ord("\n")
    rec = rec.T.copy()
    keep = rec != 0
    text = rec[keep].tobytes().decode("ascii")
    stops = np.cumsum([np.count_nonzero(layer) for layer in net.split(keep.T)])  # characters
    return [text[start:stop] for start, stop in zip([0, *stops], stops)]


def load_checkpoint(path) -> PolicyNet:
    """Read a ``save_checkpoint`` file. A short, malformed or non-numeric line,
    a non-finite weight, or a line after the last layer, raises
    ContractViolation naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pos = 0

    def fields(tag: str | None, n: int, parse):
        nonlocal pos
        pos += 1
        parts = lines[pos - 1].split() if pos <= len(lines) else []
        if len(parts) != n or (tag is not None and parts[0] != tag):
            start = f" starting with {tag!r}" if tag else ""
            raise ContractViolation(f"{path}: line {pos}: expected {n} fields{start}")
        try:
            values = [parse(v) for v in (parts[1:] if tag else parts)]
        except ValueError as exc:
            raise ContractViolation(f"{path}: line {pos}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ContractViolation(f"{path}: line {pos}: non-finite value")
        return values

    if fields(CHECKPOINT_MAGIC, 2, int) != [CHECKPOINT_VERSION]:
        raise ContractViolation(f"{path}: line 1: unrecognized checkpoint version")
    (vocab,) = fields("vocab_size", 2, int)
    (context_dim,) = fields("context_dim", 2, int)
    (n_layers,) = fields("layers", 2, int)
    weights = []
    for i in range(n_layers):
        idx, rows, cols = fields("layer", 4, int)
        if idx != i or min(rows, cols) < 1:
            raise ContractViolation(f"{path}: line {pos}: bad header for layer {i}")
        weights.append(np.array([fields(None, cols, float.fromhex) for _ in range(rows)]))
    if pos < len(lines):
        raise ContractViolation(f"{path}: line {pos + 1}: unexpected line after the last layer")
    return PolicyNet(weights, vocab, context_dim)
