"""Small autoregressive softmax policies with a hand-written backward pass.

A policy is a stack of linear layers with tanh between them, applied
independently at each output position; the last layer gives one logit per
vocabulary token. The layer-0 input at position t of a sequence is

    [ one-hot(previous token) | one-hot(t) | prompt features | 1 ]

Every layer input ends in a constant 1 for the bias, so each position's
gradient is one rank-one matrix with no bias case.

The input at position t depends only on the prompt, t and the previous
token, so a prompt has R = 1 + (T - 1) V contexts. ``_row`` numbers them
(position 0 is row 0, (t >= 1, prev) is row 1 + (t - 1) V + prev) and
``_context`` inverts it. ``_context_template`` alone writes the layout: its
row r is context r's input, constant included, with zero features. Every
layer-0 input is a copy of template rows with the prompt features filled
in: the whole template per prompt for a ``ContextTable``, the row of each
position's context for ``teacher_forced_inputs`` and ``greedy``. ``forward``
only reads that buffer, as ``act_in[0]``, and writes each later augmented
input in place. ``score`` checks tokens and reads them under given layer-0
inputs, and ``rescore`` scores a scored batch at other weights from its
``act_in[0]`` and the checked token entries it keeps, which it shares.

A ``ContextTable`` holds the logits and layer inputs of all R contexts of P
prompts, and a sequence of prompt p reads its flat row p R + ``_row``:
sampling, scoring the sampled batch and the KL read the table, while
``greedy`` decodes position by position and GRPO re-scores its batch's own
inputs. Randomness enters only as arrays of uniforms.

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
    <V_i, V_j>         = sum_{t,s} (g_it . g_js)(a_it . a_js)    (``isopo.build_ntk``)

where G and A stack the factors of all B T positions; ``Scored.seq_grads``
materializes the V_b as the checks' reference. ``block_sq_norms`` owns the
reduction of |V_b|^2, so the NTK's diagonal blocks give the same bits
wherever their syrk rounds each block as the per-sequence one does. The
backward's matmuls stay batched per sequence, (B, T, .) by (., .): one flat
(B T)-row gemm sums in another blocking, which moves bandit's metrics.

A checkpoint is text: every weight as the 16 hex digits of its IEEE-754
binary64 bit pattern, one line per weight row.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation

CHECKPOINT_MAGIC = "isopo-lab-checkpoint"
CHECKPOINT_VERSION = 2
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
        lead, views, start = np.shape(flat)[:-1], [], 0
        for w in self.weights:
            views.append(flat[..., start : start + w.size].reshape(lead + w.shape))
            start += w.size
        return tuple(views)

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
    ``sq_norms`` caches every |V_b|^2, so the factor arrays are not to be
    changed after it is read: ``grad_sq_norms`` gives them on first read,
    unless isopo-int's update first stored those of its NTKs' diagonal
    blocks (``isopo.build_ntk``), which it computes anyway. ``entries`` are
    the checked tokens' ``_token_entries``, from which ``rescore`` scores the
    batch at other weights.
    """

    logprobs: np.ndarray  # (B,)
    act_in: list[np.ndarray]  # per layer (B, T, in_dim + 1)
    grad_out: list[np.ndarray]  # per layer (B, T, out_dim)
    entries: np.ndarray | None = field(default=None, repr=False)  # (B, T)

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
    # each second operand a transposed view of the first: numpy's batched syrk
    gg = grad_out @ grad_out.swapaxes(1, 2)
    gg *= act_in @ act_in.swapaxes(1, 2)
    return block_sq_norms(gg)


def block_sq_norms(blocks: np.ndarray) -> np.ndarray:
    """|V_b|^2 (B,) from each sequence's (T, T) block of position products
    (g_bt . g_bs)(a_bt . a_bs), a C-contiguous (B, T, T) array, clamped at 0."""
    return np.maximum(np.add.reduce(blocks, axis=(1, 2)), 0.0)


def grad_projections(
    grad_out: np.ndarray, act_in: np.ndarray, g: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """(B, n) projections g_j . V_b a_j of every V_b onto n rank-one factors
    (g (n, out), a (n, in + 1)): two gemms over the B T positions."""
    n_seq, seq_len = grad_out.shape[:2]
    prod = grad_out.reshape(n_seq * seq_len, -1) @ g.T
    prod *= act_in.reshape(n_seq * seq_len, -1) @ a.T
    return np.add.reduce(prod.reshape(n_seq, seq_len, -1), axis=1)


def grad_sum(grad_out: np.ndarray, act_in: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """sum_b weights[b] V_b for one layer's factors, as one gemm over the B T
    positions, written into ``out`` (out, in + 1) if given; the caller checks
    that ``weights`` is one float per sequence."""
    n_seq, seq_len, out_dim = grad_out.shape
    weighted = (grad_out * weights[:, None, None]).reshape(n_seq * seq_len, out_dim)
    return np.matmul(weighted.T, act_in.reshape(n_seq * seq_len, -1), out=out)


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
    # one reduction over a contiguous (vocab, rows) copy: numpy reduces along
    # a short last axis row by row. Only the sign of a NaN, or of a zero max
    # held with both signs, can differ from that reduction's, and neither
    # reaches a log-probability: such a row's sum is NaN or at least 2
    slices = logits.reshape(-1, logits.shape[-1]).T.copy()
    m = np.maximum.reduce(slices, axis=0).reshape(logits.shape[:-1] + (1,))
    e = np.exp(logits - m)
    return m, e, np.add.reduce(e, axis=-1, keepdims=True)


def forward(net: PolicyNet, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits and bias-augmented layer inputs for layer-0 inputs ``x`` of shape
    (..., context_dim + 1), the trailing constant 1 included.

    ``act_in[0]`` is ``x`` itself: the forward only reads it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (net.context_dim + 1,):
        raise ContractViolation(f"input shape {x.shape}, expected (..., {net.context_dim + 1})")
    lead = x.shape[:-1]
    a = x.reshape(-1, net.context_dim + 1)
    act_in = [x]
    for w in net.weights[:-1]:
        z = a @ w.T
        a = np.empty((len(z), w.shape[0] + 1))
        a[:, -1] = 1.0
        np.tanh(z, out=a[:, :-1])
        act_in.append(a.reshape(lead + a.shape[1:]))
    z = a @ net.weights[-1].T
    return z.reshape(lead + z.shape[1:]), act_in


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


def _checked_tokens(net: PolicyNet, tokens, shape) -> np.ndarray:
    """``tokens`` as an array of ``shape`` (B, T) whose every entry indexes the
    vocabulary, or ContractViolation."""
    tokens = np.asarray(tokens)
    if len(shape) != 2 or tokens.shape != shape:
        raise ContractViolation(f"tokens {tokens.shape} are not (B, T) = {shape}")
    if tokens.size and not (0 <= tokens.min() and tokens.max() < net.vocab_size):
        raise ContractViolation(f"tokens outside vocab {net.vocab_size}")
    return tokens


def _template_inputs(net: PolicyNet, features, rows) -> np.ndarray:
    """Layer-0 inputs (..., context_dim + 1) of prompt features (..., F),
    broadcasting with the integer ``rows`` (...): the ``_context_template``
    rows that ``_row`` numbers, the features filled in."""
    features = np.asarray(features, dtype=float)
    seq_len = seq_len_for(net, features)
    x = _context_template(net, seq_len).take(rows, axis=0)
    x[..., net.vocab_size + seq_len : -1] = features
    return x


def teacher_forced_inputs(net: PolicyNet, features, tokens) -> np.ndarray:
    """Teacher-forced layer-0 inputs (B, T, context_dim + 1) of prompt
    features (B, F) and tokens (B, T): position t sees token t - 1 of its row."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ContractViolation(f"features {features.shape} are not (B, F)")
    seq_len = seq_len_for(net, features)
    tokens = _checked_tokens(net, tokens, (len(features), seq_len))
    positions = np.arange(seq_len)  # position 0 reads no token: _row ignores tokens[:, -1]
    rows = _row(positions, tokens[:, positions - 1], net.vocab_size)
    return _template_inputs(net, features[:, None], rows)


def greedy(net: PolicyNet, features) -> np.ndarray:
    """Argmax decoding (B, T) for prompt features (B, F), position by position; deterministic."""
    features = np.asarray(features, dtype=float)
    tokens = np.zeros((features.shape[0], seq_len_for(net, features)), dtype=np.int64)
    for t in range(tokens.shape[1]):  # position 0 does not read tokens[:, -1]
        x = _template_inputs(net, features, _row(t, tokens[:, t - 1], net.vocab_size))
        tokens[:, t] = np.argmax(forward(net, x)[0], axis=-1)
    return tokens


def _sequence_logprobs(logits, m, total, at) -> np.ndarray:
    """Log-probabilities (B,) of sequences whose position (b, t) reads its
    token at the flat entry ``at[b, t]`` of the logits (..., vocab), in a row
    whose ``_normalize`` maximum and sum are ``m[b, t]`` and ``total[b, t]``:
    log softmax = logits - m - log(sum), read at the tokens alone, summed
    over positions."""
    return (logits.take(at) - m - np.log(total)).sum(axis=1)


def _token_entries(tokens, vocab: int) -> np.ndarray:
    """Each position's token entry in the C-order flattening of a (B, T, vocab)
    array: (b T + t) vocab + tokens[b, t]."""
    return np.arange(0, tokens.size * vocab, vocab).reshape(tokens.shape) + tokens


def _backward(net: PolicyNet, logprobs, probs, act_in, at) -> Scored:
    """``Scored`` of sequences (B, T) with log-probabilities ``logprobs`` (B,),
    from their positions' softmax ``probs`` (B, T, vocab), which this
    overwrites, its tokens' entries ``at`` (``_token_entries``) and
    bias-augmented layer inputs (B, T, in + 1)."""
    # d log softmax(z)[token] / dz = onehot(token) - softmax(z), written over
    # probs; 0.0 - p, not -p, keeps a zero probability's entry +0.0, as onehot - p does
    g = np.subtract(0.0, probs, out=probs)
    g.reshape(-1)[at] += 1.0
    grad_out = [g]
    for l in range(net.n_layers - 1, 0, -1):
        h = act_in[l][..., :-1]
        dh = h * h
        g = g @ net.weights[l][:, :-1]
        g *= np.subtract(1.0, dh, out=dh)
        grad_out.insert(0, g)
    return Scored(logprobs, act_in, grad_out, at)


def score(net: PolicyNet, inputs, tokens) -> Scored:
    """Log-probabilities and gradients of token sequences (B, T) under their
    layer-0 inputs (B, T, context_dim + 1): ``teacher_forced_inputs`` of the
    tokens, or a scored batch's ``act_in[0]``. The inputs become the result's
    ``act_in[0]`` unchanged and uncopied; tokens that are not (B, T) of them,
    or that fall outside the vocabulary, raise ContractViolation."""
    tokens = _checked_tokens(net, tokens, np.shape(inputs)[:-1])
    return _score(net, inputs, _token_entries(tokens, net.vocab_size))


def rescore(net: PolicyNet, scored: Scored) -> Scored:
    """``score`` at ``net`` of the batch that ``scored`` scored, from its
    ``act_in[0]`` and checked token ``entries``, which the result shares: no
    token is checked again and no index rebuilt."""
    if scored.entries is None:
        raise ContractViolation("scored batch holds no token entries")
    return _score(net, scored.act_in[0], scored.entries)


def _score(net: PolicyNet, inputs, at) -> Scored:
    """``score`` of the sequences whose tokens' entries are ``at`` (B, T)."""
    logits, act_in = forward(net, inputs)
    m, probs, total = _normalize(logits)
    logprobs = _sequence_logprobs(logits, m[..., 0], total[..., 0], at)
    probs /= total
    return _backward(net, logprobs, probs, act_in, at)


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
        """``_normalize`` of the logits with e divided by its sum: each row's
        maximum, softmax and sum, which sampling, scoring and
        log-probabilities share."""
        m, probs, total = _normalize(self.logits)
        probs /= total
        return m, probs, total

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
        cdf = np.cumsum(self._normalized[1], axis=-1).reshape(-1, vocab)
        tokens = np.zeros(u.shape, dtype=np.int64)
        rows = np.empty(u.shape, dtype=np.int64)
        rows[:, 0] = np.asarray(which) * n_contexts  # position 0 reads its prompt's row 0
        for t in range(u.shape[1]):
            if t:
                rows[:, t] = rows[:, 0] + _row(t, tokens[:, t - 1], vocab)
            below = cdf.take(rows[:, t], axis=0) <= u[:, t, None]
            tokens[:, t] = np.minimum(np.add.reduce(below, axis=-1), vocab - 1)
        return tokens, rows

    def logprobs(self, rows, tokens) -> np.ndarray:
        """Log-probabilities (B,) of sequences ``tokens`` (B, T) that read ``rows``."""
        m, _, total = self._normalized
        at = rows * self.logits.shape[-1] + tokens
        return _sequence_logprobs(self.logits, m.take(rows), total.take(rows), at)

    def score(self, net: PolicyNet, rows, tokens) -> Scored:
        """``score`` of sequences ``tokens`` that read ``rows``, from those
        entries; ``net`` must be the policy the table was built from."""
        if len(self.act_in) != net.n_layers:
            raise ContractViolation("table holds no layer inputs of this policy")

        def gather(table: np.ndarray) -> np.ndarray:  # (B, T, last axis)
            return table.reshape(-1, table.shape[-1]).take(rows, axis=0)

        return _backward(
            net,
            self.logprobs(rows, tokens),
            gather(self._normalized[1]),
            [gather(a) for a in self.act_in],
            _token_entries(tokens, self.logits.shape[-1]),
        )


def _n_contexts(vocab: int, seq_len: int) -> int:
    """R = 1 + (T - 1) V, the number of contexts of a prompt: the last one's row + 1."""
    return int(_row(seq_len - 1, vocab - 1, vocab)) + 1


def _context_template(net: PolicyNet, seq_len: int) -> np.ndarray:
    """The read-only layer-0 inputs (R, context_dim + 1) of one prompt's R
    contexts, in the layout above with the feature columns zero: row r is
    the context (position, prev) = ``_context``(r). Built at the first use
    for each architecture (vocabulary, context dim, T) and kept for the
    process; every layer-0 input is a copy of its rows."""
    key = (net.vocab_size, net.context_dim, seq_len)
    template = _TEMPLATES.get(key)
    if template is None:
        v, rows = net.vocab_size, np.arange(_n_contexts(net.vocab_size, seq_len))
        position, prev = _context(rows, v)
        template = np.zeros((len(rows), net.context_dim + 1))
        template[rows, v + position] = 1.0
        template[rows, prev] = position > 0  # position 0 has no previous token
        template[:, -1] = 1.0
        template.flags.writeable = False
        _TEMPLATES[key] = template
    return template


def _context_inputs(net: PolicyNet, features: np.ndarray) -> np.ndarray:
    """Layer-0 inputs (P, R, context_dim + 1) of every context of prompts
    (P, F): a broadcast copy of the template with the features filled in."""
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
    and one line per weight row, each weight its binary64 bit pattern as 16
    big-endian hex digits (``struct.pack(">d", x).hex()``), separated by
    single spaces. Round-trips bit-exactly through ``load_checkpoint``."""
    text = net.params.astype(">f8").tobytes().hex(" ", 8) + " "
    chars = np.frombuffer(bytearray(text, "ascii"), np.uint8).reshape(-1, 17)  # word, separator
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\nlayers {net.n_layers}\n".encode())
        for i, layer in enumerate(net.split(chars.T)):  # views (17, rows, cols)
            layer[16, :, -1] = ord("\n")  # each weight row ends in a newline
            fh.write(f"layer {i} {layer.shape[1]} {layer.shape[2]}\n".encode())
            fh.write(np.moveaxis(layer, 0, -1).tobytes())


def _weight(word: str) -> float:
    """The float64 whose big-endian bit pattern is the 16 hex digits ``word``."""
    if len(word) != 16:
        raise ValueError(f"weight {word!r} is not 16 hex digits")
    return struct.unpack(">d", bytes.fromhex(word))[0]


def load_checkpoint(path) -> PolicyNet:
    """Read a ``save_checkpoint`` file; the weight shapes fix the vocabulary and
    context dim. A short, malformed or non-numeric line, a layer header whose
    columns are not the previous layer's rows + 1, a non-finite weight, or a
    line after the last layer, raises ContractViolation naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pos = 0

    def fields(tag: str | None, n: int, parse=int):
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

    if fields(CHECKPOINT_MAGIC, 2) != [CHECKPOINT_VERSION]:
        raise ContractViolation(f"{path}: line 1: unrecognized checkpoint version")
    (n_layers,) = fields("layers", 2)
    if n_layers < 1:
        raise ContractViolation(f"{path}: line {pos}: a policy needs at least one layer")
    weights = []
    for i in range(n_layers):
        idx, rows, cols = fields("layer", 4)
        if idx != i or min(rows, cols) < 1 or (weights and cols != len(weights[-1]) + 1):
            raise ContractViolation(f"{path}: line {pos}: bad header for layer {i}")
        weights.append(np.array([fields(None, cols, _weight) for _ in range(rows)]))
    if pos < len(lines):
        raise ContractViolation(f"{path}: line {pos + 1}: unexpected line after the last layer")
    return PolicyNet(weights, len(weights[-1]), weights[0].shape[1] - 1)
