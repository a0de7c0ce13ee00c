"""Small autoregressive softmax policies with a hand-written backward pass.

A policy is a stack of linear layers with tanh between them, applied
independently at each output position. The input to the network at
position ``t`` of a sequence is

    [ one-hot(previous token) | one-hot(t) | prompt features ]

and the final layer produces one logit per vocabulary token.

A batch of B sequences of length T is held as arrays, never as per-position
objects, and ``forward`` maps inputs of any leading shape. The input at
position t is fixed by the prompt, t and the previous token alone, so the
policy is first-order Markov: a prompt presents only 1 + (T - 1) V distinct
contexts, position 0 and every (t >= 1, previous token) pair.
``context_table`` runs one ``forward`` over all of them for P prompts,
P (1 + (T - 1) V) rows, keeping the logits and the layer inputs.

Two decisions about reading the policy have one owner each: ``_inputs``
writes every input from (prompt features, position, previous token), for
the table, teacher forcing and ``greedy`` alike, and ``_row`` numbers a
table's contexts, with ``_context`` its inverse. Of a table's inputs, only
the feature columns depend on the prompt: the one-hots of a prompt's R
contexts are the same for every prompt of an architecture (vocabulary,
context dim, T). ``_context_template`` has ``_inputs`` write them once, at
the architecture's first table, with the features zero, and keeps them
read-only for the process; each table's inputs are a copy of it with the
features filled in (``_context_inputs``): a 132-row sampling table took
73 µs against 98 µs built through ``_inputs`` (best of 5 x 2000 calls, one
BLAS thread).

``sample_and_score`` takes P prompts and B uniform rows, B / P sequences
per prompt in the group layout of ``tasks.build_microbatch``. It builds the
prompts' table, draws each position's token from the CDF row of its
context, and gathers the logits and layer inputs of the sampled contexts
for the backward pass, which teacher-forced ``score`` shares; there is no
second forward. ``kl_from_reference`` samples from the policy's
``kl_reference`` table of the KL prompts and reads both policies'
log-probabilities off their tables, so a run builds the reference policy's
table once. Sampling and the KL take their randomness as arrays of
uniforms, one row per sequence; the caller derives the rows
(``rng.uniforms``, ``rng.draws``), so no generator enters this module.

The table costs P (1 + (T - 1) V) rows against 2 B T for decoding the
sequences position by position and then scoring them: 132 against 192 for a
default seqtask microbatch (P = 4 prompts, B = 32, T = 3, V = 16), in one
pass instead of T + 1, and 528 against 1536 for the eval KL's 256 samples
over 16 prompts. It pays when groups share prompts, and only then, so two
forward shapes stay. ``greedy`` decodes position by position: validation's
54 prompts with one sequence each would need 1782 table rows against 162
decoded (1.78 ms against 0.13 ms, one BLAS thread). GRPO re-scores its
fixed batch by teacher forcing: 96 rows against a 132-row table (0.15 ms
against 0.23 ms). Every gemm of the seqtask tables has 64 rows or more,
where OpenBLAS rounds each row the same way at any row count, so a gathered
row equals the one a teacher-forced pass computes bit for bit.

The same rule lets ``kl_reference`` build the eval table in blocks of whole
prompts, one ``context_table`` forward each, keeping only the logits: a
table of n rows takes min(P, max(1, n // 128)) blocks (``np.array_split``),
so every block has at least 64 rows, and a table under 128 rows is one
block. The default seqtask's 528 rows become 4 blocks of 132, the size of a
training step's sampling table, and the table equals one forward's bit for
bit. One 528-row forward frees about 1 MB per eval row, in buffers above
glibc's mmap threshold, so the heap is trimmed and the next row faults the
pages back in; 132-row buffers are reused from the heap. In 40-step seq-ni
runs (one BLAS thread) a table took 839 µs as one forward and 596 µs in
blocks. Blocks of 4 prompts at ``seq_modulus = 5`` (44 rows) moved
``kl_from_init`` of 40-step runs by up to 5.7e-13 relative, which is why no
block goes below 64 rows.

Sampled tokens are discrete, so a sequence's log-probability is a sum over
positions and its gradient with respect to layer l's weights is a sum of
rank-one terms, V_b = sum_t outer(g_bt, a_bt): the back-propagated
pre-activation gradient g times the bias-augmented layer input a. ``score``
returns those factor arrays, grad_out[l] (B, T, out) and act_in[l]
(B, T, in + 1), and every per-sequence quantity the estimators need comes
from small Gram products of them, so training never forms a V_b:

    |V_b|^2            = sum_{t,s} (g_bt . g_bs)(a_bt . a_bs)    (``grad_sq_norms``)
    g_j . V_b a_j      = sum_t (g_j . g_bt)(a_bt . a_j)          (``grad_projections``)
    sum_b w_b V_b      = G^T diag(w (x) 1_T) A                   (``grad_sum``)
    <V_i, V_j>         = sum_s g_js . V_i a_js                   (``isopo.build_ntk``)

where G (B T, out) and A (B T, in + 1) stack the factors of all positions;
``isopo.build_ntk`` sums the ``grad_projections`` onto their rows by sequence.
``Scored.seq_grads`` materializes the V_b on demand, as the reference the
self-checks and tests compare these identities against.

Biases are handled by augmenting every layer input with a trailing constant
1, so each position's gradient is a single rank-one matrix with no special
case for the bias column. ``forward`` allocates each layer's augmented input
once, sets its constant column, and writes the previous layer's tanh into
the rest (``out=``), so no layer concatenates.

Each logits array is normalized once (``_normalize``: one max, exp and sum
over the vocabulary). The backward's gradient term onehot - softmax and its
token log-probabilities come from that one pass, the one-hot added by index
and the log-probabilities read at the tokens alone; a ``ContextTable``
normalizes on first read, and its sampling CDF, its log-probabilities and
the backward of the sequences it scores share the pass (``score`` gathers
the sampled contexts' maximum, exponentials and sum instead of normalizing
their logits again). The backward's matmuls stay batched per sequence,
(B, T, .) by (., .): one flat (B T)-row gemm sums in another blocking, and
on bandit's 32-row microbatches, where OpenBLAS takes its small-matrix
path, it moved the metrics of 40-step bandit runs by up to 2.6e-11 relative
while seqtask's stayed identical, so the backward keeps the per-sequence
form.

A checkpoint is text: every weight in ``float.hex`` form, one line per
weight row. ``save_checkpoint`` formats all the weights in one numpy pass
over their bits (``_hex_rows``) instead of one ``float.hex`` call per weight
(3248 of them for the default seqtask policy), and writes the same bytes
for every float64, zeros, subnormals, infinities and NaNs included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    size.
    """

    weights: list[np.ndarray]
    vocab_size: int
    context_dim: int

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

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def param_count(self) -> int:
        return int(sum(w.size for w in self.weights))

    def copy(self) -> "PolicyNet":
        return PolicyNet([w.copy() for w in self.weights], self.vocab_size, self.context_dim)


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


def grad_sum(grad_out: np.ndarray, act_in: np.ndarray, weights) -> np.ndarray:
    """sum_b weights[b] V_b for one layer's factors, as one gemm over the B T positions."""
    weights = np.asarray(weights, dtype=float)
    n_seq, seq_len, out_dim = grad_out.shape
    if weights.shape != (n_seq,):
        raise ContractViolation(f"{n_seq} sequences but weights of shape {weights.shape}")
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
    weights = []
    for in_dim, out_dim in zip(dims[:-1], dims[1:]):
        scale = 1.0 / math.sqrt(in_dim)
        w = np.zeros((out_dim, in_dim + 1))
        w[:, :in_dim] = rng.uniform(-scale, scale, size=(out_dim, in_dim))
        weights.append(w)
    return PolicyNet(weights, vocab_size, context_dim)


def _normalize(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one normalization pass over the last axis: each row's maximum m,
    e = exp(logits - m) and its sum, so that softmax = e / sum and
    log softmax = logits - m - log(sum)."""
    m = np.max(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return m, e, np.sum(e, axis=-1, keepdims=True)


def forward(net: PolicyNet, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits and bias-augmented layer inputs for inputs ``x`` of shape (..., context_dim)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (net.context_dim,):
        raise ContractViolation(f"input shape {x.shape}, expected (..., {net.context_dim})")
    lead = x.shape[:-1]
    x = x.reshape(-1, net.context_dim)
    a = _augmented(len(x), net.context_dim)
    a[:, :-1] = x
    act_in = []
    for l, w in enumerate(net.weights):
        act_in.append(a.reshape(lead + a.shape[1:]))
        z = a @ w.T
        if l == net.n_layers - 1:
            return z.reshape(lead + z.shape[1:]), act_in
        a = _augmented(len(z), w.shape[0])
        np.tanh(z, out=a[:, :-1])


def _augmented(n_rows: int, dim: int) -> np.ndarray:
    """An (n_rows, dim + 1) layer-input buffer whose last column holds the constant 1."""
    a = np.empty((n_rows, dim + 1))
    a[:, -1] = 1.0
    return a


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
    """Inputs [onehot(prev) | onehot(position) | features] for prompt features
    (..., F) and integer positions and previous tokens broadcasting with them.

    Position 0 has no previous token: its ``prev`` must still index the
    vocabulary, and its block is left zero. The one-hots are written by
    index; a broadcast compare against a range took twice as long.
    """
    features = np.asarray(features, dtype=float)
    v, seq_len = net.vocab_size, seq_len_for(net, features)
    # np.broadcast_shapes does this, at twice the cost
    lead = np.broadcast(np.empty(features.shape[:-1]), position, prev).shape
    x = np.zeros(lead + (net.context_dim,))
    x[..., v + seq_len :] = features
    flat = x.reshape(-1)
    start = np.arange(0, flat.size, net.context_dim).reshape(lead)  # each input's offset
    flat[start + v + position] = 1.0
    flat[start + prev] = position > 0
    return x


def teacher_forced_inputs(net: PolicyNet, features, tokens) -> np.ndarray:
    """Teacher-forced inputs (B, T, context_dim): position t sees token t - 1 of its row."""
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


def _sequence_logprobs(logits, m, total, index, tokens) -> np.ndarray:
    """Log-probabilities (B,) of sequences ``tokens`` (B, T) whose positions'
    rows of the logits and of their ``_normalize`` maximum and sum the index
    pair ``index`` selects: log softmax = logits - m - log(sum), read at the
    tokens alone, summed over positions."""
    rows = index + (0,)
    return (logits[index + (tokens,)] - m[rows] - np.log(total[rows])).sum(axis=1)


def _positions(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pair selecting every (b, t) of a (B, T, ...) array."""
    return tuple(np.indices(tokens.shape, sparse=True))


def _backward(net: PolicyNet, logits, act_in, tokens, normalized=None) -> Scored:
    """``Scored`` of sequences (B, T) from their positions' logits (B, T, vocab)
    and bias-augmented layer inputs (B, T, in + 1). ``normalized``, when
    given, is ``_normalize(logits)`` in arrays this may overwrite."""
    m, p, total = _normalize(logits) if normalized is None else normalized
    p /= total
    # d log softmax(z)[token] / dz = onehot(token) - softmax(z); 0.0 - p, not
    # -p, keeps a zero probability's entry +0.0, as onehot - p does
    g = 0.0 - p
    index = _positions(tokens)
    g[index + (tokens,)] += 1.0
    grad_out = [g]
    for l in range(net.n_layers - 1, 0, -1):
        h = act_in[l][..., :-1]
        g = (g @ net.weights[l][:, :-1]) * (1.0 - h * h)
        grad_out.insert(0, g)
    return Scored(_sequence_logprobs(logits, m, total, index, tokens), act_in, grad_out)


def sequence_logprobs(net: PolicyNet, features, tokens) -> np.ndarray:
    """Log-probabilities (B,) of token sequences (B, T), forward pass only."""
    tokens = np.asarray(tokens)
    logits, _ = forward(net, teacher_forced_inputs(net, features, tokens))
    m, _, total = _normalize(logits)
    return _sequence_logprobs(logits, m, total, _positions(tokens), tokens)


def score(net: PolicyNet, features, tokens, inputs=None) -> Scored:
    """Teacher-forced log-probabilities and gradients of token sequences (B, T).

    ``inputs``, when given, must equal ``teacher_forced_inputs(net, features,
    tokens)``, as a scored batch's ``act_in[0][..., :-1]`` does: a caller
    that scores one batch at several weights reads them from there.
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
    ``_row`` numbers r, R of them for T positions. A sequence b of prompt
    ``which[b]`` reads row ``which[b]`` at the contexts its tokens select.
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

    def _index(self, which, tokens) -> tuple[np.ndarray, np.ndarray]:
        """Index pair selecting the (B, T) entries sequences ``tokens`` of
        prompts ``which`` read."""
        positions = np.arange(tokens.shape[1])  # position 0 does not read tokens[:, -1]
        rows = _row(positions, tokens[:, positions - 1], self.logits.shape[-1])
        return np.asarray(which)[:, None], rows

    def sample(self, which, u) -> np.ndarray:
        """Tokens (B, T) of sequences of prompts ``which`` (B,) from uniforms (B, T).

        The token at position t is the number of entries of its context's
        cumulative distribution at or below ``u[b, t]``, capped at vocab - 1,
        so each sequence depends only on its own row of uniforms.
        """
        u = np.asarray(u, dtype=float)
        vocab = self.logits.shape[-1]
        if u.shape != (len(which), self.seq_len):
            raise ContractViolation(f"uniforms shape {u.shape} does not match (B, T)")
        _, e, total = self._normalized
        cdf = np.cumsum(e / total, axis=-1)
        tokens = np.zeros(u.shape, dtype=np.int64)
        for t in range(u.shape[1]):  # position 0 does not read tokens[:, -1]
            below = cdf[which, _row(t, tokens[:, t - 1], vocab)] <= u[:, t, None]
            tokens[:, t] = np.minimum(np.sum(below, axis=-1), vocab - 1)
        return tokens

    def logprobs(self, which, tokens) -> np.ndarray:
        """Log-probabilities (B,) of sequences ``tokens`` (B, T) of prompts ``which``."""
        m, _, total = self._normalized
        return _sequence_logprobs(self.logits, m, total, self._index(which, tokens), tokens)

    def score(self, net: PolicyNet, which, tokens) -> Scored:
        """``score`` of sequences ``tokens`` of prompts ``which``, from the
        entries they read; ``net`` must be the policy the table was built from."""
        if len(self.act_in) != net.n_layers:
            raise ContractViolation("table holds no layer inputs of this policy")
        index = self._index(which, tokens)
        m, e, total = self._normalized
        return _backward(
            net,
            self.logits[index],
            [a[index] for a in self.act_in],
            tokens,
            (m[index], e[index], total[index]),
        )


def _n_contexts(vocab: int, seq_len: int) -> int:
    """R = 1 + (T - 1) V, the number of contexts of a prompt: the last one's row + 1."""
    return int(_row(seq_len - 1, vocab - 1, vocab)) + 1


def _context_template(net: PolicyNet, seq_len: int) -> np.ndarray:
    """The read-only inputs (R, context_dim) of one prompt's R contexts, its
    feature columns zero: built by ``_inputs`` at the first table of each
    architecture (vocabulary, context dim, T) and kept for the process."""
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
    """Inputs (P, R, context_dim) of every context of prompts (P, F), equal to
    ``_inputs`` of them: a copy of the template with the features filled in."""
    seq_len = seq_len_for(net, features)
    template = _context_template(net, seq_len)
    x = np.empty((len(features),) + template.shape)
    x[...] = template
    x[..., net.vocab_size + seq_len :] = features[:, None]
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
    tokens = table.sample(which, u)
    return tokens, table.score(net, which, tokens)


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
    tokens = table.sample(which, u)
    return math.fsum(table.logprobs(which, tokens) - ref.logprobs(which, tokens)) / len(u)


def save_checkpoint(net: PolicyNet, path) -> None:
    """Text checkpoint: a header, then per layer a ``layer i rows cols`` line
    and one line per weight row, its values in ``float.hex`` form separated
    by single spaces. Round-trips bit-exactly through ``load_checkpoint``."""
    chunks = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n"]
    chunks.append(f"vocab_size {net.vocab_size}\ncontext_dim {net.context_dim}\n")
    chunks.append(f"layers {net.n_layers}\n")
    for i, (w, rows) in enumerate(zip(net.weights, _hex_rows(net.weights))):
        chunks.append(f"layer {i} {w.shape[0]} {w.shape[1]}\n{rows}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(chunks))


def _hex_rows(weights: list[np.ndarray]) -> list[str]:
    """Per matrix, its rows as lines of ``float.hex`` values separated by
    spaces, each line ending in a newline; byte for byte what ``float.hex``
    gives for any float64, from one numpy pass over all the matrices.

    Value i fills column i of a fixed-width byte matrix in which 0 marks
    padding: the sign, ``0x``, the leading digit (1 if normal), ``.``, the 13
    fraction digits of its big-endian bytes in hex (just one, ``0``, for a
    zero), ``p`` and the unbiased exponent in decimal without leading zeros
    (-1022 for a subnormal, +0 for a zero), then a space or the row's
    newline. An infinity or a NaN is ``inf``, ``-inf`` or ``nan``, whatever
    the NaN's sign or payload. The padding is dropped.
    """
    values = np.concatenate([w.ravel() for w in weights])
    row_ends = np.concatenate([np.arange(1, w.size + 1) % w.shape[1] == 0 for w in weights])
    n = len(values)
    bits = values.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int16) & 0x7FF
    zero = bits << np.uint64(1) == 0
    exponent = np.where(biased > 0, biased - 1023, -1022)
    exponent[zero] = 0
    magnitude = np.abs(exponent)
    hex_digits = np.frombuffer(values.astype(">f8").tobytes().hex().encode("ascii"), np.uint8)
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
    rec[24] = np.where(row_ends, ord("\n"), ord(" "))
    rec = rec.T.copy()
    keep = rec != 0
    text = rec[keep].tobytes().decode("ascii")
    stops = [np.count_nonzero(keep[:end]) for end in np.cumsum([w.size for w in weights])]
    return [text[start:stop] for start, stop in zip([0] + stops, stops)]


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
