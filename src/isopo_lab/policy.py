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

``sample_and_score`` builds one table for the microbatch's prompts (rows
of ``features`` equal to the row before them, as the G rows of a group are,
share an entry), draws each position's token from the CDF row of its
context, and gathers the logits and layer inputs of the sampled contexts
for the backward pass, which teacher-forced ``score`` shares; there is no
second forward. ``kl_from_reference`` samples from the policy's table of
the KL prompts and reads both policies' log-probabilities off their tables,
so a run builds the reference policy's table once. Sampling takes its
randomness as an array of uniforms (B, T), one row per sequence; the caller
derives the rows (``rng.uniforms``), so no generator enters this module's
sampling path.

The table costs P (1 + (T - 1) V) rows against 2 B T for decoding the
sequences position by position and then scoring them: 132 against 192 for a
default seqtask microbatch (P = 4 prompts, B = 32, T = 3, V = 16), in one
pass instead of T + 1, and 528 against 1536 for the eval KL's 256 samples
over 16 prompts. It pays when groups share prompts. ``greedy`` decodes
position by position, since validation's 54 prompts with one sequence each
would need 1782 table rows against 162 decoded, and GRPO re-scores its
fixed batch by teacher forcing (96 rows against a 132-row table). Every
gemm of the seqtask tables has 64 rows or more, where OpenBLAS rounds each
row the same way at any row count, so a gathered row equals the one a
teacher-forced pass computes bit for bit.

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
normalizes on first read, and its sampling CDF and log-probabilities share
the pass. The backward's matmuls stay batched per sequence, (B, T, .) by
(., .): one flat (B T)-row gemm sums in another blocking, and on bandit's
32-row microbatches, where OpenBLAS takes its small-matrix path, it moved
the metrics of 40-step bandit runs by up to 2.6e-11 relative while
seqtask's stayed identical, so the backward keeps the per-sequence form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ContractViolation

CHECKPOINT_MAGIC = "isopo-lab-checkpoint"
CHECKPOINT_VERSION = 1


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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    _, e, total = _normalize(logits)
    return e / total


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


def teacher_forced_inputs(net: PolicyNet, features, tokens) -> np.ndarray:
    """Teacher-forced inputs (B, T, context_dim): position t sees token t - 1 of its row."""
    features = np.asarray(features, dtype=float)
    tokens = np.asarray(tokens)
    seq_len = seq_len_for(net, features)
    n = features.shape[0]
    if features.ndim != 2 or tokens.shape != (n, seq_len):
        raise ContractViolation(
            f"features {features.shape} and tokens {tokens.shape} do not form "
            f"(B, F) and (B, {seq_len})"
        )
    if tokens.size and not (0 <= tokens.min() and tokens.max() < net.vocab_size):
        raise ContractViolation(f"tokens outside vocab {net.vocab_size}")
    v = net.vocab_size
    x = np.zeros((n, seq_len, net.context_dim))
    x[:, 1:, :v] = np.eye(v)[tokens[:, :-1]]
    x[:, :, v : v + seq_len] = np.eye(seq_len)
    x[:, :, v + seq_len :] = features[:, None, :]
    return x


def greedy(net: PolicyNet, features) -> np.ndarray:
    """Argmax decoding (B, T) for prompt features (B, F), position by position; deterministic."""
    features = np.asarray(features, dtype=float)
    tokens = np.zeros((features.shape[0], seq_len_for(net, features)), dtype=np.int64)
    x = teacher_forced_inputs(net, features, tokens)
    for t in range(tokens.shape[1]):
        if t:  # the previous-token block of position t, now that it is known
            x[:, t, : net.vocab_size] = np.eye(net.vocab_size)[tokens[:, t - 1]]
        tokens[:, t] = np.argmax(forward(net, x[:, t])[0], axis=-1)
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


def _backward(net: PolicyNet, logits, act_in, tokens) -> Scored:
    """``Scored`` of sequences (B, T) from their positions' logits (B, T, vocab)
    and bias-augmented layer inputs (B, T, in + 1)."""
    m, p, total = _normalize(logits)
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

    ``inputs``, when given, must be ``teacher_forced_inputs(net, features,
    tokens)``: a caller that scores one batch at several weights builds them
    once.
    """
    tokens = np.asarray(tokens)
    if inputs is None:
        inputs = teacher_forced_inputs(net, features, tokens)
    logits, act_in = forward(net, inputs)
    return _backward(net, logits, act_in, tokens)


@dataclass
class ContextTable:
    """A policy's logits and layer inputs at every context of P prompts.

    Entry ``[p, r]`` of ``logits`` (P, R, vocab) and of every ``act_in[l]``
    (P, R, in + 1) belongs to prompt p (``features[p]``) in context r:
    r = 0 is position 0, and r = 1 + (t - 1) vocab + prev is position t >= 1
    after token ``prev``, so R = 1 + (T - 1) vocab. A sequence b of prompt
    ``which[b]`` reads row ``which[b]`` at the contexts its tokens select.
    """

    features: np.ndarray  # (P, F)
    logits: np.ndarray  # (P, R, vocab)
    act_in: list[np.ndarray]  # per layer (P, R, in_dim + 1)

    @property
    def seq_len(self) -> int:
        return (self.logits.shape[1] - 1) // self.logits.shape[2] + 1

    @cached_property
    def _normalized(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_normalize`` of the logits, which sampling and log-probabilities share."""
        return _normalize(self.logits)

    def _index(self, which, tokens) -> tuple[np.ndarray, np.ndarray]:
        """Index pair selecting the (B, T) entries sequences ``tokens`` of
        prompts ``which`` read."""
        vocab = self.logits.shape[-1]
        rows = np.zeros(tokens.shape, dtype=np.int64)
        rows[:, 1:] = 1 + vocab * np.arange(tokens.shape[1] - 1) + tokens[:, :-1]
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
        rows = np.zeros(len(u), dtype=np.int64)
        for t in range(u.shape[1]):
            if t:
                rows = 1 + (t - 1) * vocab + tokens[:, t - 1]
            below = cdf[which, rows] <= u[:, t, None]
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
        return _backward(net, self.logits[index], [a[index] for a in self.act_in], tokens)


def context_table(net: PolicyNet, prompt_features) -> ContextTable:
    """The ``ContextTable`` of prompts (P, F): one ``forward`` over P (1 + (T - 1) V) rows."""
    features = np.asarray(prompt_features, dtype=float)
    seq_len = seq_len_for(net, features)
    if features.ndim != 2:
        raise ContractViolation(f"prompt features {features.shape} are not (P, F)")
    v = net.vocab_size
    n_rows = 1 + (seq_len - 1) * v
    x = np.zeros((len(features), n_rows, net.context_dim))
    x[:, 1:, :v] = np.tile(np.eye(v), (seq_len - 1, 1))
    position = np.concatenate([[0], np.repeat(np.arange(1, seq_len), v)])
    x[:, np.arange(n_rows), v + position] = 1.0
    x[:, :, v + seq_len :] = features[:, None, :]
    logits, act_in = forward(net, x)
    return ContextTable(features, logits, act_in)


def _prompt_table(net: PolicyNet, features) -> tuple[ContextTable, np.ndarray]:
    """The table of the prompts of sequences (B, F), one entry per run of equal
    rows, and each sequence's entry (B,)."""
    features = np.asarray(features, dtype=float)
    new = np.ones(len(features), dtype=bool)
    new[1:] = np.any(features[1:] != features[:-1], axis=-1)
    return context_table(net, features[new]), np.cumsum(new) - 1


def sample(net: PolicyNet, features, u) -> np.ndarray:
    """Draw token sequences (B, T) from the policy for prompt features (B, F)
    and uniforms ``u`` (B, T), by ``ContextTable.sample``'s rule."""
    table, which = _prompt_table(net, features)
    return table.sample(which, u)


def sample_and_score(net: PolicyNet, features, u) -> tuple[np.ndarray, Scored]:
    """Sample sequences (B, T) for prompt features (B, F) from uniforms ``u``
    (B, T), as ``sample`` does, and score them off the same table."""
    table, which = _prompt_table(net, features)
    tokens = table.sample(which, u)
    return tokens, table.score(net, which, tokens)


def kl_reference(ref: PolicyNet, prompts) -> ContextTable:
    """``ref``'s table of ``prompts`` in sorted-id order, which
    ``kl_from_reference`` accepts in place of either policy for the same
    prompts.

    It keeps no layer inputs, which only scoring reads, so a table kept for a
    whole run holds just its logits and, once read, their normalization.
    """
    ordered = sorted(prompts, key=lambda p: p.id)
    if not ordered:
        raise ContractViolation("need at least one prompt")
    table = context_table(ref, np.stack([p.features for p in ordered]))
    return replace(table, act_in=[])


def kl_from_reference(
    net: PolicyNet | ContextTable,
    ref: PolicyNet | ContextTable,
    prompts,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of KL(net || ref) averaged over prompts.

    Samples are allocated round-robin over prompts in sorted-id order, so the
    estimate does not depend on the order the prompts are passed in. Sample
    i uses row i of one ``rng.random((n_samples, T))`` draw. Both policies'
    log-probabilities are read off their tables of the prompts, built by the
    same ``forward`` over the same rows, so policies with equal weights give
    exactly 0.0. Either policy may be given as its ``kl_reference`` table of
    the same prompts, which repeated estimates against one policy share and
    a caller holding the table of the current weights passes as ``net``.
    """
    both = isinstance(net, PolicyNet) and isinstance(ref, PolicyNet)
    if both and [w.shape for w in net.weights] != [w.shape for w in ref.weights]:
        raise ContractViolation("policies must share an architecture")
    if isinstance(ref, PolicyNet):
        ref = kl_reference(ref, prompts)
    table = net if isinstance(net, ContextTable) else kl_reference(net, prompts)
    if table.logits.shape != ref.logits.shape or not np.array_equal(
        table.features, ref.features
    ):
        raise ContractViolation("reference table is not of these prompts and this architecture")
    which = np.arange(n_samples) % len(table.features)
    tokens = table.sample(which, rng.random((n_samples, table.seq_len)))
    return math.fsum(table.logprobs(which, tokens) - ref.logprobs(which, tokens)) / n_samples


def save_checkpoint(net: PolicyNet, path) -> None:
    """Text checkpoint with hex floats; round-trips bit-exactly."""
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}"]
    lines.append(f"vocab_size {net.vocab_size}")
    lines.append(f"context_dim {net.context_dim}")
    lines.append(f"layers {net.n_layers}")
    for i, w in enumerate(net.weights):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(map(float.hex, row)) for row in w.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> PolicyNet:
    """Read a ``save_checkpoint`` file. A short, malformed or non-numeric line,
    or a line after the last layer, raises ContractViolation naming the line."""
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
            return [parse(v) for v in (parts[1:] if tag else parts)]
        except ValueError as exc:
            raise ContractViolation(f"{path}: line {pos}: {exc}") from exc

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
