"""Small autoregressive softmax policies with a hand-written backward pass.

A policy is a stack of linear layers with tanh between them, applied
independently at each output position. The input to the network at
position ``t`` of a sequence is

    [ one-hot(previous token) | one-hot(t) | prompt features ]

and the final layer produces one logit per vocabulary token.

A batch of B sequences of length T is held as arrays, never as per-position
objects. ``forward`` maps inputs of any leading shape, so teacher-forced
scoring runs the whole (B, T) grid at once, and sampling and greedy decoding
loop only over the T autoregressive positions, each step batched over B.
Sampling takes its randomness as an array of uniforms (B, T), one row per
sequence; the caller derives the rows (``rng.uniforms``), so no generator
enters this module's sampling path.

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
    <V_i, V_j>         = sum_{t,s} (g_it . g_js)(a_it . a_js)    (``isopo.build_ntk``)

where G (B T, out) and A (B T, in + 1) stack the factors of all positions.
``Scored.seq_grads`` materializes the V_b on demand, as the reference the
self-checks and tests compare these identities against.

Biases are handled by augmenting every layer input with a trailing constant
1, so each position's gradient is a single rank-one matrix with no special
case for the bias column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    context_dim: int,
    hidden: tuple[int, ...],
    rng: np.random.Generator,
) -> PolicyNet:
    """Fresh policy with weights ~ U(-1/sqrt(in_dim), 1/sqrt(in_dim)), zero bias."""
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
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward(net: PolicyNet, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits and bias-augmented layer inputs for inputs ``x`` of shape (..., context_dim)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (net.context_dim,):
        raise ContractViolation(f"input shape {x.shape}, expected (..., {net.context_dim})")
    lead = x.shape[:-1]
    x = x.reshape(-1, net.context_dim)
    ones = np.ones((x.shape[0], 1))
    act_in = []
    for l, w in enumerate(net.weights):
        a = np.concatenate([x, ones], axis=1)
        act_in.append(a.reshape(lead + a.shape[1:]))
        x = a @ w.T
        if l < net.n_layers - 1:
            x = np.tanh(x)
    return x.reshape(lead + x.shape[1:]), act_in


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


def _contexts(net: PolicyNet, features, tokens) -> np.ndarray:
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


def _decode(net: PolicyNet, features, choose) -> np.ndarray:
    """Tokens (B, T) chosen position by position by ``choose(logits, t)``."""
    features = np.asarray(features, dtype=float)
    tokens = np.zeros((features.shape[0], seq_len_for(net, features)), dtype=np.int64)
    x = _contexts(net, features, tokens)
    for t in range(tokens.shape[1]):
        if t:  # the previous-token block of position t, now that it is known
            x[:, t, : net.vocab_size] = np.eye(net.vocab_size)[tokens[:, t - 1]]
        logits, _ = forward(net, x[:, t])
        tokens[:, t] = choose(logits, t)
    return tokens


def sample(net: PolicyNet, features, u) -> np.ndarray:
    """Draw token sequences (B, T) from the policy for prompt features (B, F).

    Row b's token at position t is the number of entries of the policy's
    cumulative distribution at or below ``u[b, t]``, capped at vocab - 1, so
    each sequence depends only on its own row of uniforms.
    """
    u = np.asarray(u, dtype=float)
    features = np.asarray(features, dtype=float)
    if u.shape != (features.shape[0], seq_len_for(net, features)):
        raise ContractViolation(f"uniforms shape {u.shape} does not match (B, T)")

    def choose(logits, t):
        cdf = np.cumsum(softmax(logits), axis=-1)
        return np.minimum(np.sum(cdf <= u[:, t, None], axis=-1), net.vocab_size - 1)

    return _decode(net, features, choose)


def greedy(net: PolicyNet, features) -> np.ndarray:
    """Argmax decoding (B, T) for prompt features (B, F); deterministic."""
    return _decode(net, features, lambda logits, t: np.argmax(logits, axis=-1))


def _token_logprobs(logits: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    logp = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    return np.take_along_axis(logp, tokens[..., None], axis=-1)[..., 0]


def sequence_logprobs(net: PolicyNet, features, tokens) -> np.ndarray:
    """Log-probabilities (B,) of token sequences (B, T), forward pass only."""
    tokens = np.asarray(tokens)
    logits, _ = forward(net, _contexts(net, features, tokens))
    return _token_logprobs(logits, tokens).sum(axis=1)


def score(net: PolicyNet, features, tokens) -> Scored:
    """Teacher-forced log-probabilities and gradients of token sequences (B, T)."""
    tokens = np.asarray(tokens)
    logits, act_in = forward(net, _contexts(net, features, tokens))
    # d log softmax(z)[token] / dz = onehot(token) - softmax(z)
    g = np.eye(net.vocab_size)[tokens] - softmax(logits)
    grad_out = [g]
    for l in range(net.n_layers - 1, 0, -1):
        h = act_in[l][..., :-1]
        g = (g @ net.weights[l][:, :-1]) * (1.0 - h * h)
        grad_out.insert(0, g)
    return Scored(_token_logprobs(logits, tokens).sum(axis=1), act_in, grad_out)


def sample_and_score(net: PolicyNet, features, u) -> tuple[np.ndarray, Scored]:
    """Sample sequences (B, T) for prompt features (B, F) from uniforms ``u``
    (B, T), as ``sample`` does, and score them."""
    tokens = sample(net, features, u)
    return tokens, score(net, features, tokens)


def kl_from_reference(
    net: PolicyNet,
    ref: PolicyNet,
    prompts,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of KL(net || ref) averaged over prompts.

    Samples are allocated round-robin over prompts in sorted-id order, so the
    estimate does not depend on the order the prompts are passed in. Sample
    i uses row i of one ``rng.random((n_samples, T))`` draw.
    """
    if [w.shape for w in net.weights] != [w.shape for w in ref.weights]:
        raise ContractViolation("policies must share an architecture")
    ordered = sorted(prompts, key=lambda p: p.id)
    if not ordered:
        raise ContractViolation("need at least one prompt")
    features = np.stack([p.features for p in ordered])[np.arange(n_samples) % len(ordered)]
    u = rng.random((n_samples, seq_len_for(net, features)))
    tokens = sample(net, features, u)
    diffs = sequence_logprobs(net, features, tokens) - sequence_logprobs(ref, features, tokens)
    return math.fsum(diffs) / n_samples


def save_checkpoint(net: PolicyNet, path) -> None:
    """Text checkpoint with hex floats; round-trips bit-exactly."""
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}"]
    lines.append(f"vocab_size {net.vocab_size}")
    lines.append(f"context_dim {net.context_dim}")
    lines.append(f"layers {net.n_layers}")
    for i, w in enumerate(net.weights):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(v.hex() for v in row))
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
