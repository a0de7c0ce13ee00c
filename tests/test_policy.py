from __future__ import annotations

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isopo_lab import baselines, checks, harness, metrics, policy, tasks
from isopo_lab.config import RunConfig
from isopo_lab.errors import ContractViolation
from isopo_lab.rng import stream, uniforms

from conftest import features_of, teacher_forced_score, two_pass_softmax


def bias_only_net(bias):
    """Single-step policy whose logits equal a fixed vector regardless of context."""
    bias = np.asarray(bias, dtype=float)
    context_dim = bias.size + 1  # prev-token one-hot + one position slot, no features
    w = np.zeros((bias.size, context_dim + 1))
    w[:, -1] = bias
    return policy.PolicyNet([w], vocab_size=bias.size, context_dim=context_dim)


def single_step_prompt(net):
    # context = vocab one-hot + 1 position slot + 0 features
    feat = np.zeros(net.context_dim - net.vocab_size - 1)
    return tasks.Prompt(id="p", features=feat, target=(0,))


def sample_one(net, prompt, seed, label):
    """Tokens (1, T) and scores of one sequence sampled for ``prompt`` from (seed, label)."""
    u = uniforms(seed, [label], policy.seq_len_for(net, prompt.features))
    return policy.sample_and_score(net, prompt.features[None], u)


def augmented(x):
    """Layer-0 inputs: contexts (..., context_dim) with the trailing constant 1."""
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def test_forward_zero_weights_zero_logits(small_net):
    logits, _ = policy.forward(
        policy.PolicyNet(
            [np.zeros_like(w) for w in small_net.weights],
            small_net.vocab_size,
            small_net.context_dim,
        ),
        np.ones(small_net.context_dim + 1),
    )
    assert np.all(logits == 0.0)


def test_forward_single_layer_basis_vector():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 6))
    net = policy.PolicyNet([w.copy()], vocab_size=4, context_dim=5)
    context = np.zeros(6)
    context[[0, -1]] = 1.0
    logits, _ = policy.forward(net, context)
    assert np.allclose(logits, w[:, 0] + w[:, -1])


def test_forward_matches_direct_reimplementation(small_net):
    rng = np.random.default_rng(1)
    context = rng.standard_normal(small_net.context_dim)
    logits, _ = policy.forward(small_net, augmented(context))
    # straightforward duplicate of the forward map
    x = context
    for i, w in enumerate(small_net.weights):
        z = w[:, :-1] @ x + w[:, -1]
        x = np.tanh(z) if i < len(small_net.weights) - 1 else z
    assert np.allclose(logits, x, atol=1e-12)


def test_forward_any_leading_shape(small_net):
    rng = np.random.default_rng(2)
    x = augmented(rng.standard_normal((2, 3, small_net.context_dim)))
    logits, act_in = policy.forward(small_net, x)
    assert logits.shape == (2, 3, small_net.vocab_size)
    for b in range(2):
        for t in range(3):
            row_logits, row_act = policy.forward(small_net, x[b, t])
            assert np.allclose(logits[b, t], row_logits, rtol=1e-14, atol=1e-15)
            for a, ra in zip(act_in, row_act):
                assert np.allclose(a[b, t], ra, rtol=1e-14, atol=1e-15)


def test_forward_dimension_mismatch(small_net):
    for extra in (0, 2):  # contexts without their constant column, or too wide
        with pytest.raises(ContractViolation):
            policy.forward(small_net, np.zeros(small_net.context_dim + extra))


def test_sampling_uniform_under_zero_weights():
    net = bias_only_net(np.zeros(4))
    prompt = single_step_prompt(net)
    n = 10_000
    u = stream(0, "uniform-check").random((n, 1))
    tokens, _ = policy.sample_and_score(net, prompt.features[None], u)
    counts = np.bincount(tokens[:, 0], minlength=4)
    p = 0.25
    sigma = math.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < 3 * sigma)


def test_sampling_saturated_logits():
    logits = np.zeros(5)
    logits[2] = 20.0
    net = bias_only_net(logits)
    prompt = single_step_prompt(net)
    assert two_pass_softmax(logits)[2] >= 0.999
    u = stream(1, "saturated").random((2000, 1))
    draws, _ = policy.sample_and_score(net, prompt.features[None], u)
    assert np.mean(draws == 2) >= 0.999


def test_sample_rows_are_independent_of_the_batch(small_net, small_task):
    # each row depends only on its own prompt and uniforms: sampling the rows
    # one at a time draws the same tokens as sampling them as one batch
    prompts = small_task.train_prompts[:6]
    features = np.stack([p.features for p in prompts])
    u = stream(4, "rows").random((6, small_task.seq_len))
    batch, _ = policy.sample_and_score(small_net, features, u)
    for b in range(6):
        alone, _ = policy.sample_and_score(small_net, features[b : b + 1], u[b : b + 1])
        assert np.array_equal(batch[b], alone[0])
    assert np.array_equal(
        policy.greedy(small_net, features),
        np.concatenate([policy.greedy(small_net, features[b : b + 1]) for b in range(6)]),
    )


def test_sample_sequence_deterministic_for_fixed_seed(small_net, small_task):
    prompt = small_task.train_prompts[3]
    t1, s1 = sample_one(small_net, prompt, 7, "s")
    t2, s2 = sample_one(small_net, prompt, 7, "s")
    assert np.array_equal(t1, t2)
    assert np.array_equal(s1.logprobs, s2.logprobs)
    for a, b in zip(s1.seq_grads, s2.seq_grads):
        assert np.array_equal(a, b)


def test_score_rows_match_scoring_each_alone(small_net, small_task):
    prompts = small_task.train_prompts[:5]
    features = np.stack([p.features for p in prompts])
    tokens, _ = policy.sample_and_score(small_net, features, stream(5, "alone").random((5, 2)))
    batch = teacher_forced_score(small_net, features, tokens)
    for b in range(5):
        alone = teacher_forced_score(small_net, features[b : b + 1], tokens[b : b + 1])
        assert alone.logprobs[0] == pytest.approx(batch.logprobs[b], rel=1e-14)
        for g, ga in zip(batch.seq_grads, alone.seq_grads):
            assert np.allclose(g[b], ga[0], rtol=1e-13, atol=1e-15)


def assert_scored_equal(got, expected, rel):
    pairs = [(got.logprobs, expected.logprobs)]
    pairs += list(zip(got.act_in, expected.act_in)) + list(zip(got.grad_out, expected.grad_out))
    for a, b in pairs:
        assert a.shape == b.shape
        if rel == 0:
            assert np.array_equal(a, b)
        else:
            assert np.allclose(a, b, rtol=rel, atol=0)


def test_table_scores_like_teacher_forcing():
    # every gemm of a default seqtask microbatch has 64 rows or more (132 in the
    # table, 96 teacher-forced), which OpenBLAS rounds row by row alike
    cfg = RunConfig(seed=0)
    task = harness.make_task(cfg)
    net = harness.build_policy(task, cfg.seed)
    for step in (0, 1):
        mb = harness.sample_microbatch(net, task, cfg, step)
        expected = teacher_forced_score(net, features_of(mb), mb.tokens)
        assert_scored_equal(mb.scored, expected, rel=0)


def test_table_scores_like_teacher_forcing_small_net(small_net, microbatch):
    expected = teacher_forced_score(small_net, features_of(microbatch), microbatch.tokens)
    assert_scored_equal(microbatch.scored, expected, rel=1e-12)


def two_pass_log_softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def two_pass_backward(net, logits, act_in, tokens):
    """``score``'s backward with two normalizations of the logits: the one-hot
    rows of an identity minus the softmax, and the token log-probabilities
    read off the whole log softmax."""
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    g = np.eye(net.vocab_size)[tokens] - e / np.sum(e, axis=-1, keepdims=True)
    logprobs = np.take_along_axis(two_pass_log_softmax(logits), tokens[..., None], axis=-1)
    grad_out = [g]
    for l in range(net.n_layers - 1, 0, -1):
        h = act_in[l][..., :-1]
        g = (g @ net.weights[l][:, :-1]) * (1.0 - h * h)
        grad_out.insert(0, g)
    return policy.Scored(logprobs[..., 0].sum(axis=1), act_in, grad_out)


def concatenate_forward(net, x):
    """``forward`` with each layer input built by ``concatenate`` from the last
    layer's output and a column of ones; layer 0's from ``x`` without its own."""
    lead = x.shape[:-1]
    x = x[..., :-1].reshape(-1, net.context_dim)
    act_in = []
    for l, w in enumerate(net.weights):
        a = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        act_in.append(a.reshape(lead + a.shape[1:]))
        x = a @ w.T
        if l < net.n_layers - 1:
            x = np.tanh(x)
    return x.reshape(lead + x.shape[1:]), act_in


def context_rows(which, tokens, n_contexts, vocab):
    """The flat table row of each (b, t): prompt which[b]'s context row 0 at
    position 0, and 1 + (t - 1) V + tokens[b, t - 1] after it."""
    rows = np.zeros(tokens.shape, dtype=np.int64)
    for b, t in np.ndindex(tokens.shape):
        row = 0 if t == 0 else 1 + (t - 1) * vocab + tokens[b, t - 1]
        rows[b, t] = which[b] * n_contexts + row
    return rows


@pytest.mark.parametrize("task_name", ["seqtask", "bandit"])
def test_forward_and_backward_equal_the_two_pass_formulas(task_name):
    # bit for bit, on a default microbatch, teacher-forced and off its table
    cfg = RunConfig(task=task_name, seed=0)
    task = harness.make_task(cfg)
    net = harness.build_policy(task, cfg.seed)
    mb = harness.sample_microbatch(net, task, cfg, 1)
    x = policy.teacher_forced_inputs(net, features_of(mb), mb.tokens)
    logits, act_in = policy.forward(net, x)
    expected_logits, expected_act_in = concatenate_forward(net, x)
    assert np.array_equal(logits, expected_logits)
    for a, b in zip(act_in, expected_act_in):
        assert np.array_equal(a, b)
    expected = two_pass_backward(net, logits, act_in, mb.tokens)
    assert_scored_equal(policy.score(net, x, mb.tokens), expected, rel=0)
    table = policy.context_table(net, np.stack([p.features for p in mb.prompts]))
    which = np.repeat(np.arange(len(mb.prompts)), cfg.group_size)
    rows = context_rows(which, mb.tokens, table.logits.shape[1], net.vocab_size)

    def gathered(a):
        return a.reshape(-1, a.shape[-1])[rows]

    expected = two_pass_backward(
        net, gathered(table.logits), [gathered(a) for a in table.act_in], mb.tokens
    )
    assert_scored_equal(mb.scored, expected, rel=0)
    read = gathered(two_pass_log_softmax(table.logits))[
        np.arange(len(rows))[:, None], np.arange(rows.shape[1]), mb.tokens
    ].sum(axis=1)
    assert np.array_equal(table.logprobs(rows, mb.tokens), read)


def written_out_input(net, features, position, prev):
    """[onehot(prev) | onehot(position) | features | 1], one block at a time;
    position 0 has no previous token."""
    prev_block = np.zeros(net.vocab_size)
    if position > 0:
        prev_block[prev] = 1.0
    position_block = np.zeros(net.context_dim - net.vocab_size - len(features))
    position_block[position] = 1.0
    return np.concatenate([prev_block, position_block, features, [1.0]])


def written_out_contexts(net, features):
    """``written_out_input`` (P, R, context_dim + 1) of prompts (P, F) in each
    table row's context: position 0, then (t, prev) for t >= 1, prev < V."""
    v = net.vocab_size
    seq_len = net.context_dim - v - features.shape[1]
    contexts = [(0, 0)] + [(t, p) for t in range(1, seq_len) for p in range(v)]
    return np.array([[written_out_input(net, f, t, p) for t, p in contexts] for f in features])


@pytest.mark.parametrize("task_name", ["seqtask", "bandit"])
def test_every_input_has_the_one_layout(monkeypatch, task_name):
    cfg = RunConfig(task=task_name, seed=0)
    task = harness.make_task(cfg)
    net = harness.build_policy(task, cfg.seed)
    mb = harness.sample_microbatch(net, task, cfg, 1)
    features = features_of(mb)
    x = policy.teacher_forced_inputs(net, features, mb.tokens)
    for b, t in np.ndindex(mb.tokens.shape):
        expected = written_out_input(net, features[b], t, mb.tokens[b, t - 1])
        assert np.array_equal(x[b, t], expected)
    assert np.array_equal(mb.scored.act_in[0], x)  # the inputs GRPO re-scores under
    # table row r holds context r
    features = np.stack([p.features for p in mb.prompts])
    layer_in = policy.context_table(net, features).act_in[0]
    assert np.array_equal(layer_in, written_out_contexts(net, features))
    # greedy's input at position t reads the token it decoded at t - 1
    seen, forward = [], policy.forward
    monkeypatch.setattr(policy, "forward", lambda net, x: seen.append(x) or forward(net, x))
    features = np.stack([p.features for p in task.heldout_prompts])
    tokens = policy.greedy(net, features)
    assert len(seen) == task.seq_len
    for b, t in np.ndindex(tokens.shape):
        expected = written_out_input(net, features[b], t, tokens[b, t - 1])
        assert np.array_equal(seen[t][b], expected)


def reference_sample(table, which, u):
    """``ContextTable.sample``'s rule, one (b, t) at a time: the count of the
    entries of the context's CDF, from ``_normalize`` of that one row, at or
    below u, capped at V - 1."""
    vocab = table.logits.shape[-1]
    tokens = np.zeros(u.shape, dtype=np.int64)
    for b, t in np.ndindex(u.shape):
        row = 0 if t == 0 else 1 + (t - 1) * vocab + tokens[b, t - 1]
        _, e, total = policy._normalize(table.logits[which[b], row])
        cdf = np.cumsum(e / total)
        tokens[b, t] = min(np.count_nonzero(cdf <= u[b, t]), vocab - 1)
    return tokens


def cdf_end(logits):
    _, e, total = policy._normalize(logits)
    return np.cumsum(e / total, axis=-1)[..., -1]


@pytest.mark.parametrize(
    "n_prompts, seq_len, vocab, group_size",
    [(4, 3, 16, 8), (4, 1, 8, 8), (3, 2, 5, 2)],
    ids=["seqtask", "bandit", "small"],
)
def test_sample_follows_the_cdf_rule(n_prompts, seq_len, vocab, group_size):
    gen = stream(0, f"cdf-rule/{seq_len}/{vocab}")
    n_contexts = 1 + (seq_len - 1) * vocab
    logits = gen.normal(0.0, 3.0, size=(n_prompts, n_contexts, vocab))
    logits[::2, :, 0] = -1000.0  # an entry of probability 0: a CDF that starts at 0
    short = gen.normal(0.0, 3.0, size=vocab)
    while not cdf_end(short) < 1.0:
        short = gen.normal(0.0, 3.0, size=vocab)
    logits[1] = short  # every CDF of prompt 1 ends below 1
    table = policy.ContextTable(np.zeros((n_prompts, 1)), logits, [])
    which = np.repeat(np.arange(n_prompts), group_size)
    u = gen.random((len(which), seq_len))
    u[::3] = 0.0
    u[1::3] = u[which == 1] = 1.0 - 2.0**-53  # the largest uniform below 1
    tokens, rows = table.sample(which, u)
    assert np.array_equal(tokens, reference_sample(table, which, u))
    assert np.array_equal(rows, context_rows(which, tokens, n_contexts, vocab))
    assert np.all(tokens[which == 1] == vocab - 1)  # the count is V, capped
    at_zero = (which % 2 == 0)[:, None] & (u == 0.0)
    assert np.any(at_zero) and np.all(tokens[at_zero] == 1)  # entry 0 has probability 0


def test_context_table_rows(small_net, small_task):
    # entry [p, r] is the forward of prompt p's context r: position 0, or
    # position t after token prev at r = 1 + (t - 1) V + prev
    prompts = small_task.train_prompts[:3]
    features = np.stack([p.features for p in prompts])
    table = policy.context_table(small_net, features)
    v, seq_len = small_net.vocab_size, small_task.seq_len
    assert table.logits.shape == (3, 1 + (seq_len - 1) * v, v)
    assert table.seq_len == seq_len
    for prev in range(v):
        tokens = np.array([[prev, 0]] * 3)
        logits, act_in = policy.forward(
            small_net, policy.teacher_forced_inputs(small_net, features, tokens)
        )
        assert np.allclose(table.logits[:, 0], logits[:, 0], rtol=1e-14, atol=1e-15)
        assert np.allclose(table.logits[:, 1 + prev], logits[:, 1], rtol=1e-14, atol=1e-15)
        assert np.array_equal(table.act_in[0][:, 1 + prev], act_in[0][:, 1])
        for a, b in zip(table.act_in, act_in):
            assert np.allclose(a[:, 1 + prev], b[:, 1], rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize(
    "task_fields",
    [
        dict(task="seqtask"),
        dict(task="seqtask", seq_modulus=5),
        dict(task="seqtask", seq_len=1),
        dict(task="bandit"),
    ],
)
def test_context_inputs_fill_a_read_only_template(task_fields):
    # a table's inputs are its architecture's template with the prompts'
    # features filled in, and equal the input layout's, bit for bit
    task = harness.make_task(RunConfig(**task_fields))
    net = harness.build_policy(task, 0)
    features = np.stack([p.features for p in task.train_prompts[:5]])
    seq_len = task.seq_len
    expected = written_out_contexts(net, features)
    got = policy._context_inputs(net, features)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    template = policy._context_template(net, seq_len)
    assert not template.flags.writeable
    assert policy._context_template(net.copy(), seq_len) is template
    with pytest.raises(ValueError):
        template[0, 0] = 1.0


def test_each_architecture_has_its_own_template():
    # the same vocabulary and context dim with another T is another
    # architecture: 4 + 2 + 3 and 4 + 3 + 2 inputs, 5 and 9 contexts
    short = policy.init_policy(4, 2, 3, (5,), stream(0, "arch-a"))
    long = policy.init_policy(4, 3, 2, (5,), stream(0, "arch-b"))
    assert short.context_dim == long.context_dim
    for net, n_features, n_contexts in [(short, 3, 5), (long, 2, 9), (short, 3, 5)]:
        features = stream(1, f"arch/{n_features}").uniform(-1.0, 1.0, size=(2, n_features))
        seq_len = net.context_dim - net.vocab_size - n_features
        expected = written_out_contexts(net, features)
        assert policy._context_inputs(net, features).tobytes() == expected.tobytes()
        assert policy._context_template(net, seq_len).shape == (n_contexts, net.context_dim + 1)
    assert policy._context_template(short, 2) is not policy._context_template(long, 3)


def test_reference_table_must_match_the_prompts(small_net, small_task):
    prompts = small_task.heldout_prompts[:4]
    ref = policy.kl_reference(small_net, prompts)
    table = policy.kl_reference(small_net, prompts[::-1])
    u = stream(0, "kl-table").random((40, small_task.seq_len))
    assert policy.kl_from_reference(table, ref, u) == 0.0
    other = policy.kl_reference(small_net, prompts[:3])
    with pytest.raises(ContractViolation):
        policy.kl_from_reference(other, ref, u)
    with pytest.raises(ContractViolation):  # kept for the KL, it cannot score
        rows = tokens = np.zeros((1, 2), dtype=np.int64)
        ref.score(small_net, rows, tokens)


@pytest.mark.parametrize(
    "task_fields, n_blocks",
    [(dict(task="seqtask"), 4), (dict(task="seqtask", seq_modulus=5), 1), (dict(task="bandit"), 1)],
)
def test_kl_reference_blocks_equal_one_forward(monkeypatch, task_fields, n_blocks):
    # the eval table is built in blocks of whole prompts of at least 64 rows
    # each, or as one block, and equals the table of one forward bit for bit:
    # the default seqtask's 528 rows in 4 blocks, seq_modulus = 5's 176 and
    # bandit's 16 in one
    task = harness.make_task(RunConfig(**task_fields))
    net = harness.build_policy(task, 0)
    drift = stream(2, "kl-blocks-perturb")
    for w in net.weights:
        w += 0.3 * drift.standard_normal(w.shape)
    prompts = task.heldout_prompts[: metrics.KL_PROMPTS]
    rows, forward = [], policy.forward

    def counted(net, x):
        rows.append(int(np.prod(np.shape(x)[:-1])))
        return forward(net, x)

    monkeypatch.setattr(policy, "forward", counted)
    table = policy.kl_reference(net, prompts[::-1])
    monkeypatch.undo()
    ordered = sorted(prompts, key=lambda p: p.id)
    whole = policy.context_table(net, np.stack([p.features for p in ordered]))
    assert np.array_equal(table.features, whole.features)
    assert np.array_equal(table.logits, whole.logits)
    assert table.act_in == []
    assert len(rows) == n_blocks and sum(rows) == whole.logits.shape[0] * whole.logits.shape[1]
    assert n_blocks == 1 or min(rows) >= 64


def test_backward_matches_finite_differences(small_net, small_task):
    prompt = small_task.train_prompts[0]
    tokens, scored = sample_one(small_net, prompt, 0, "fd")
    numeric = checks.fd_grad(
        lambda: policy.score(small_net, scored.act_in[0], tokens).logprobs[0], small_net
    )
    analytic = [g[0] for g in scored.seq_grads]
    assert np.max(checks.rel_errors(analytic, numeric)) < 1e-5


def test_softmax_gradient_at_uniform_logits():
    vocab = 6
    net = bias_only_net(np.zeros(vocab))
    prompt = single_step_prompt(net)
    scored = teacher_forced_score(net, prompt.features[None], [[4]])
    g = scored.grad_out[0][0, 0]
    expected = -np.full(vocab, 1.0 / vocab)
    expected[4] += 1.0
    assert np.allclose(g, expected, atol=1e-12)


def test_rank_one_sum_equals_reduced_grad(small_net, small_task):
    prompt = small_task.train_prompts[1]
    _, scored = sample_one(small_net, prompt, 2, "rank1")
    for l in range(small_net.n_layers):
        act, gout = scored.act_in[l][0], scored.grad_out[l][0]
        total = sum(np.outer(gout[t], act[t]) for t in range(len(act)))
        assert np.linalg.norm(total - scored.seq_grads[l][0]) <= 1e-10 * max(
            np.linalg.norm(total), 1e-12
        )
        assert np.all(act[:, -1] == 1.0)


def test_score_rejects_bad_tokens(small_net, small_task):
    # tokens that are not (B, T) of the inputs or fall outside the vocabulary
    # (a token V would read the next position's logits) are refused, under a
    # scored batch's inputs as under teacher-forced ones
    features = small_task.train_prompts[0].features[None]
    tokens, scored = policy.sample_and_score(small_net, features, np.full((1, 2), 0.5))
    v = small_net.vocab_size
    for bad in ([[0]], [0, 1], [[0, 1, 2]], np.zeros((2, 2), int), [[0, v]], [[-1, 0]]):
        with pytest.raises(ContractViolation):
            policy.score(small_net, scored.act_in[0], bad)
        with pytest.raises(ContractViolation):
            policy.teacher_forced_inputs(small_net, features, bad)
    rescored = policy.score(small_net, scored.act_in[0], tokens)
    assert np.allclose(rescored.logprobs, scored.logprobs, rtol=1e-12, atol=0)
    with pytest.raises(ContractViolation):
        policy.sample_and_score(small_net, features, np.zeros((1, 3)))
    with pytest.raises(ContractViolation):  # 3 sequences do not split over 2 prompts
        policy.sample_and_score(small_net, np.repeat(features, 2, axis=0), np.zeros((3, 2)))


def test_rescore_reads_the_batch_entries(small_net, microbatch):
    # rescore scores a scored batch at other weights from its layer-0 inputs
    # and checked token entries, which it shares, with the bits of ``score``
    net = small_net.copy()
    net.params += 0.2 * stream(11, "drift").standard_normal(net.param_count)
    scored = microbatch.scored
    vocab = small_net.vocab_size
    assert np.array_equal(scored.entries, policy._token_entries(microbatch.tokens, vocab))
    rescored = policy.rescore(net, scored)
    assert rescored.act_in[0] is scored.act_in[0] and rescored.entries is scored.entries
    assert_scored_equal(rescored, policy.score(net, scored.act_in[0], microbatch.tokens), rel=0)
    with pytest.raises(ContractViolation, match="no token entries"):
        policy.rescore(net, replace(scored, entries=None))


def kl(net, ref, prompts, n_samples, rng):
    """The MC KL of ``net`` from ``ref`` over ``prompts``, from their two tables
    and ``n_samples`` rows of ``rng``'s uniforms."""
    table = policy.kl_reference(net, prompts)
    u = rng.random((n_samples, table.seq_len))
    return policy.kl_from_reference(table, policy.kl_reference(ref, prompts), u)


def test_kl_identical_nets_is_exactly_zero(small_net, small_task):
    prompts = small_task.heldout_prompts[:3]
    assert kl(small_net, small_net.copy(), prompts, 32, stream(0, "kl")) == 0.0
    # default seqtask policy: both policies are read off 528-row tables built
    # by the same forward, so equal weights cancel on any BLAS
    task = tasks.SeqAdditionTask(modulus=16, seq_len=3)
    net = harness.build_policy(task, 0)
    prompts = task.heldout_prompts[:16]
    assert kl(net, net.copy(), prompts, 24, stream(0, "kl/0")) == 0.0


@pytest.mark.parametrize("shape", [(0, 2), (4, 3), (4,)], ids=["no-rows", "wide-rows", "flat"])
def test_kl_needs_a_row_of_uniforms_per_sample(small_net, small_task, shape):
    # seq_len is 2: the KL samples at least one sequence, each from a row of 2
    table = policy.kl_reference(small_net, small_task.heldout_prompts[:3])
    with pytest.raises(ContractViolation):
        policy.kl_from_reference(table, table, np.zeros(shape))


def test_kl_matches_closed_form_categorical():
    logits_p = np.array([0.3, -0.2, 0.9])
    logits_q = np.array([-0.5, 0.4, 0.1])
    net = bias_only_net(logits_p)
    ref = bias_only_net(logits_q)
    prompt = single_step_prompt(net)
    p = two_pass_softmax(logits_p)
    q = two_pass_softmax(logits_q)
    exact = float(np.sum(p * (np.log(p) - np.log(q))))
    n = 100_000
    estimate = kl(net, ref, [prompt], n, stream(3, "kl-mc"))
    # 3 sigma of the Monte Carlo mean, sigma estimated from the exact distribution
    ratios = np.log(p) - np.log(q)
    sigma = math.sqrt(float(np.sum(p * (ratios - exact) ** 2)) / n)
    assert abs(estimate - exact) < 3 * sigma


def test_kl_invariant_to_prompt_ordering(small_net, small_task):
    ref = small_net.copy()
    for w in ref.weights:
        w += 0.01
    prompts = small_task.heldout_prompts[:4]
    a = kl(small_net, ref, prompts, 40, stream(0, "kl-ord"))
    b = kl(small_net, ref, prompts[::-1], 40, stream(0, "kl-ord"))
    assert a == b


def two_pass_kl(net, ref, prompts, n_samples, rng):
    """The MC KL as two teacher-forced passes over the samples, one per policy."""
    ordered = np.stack([p.features for p in sorted(prompts, key=lambda p: p.id)])
    which = np.arange(n_samples) % len(ordered)
    features = ordered[which]
    u = rng.random((n_samples, policy.seq_len_for(net, features)))
    tokens, _ = policy.context_table(net, ordered).sample(which, u)
    x = policy.teacher_forced_inputs(net, features, tokens)
    diffs = policy.score(net, x, tokens).logprobs - policy.score(ref, x, tokens).logprobs
    return math.fsum(diffs) / n_samples


@pytest.mark.parametrize("n_samples", [16, 40, metrics.KL_SAMPLES])
def test_kl_reads_the_sampling_logits_like_a_second_pass(n_samples):
    task = harness.make_task(RunConfig(task="seqtask"))
    ref = harness.build_policy(task, 0)
    net = ref.copy()
    drift = stream(1, "kl-two-pass-perturb")
    for w in net.weights:
        w += 0.3 * drift.standard_normal(w.shape)
    prompts = task.heldout_prompts[: metrics.KL_PROMPTS]
    estimate = kl(net, ref, prompts, n_samples, stream(0, "kl-two-pass"))
    expected = two_pass_kl(net, ref, prompts, n_samples, stream(0, "kl-two-pass"))
    if n_samples >= 64:
        assert estimate == expected
    else:
        # the second pass's gemm has 3 n rows; below 64 OpenBLAS takes a
        # small-matrix path that may round the last bits differently from the
        # table's 528-row gemm
        assert estimate == pytest.approx(expected, rel=1e-12, abs=0)


def test_kl_architecture_mismatch(small_net, small_task):
    task = small_task
    other = policy.init_policy(
        task.vocab_size + 1, task.seq_len, task.feature_dim, (6,), stream(0, "other")
    )
    with pytest.raises(ContractViolation):
        kl(small_net, other, task.heldout_prompts[:1], 4, stream(0, "x"))


def bit_pattern_checkpoint(net) -> bytes:
    """The checkpoint ``save_checkpoint`` must write, each weight formatted by ``struct``."""
    lines = [f"{policy.CHECKPOINT_MAGIC} {policy.CHECKPOINT_VERSION}", f"layers {net.n_layers}"]
    for i, w in enumerate(net.weights):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(struct.pack(">d", x).hex() for x in row) for row in w.tolist())
    return ("\n".join(lines) + "\n").encode("utf-8")


def assert_checkpoint_holds_bits(net, path):
    """``save_checkpoint`` writes each weight's bit pattern; a finite net loads
    back with the same bits and saves to the same bytes."""
    policy.save_checkpoint(net, path)
    assert path.read_bytes() == bit_pattern_checkpoint(net)
    if np.isfinite(net.params).all():
        loaded = policy.load_checkpoint(path)
        assert np.array_equal(loaded.params.view(np.uint64), net.params.view(np.uint64))
        assert (loaded.vocab_size, loaded.context_dim) == (net.vocab_size, net.context_dim)
        resaved = path.with_name(path.name + ".again")
        policy.save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()


def test_checkpoint_round_trip_bit_exact(tmp_path, small_net):
    assert_checkpoint_holds_bits(small_net, tmp_path / "ckpt.txt")


def net_of_bits(bits, hidden: int, vocab: int) -> policy.PolicyNet:
    """A two-layer net, (hidden, k) then (vocab, hidden + 1), holding the
    float64s with bit patterns ``bits`` in order."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    split = len(values) - vocab * (hidden + 1)
    first = values[:split].reshape(hidden, -1)
    last = values[split:].reshape(vocab, hidden + 1)
    return policy.PolicyNet([first, last], vocab, first.shape[1] - 1)


EDGE_BITS = [
    0x0000000000000000,  # +0
    0x8000000000000000,  # -0
    0x0000000000000001,  # smallest subnormal
    0x000FFFFFFFFFFFFF,  # largest subnormal
    0x8000000000000001,
    0x0010000000000000,  # smallest normal
    0x7FEFFFFFFFFFFFFF,  # largest normal
    0xFFEFFFFFFFFFFFFF,
    0x3FF0000000000000,  # 1.0
    0xBFF0000000000000,  # -1.0
    0x3FB999999999999A,  # 0.1
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # quiet NaN
    0xFFF8000000000000,  # negative NaN
    0x7FF0000000000001,  # signalling NaN, smallest payload
    0xFFFFFFFFFFFFFFFF,  # largest payload
] + [
    int(np.array(2.0**e).view(np.uint64))
    for e in (-1000, -999, -100, -99, -10, -9, 9, 10, 99, 100, 999, 1000)
]


def test_checkpoint_words_are_bit_patterns_on_edge_values(tmp_path):
    bits = EDGE_BITS + EDGE_BITS[::-1] + EDGE_BITS[:3]  # 61 values: (6, 9) then (1, 7)
    assert_checkpoint_holds_bits(net_of_bits(bits, hidden=6, vocab=1), tmp_path / "ckpt.txt")
    finite = [b for b in EDGE_BITS if np.isfinite(np.array(b, np.uint64).view(np.float64))]
    bits = finite + finite[::-1]  # 46 values: (5, 8) then (1, 6)
    assert_checkpoint_holds_bits(net_of_bits(bits, hidden=5, vocab=1), tmp_path / "finite.txt")


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3)),
    data=st.data(),
)
def test_checkpoint_words_are_bit_patterns_on_any_bits(tmp_path_factory, shape, data):
    hidden, inputs, vocab = shape
    n = hidden * inputs + vocab * (hidden + 1)
    bits = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.txt"
    assert_checkpoint_holds_bits(net_of_bits(bits, hidden, vocab), path)


# what the version-1 writer, which wrote each weight in float.hex form, gave
# for PolicyNet([[[1.0, -0.5, 0.0]]], vocab_size=1, context_dim=2)
VERSION_1_CHECKPOINT = [
    "isopo-lab-checkpoint 1",
    "vocab_size 1",
    "context_dim 2",
    "layers 1",
    "layer 0 1 3",
    "0x1.0000000000000p+0 -0x1.0000000000000p-1 0x0.0p+0",
]


def unchained(lines):
    """Layer 1's header claims one more input than layer 0 has outputs."""
    at = next(k for k, text in enumerate(lines) if text.startswith("layer 1 "))
    rows, cols = map(int, lines[at].split()[2:])
    return lines[:at] + [f"layer 1 {rows} {cols + 1}"] + lines[at + 1 :], at + 1


CHECKPOINT_CORRUPTIONS = {
    # name: lines of a good checkpoint -> (corrupted lines, line the error names);
    # line 3 is layer 0's header and line 4 its first weight row
    "empty": lambda lines: ([], 1),
    "version-1": lambda lines: (VERSION_1_CHECKPOINT, 1),
    "truncated": lambda lines: (lines[:-1], len(lines)),
    "short-row": lambda lines: (lines[:3] + [lines[3].rsplit(" ", 1)[0]] + lines[4:], 4),
    "non-integer": lambda lines: ([lines[0], "layers two"] + lines[2:], 2),
    "no-layers": lambda lines: ([lines[0], "layers 0"], 2),
    "non-hex": lambda lines: (lines[:3] + ["zz" + lines[3][2:]] + lines[4:], 4),
    "15-digit-word": lambda lines: (lines[:3] + [lines[3][1:]] + lines[4:], 4),
    "17-digit-word": lambda lines: (lines[:3] + ["0" + lines[3]] + lines[4:], 4),
    "18-digit-word": lambda lines: (lines[:3] + ["00" + lines[3]] + lines[4:], 4),
    "unchained-layer": unchained,
    "trailing": lambda lines: (lines + ["extra"], len(lines) + 1),
    "non-finite": lambda lines: (
        lines[:4] + ["7ff8000000000000 " + lines[4].split(" ", 1)[1]] + lines[5:],
        5,
    ),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
def test_malformed_checkpoint_names_the_line(tmp_path, small_net, case):
    path = tmp_path / "ckpt.txt"
    policy.save_checkpoint(small_net, path)
    lines, bad_line = CHECKPOINT_CORRUPTIONS[case](path.read_text().splitlines())
    path.write_text("".join(f"{text}\n" for text in lines))
    with pytest.raises(ContractViolation, match=f": line {bad_line}: "):
        policy.load_checkpoint(path)


def test_init_policy_shapes_and_bias():
    # context 7 + 2 + 3 = 12 inputs
    net = policy.init_policy(7, 2, 3, (5, 4), stream(0, "init-shapes"))
    assert [w.shape for w in net.weights] == [(5, 13), (4, 6), (7, 5)]
    for w in net.weights:
        assert np.all(w[:, -1] == 0.0)
    assert net.param_count == 5 * 13 + 4 * 6 + 7 * 5


def assert_weights_view_params(net):
    """Every ``weights[l]`` is a view of layer l's slice of ``params``, in
    layer order and C order."""
    assert isinstance(net.weights, tuple) and net.params.dtype == np.float64
    values = net.params.copy()
    net.params[...] = np.arange(net.param_count)
    start = 0
    for w in net.weights:
        assert w.base is net.params
        assert np.array_equal(w.ravel(), np.arange(start, start + w.size))
        start += w.size
    assert start == net.param_count
    net.params[...] = values


def test_weights_stay_views_of_params(tmp_path, small_net):
    assert_weights_view_params(small_net)
    policy.save_checkpoint(small_net, tmp_path / "ckpt.txt")
    assert_weights_view_params(policy.load_checkpoint(tmp_path / "ckpt.txt"))
    net = small_net.copy()
    assert_weights_view_params(net)
    assert not np.shares_memory(net.params, small_net.params)
    params = net.params
    for kind in ("sgd", "adamw"):
        cfg = RunConfig(optimizer=kind, lr=0.1)
        state = baselines.OptimizerState()
        ones = net.flatten([np.ones_like(w) for w in net.weights])
        baselines.optimizer_step(cfg, state, net, ones)
        assert net.params is params
        assert_weights_view_params(net)
    assert np.allclose(net.params, small_net.params - 0.2, rtol=0.0, atol=1e-8)


def test_policy_does_not_alias_the_arrays_it_is_built_from():
    weights = [np.zeros((4, 4)), np.zeros((2, 5), dtype=int)]
    net = policy.PolicyNet(weights, vocab_size=2, context_dim=3)
    weights[0][...] = 1.0
    net.weights[1][...] = 2.0
    assert not np.any(net.weights[0]) and not np.any(weights[1])
    assert not any(np.shares_memory(w, net.params) for w in weights)
    assert_weights_view_params(net)


def test_a_layer_cannot_be_rebound(small_net):
    with pytest.raises(TypeError):
        small_net.weights[0] = np.zeros_like(small_net.weights[0])


def test_split_inverts_flatten(small_net, microbatch):
    seq_grads = microbatch.scored.seq_grads  # per layer (B, out, in + 1)
    n_seqs = len(microbatch.tokens)
    for per_layer, lead in [
        (small_net.weights, ()),
        (seq_grads, (n_seqs,)),
        ([g.reshape(2, -1, *g.shape[1:]) for g in seq_grads], (2, n_seqs // 2)),
    ]:
        flat = small_net.flatten(per_layer)
        assert flat.shape == lead + (small_net.param_count,)
        back = small_net.split(flat)
        assert len(back) == small_net.n_layers
        for got, want in zip(back, per_layer):
            assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(small_net.flatten(small_net.weights), small_net.params)
    flat = small_net.flatten(seq_grads)
    assert np.array_equal(flat[1], small_net.flatten([g[1] for g in seq_grads]))
    row = flat[1].copy()
    assert all(view.base is row for view in small_net.split(row))


def test_greedy_sequence_deterministic(small_net, small_task):
    features = np.stack([p.features for p in small_task.heldout_prompts])
    assert np.array_equal(policy.greedy(small_net, features), policy.greedy(small_net, features))
