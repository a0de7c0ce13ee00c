"""Self-check suites behind the ``gradcheck`` and ``oracle-check`` commands.

Each suite compares an implementation path against an independent reference
(central finite differences, fully materialized position and sequence
gradients, a dense flattened solve, or exact enumeration) and reports its
worst error. The CLI exits nonzero if any suite fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baselines, isopo, oracle, policy, tasks
from .rng import stream, uniforms

FD_STEP = 1e-5
FD_RTOL = 1e-5
FD_FLOOR = 1e-3  # denominator floor so near-zero entries compare absolutely


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_error: float
    detail: str = ""


def fd_grad(objective, net: policy.PolicyNet) -> list[np.ndarray]:
    """Central finite differences of a scalar objective over every weight."""
    grads = []
    for w in net.weights:
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + FD_STEP
                up = objective()
                w[i, j] = orig - FD_STEP
                down = objective()
                w[i, j] = orig
                g[i, j] = (up - down) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def max_rel_error(analytic: list[np.ndarray], numeric: list[np.ndarray]) -> float:
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), FD_FLOOR)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def _check_net(seed: int) -> tuple[policy.PolicyNet, tasks.SeqAdditionTask]:
    task = tasks.SeqAdditionTask(modulus=5, seq_len=2)
    context_dim = task.vocab_size + task.seq_len + task.feature_dim
    net = policy.init_policy(task.vocab_size, context_dim, (6,), stream(seed, "check-init"))
    return net, task


def _check_microbatch(net, task, seed: int, n_groups: int = 2, group_size: int = 4):
    prompts = [
        task.train_prompts[(seed + 3 * gi) % len(task.train_prompts)] for gi in range(n_groups)
    ]
    labels = [f"check/{gi}/{k}" for gi in range(n_groups) for k in range(group_size)]
    microbatch = tasks.build_microbatch(net, task, prompts, uniforms(seed, labels, task.seq_len))
    for group in microbatch.groups:
        if not np.any(group.advantages):
            group.advantages = group.advantages + np.linspace(-0.5, 0.5, group_size)
            group.advantages -= group.advantages.mean()
    return microbatch


def run_gradcheck(seed: int = 0, grad_tamper=None) -> list[SuiteResult]:
    """Finite-difference and estimator-equivalence suites on a fresh random net.

    ``grad_tamper`` optionally corrupts computed gradients before comparison;
    it exists as a negative control so tests can verify the checks can fail.
    """
    results = []
    net, task = _check_net(seed)

    def tamper(grads):
        return grad_tamper(grads) if grad_tamper is not None else grads

    # 1. manual backward vs central differences of one sequence's log-probability
    prompt = task.train_prompts[0]
    tokens, scored = policy.sample_and_score(
        net, prompt.features[None], uniforms(seed, ["gradcheck-seq"], task.seq_len)
    )
    analytic = tamper([g[0] for g in scored.seq_grads])
    numeric = fd_grad(
        lambda: policy.sequence_logprobs(net, prompt.features[None], tokens)[0], net
    )
    err = max_rel_error(analytic, numeric)
    results.append(SuiteResult("policy-backward-fd", err <= FD_RTOL, err))

    # 2. REINFORCE gradient vs differences of sum_o A_o log pi(o)
    microbatch = _check_microbatch(net, task, seed)
    analytic = tamper(baselines.reinforce_grad(microbatch))
    numeric = fd_grad(lambda: baselines.reinforce_surrogate(microbatch, net), net)
    err = max_rel_error(analytic, numeric)
    results.append(SuiteResult("reinforce-surrogate-fd", err <= FD_RTOL, err))

    # 3. GRPO clipped-surrogate gradient, away from the sampling policy (rho != 1)
    snapshot = microbatch.scored.logprobs
    shifted = net.copy()
    drift = stream(seed, "gradcheck-drift")
    for w in shifted.weights:
        w += 0.01 * drift.standard_normal(w.shape)
    clip_eps = 0.2
    analytic = tamper(baselines.grpo_clipped_grad(microbatch, snapshot, shifted, clip_eps))
    numeric = fd_grad(
        lambda: baselines.grpo_surrogate(microbatch, snapshot, shifted, clip_eps), shifted
    )
    err = max_rel_error(analytic, numeric)
    results.append(SuiteResult("grpo-surrogate-fd", err <= FD_RTOL, err))

    # 4. factor-form Fisher-norm estimates vs fully materialized position
    # gradients: the training path's estimate of every sequence gradient, and
    # the matrix-form estimator on random probes (a NaN estimate fails)
    scored = microbatch.scored
    overlap = isopo.draw_overlap_samples(microbatch, 16, stream(seed, "gradcheck-overlap"))
    norms, _ = isopo.sequence_fisher_norms(microbatch, overlap)
    errors = []
    probe_rng = stream(seed, "gradcheck-probe")
    for l, seq_grads in enumerate(scored.seq_grads):
        mats = oracle.materialize_position_grads(scored, l)
        sampled = [mats[i] for i in overlap.indices]
        for b, v in enumerate(seq_grads):
            slow = oracle.naive_fisher_norm(v, sampled)
            errors.append(abs(norms[b, l] - slow) / max(slow, 1e-12))
        for _ in range(5):
            v = probe_rng.standard_normal(net.weights[l].shape)
            fast = isopo.fisher_norm_estimate(
                v, overlap.act_in[l], overlap.grad_out[l], overlap.denominators[l]
            )
            slow = oracle.naive_fisher_norm(v, sampled)
            errors.append(abs(fast - slow) / max(slow, 1e-12))
    worst = float(np.max(errors))
    results.append(SuiteResult("rank-one-equivalence", worst <= 1e-10, worst))

    # 5. factor-form NTK-preconditioned update vs flattened dense solve
    worst = 0.0
    adv = microbatch.advantages
    for l, seq_grads in enumerate(scored.seq_grads):
        jac = seq_grads.reshape(len(seq_grads), -1)
        c = 0.1 * float(np.mean(np.sum(jac * jac, axis=1))) + 1e-6
        update = isopo.interacting_update(scored.grad_out[l], scored.act_in[l], adv, c)
        dense = jac.T @ np.linalg.solve(jac @ jac.T + c * np.eye(len(seq_grads)), adv)
        scale = max(float(np.linalg.norm(dense)), 1e-12)
        worst = max(worst, float(np.linalg.norm(update.ravel() - dense)) / scale)
    results.append(SuiteResult("ntk-dense-equivalence", worst <= 1e-9, worst))

    return results


def _tiny_oracle_policy(seed: int, seq_len: int = 2):
    """Enumerable policy: vocab 4, one hidden layer of width 4."""
    vocab = 4
    feat = stream(seed, "oracle-feat").uniform(-1.0, 1.0, size=2)
    prompt = tasks.Prompt(id=f"tiny{seed}", features=feat, target=(0,) * seq_len)
    context_dim = vocab + seq_len + feat.size
    net = policy.init_policy(vocab, context_dim, (4,), stream(seed, "oracle-init"))
    return net, prompt


def rescaling_minimizer_gap(seed: int) -> float:
    """Worst margin by which a +-1% move off the optimal scalar fails to increase
    the exact-Fisher distance to the natural gradient (positive = strictly optimal)."""
    net, prompt = _tiny_oracle_policy(seed)
    fisher = oracle.exact_fisher(net, [prompt])
    u = uniforms(seed, ["oracle-sample"], len(prompt.target))
    _, scored = policy.sample_and_score(net, prompt.features[None], u)
    v = oracle.flatten_layer_mats([g[0] for g in scored.seq_grads])
    adv_rng = stream(seed, "oracle-adv")
    advantage = float(adv_rng.uniform(0.2, 1.0) * (1 if adv_rng.random() < 0.5 else -1))
    g = advantage * v
    target, *_ = np.linalg.lstsq(fisher, g, rcond=1e-12)
    v_f_sq = float(v @ fisher @ v)
    lam_star = advantage * float(v @ v) / v_f_sq

    def objective(lam: float) -> float:
        d = lam * v - target
        return float(d @ fisher @ d)

    base = objective(lam_star)
    delta = 0.01 * abs(lam_star)
    return min(objective(lam_star + delta) - base, objective(lam_star - delta) - base)


def npg_directional_trial(seed: int):
    """One comparison of layer-NTK-preconditioned vs vanilla direction over 16 samples.

    Returns (cosine of preconditioned update to exact NPG, cosine of vanilla
    gradient to exact NPG), or None when the trial is degenerate (all rewards
    equal, so the advantage vector vanishes). The Tikhonov constant follows
    the interacting variant's default policy, c = mean NTK eigenvalue: far
    smaller c amplifies Monte Carlo noise in near-null NTK directions and
    washes out the directional comparison.
    """
    net, prompt = _tiny_oracle_policy(seed)
    m = 16
    target_rng = stream(seed, "npg-target")
    target = tuple(int(t) for t in target_rng.integers(0, net.vocab_size, size=2))
    tokens, scored = policy.sample_and_score(
        net,
        np.repeat(prompt.features[None], m, axis=0),
        uniforms(seed, [f"npg-sample/{k}" for k in range(m)], len(prompt.target)),
    )
    rewards = np.mean(tokens == np.array(target), axis=1)
    if np.ptp(rewards) == 0:
        return None
    advantages = tasks.group_advantages(rewards)

    vanilla = advantages @ np.concatenate([g.reshape(m, -1) for g in scored.seq_grads], axis=1)
    fisher = oracle.exact_fisher(net, [prompt])
    damping = 1e-6 * np.trace(fisher) / len(fisher)
    npg = oracle.exact_npg(fisher, vanilla, damping)

    pieces = []
    for g, a in zip(scored.grad_out, scored.act_in):
        c = max(float(np.trace(isopo.build_ntk(g, a))) / m, 1e-12)
        pieces.append(isopo.interacting_update(g, a, advantages, c).ravel())
    preconditioned = np.concatenate(pieces)

    def cosine(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    if not np.linalg.norm(vanilla) or not np.linalg.norm(preconditioned):
        return None
    return cosine(preconditioned, npg), cosine(vanilla, npg)


def run_oracle_check(seed: int = 0) -> list[SuiteResult]:
    """Exact-enumeration suites on the tiny oracle policy."""
    results = []
    net, prompt = _tiny_oracle_policy(seed)
    fisher = oracle.exact_fisher(net, [prompt])

    asym = float(np.linalg.norm(fisher - fisher.T))
    min_eig = float(np.linalg.eigvalsh(fisher).min())
    floor = -1e-12 * max(1.0, float(np.linalg.norm(fisher)))
    results.append(
        SuiteResult("fisher-psd", asym == 0.0 and min_eig >= floor, max(asym, -min_eig))
    )

    probe = stream(seed, "oracle-probe")
    worst = 0.0
    for _ in range(5):
        v = probe.standard_normal(len(fisher))
        quad_matrix = float(v @ fisher @ v)
        quad_enum = oracle.fisher_quadratic(net, [prompt], v)
        worst = max(worst, abs(quad_matrix - quad_enum) / max(quad_enum, 1e-300))
    results.append(SuiteResult("fisher-quadratic-enumeration", worst <= 1e-12, worst))

    g = probe.standard_normal(len(fisher))
    damping = 1e-6 * np.trace(fisher) / len(fisher)
    v = oracle.exact_npg(fisher, g, damping)
    system = fisher + damping * np.eye(len(fisher))
    residual = float(np.linalg.norm(system @ v - g) / np.linalg.norm(g))
    results.append(SuiteResult("npg-residual", residual <= 1e-9, residual))

    worst_gap = math.inf
    for k in range(5):
        worst_gap = min(worst_gap, rescaling_minimizer_gap(seed + 100 + k))
    results.append(
        SuiteResult("rescaling-minimizer", worst_gap > 0.0, -worst_gap,
                    "positive margin required")
    )

    wins = 0
    trials = 0
    for k in range(20):
        pair = npg_directional_trial(seed + 200 + k)
        if pair is None:
            continue
        trials += 1
        wins += pair[0] > pair[1]
    rate = wins / trials if trials else 0.0
    results.append(
        SuiteResult("npg-directional", rate >= 0.8, 1.0 - rate, f"{wins}/{trials} trials")
    )
    return results
