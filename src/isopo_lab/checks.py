"""Self-check suites behind the ``gradcheck`` and ``oracle-check`` commands.

Each suite compares an implementation path against an independent reference
(central finite differences, fully materialized position and sequence
gradients, a dense flattened solve, or exact enumeration) and reports its
worst error. Every error-folding suite passes through ``verdict``, whose
``np.max`` fold makes a NaN anywhere fail. The CLI exits nonzero if any
suite fails.
"""

from __future__ import annotations

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


def fd_grad(objective, net: policy.PolicyNet) -> tuple[np.ndarray, ...]:
    """Central finite differences of a scalar objective over every weight."""
    grad = np.zeros(net.param_count)
    for i, orig in enumerate(net.params.tolist()):
        net.params[i] = orig + FD_STEP
        up = objective()
        net.params[i] = orig - FD_STEP
        down = objective()
        net.params[i] = orig
        grad[i] = (up - down) / (2.0 * FD_STEP)
    return net.split(grad)


def rel_errors(analytic, numeric) -> np.ndarray:
    """Every entry's |a - n| / max(|a|, |n|, FD_FLOOR) of two lists of arrays, as one array."""
    a = np.concatenate([np.ravel(x) for x in analytic])
    n = np.concatenate([np.ravel(x) for x in numeric])
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), FD_FLOOR)


def verdict(name: str, errors, bound: float, detail: str = "") -> SuiteResult:
    """Pass when the largest of ``errors`` is at most ``bound``; a NaN anywhere fails."""
    worst = float(np.max(errors))
    return SuiteResult(name, worst <= bound, worst, detail)


def _check_net(seed: int) -> tuple[policy.PolicyNet, tasks.SeqAdditionTask]:
    task = tasks.SeqAdditionTask(modulus=5, seq_len=2)
    net = policy.init_policy(
        task.vocab_size, task.seq_len, task.feature_dim, (6,), stream(seed, "check-init")
    )
    return net, task


def _check_microbatch(net, task, seed: int, n_groups: int = 2, group_size: int = 4):
    prompts = [
        task.train_prompts[(seed + 3 * gi) % len(task.train_prompts)] for gi in range(n_groups)
    ]
    labels = [f"check/{gi}/{k}" for gi in range(n_groups) for k in range(group_size)]
    microbatch = tasks.build_microbatch(net, task, prompts, uniforms(seed, labels, task.seq_len))
    for row in microbatch.advantages.reshape(n_groups, group_size):
        if not np.any(row):
            row += np.linspace(-0.5, 0.5, group_size)
            row -= row.mean()
    return microbatch


def run_gradcheck(seed: int = 0) -> list[SuiteResult]:
    """Finite-difference and estimator-equivalence suites on a fresh random net."""
    results = []
    net, task = _check_net(seed)

    # 1. manual backward vs central differences of one sequence's log-probability
    prompt = task.train_prompts[0]
    _, scored = policy.sample_and_score(
        net, prompt.features[None], uniforms(seed, ["gradcheck-seq"], task.seq_len)
    )
    analytic = [g[0] for g in scored.seq_grads]
    numeric = fd_grad(lambda: policy.rescore(net, scored).logprobs[0], net)
    results.append(verdict("policy-backward-fd", rel_errors(analytic, numeric), FD_RTOL))

    # 2. REINFORCE gradient vs differences of sum_o A_o log pi(o)
    microbatch = _check_microbatch(net, task, seed)
    analytic = baselines.reinforce_grad(microbatch)
    numeric = fd_grad(lambda: baselines.reinforce_surrogate(microbatch, net), net)
    results.append(verdict("reinforce-surrogate-fd", rel_errors(analytic, numeric), FD_RTOL))

    # 3. GRPO clipped-surrogate gradient, far enough from the sampling policy that
    # the clip binds for some sequences (the min takes the clipped term), or it fails
    shifted = net.copy()
    shifted.params += 0.2 * stream(seed, "gradcheck-drift").standard_normal(shifted.param_count)
    clip_eps = 0.2
    analytic = baselines.grpo_clipped_grad(microbatch, shifted, clip_eps)
    numeric = fd_grad(lambda: baselines.grpo_surrogate(microbatch, shifted, clip_eps), shifted)
    current = policy.rescore(shifted, microbatch.scored)
    rho, adv = np.exp(current.logprobs - microbatch.scored.logprobs), microbatch.advantages
    clipped = int(np.count_nonzero(np.clip(rho, 1 - clip_eps, 1 + clip_eps) * adv < rho * adv))
    detail = f"{clipped}/{len(rho)} sequences clipped"
    suite = verdict("grpo-surrogate-fd", rel_errors(analytic, numeric), FD_RTOL, detail)
    suite.passed &= clipped > 0
    results.append(suite)

    # 4. the training path's Fisher-norm estimate of every sequence gradient vs
    # fully materialized position gradients
    scored = microbatch.scored
    positions = isopo.overlap_positions(
        stream(seed, "gradcheck-overlap"), microbatch.tokens.size, 16
    )
    norms, _ = isopo.sequence_fisher_norms(scored, positions)
    errors = []
    for l, seq_grads in enumerate(scored.seq_grads):
        mats = oracle.materialize_position_grads(scored, l)
        sampled = [mats[i] for i in positions]
        for b, v in enumerate(seq_grads):
            slow = oracle.naive_fisher_norm(v, sampled)
            errors.append(abs(norms[b, l] - slow) / max(slow, 1e-12))
    results.append(verdict("rank-one-equivalence", errors, 1e-10))

    # 5. factor-form NTK-preconditioned update, every layer in training's one
    # stacked solve, vs flattened dense solves
    errors = []
    adv = microbatch.advantages
    jacs = [seq_grads.reshape(len(seq_grads), -1) for seq_grads in scored.seq_grads]
    cs = [0.1 * float(np.mean(np.sum(jac * jac, axis=1))) + 1e-6 for jac in jacs]
    factors = list(zip(scored.grad_out, scored.act_in))
    weights = isopo.ntk_weights([isopo.build_ntk(g, a)[0] for g, a in factors], adv, cs)
    for jac, (g, a), w, c in zip(jacs, factors, weights, cs):
        dense = jac.T @ np.linalg.solve(jac @ jac.T + c * np.eye(len(jac)), adv)
        scale = max(float(np.linalg.norm(dense)), 1e-12)
        errors.append(float(np.linalg.norm(policy.grad_sum(g, a, w).ravel() - dense)) / scale)
    results.append(verdict("ntk-dense-equivalence", errors, 1e-9))

    return results


def _tiny_oracle_policy(seed: int, seq_len: int = 2):
    """Enumerable policy: vocab 4, one hidden layer of width 4."""
    vocab = 4
    feat = stream(seed, "oracle-feat").uniform(-1.0, 1.0, size=2)
    prompt = tasks.Prompt(id=f"tiny{seed}", features=feat, target=(0,) * seq_len)
    net = policy.init_policy(vocab, seq_len, feat.size, (4,), stream(seed, "oracle-init"))
    return net, prompt


def rescaling_minimizer_gap(seed: int) -> float:
    """Worst margin by which a +-1% move off the optimal scalar fails to increase
    the exact-Fisher distance to the natural gradient (positive = strictly optimal)."""
    net, prompt = _tiny_oracle_policy(seed)
    fisher = oracle.exact_fisher(net, [prompt])
    u = uniforms(seed, ["oracle-sample"], len(prompt.target))
    _, scored = policy.sample_and_score(net, prompt.features[None], u)
    v = net.flatten(scored.seq_grads)[0]
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
    equal, so the advantage vector vanishes). The Tikhonov constant is the
    rule training uses, c = ``isopo.mean_ntk_eigenvalue`` (floored at 1e-12):
    far smaller c amplifies Monte Carlo noise in near-null NTK directions and
    washes out the directional comparison.
    """
    net, prompt = _tiny_oracle_policy(seed)
    target_rng = stream(seed, "npg-target")
    target = tuple(int(t) for t in target_rng.integers(0, net.vocab_size, size=2))
    tokens, scored = policy.sample_and_score(
        net,
        prompt.features[None],
        uniforms(seed, [f"npg-sample/{k}" for k in range(16)], len(prompt.target)),
    )
    rewards = np.mean(tokens == np.array(target), axis=1)
    if np.ptp(rewards) == 0:
        return None
    advantages = tasks.group_advantages(rewards)

    vanilla = advantages @ net.flatten(scored.seq_grads)
    fisher = oracle.exact_fisher(net, [prompt])
    damping = 1e-6 * np.trace(fisher) / len(fisher)
    npg = oracle.exact_npg(fisher, vanilla, damping)

    factors = list(zip(scored.grad_out, scored.act_in))
    grams, sq_norms = zip(*[isopo.build_ntk(g, a) for g, a in factors])
    cs = [max(isopo.mean_ntk_eigenvalue(sq), 1e-12) for sq in sq_norms]
    weights = isopo.ntk_weights(grams, advantages, cs)
    preconditioned = net.flatten([policy.grad_sum(g, a, w) for (g, a), w in zip(factors, weights)])

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
    errors = []
    for _ in range(5):
        v = probe.standard_normal(len(fisher))
        quad_matrix = float(v @ fisher @ v)
        quad_enum = oracle.fisher_quadratic(net, [prompt], v)
        errors.append(abs(quad_matrix - quad_enum) / max(quad_enum, 1e-300))
    results.append(verdict("fisher-quadratic-enumeration", errors, 1e-12))

    g = probe.standard_normal(len(fisher))
    damping = 1e-6 * np.trace(fisher) / len(fisher)
    v = oracle.exact_npg(fisher, g, damping)
    system = fisher + damping * np.eye(len(fisher))
    residual = float(np.linalg.norm(system @ v - g) / np.linalg.norm(g))
    results.append(verdict("npg-residual", [residual], 1e-9))

    # a NaN gap makes the smallest NaN, which fails
    gap = float(np.min([rescaling_minimizer_gap(seed + 100 + k) for k in range(5)]))
    results.append(
        SuiteResult("rescaling-minimizer", gap > 0.0, -gap, "positive margin required")
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
