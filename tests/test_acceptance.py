"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

1. gradient exactness against central differences, every layer
2. the factor-form Fisher-norm estimator equals the oracle on materialized matrices
3. the layer-NTK update equals a flattened dense solve
4. p = -1 rescaled gradients have unit Fisher-norm estimate, measured by the oracle
5. A|v|^2/|v|_F^2 strictly minimizes the exact-Fisher objective
6. definitional degeneracies: identity rescaling and rho = 1 GRPO equal
   REINFORCE, and a huge Tikhonov c turns the NTK update into the vanilla one
7. the layer-NTK update is closer to the exact natural gradient than the
   vanilla gradient
8. desk-scale 5-seed comparison: ISOPO validation >= REINFORCE, and p = -1
   moves less KL than q = -1
9. identical config and seed give byte-identical CSVs

``test_nan_fails_the_criterion`` is their negative control: NaN injected into
the quantity criteria 1, 3, 5 and 6 compare must make each print FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 8 trains 15 small runs and dominates the suite's runtime
(about 7 s on one CPU core).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from isopo_lab import baselines, checks, harness, isopo, oracle, policy, tasks
from isopo_lab.config import RunConfig
from isopo_lab.rng import stream, uniforms

from conftest import overlap, sampled_mats


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}{'  ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def default_setup(seed=0):
    task = tasks.SeqAdditionTask(modulus=16, seq_len=3)
    net = harness.build_policy(task, seed)
    return task, net


def default_microbatch(task, net, seed=0, n_groups=2, group_size=4):
    prompts = [
        task.train_prompts[(7 * gi + seed) % len(task.train_prompts)] for gi in range(n_groups)
    ]
    labels = [f"acc/{gi}/{k}" for gi in range(n_groups) for k in range(group_size)]
    mb = tasks.build_microbatch(net, task, prompts, uniforms(seed, labels, task.seq_len))
    for group in mb.groups:
        if not np.any(group.advantages):
            group.advantages = np.linspace(-1.0, 1.0, group_size)
            group.advantages -= group.advantages.mean()
    return mb


def test_criterion_01_gradient_exactness():
    start = time.time()
    task, net = default_setup()
    prompt = task.train_prompts[0]
    features = prompt.features[None]
    tokens, scored = policy.sample_and_score(net, features, uniforms(0, ["c1"], task.seq_len))
    numeric = checks.fd_grad(lambda: policy.score(net, features, tokens).logprobs[0], net)
    worst = float(np.max(checks.rel_errors([g[0] for g in scored.seq_grads], numeric)))
    elapsed = time.time() - start
    report(
        1,
        "gradient exactness (central differences, every layer)",
        worst <= 1e-5 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_rank_one_estimator_equivalence():
    start = time.time()
    task, net = default_setup(1)
    mb = default_microbatch(task, net, seed=1, n_groups=4, group_size=8)
    scored = mb.scored
    n_seq = len(scored.logprobs)
    mats = [oracle.materialize_position_grads(scored, l) for l in range(net.n_layers)]
    seq_grads = scored.seq_grads
    errors = []
    # each draw checks one sequence in every layer; the 100 draws cover all 32
    for pair in range(100):
        positions = overlap(mb, 64, stream(pair, "c2-ov"))
        norms, _ = isopo.sequence_fisher_norms(scored, positions)
        b = pair % n_seq
        for l in range(net.n_layers):
            slow = oracle.naive_fisher_norm(seq_grads[l][b], [mats[l][i] for i in positions])
            errors.append(abs(norms[b, l] - slow) / max(slow, 1e-12))
    worst = float(np.max(errors))  # a NaN estimate fails
    elapsed = time.time() - start
    report(
        2,
        "factor-form estimator equals materialized matrices (100 draws, every layer)",
        n_seq == 32 and worst <= 1e-10 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_interacting_update_equivalence():
    start = time.time()
    task, net = default_setup(2)
    mb = default_microbatch(task, net, seed=2, n_groups=4, group_size=8)
    adv_all = mb.advantages
    rng = stream(2, "c3")
    errors = []

    def check(l, rows, advantages, c):
        seq_grads = mb.scored.seq_grads[l][rows]
        jac = np.stack([g.ravel() for g in seq_grads])
        dense = jac.T @ np.linalg.solve(
            jac @ jac.T + c * np.eye(len(seq_grads)), advantages
        )
        update = isopo.interacting_update(
            mb.scored.grad_out[l][rows], mb.scored.act_in[l][rows], advantages, c
        )
        errors.append(
            float(np.linalg.norm(update.ravel() - dense))
            / max(float(np.linalg.norm(dense)), 1e-12)
        )

    for l, grads_l in enumerate(mb.scored.seq_grads):
        mean_sq = float(np.mean([np.sum(g * g) for g in grads_l]))
        for m in (1, 2, 8, 32):
            check(l, slice(m), adv_all[:m] + 0.1, 0.5 * mean_sq + 1e-6)
        # duplicated gradients: K is rank deficient, c > 0 keeps it solvable
        check(l, [0, 0], np.array([1.0, -0.5]), 0.3 * mean_sq + 1e-6)
        check(l, slice(8), rng.standard_normal(8), 1e-3 * mean_sq + 1e-9)
    worst = float(np.max(errors))
    elapsed = time.time() - start
    report(
        3,
        "NTK update equals flattened dense solve (m in {1,2,8,32} + duplicates)",
        worst <= 1e-9 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_self_normalization():
    task, net = default_setup(3)
    prompt = task.train_prompts[5]
    # scale the backpropagated factors so every estimate keeps F^2 well above the
    # 1e-8 floor of reg2, where p = -1 divides by F exactly
    u = uniforms(3, [f"c4/{k}" for k in range(8)], task.seq_len)
    tokens, scored = policy.sample_and_score(net, prompt.features[None], u)
    features = np.repeat(prompt.features[None], 8, axis=0)
    scaled = policy.Scored(scored.logprobs, scored.act_in, [g * 12.0 for g in scored.grad_out])
    group = tasks.Group(prompt, np.zeros(8), np.linspace(-1, 1, 8))
    mb = tasks.Microbatch([group], features, tokens, scaled)
    positions = overlap(mb, 64, stream(3, "c4-ov"))
    norms, degenerate = isopo.sequence_fisher_norms(scaled, positions)
    params = isopo.RescalingParams(p=-1.0, q=0.0, r=0.0, reg_strength=0.0)
    errors = []
    for l, jac in enumerate(scaled.seq_grads):
        sampled = sampled_mats(scaled, l, positions)
        for i in range(len(jac)):
            w = isopo.rescaling(jac[i], norms[i, l], params, l)
            errors.append(abs(oracle.naive_fisher_norm(w, sampled) - 1.0))
    worst = float(np.max(errors))
    min_f = float(np.nanmin(norms))
    report(
        4,
        "p=-1 rescaled gradients have unit Fisher-norm estimate",
        (not degenerate.any()) and min_f**2 >= isopo.RESCALE_FLOOR and worst <= 1e-9,
        f"max |F(w)-1| = {worst:.2e}, min F = {min_f:.3f}",
    )


def test_criterion_05_scalar_minimizer():
    worst = float(np.min([checks.rescaling_minimizer_gap(900 + k) for k in range(20)]))
    report(
        5,
        "A|v|^2/|v|_F^2 strictly minimizes the exact-Fisher objective (20 nets)",
        worst > 0.0,
        f"smallest +-1% margin {worst:.2e}",
    )


def test_criterion_06_definitional_degeneracies():
    task, net = default_setup(4)
    mb = default_microbatch(task, net, seed=4, n_groups=4, group_size=8)
    norms, _ = isopo.sequence_fisher_norms(mb.scored, overlap(mb, 64, stream(4, "c6")))
    upd = isopo.noninteracting_update(
        mb, norms, isopo.RescalingParams(p=0.0, q=0.0, r=0.0)
    )
    ref = baselines.reinforce_grad(mb)
    grpo = baselines.grpo_clipped_grad(mb, mb.scored.logprobs, net, clip_eps=0.2)

    def max_rel_diff(got):
        return float(
            np.max([np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1.0) for a, b in zip(got, ref)])
        )

    err_a, err_b = max_rel_diff(upd), max_rel_diff(grpo)
    angles = []
    scored = mb.scored
    for seq_grads, gout, act in zip(scored.seq_grads, scored.grad_out, scored.act_in):
        vanilla = sum(a * g for a, g in zip(mb.advantages, seq_grads)).ravel()
        k_norm = float(np.linalg.norm(isopo.build_ntk(gout, act)))
        update = isopo.interacting_update(gout, act, mb.advantages, 1e6 * k_norm).ravel()
        cos = float(
            update @ vanilla / (np.linalg.norm(update) * np.linalg.norm(vanilla))
        )
        angles.append(float(np.arccos(min(cos, 1.0))))
    worst_angle = float(np.max(angles))

    ok = err_a <= 1e-12 and err_b <= 1e-10 and worst_angle < 1e-3
    report(
        6,
        "identity rescaling == REINFORCE; rho=1 GRPO == REINFORCE; huge-c NTK ~ vanilla",
        ok,
        f"errs {err_a:.1e} / {err_b:.1e}, angle {worst_angle:.2e} rad",
    )


def test_criterion_07_npg_directional_improvement():
    wins = trials = 0
    for k in range(50):
        pair = checks.npg_directional_trial(700 + k)
        if pair is None:
            continue
        trials += 1
        wins += pair[0] > pair[1]
    rate = wins / trials if trials else 0.0
    report(
        7,
        "layer-NTK update closer to exact NPG than vanilla gradient",
        trials >= 40 and rate >= 0.8,
        f"{wins}/{trials} seeded trials ({rate:.0%})",
    )


def test_criterion_08_desk_scale_comparison(tmp_path):
    start = time.time()
    settings = {
        "reinforce": dict(algo="reinforce"),
        "isopo_p": dict(algo="isopo-ni", p=-1.0, q=0.0, r=0.0),
        "isopo_q": dict(algo="isopo-ni", p=0.0, q=-1.0, r=0.0),
    }
    finals: dict[str, tuple[list[float], list[float]]] = {}
    for label, kw in settings.items():
        vals, kls = [], []
        for seed in range(5):
            cfg = RunConfig(
                task="seqtask",
                steps=200,
                eval_every=5,
                seed=seed,
                optimizer="adamw",
                lr=3e-4,
                **kw,
            )
            res = harness.train(cfg, tmp_path / f"{label}-{seed}")
            assert not res.aborted
            last = res.rows[-1]
            assert last["step"] == 200
            vals.append(last["validation"])
            kls.append(last["kl_from_init"])
        finals[label] = (vals, kls)
    med_val = {k: float(np.median(v[0])) for k, v in finals.items()}
    med_kl = {k: float(np.median(v[1])) for k, v in finals.items()}
    elapsed = time.time() - start
    ok_val = (
        med_val["isopo_p"] >= med_val["reinforce"]
        and med_val["isopo_q"] >= med_val["reinforce"]
    )
    ok_kl = med_kl["isopo_p"] < med_kl["isopo_q"]
    report(
        8,
        "5-seed comparison: ISOPO validation >= REINFORCE, p=-1 KL < q=-1 KL",
        ok_val and ok_kl and elapsed < 15 * 60 * 15,
        f"median val {med_val}, median kl { {k: round(v, 4) for k, v in med_kl.items()} }, "
        f"{elapsed:.0f}s for 15 runs",
    )


def test_criterion_09_determinism(tmp_path):
    cfg = RunConfig(
        algo="isopo-ni", p=-1.0, steps=10, eval_every=5, seed=12, out_dir="unused"
    )
    a = harness.train(cfg, tmp_path / "a")
    b = harness.train(cfg, tmp_path / "b")
    identical = a.csv_path.read_bytes() == b.csv_path.read_bytes()
    report(9, "identical config+seed give byte-identical CSVs", identical)


@pytest.mark.parametrize("criterion", [1, 3, 5, 6])
def test_nan_fails_the_criterion(monkeypatch, capsys, criterion):
    if criterion == 1:  # NaN in the last layer of every analytic gradient
        sample_and_score = policy.sample_and_score

        def nan_last_layer(*args):
            tokens, s = sample_and_score(*args)
            grad_out = [*s.grad_out[:-1], s.grad_out[-1] * np.nan]
            return tokens, policy.Scored(s.logprobs, s.act_in, grad_out)

        monkeypatch.setattr(policy, "sample_and_score", nan_last_layer)
    elif criterion == 5:
        monkeypatch.setattr(checks, "rescaling_minimizer_gap", lambda seed: np.nan)
    else:
        interacting_update = isopo.interacting_update
        monkeypatch.setattr(
            isopo, "interacting_update", lambda *args: interacting_update(*args) * np.nan
        )
    run = {
        1: test_criterion_01_gradient_exactness,
        3: test_criterion_03_interacting_update_equivalence,
        5: test_criterion_05_scalar_minimizer,
        6: test_criterion_06_definitional_degeneracies,
    }[criterion]
    with pytest.raises(AssertionError, match=f"criterion {criterion} "):
        run()
    line = capsys.readouterr().out
    assert line.startswith(f"[criterion {criterion:02d}] ") and ": FAIL" in line
