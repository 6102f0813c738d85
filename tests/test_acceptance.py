"""Acceptance gate: one check per release criterion, one verdict line each.

Each test prints "ACCEPTANCE <n> <name>: PASS" (or FAIL) and then asserts,
so the verdict survives in captured output either way.  Runtime caps are
part of the criteria and are enforced, not just observed.
"""
import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import (
    DenseGradients,
    dense_positive_statistics,
    kernel_rbf,
    labelled_mixture_corpus,
    mixture_corpus,
    one_call_clip,
    step_config,
    ZeroNoise,
)
from dpmix import rbm
from dpmix.accountant import (
    PrivacyConfig,
    alpha_subsampled_gaussian,
    epsilon_schedule,
)
from dpmix.cli import main
from dpmix.data import write_records
from dpmix.dpnorm import dp_norm
from dpmix.dpsgd import dp_sgd_step
from dpmix.evaluation import (
    clustering_accuracy,
    evaluate_workload,
    generate_workload,
)
from dpmix.kmeans import assign_to_centers, dp_kernel_kmeans
from dpmix.mixture import TrainConfig, generate, train
from dpmix.rff import embed, feature_map_from_seed, sample_feature_map
from dpmix.streams import child_seed


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_quadrature_matches_closed_form_at_full_sampling():
    start = time.perf_counter()
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0, 4.0):
        for lam in range(1, 17):
            want = lam * (lam + 1) / (2 * sigma**2)
            got = alpha_subsampled_gaussian(lam, sigma, 1.0)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    _verdict(1, "closed-form anchor", worst <= 1e-3 and elapsed < 5.0)


def test_criterion_02_reference_epsilon_band(capsys):
    start = time.perf_counter()
    rc = main([
        "accountant", "--q", "0.0017", "--sigma-c", "4.0", "--sigma-k", "40.0",
        "--sigma-g", "1.0", "--t-kmeans", "20", "--epochs", "20",
        "--delta", "1e-5",
    ])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    last = out.strip().splitlines()[-1].split(",")
    eps = float(last[2])
    ok = rc == 0 and int(last[0]) == 20 and 1.49 <= eps <= 1.99 and elapsed < 60.0
    _verdict(2, "reference budget", ok)


def test_criterion_03_epsilon_monotonicity_lattice():
    epochs_grid = (5, 10, 20)
    q_grid = (0.001, 0.0017, 0.003)
    sigma_g_grid = (1.0, 2.0, 4.0)
    eps = {}
    for q in q_grid:
        for sg in sigma_g_grid:
            cfg = PrivacyConfig(
                sigma_c=4.0, sigma_k=40.0, sigma_g=sg, q=q,
                t_kmeans=20, t_sgd=0, delta=1e-5,
            )
            for row in epsilon_schedule(cfg, epochs_grid):
                eps[(row.epoch, q, sg)] = row.epsilon

    violations = 0
    for q in q_grid:
        for sg in sigma_g_grid:
            vals = [eps[(e, q, sg)] for e in epochs_grid]
            violations += sum(a > b for a, b in zip(vals, vals[1:]))
    for e in epochs_grid:
        for sg in sigma_g_grid:
            vals = [eps[(e, q, sg)] for q in q_grid]
            violations += sum(a > b for a, b in zip(vals, vals[1:]))
    for e in epochs_grid:
        for q in q_grid:
            vals = [eps[(e, q, sg)] for sg in sigma_g_grid]
            violations += sum(a < b for a, b in zip(vals, vals[1:]))
    _verdict(3, "epsilon monotonicity", violations == 0)


def test_criterion_04_embedding_norm_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    records = rng.integers(0, 2, size=(20, 30)).astype(float)
    ok = True
    for gamma in (0.1, 1.0, 10.0):
        for d in (50, 200):
            norms = np.empty((1000, 20))
            for t in range(1000):
                fmap = sample_feature_map(m=30, d=d, gamma=gamma, rng=rng)
                norms[t] = np.linalg.norm(embed(fmap, records), axis=1)
            ok = ok and bool(np.all(norms.mean(axis=0) <= 1.01))
    elapsed = time.perf_counter() - start
    _verdict(4, "embedding norm bound", ok and elapsed < 30.0)


def test_criterion_05_trigonometric_moments():
    rng = np.random.default_rng(1234)
    n = 10**6
    ok = True
    for sigma in (0.5, 1.0, 2.0):
        x = rng.normal(0.0, sigma, size=n)
        pairs = [
            (np.cos(x), math.exp(-(sigma**2) / 2)),
            (np.sin(x), 0.0),
            (np.cos(x) ** 2, (1 + math.exp(-2 * sigma**2)) / 2),
            (np.sin(x) ** 2, (1 - math.exp(-2 * sigma**2)) / 2),
        ]
        for sample, target in pairs:
            se = sample.std() / math.sqrt(n)
            ok = ok and abs(sample.mean() - target) <= 3 * se
    _verdict(5, "frequency moments", ok)


def test_criterion_06_kernel_error_shrinks_with_width():
    rng = np.random.default_rng(2718)
    gamma = 0.1
    xs = rng.integers(0, 2, size=(100, 30)).astype(float)
    ys = rng.integers(0, 2, size=(100, 30)).astype(float)
    truth = np.array([kernel_rbf(x, y, gamma) for x, y in zip(xs, ys)])
    errors = []
    for d in (128, 512, 2048):
        fmap = sample_feature_map(m=30, d=d, gamma=gamma, rng=rng)
        approx = np.sum(embed(fmap, xs) * embed(fmap, ys), axis=1)
        errors.append(float(np.mean(np.abs(approx - truth))))
    ok = errors[0] > errors[1] > errors[2] and errors[2] < 0.05
    _verdict(6, "kernel approximation", ok)


def test_criterion_07_noise_free_degeneracies():
    # (a) zero-noise clustering equals exact Lloyd on two planted blobs
    data = mixture_corpus(400, 12, 2, np.random.default_rng(99))
    fmap = feature_map_from_seed(m=12, d=32, gamma=0.3, seed=6)
    clipped = one_call_clip(embed(fmap, data.records))
    init = np.vstack([clipped[0], clipped[1]])
    result = dp_kernel_kmeans(
        data, fmap, k=2, iterations=8, sigma_k=1.0,
        rng=ZeroNoise(np.random.default_rng(0)), init=init, init_rng=np.random.default_rng(1),
    )
    centers = init.copy()
    for _ in range(8):
        ref_assign = assign_to_centers(clipped, centers)
        for i in range(2):
            members = clipped[ref_assign == i]
            if len(members):
                centers[i] = members.mean(axis=0)
    ref_assign = assign_to_centers(clipped, centers)
    ok_a = bool(np.array_equal(result.assignments, ref_assign))

    # (b) zero-noise step equals plain gradient descent on a quadratic
    n, p = 20, 4
    targets = np.random.default_rng(5).normal(0, 0.004, size=(n, p))
    cfg = step_config(sigma_c=1.0, sigma_g=1.0, batch_size=n, eta=0.25)
    theta = np.full(p, 0.01)
    ok_b = True
    for _ in range(4):
        new_theta, _ = dp_sgd_step(
            theta, DenseGradients(theta[None, :] - targets), cfg,
            noise_rng=ZeroNoise(np.random.default_rng(0)),
        )
        want = theta - 0.25 * (theta - targets.mean(axis=0))
        ok_b = ok_b and bool(np.max(np.abs(new_theta - want)) <= 1e-12)
        theta = new_theta

    # (c) zero-noise threshold selection returns the true modal edge
    rng = np.random.default_rng(42)
    edges = np.linspace(0.0, 10.0, 101)
    ok_c = True
    for _ in range(50):
        vecs = rng.uniform(0, 9.5, size=(int(rng.integers(1, 60)), 4))
        norms = np.linalg.norm(vecs, axis=1)
        got = dp_norm(norms, 1.0, c_max=10.0, bins=100, rng=ZeroNoise(rng))
        idx = np.searchsorted(edges, norms, side="left")
        idx[norms == 0.0] = 1
        idx = idx[idx <= 100]
        counts = np.bincount(idx, minlength=101)
        ok_c = ok_c and got == pytest.approx(edges[np.argmax(counts[1:]) + 1])
    _verdict(7, "noise-free degeneracies", ok_a and ok_b and ok_c)


def _enumerated_log_z(model):
    vs = np.array(list(itertools.product([0, 1], repeat=model.m)), dtype=float)
    hs = np.array(
        list(itertools.product([0, 1], repeat=model.n_hidden)), dtype=float
    )
    joint = hs @ model.weights @ vs.T
    joint += (vs @ model.visible_bias)[None, :] + (hs @ model.hidden_bias)[:, None]
    return float(logsumexp(joint)), vs, hs, joint


def _free_energy_log_z(model, vs):
    per_v = vs @ model.visible_bias + np.sum(
        np.logaddexp(0.0, model.hidden_bias[None, :] + vs @ model.weights.T), axis=1
    )
    return float(logsumexp(per_v)), per_v


def test_criterion_08_exact_model_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)

    # (a) joint probabilities normalize against the independently derived
    # free-energy partition function at m + n = 12
    ok_a = True
    for m, n in ((7, 5), (6, 6)):
        model = rbm.RbmModel(
            weights=rng.normal(0, 0.7, size=(n, m)),
            visible_bias=rng.normal(0, 0.7, size=m),
            hidden_bias=rng.normal(0, 0.7, size=n),
        )
        log_z_direct, vs, _, joint = _enumerated_log_z(model)
        log_z_free, _ = _free_energy_log_z(model, vs)
        total = float(np.exp(logsumexp(joint) - log_z_free))
        ok_a = ok_a and abs(total - 1.0) <= 1e-10
        ok_a = ok_a and abs(log_z_direct - log_z_free) <= 1e-10

    # (b) statistic-gap gradient equals finite differences of the exact
    # log-likelihood, every coordinate, at 5 random parameter points
    def exact_log_prob(model, x):
        _, vs, _, _ = _enumerated_log_z(model)
        log_z, per_v = _free_energy_log_z(model, vs)
        own = x @ model.visible_bias + np.sum(
            np.logaddexp(0.0, model.hidden_bias + model.weights @ x)
        )
        return own - log_z

    ok_b = True
    x = np.array([1.0, 0.0, 1.0])
    for point in range(5):
        model = rbm.RbmModel(
            weights=rng.normal(0, 0.6, size=(2, 3)),
            visible_bias=rng.normal(0, 0.6, size=3),
            hidden_bias=rng.normal(0, 0.6, size=2),
        )
        vs = np.array(list(itertools.product([0, 1], repeat=3)), dtype=float)
        log_z, per_v = _free_energy_log_z(model, vs)
        probs = np.exp(per_v - log_z)
        grad = dense_positive_statistics(model, x)[0] - (
            probs @ dense_positive_statistics(model, vs)
        )
        probe = rbm.init_model(3, 2, np.random.default_rng(0))
        eps = 1e-6
        for idx in range(model.n_params):
            probe.params[:] = model.params
            probe.params[idx] += eps
            hi = exact_log_prob(probe, x)
            probe.params[idx] -= 2 * eps
            lo = exact_log_prob(probe, x)
            ok_b = ok_b and abs((hi - lo) / (2 * eps) - grad[idx]) <= 1e-5

    elapsed = time.perf_counter() - start
    _verdict(8, "exact model checks", ok_a and ok_b and elapsed < 60.0)


def test_criterion_09_end_to_end_utility():
    start = time.perf_counter()
    data, labels = labelled_mixture_corpus(
        20_000, 50, 3, np.random.default_rng(2024),
        block_p=0.9, background_p=0.01,
    )
    seed = 424242

    # data-independent initial centers: one prototype per block of the
    # (public) corpus generator, embedded with the run's feature map
    fmap = feature_map_from_seed(50, 200, 0.1, child_seed(seed, "feature-map"))
    protos = np.zeros((3, 50))
    for c in range(3):
        protos[c, c * 16 : (c + 1) * 16 if c < 2 else 50] = 1.0
    init = embed(fmap, protos)

    cfg = TrainConfig(
        k=3, epochs=10, batch_size=100,
        sigma_c=4.0, sigma_k=40.0, sigma_g=1.0,
        t_kmeans=20, d=200, gamma=0.1, n_hidden=32, eta=0.05,
        chain_count=100,
    )
    result = train(data, cfg, master_seed=seed, init_centers=init)
    eps = result.mixture.epsilon
    assert result.mixture.privacy.delta == pytest.approx(1 / 20_000)

    synth = generate(
        result.mixture, 20_000, np.random.default_rng(seed + 1), gibbs_steps=300
    )
    acc = clustering_accuracy(result.clustering.assignments, labels)
    max_l1 = int(data.records.sum(axis=1).max())
    workload = generate_workload(50, max_l1, 500, np.random.default_rng(7))
    report = evaluate_workload(data, synth, workload, acc=acc)
    wins = sum(
        s < b
        for s, b in zip(report.subset_mean_errors, report.baseline_mean_errors)
    )
    elapsed = time.perf_counter() - start
    ok = 1.8 <= eps <= 2.2 and wins >= 4 and elapsed < 900.0
    _verdict(9, "end-to-end utility", ok)


def test_criterion_10_matching_accuracy_oracle():
    rng = np.random.default_rng(161803)
    ok = True
    for _ in range(200):
        n = int(rng.integers(12, 90))
        assignments = rng.integers(0, int(rng.integers(1, 7)), size=n)
        labels = rng.integers(0, int(rng.integers(1, 7)), size=n)
        got = clustering_accuracy(assignments, labels)

        _, a = np.unique(assignments, return_inverse=True)
        _, b = np.unique(labels, return_inverse=True)
        table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
        np.add.at(table, (a, b), 1)
        rows, cols = table.shape
        if rows <= cols:
            best = max(
                sum(table[i, perm[i]] for i in range(rows))
                for perm in itertools.permutations(range(cols), rows)
            )
        else:
            best = max(
                sum(table[perm[j], j] for j in range(cols))
                for perm in itertools.permutations(range(rows), cols)
            )
        ok = ok and got == pytest.approx(best / n)

        relabel = rng.permutation(6)
        ok = ok and clustering_accuracy(relabel[assignments], labels) == got
    _verdict(10, "matching accuracy oracle", ok)


def test_criterion_11_training_determinism(tmp_path, capsys):
    data = mixture_corpus(150, 10, 2, np.random.default_rng(55))
    data_path = tmp_path / "records.txt"
    write_records(data, data_path)
    model_path = tmp_path / "model.json"
    args = [
        "train", "--data", str(data_path), "--k", "2", "--epochs", "1",
        "--batch-size", "30", "--sigma-c", "4", "--sigma-k", "40",
        "--sigma-g", "1", "--t-kmeans", "2", "--d", "16", "--n-hidden", "4",
        "--chain-count", "8", "--seed", "31",
        "--model", str(model_path),
    ]
    assert main(args) == 0
    first = model_path.read_bytes()
    assert main(args) == 0
    second = model_path.read_bytes()
    capsys.readouterr()
    _verdict(11, "training determinism", first == second and len(first) > 0)
