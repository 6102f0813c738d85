"""Attacks on a released model file, each run against the file alone, and
a neighbour-replay check of the releases' charged sensitivities.

Each test asserts that its attack fails or its check passes.  While the
gap it exploits is open, the test is marked
``xfail(strict=True, raises=AssertionError)`` with the ROADMAP item that
tracks the gap, so the run lists it as an expected failure only while
the attack runs and succeeds, and the change that closes the gap must
drop the marker: an unexpected pass fails.
"""
import base64
import json

import numpy as np
import pytest

from conftest import make_dataset, mixture_corpus
from dpmix import dpnorm, dpsgd, kmeans
from dpmix.accountant import gaussian_release
from dpmix.config import TrainConfig
from dpmix.kmeans import CLIP_BOUND, dp_kernel_kmeans
from dpmix.mixture import save_model, train
from dpmix.rff import feature_map_from_seed
from dpmix.streams import child_rng

# The public options of the attacked run: the attacker knows these, and
# reads everything else from the file.
K, D, T_KMEANS = 2, 4, 2
SEEDS_SEARCHED = 2**12


@pytest.fixture(scope="module")
def released(tmp_path_factory):
    """A format-3 file from a small run at a seed inside the searched range,
    with the default delta, and its record count."""
    n = 60
    data = mixture_corpus(n, 8, K, np.random.default_rng(4))
    cfg = TrainConfig(k=K, epochs=1, batch_size=30, sigma_c=4.0, sigma_k=2.0, sigma_g=1.0,
                      t_kmeans=T_KMEANS, d=D, n_hidden=2, chain_count=4)
    path = tmp_path_factory.mktemp("attack") / "model.json"
    save_model(train(data, cfg, master_seed=3001).mixture, path)
    return json.loads(path.read_text()), n


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_the_file_does_not_state_the_record_count(released):
    payload, n = released
    assert round(1 / payload["privacy"]["delta"]) != n


def _last_count_noise(seed: int, sigma_k: float) -> np.ndarray:
    """The count noise of the last k-means iteration, replayed from ``seed``:
    per iteration, k count draws, then k * d sum draws."""
    rng = child_rng(seed, "kmeans-noise")
    for _ in range(T_KMEANS - 1):
        gaussian_release(np.zeros(K), sigma_k, 1.0, rng)
        gaussian_release(np.zeros((K, D)), sigma_k, CLIP_BOUND, rng)
    return gaussian_release(np.zeros(K), sigma_k, 1.0, rng)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_no_small_seed_replays_the_noise_of_the_weights(released):
    # the true seed leaves the exact cluster sizes: integers
    payload, _ = released
    weights = np.frombuffer(base64.b64decode(payload["weights"]["base64"]), "<f8")
    sigma_k = payload["privacy"]["sigma_k"]
    found = []
    for seed in range(SEEDS_SEARCHED + 1):
        counts = weights - _last_count_noise(seed, sigma_k)
        if np.abs(counts - np.round(counts)).max() < 1e-6:
            found.append(seed)
    assert found == []


def _recording_release(replayed):
    """A gaussian_release that lists each release: (sigma, sensitivity,
    pre-noise value, output).

    Given the releases of another run as ``replayed``, release i returns
    that run's output i, so every later step conditions on the same
    transcript, as the adaptive composition behind the accountant does; a
    release beyond that run's last is drawn afresh.
    """
    releases = []

    def release(value, sigma, sensitivity, rng):
        value = np.asarray(value, dtype=np.float64)
        if replayed is None or len(releases) >= len(replayed):
            out = gaussian_release(value, sigma, sensitivity, rng)
        else:
            out = replayed[len(releases)][3]
        releases.append((sigma, sensitivity, value, out))
        return out

    return release, releases


def _kmeans_releases(monkeypatch, data, fmap, replayed=None):
    """Each release of a dp_kernel_kmeans run on ``data`` (see _recording_release)."""
    release, releases = _recording_release(replayed)
    monkeypatch.setattr(kmeans, "gaussian_release", release)
    dp_kernel_kmeans(data, fmap, 4, 10, 40.0, np.random.default_rng(11),
                     init_rng=np.random.default_rng(12))
    return releases


def _assert_each_release_moves_at_most_its_sensitivity(base, replay):
    assert len(replay) == len(base)
    for (sigma, sens, value, _), (sigma2, sens2, value2, _) in zip(base, replay):
        assert (sigma2, sens2) == (sigma, sens)
        assert np.linalg.norm(value2 - value) <= sens * (1 + 1e-9)


def test_kmeans_neighbours_move_each_release_by_at_most_its_sensitivity(monkeypatch):
    # ten records each removed from D, and ten more each appended to it
    records = mixture_corpus(2010, 30, 4, np.random.default_rng(9)).records
    data, extra = records[:2000], records[2000:]
    fmap = feature_map_from_seed(30, 64, 1.0, 13)
    base = _kmeans_releases(monkeypatch, make_dataset(data), fmap)
    removed = [np.delete(data, r, axis=0) for r in range(0, 2000, 200)]
    appended = [np.vstack([data, row]) for row in extra]
    for neighbour in removed + appended:
        replay = _kmeans_releases(monkeypatch, make_dataset(neighbour), fmap, base)
        _assert_each_release_moves_at_most_its_sensitivity(base, replay)


def _train_releases(monkeypatch, records, replayed=None):
    """Each release of a small mixture.train run on ``records``, k-means
    counts and sums, clip-bound votes and gradient sums alike (see
    _recording_release)."""
    release, releases = _recording_release(replayed)
    for module in (kmeans, dpnorm, dpsgd):
        monkeypatch.setattr(module, "gaussian_release", release)
    cfg = TrainConfig(k=3, epochs=1, batch_size=30, sigma_c=4.0, sigma_k=2.0, sigma_g=1.0,
                      t_kmeans=3, d=16, gamma=0.5, n_hidden=4, chain_count=6)
    train(make_dataset(records), cfg, master_seed=41)
    return releases


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 3 and 4")
def test_train_neighbours_move_each_release_by_at_most_its_sensitivity(monkeypatch):
    # D without its last record, then D with one record appended.  The
    # selection and sampling rates come from the true cluster sizes (item
    # 3), and an appended record can add a step (item 4).  The releases
    # are compared in the order they ran, k-means' threads among them.
    records = mixture_corpus(601, 20, 3, np.random.default_rng(21)).records
    data = records[:600]
    base = _train_releases(monkeypatch, data)
    for neighbour in (data[:-1], records):
        replay = _train_releases(monkeypatch, neighbour, base)
        _assert_each_release_moves_at_most_its_sensitivity(base, replay)
