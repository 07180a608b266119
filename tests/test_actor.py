import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_actor
from semoff import actor, channel
from semoff.config import Policy, SystemConfig
from semoff.config import SystemParams, TrainingParams

CFG = SystemConfig()


def _state(n=8, q=0.0):
    z = np.zeros(n)
    return channel.slot_state(CFG, np.full(n, 1e-5 ** 2), np.full(n, 1e-6 ** 2),
                              q_local=np.full(n, float(q)), q_edge=z.copy(),
                              z_local=z.copy(), z_edge=z.copy())


def _featurize(state, cfg=CFG):
    """`actor.featurize` with the gain features of a block of one slot."""
    gains = actor.gain_features(state.h2_edge[None], state.h2_cloud[None], cfg)
    return actor.featurize(gains[0], state, cfg)


def test_featurize_length_and_zero_queues():
    feats = _featurize(_state())
    assert feats.shape == (48,)
    # queue features sit at offsets 2..5 of each 6-wide device block
    blocks = feats.reshape(8, 6)
    assert np.all(blocks[:, 2:] == 0.0)


def test_featurize_locality():
    a = _state(q=1.0)
    b = _state(q=1.0)
    b.q_local = b.q_local.copy()
    b.q_local[0] += 2.0
    fa = _featurize(a)
    fb = _featurize(b)
    diff = np.nonzero(fa != fb)[0]
    assert list(diff) == [2]  # only device 0's local-queue feature moved


def _net(rng=None, n=8):
    rng = rng or np.random.default_rng(0)
    return actor.ActorNetwork.create(n, (120, 80), rng)


def test_forward_outputs_in_unit_interval():
    net = _net()
    out = net.forward(np.random.default_rng(1).normal(size=48))
    assert out.shape == (16,)
    assert np.all(out > 0) and np.all(out < 1)


def test_forward_zero_weights_gives_half():
    net = _net()
    for w in net.weights:
        w[:] = 0.0
    out = net.forward(np.ones(48))
    assert np.allclose(out, 0.5)


def test_forward_reproducible_given_seed():
    a = _net(np.random.default_rng(7))
    b = _net(np.random.default_rng(7))
    x = np.linspace(-1, 1, 48)
    assert np.array_equal(a.forward(x), b.forward(x))


def _top_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask selecting the k largest entries, lowest index on ties."""
    mask = np.zeros(len(values), dtype=bool)
    if k > 0:
        order = np.argsort(-values, kind="stable")
        mask[order[:k]] = True
    return mask


def _quantize(scores: np.ndarray, cfg: SystemConfig) -> Policy:
    """Order-preserving quantization of (2I,) scores: top-chi scores per
    server become ones; `actor.generate_candidates`' first (noiseless)
    candidate."""
    edge, cloud = scores.reshape(2, -1)
    return Policy(rho_edge=_top_k_mask(edge, cfg.system.chi_edge),
                  rho_cloud=_top_k_mask(cloud, cfg.system.chi_cloud))


def test_quantize_top_k_example():
    scores = np.array([0.9, 0.1, 0.8, 0.7, 0.3, 0.2, 0.6, 0.5,
                       0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01])
    pol = _quantize(scores, CFG)
    assert list(pol.rho_edge.astype(int)) == [1, 0, 1, 1, 0, 0, 1, 0]
    assert int(pol.rho_edge.sum()) == 4 and int(pol.rho_cloud.sum()) == 2


def test_quantize_tie_break_lowest_index():
    pol = _quantize(np.full(16, 0.5), CFG)
    assert list(np.nonzero(pol.rho_edge)[0]) == [0, 1, 2, 3]
    assert list(np.nonzero(pol.rho_cloud)[0]) == [0, 1]


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(0.01, 100.0), shift=st.floats(-5, 5),
       seed=st.integers(0, 2 ** 16))
def test_quantize_scale_invariance(scale, shift, seed):
    x = np.random.default_rng(seed).random(8)
    base = _top_k_mask(x, 4)
    assert np.array_equal(_top_k_mask(scale * x + shift, 4), base)


def test_generate_candidates_single_is_noiseless():
    rng = np.random.default_rng(1)
    scores = np.concatenate([np.linspace(0.1, 0.9, 8), np.linspace(0.9, 0.1, 8)])
    em, cm = actor.generate_candidates(scores, 1, rng, CFG)
    ref = _quantize(scores, CFG)
    assert em.shape == (1, 8)
    assert np.array_equal(em[0], ref.rho_edge)
    assert np.array_equal(cm[0], ref.rho_cloud)


def test_generate_candidates_rows_are_read_only():
    """The chosen policy holds two of these rows without a copy."""
    em, cm = actor.generate_candidates(np.linspace(0.1, 0.9, 16), 8,
                                       np.random.default_rng(1), CFG)
    for rows in (em, cm):
        with pytest.raises(ValueError):
            rows[0, 0] = not rows[0, 0]


def test_generate_candidates_zero_noise_collapses():
    from dataclasses import replace
    cfg = replace(CFG, training=replace(CFG.training, candidate_noise_std=0.0))
    scores = np.concatenate([np.linspace(0.1, 0.9, 8), np.linspace(0.9, 0.1, 8)])
    em, cm = actor.generate_candidates(scores, 32, np.random.default_rng(2), cfg)
    assert em.shape[0] == 1


def test_generate_candidates_large_request_all_valid():
    em, cm = actor.generate_candidates(np.full(16, 0.5), 1960, np.random.default_rng(3), CFG)
    assert em.shape[0] <= 1960
    assert np.all(em.sum(axis=1) == 4)
    assert np.all(cm.sum(axis=1) == 2)
    # noiseless candidate first, all distinct
    combined = {(int(e.sum(0)), tuple(e), tuple(c)) for e, c in zip(em, cm)}
    assert len(combined) == em.shape[0]


def _candidates_reference(scores, k, rng, cfg):
    """Row-by-row quantization, de-duplicated with np.unique(axis=0)."""
    n = len(scores) // 2
    noisy = np.tile(scores, (k, 1))
    if k > 1:
        noisy[1:] += rng.normal(0.0, cfg.training.candidate_noise_std,
                                size=(k - 1, 2 * n))
    em = np.array([_top_k_mask(row[:n], cfg.system.chi_edge) for row in noisy])
    cm = np.array([_top_k_mask(row[n:], cfg.system.chi_cloud) for row in noisy])
    _, first = np.unique(np.concatenate([em, cm], axis=1), axis=0, return_index=True)
    keep = np.sort(first)
    return em[keep], cm[keep]


@pytest.mark.parametrize("n", [1, 8, 33, 70])
@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
def test_generate_candidates_equals_unique_rows_reference(n, noise):
    from dataclasses import replace
    cfg = replace(CFG, system=replace(CFG.system, num_devices=n),
                  training=replace(CFG.training, candidate_noise_std=noise))
    rng = np.random.default_rng(n)
    for scores in (rng.random(2 * n), np.full(2 * n, 0.5)):
        for k in (1, 2, 64, 300):
            seed = int(rng.integers(1 << 30))
            em, cm = actor.generate_candidates(scores, k, np.random.default_rng(seed), cfg)
            ref_e, ref_c = _candidates_reference(scores, k, np.random.default_rng(seed), cfg)
            assert np.array_equal(em, ref_e) and np.array_equal(cm, ref_c), k
            if noise == 0.0:
                assert em.shape[0] == 1


def _reference_featurize(state, cfg):
    """`actor.featurize` as it was before its gain features were computed per
    block of slots, verbatim."""
    tr = cfg.training
    h2_edge = np.maximum(state.h2_edge, 1e-30)
    h2_cloud = np.maximum(state.h2_cloud, 1e-30)
    ge = (10.0 * np.log10(h2_edge) - tr.feature_gain_offset_edge_db) / tr.feature_gain_scale_db
    gc = (10.0 * np.log10(h2_cloud) - tr.feature_gain_offset_cloud_db) / tr.feature_gain_scale_db
    q = tr.feature_queue_ref
    blocks = np.stack([ge, gc, state.q_local / q, state.q_edge / q,
                       state.z_local / q, state.z_edge / q], axis=1)
    return blocks.reshape(-1)


@pytest.mark.parametrize("n", [1, 8, 13, 64])
def test_block_gain_features_give_the_per_slot_features_bit_for_bit(n):
    from dataclasses import replace
    cfg = replace(CFG, system=replace(CFG.system, num_devices=n))
    rng = np.random.default_rng(n)
    geom = channel.place_devices(cfg, rng)
    draw = channel.draw_channels(geom, cfg, [rng] * 300, 300)
    draw.h2_cloud[0, 0] = 1e-40   # below the 1e-30 floor
    gains = actor.gain_features(draw.h2_edge, draw.h2_cloud, cfg)
    for k in range(300):
        state = channel.slot_state(cfg, draw.h2_edge[k], draw.h2_cloud[k],
                                   *rng.uniform(0.0, 9.0, (4, n)))
        assert (actor.featurize(gains[k], state, cfg).tobytes()
                == _reference_featurize(state, cfg).tobytes()), k


def _reference_top_k_rows(values, k):
    """Row-wise top-k masks, lowest index on ties (the parent's `_top_k_rows`)."""
    masks = np.zeros(values.shape, dtype=bool)
    if k > 0:
        order = np.argsort(-values, axis=1, kind="stable")
        masks[np.arange(values.shape[0])[:, None], order[:, :k]] = True
    return masks


def _reference_generate_candidates(scores, num_candidates, rng, cfg):
    """`actor.generate_candidates` as it was before it ranked all scores in
    one argsort and de-duplicated through a dict, verbatim but for taking
    the (2I,) scores whole."""
    n = len(scores) // 2
    noisy = scores[None]
    if num_candidates > 1:
        noisy = np.concatenate((noisy, scores + rng.normal(
            0.0, cfg.training.candidate_noise_std, size=(num_candidates - 1, 2 * n))))
    edge_masks = _reference_top_k_rows(noisy[:, :n], cfg.system.chi_edge)
    cloud_masks = _reference_top_k_rows(noisy[:, n:], cfg.system.chi_cloud)
    packed = np.packbits(np.concatenate((edge_masks, cloud_masks), axis=1), axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first = np.unique(keys, return_index=True)
    keep = np.sort(first)
    return edge_masks[keep], cloud_masks[keep]


class _TieNoise:
    """Stands in for the noise generator: "normal" draws are multiples of
    0.25 in [-0.5, 0.5], so perturbed scores tie often and exactly."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def normal(self, loc, scale, size):
        return loc + 0.25 * self.rng.integers(-2, 3, size=size).astype(float)


@pytest.mark.parametrize("n", [1, 8, 13, 64])
def test_generate_candidates_equals_the_reference_on_tie_heavy_scores(n):
    # exact duplicates, all-equal rows and the k = 0 and k = I extremes: the
    # same masks in the same order as the reference, and the same
    # first-index argmin over them as the reference's scoring
    from dataclasses import replace
    from semoff import critic
    rng = np.random.default_rng(100 + n)
    score_rows = (np.full(2 * n, 0.5), rng.integers(0, 3, 2 * n) / 4.0,
                  np.repeat(rng.integers(0, 2, n) / 2.0, 2), rng.random(2 * n))
    table = rng.integers(-2, 3, (4, n)).astype(float)   # tie-heavy objective values
    for chi_e, chi_c in {(0, 0), (n, n), (0, n), (min(4, n), 0), (min(4, n), min(2, n))}:
        cfg = replace(CFG, system=replace(CFG.system, num_devices=n,
                                          chi_edge=chi_e, chi_cloud=chi_c))
        for scores in score_rows:
            for k, seed in ((1, 0), (2, 1), (64, 2), (150, 3)):
                em, cm = actor.generate_candidates(scores, k, _TieNoise(seed), cfg)
                ref_e, ref_c = _reference_generate_candidates(scores, k, _TieNoise(seed), cfg)
                assert em.dtype == ref_e.dtype == bool
                assert np.array_equal(em, ref_e) and np.array_equal(cm, ref_c), (chi_e, chi_c, k)
                idx, g = critic.PolicyBatch(em, cm).best(table)
                ref_g = table.T[np.arange(n)[None, :],
                                2 * ref_e.astype(np.int64) + ref_c.astype(np.int64)].sum(axis=1)
                assert g.tobytes() == ref_g.tobytes()
                assert idx == int(np.argmin(ref_g))


def test_generate_candidates_deterministic_given_rng_state():
    scores = np.concatenate([np.linspace(0, 1, 8), np.linspace(1, 0, 8)])
    a = actor.generate_candidates(scores, 16, np.random.default_rng(5), CFG)
    b = actor.generate_candidates(scores, 16, np.random.default_rng(5), CFG)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# --- loss and training --------------------------------------------------------

def test_loss_half_outputs_is_ln2():
    net = _net()
    for w in net.weights:
        w[:] = 0.0
    x = np.ones((4, 48))
    y = np.zeros((4, 16))
    y[:, 0] = 1.0
    assert net.loss(x, y) == pytest.approx(math.log(2), rel=1e-12)


def test_loss_perfect_predictions_near_zero():
    net = _net()
    x = np.random.default_rng(2).normal(size=(4, 48))
    out = np.atleast_2d(net.forward(x))
    y = np.round(out)
    # drive outputs toward the targets by reusing them as soft labels
    assert net.loss(x, out.clip(1e-7, 1 - 1e-7)) < net.loss(x, 1.0 - y)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(9)
    net = actor.ActorNetwork.create(4, (16, 12), rng)  # small for speed
    x = rng.normal(size=(5, 24))
    y = (rng.random(size=(5, 8)) > 0.5).astype(float)
    _, gw, gb = net.loss_and_grad(x, y)
    h = 1e-5
    worst = 0.0
    for arrs, grads in ((net.weights, gw), (net.biases, gb)):
        for arr, grad in zip(arrs, grads):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for j in range(flat.size):
                old = flat[j]
                flat[j] = old + h
                up = net.loss(x, y)
                flat[j] = old - h
                dn = net.loss(x, y)
                flat[j] = old
                fd = (up - dn) / (2 * h)
                worst = max(worst, abs(fd - gflat[j]) / max(abs(fd), 1e-6))
    assert worst < 1e-4


def test_train_step_descends_on_frozen_batch():
    rng = np.random.default_rng(11)
    net = actor.ActorNetwork.create(4, (16, 12), rng)
    opt = actor.AdaptiveMomentState()
    mem = actor.ReplayMemory(8, 24, 8)
    feats = rng.normal(size=24)
    label = (rng.random(8) > 0.5).astype(float)
    mem.add(feats, label)
    first = net.loss(feats, label)
    losses = []
    for _ in range(50):
        losses.append(actor.train_step(net, opt, mem, 1, 1e-3, rng))
    assert net.loss(feats, label) < first


def test_train_step_without_enough_samples_is_noop():
    rng = np.random.default_rng(0)
    net = actor.ActorNetwork.create(4, (16, 12), rng)
    opt = actor.AdaptiveMomentState()
    mem = actor.ReplayMemory(8, 24, 8)
    assert actor.train_step(net, opt, mem, 4, 1e-3, rng) is None
    w_before = [w.copy() for w in net.weights]
    mem.add(np.zeros(24), np.zeros(8))
    assert actor.train_step(net, opt, mem, 4, 1e-3, rng) is None
    assert all(np.array_equal(a, b) for a, b in zip(w_before, net.weights))


def test_test_loss_does_not_touch_parameters():
    rng = np.random.default_rng(1)
    net = actor.ActorNetwork.create(4, (16, 12), rng)
    w_before = [w.copy() for w in net.weights]
    net.loss(rng.normal(size=(3, 24)), np.zeros((3, 8)))
    assert all(np.array_equal(a, b) for a, b in zip(w_before, net.weights))


def test_cross_entropy_of_forward_is_the_loss():
    rng = np.random.default_rng(4)
    net = actor.ActorNetwork.create(4, (16, 12), rng)
    for x, y in ((rng.normal(size=24), (rng.random(8) < 0.5).astype(float)),
                 (rng.normal(size=(5, 24)), (rng.random((5, 8)) < 0.5).astype(float))):
        assert actor.cross_entropy(net.forward(x), y) == net.loss(x, y)
        assert net.loss_and_grad(x, y)[0] == net.loss(x, y)


def test_replay_memory_overwrites_oldest():
    mem = actor.ReplayMemory(4, 2, 1)
    for k in range(7):
        mem.add(np.array([k, k]), np.array([k]))
    assert mem.size == 4
    kept = sorted(mem.features[:, 0].astype(int))
    assert kept == [3, 4, 5, 6]


@settings(max_examples=30, deadline=None)
@given(inserts=st.integers(1, 40), cap=st.integers(1, 12))
def test_replay_memory_size_cap(inserts, cap):
    mem = actor.ReplayMemory(cap, 1, 1)
    for k in range(inserts):
        mem.add(np.array([k]), np.array([k]))
    assert mem.size == min(inserts, cap)


# --- in-place arithmetic against the allocating reference (per_actor.py) -------

def _equal_bits(a, b) -> bool:
    return np.array_equal(per_actor.bits(a), per_actor.bits(b))


def _case(seed: int, n: int, hidden: tuple[int, ...], batch: int, weight_scale: float,
          soft: bool):
    """A net, features and labels; batch 0 gives one 1-D feature vector.
    Weights scaled up saturate the outputs into the log clip."""
    rng = np.random.default_rng(seed)
    net = actor.ActorNetwork.create(n, hidden, rng)
    for w in net.weights:
        w *= weight_scale
    for b in net.biases:
        b[:] = rng.normal(scale=weight_scale, size=b.shape)
    shape = (6 * n,) if batch == 0 else (batch, 6 * n)
    x = rng.normal(size=shape)
    labels = rng.random(shape[:-1] + (2 * n,))
    y = labels if soft else (labels < 0.5).astype(float)
    return net, x, y


_CASES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
              hidden=st.lists(st.integers(1, 24), min_size=0, max_size=3).map(tuple),
              batch=st.integers(0, 9), weight_scale=st.sampled_from([0.0, 1.0, 40.0]),
              soft=st.booleans())


@settings(max_examples=60, deadline=None)
@given(**_CASES)
def test_forward_and_loss_equal_the_reference_bit_for_bit(seed, n, hidden, batch,
                                                           weight_scale, soft):
    net, x, y = _case(seed, n, hidden, batch, weight_scale, soft)
    out = net.forward(x)
    ref = per_actor.forward(net, x)
    assert out.shape == ref.shape and _equal_bits(out, ref)
    assert _equal_bits(actor.cross_entropy(out, y), per_actor.cross_entropy(ref, y))
    assert _equal_bits(net.loss(x, y), per_actor.cross_entropy(ref, y))


@settings(max_examples=60, deadline=None)
@given(**_CASES)
def test_loss_and_grad_equals_the_reference_bit_for_bit(seed, n, hidden, batch,
                                                        weight_scale, soft):
    net, x, y = _case(seed, n, hidden, batch, weight_scale, soft)
    loss, gw, gb = net.loss_and_grad(x, y)
    ref_loss, ref_gw, ref_gb = per_actor.loss_and_grad(net, x, y)
    assert _equal_bits(loss, ref_loss)
    for got, want in zip(gw + gb, ref_gw + ref_gb):
        assert got.shape == want.shape and _equal_bits(got, want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40), scale=st.floats(-2, 2))
def test_cross_entropy_equals_the_reference_on_outputs_at_and_past_the_clip(seed, size, scale):
    rng = np.random.default_rng(seed)
    # exact 0 and 1, both sides of each clip edge, and interior values
    edges = np.array([0.0, 1.0, 1e-8, 1e-7, 2e-7, 1 - 1e-8, 1 - 1e-7, 1 - 2e-7, 0.5])
    out = np.concatenate([edges, 10.0 ** (scale * rng.random(size) - 8)])
    for y in (rng.random(out.size), (rng.random(out.size) < 0.5).astype(float)):
        for o, t in ((out, y), (out[None], y[None]), (out.reshape(1, -1), y)):
            assert _equal_bits(actor.cross_entropy(o, t), per_actor.cross_entropy(o, t))


@pytest.mark.parametrize("batch", [1, 16])
def test_saturated_net_equals_the_reference_where_the_clip_meets_a_negative_error(batch):
    """Outputs clipped at 0 against label 1: the error is negative where the
    clip zeroes the gradient, the place a product with the clip mask would
    put -0.0 and `np.where` puts +0.0."""
    net, x, y = _case(3, 4, (12, 8), batch, 40.0, False)
    out = net.forward(x)
    assert np.any((out <= actor._LOG_CLIP) & (y == 1.0))
    _, gw, gb = net.loss_and_grad(x, y)
    _, ref_gw, ref_gb = per_actor.loss_and_grad(net, x, y)
    assert all(_equal_bits(a, b) for a, b in zip(gw + gb, ref_gw + ref_gb))


@settings(max_examples=30, deadline=None)
@given(**_CASES, lr=st.sampled_from([1e-3, 0.5]))
def test_adaptive_moment_step_equals_the_reference_bit_for_bit(seed, n, hidden, batch,
                                                               weight_scale, soft, lr):
    net, x, y = _case(seed, n, hidden, batch, weight_scale, soft)
    ref_net = actor.ActorNetwork([w.copy() for w in net.weights],
                                 [b.copy() for b in net.biases])
    opt, ref_opt = actor.AdaptiveMomentState(), per_actor.AdaptiveMomentState()
    for _ in range(3):
        _, gw, gb = net.loss_and_grad(x, y)
        opt.step(net, gw, gb, lr)
        _, gw, gb = per_actor.loss_and_grad(ref_net, x, y)
        ref_opt.step(ref_net, gw, gb, lr)
    for got, want in zip(net.weights + net.biases + opt.cache_w + opt.cache_b,
                         ref_net.weights + ref_net.biases + ref_opt.cache_w + ref_opt.cache_b):
        assert _equal_bits(got, want)


def _memory(rng, n: int, capacity: int, soft: bool) -> actor.ReplayMemory:
    mem = actor.ReplayMemory(capacity, 6 * n, 2 * n)
    for _ in range(capacity):
        labels = rng.random(2 * n)
        mem.add(rng.normal(size=6 * n), labels if soft else (labels < 0.5).astype(float))
    return mem


@pytest.mark.parametrize("soft", [False, True])
def test_two_hundred_training_steps_equal_the_reference_bit_for_bit(soft):
    n, batch, lr = 8, 16, 1e-2
    mem = _memory(np.random.default_rng(21), n, 64, soft)
    net = actor.ActorNetwork.create(n, (120, 80), np.random.default_rng(22))
    ref_net = actor.ActorNetwork([w.copy() for w in net.weights],
                                 [b.copy() for b in net.biases])
    opt, ref_opt = actor.AdaptiveMomentState(), per_actor.AdaptiveMomentState()
    rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
    for _ in range(200):
        loss = actor.train_step(net, opt, mem, batch, lr, rng)
        x, y = mem.sample(batch, ref_rng)
        ref_loss, gw, gb = per_actor.loss_and_grad(ref_net, x, y)
        ref_opt.step(ref_net, gw, gb, lr)
        assert _equal_bits(loss, ref_loss)
    for got, want in zip(net.weights + net.biases + opt.cache_w + opt.cache_b,
                         ref_net.weights + ref_net.biases + ref_opt.cache_w + ref_opt.cache_b):
        assert _equal_bits(got, want)


def test_forward_loss_and_training_leave_their_inputs_unchanged():
    """Nor the replay memory's rows, nor gradients returned earlier; and the
    optimizer's caches never alias the parameters."""
    n, batch = 4, 8
    rng = np.random.default_rng(31)
    mem = _memory(rng, n, 32, False)
    stored = (mem.features.copy(), mem.labels.copy())
    net = actor.ActorNetwork.create(n, (16, 12), rng)
    opt = actor.AdaptiveMomentState()
    x, y = rng.normal(size=(batch, 6 * n)), (rng.random((batch, 2 * n)) < 0.5).astype(float)
    scores = net.forward(x)
    scores[0, :2] = (0.0, 1.0)     # past both clip edges
    inputs = (x, y, x[0], y[0], scores)
    kept = [a.copy() for a in inputs]
    net.forward(x[0])
    net.forward(x)
    actor.cross_entropy(scores, y)
    actor.cross_entropy(scores[0], y[0])
    net.loss(x[0], y[0])
    _, gw, gb = net.loss_and_grad(x, y)
    _, gw1, gb1 = net.loss_and_grad(x[0], y[0])
    grads = [g.copy() for g in gw + gb + gw1 + gb1]
    opt.step(net, gw, gb, 1e-2)
    for _ in range(5):
        actor.train_step(net, opt, mem, batch, 1e-2, rng)
    assert all(_equal_bits(a, b) for a, b in zip(inputs, kept))
    assert _equal_bits(mem.features, stored[0]) and _equal_bits(mem.labels, stored[1])
    assert all(_equal_bits(a, b) for a, b in zip(gw + gb + gw1 + gb1, grads))
    params = net.weights + net.biases
    for cache in opt.cache_w + opt.cache_b:
        assert not any(np.shares_memory(cache, p) for p in params)
