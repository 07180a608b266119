import numpy as np
import pytest

from semoff import channel
from semoff.config import SystemConfig, SystemParams


def _rng(seed):
    return np.random.default_rng(seed)


def test_placement_distances_within_annulus():
    cfg = SystemConfig()
    geom = channel.place_devices(cfg, _rng(11))
    assert len(geom.d_edge) == 8
    assert np.all(geom.d_edge >= 50.0) and np.all(geom.d_edge <= 150.0)
    # cloud distances spread around the base-station offset
    assert np.all(geom.d_cloud >= 350.0) and np.all(geom.d_cloud <= 650.0)


def test_placement_deterministic_given_seed():
    cfg = SystemConfig()
    a = channel.place_devices(cfg, _rng(42))
    b = channel.place_devices(cfg, _rng(42))
    assert np.array_equal(a.d_edge, b.d_edge) and np.array_equal(a.d_cloud, b.d_cloud)


def test_placement_respects_device_count():
    cfg = SystemConfig(system=SystemParams(num_devices=12))
    geom = channel.place_devices(cfg, _rng(0))
    assert geom.d_edge.shape == geom.d_cloud.shape == geom.g_cloud.shape == (12,)


def test_pathloss_at_100m_is_90_5_db():
    cfg = SystemConfig()
    assert channel.pathloss_db(100.0, cfg) == pytest.approx(90.5, abs=1e-12)
    assert channel.pathloss_db(500.0, cfg) == pytest.approx(
        128.1 + 37.6 * np.log10(0.5), abs=1e-12)


def test_rayleigh_small_scale_unit_mean_power():
    p = np.abs(channel._rayleigh(_rng(123), 100_000)) ** 2
    assert np.mean(p) == pytest.approx(1.0, abs=0.02)


def test_rician_k_factor_recovered_from_moments():
    los, diffuse = channel.rician_amplitudes(SystemConfig().channel.rician_k_db)
    p = np.abs(los + diffuse * channel._rayleigh(_rng(321), 100_000)) ** 2
    # moment estimator: v = Var/mean^2 = (1+2K)/(1+K)^2
    v = np.var(p) / np.mean(p) ** 2
    k_hat = ((1 - v) + np.sqrt(1 - v)) / v
    assert 10 * np.log10(k_hat) == pytest.approx(3.0, abs=0.3)
    assert np.mean(p) == pytest.approx(1.0, abs=0.02)


def test_composite_edge_power_matches_large_scale_gain():
    cfg = SystemConfig()
    geom = channel.place_devices(cfg, _rng(3))
    rng = _rng(7)
    acc = np.zeros(cfg.system.num_devices)
    n = 20000
    for _ in range(n):
        acc += channel.draw_channels(geom, cfg, rng).h2_edge
    g = channel.pathloss_gain(geom.d_edge, cfg)
    assert np.allclose(acc / n, g, rtol=0.05)


def _fading(cfg, slot):
    """The slot's small-scale draws, replayed in `draw_channels`' order."""
    rng = channel.slot_rng(5, 4, slot)
    n = cfg.system.num_devices
    los, diffuse = channel.rician_amplitudes(cfg.channel.rician_k_db)
    edge = los + diffuse * channel._rayleigh(rng, n)
    return edge, channel._rayleigh(rng, n), rng


def test_large_scale_fixed_small_scale_redrawn():
    # each gain over its fading power is the slot-constant pathloss gain
    cfg = SystemConfig()
    geom = channel.place_devices(cfg, _rng(4))
    g_edge = channel.pathloss_gain(geom.d_edge, cfg)
    draws = [channel.draw_channels(geom, cfg, channel.slot_rng(5, 4, t)) for t in (0, 1)]
    for t, draw in enumerate(draws):
        edge, _, _ = _fading(cfg, t)
        assert np.allclose(draw.h2_edge / np.abs(edge) ** 2, g_edge, rtol=1e-12, atol=0)
    assert not np.array_equal(draws[0].h2_edge, draws[1].h2_edge)


def test_slot_rng_is_replayable_and_slot_keyed():
    cfg = SystemConfig()
    geom = channel.place_devices(cfg, _rng(4))
    again = channel.draw_channels(geom, cfg, channel.slot_rng(5, 4, 17))
    once = channel.draw_channels(geom, cfg, channel.slot_rng(5, 4, 17))
    assert np.array_equal(once.h2_edge, again.h2_edge)
    assert np.array_equal(once.h2_cloud, again.h2_cloud)


def _numpy_rng(*key):
    """The oracle: numpy's own seeding of the same key."""
    return np.random.default_rng(np.random.SeedSequence(key))


def _same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert np.array_equal(a.standard_normal(5), b.standard_normal(5))
    assert np.array_equal(a.poisson(3.5, 5), b.poisson(3.5, 5))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 40 + 3, 2 ** 70 + 9])
def test_seeded_streams_match_numpy_seed_sequence(seed):
    # one- to three-word seeds, blocks on both sides of 2**32 (where the slot
    # takes two words) and keys longer than the 4-word pool
    for stream in (*range(7), 98, 99):
        _same_stream(channel.run_rng(seed, stream), _numpy_rng(seed, stream))
        for slot in (0, 1023, 1024, 2 ** 32 - 1, 2 ** 32 + 5):
            _same_stream(channel.slot_rng(seed, stream, slot), _numpy_rng(seed, stream, slot))


def test_every_slot_of_a_block_matches_numpy():
    for slot in range(2048, 3072):
        assert (channel.slot_rng(3, 5, slot).bit_generator.state
                == _numpy_rng(3, 5, slot).bit_generator.state)


def test_memoised_seed_words_are_read_only():
    for words in (channel._run_words(1, 0), channel._slot_block_words(1, 4, 0)):
        with pytest.raises(ValueError):
            words[0] = 0


@pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                           (8, np.uint64), (4, np.int64), (4, np.float64)])
def test_seed_words_serve_only_pcg64s_request(n_words, dtype):
    words = channel._run_words(1, 4)
    assert channel._SeedWords(words).generate_state(4, np.uint64) is words
    with pytest.raises(ValueError, match="only 4 uint64 seed words"):
        channel._SeedWords(words).generate_state(n_words, dtype)


@pytest.mark.parametrize("key", [(-1, 4), (1, -4), (-1, 4, 0), (1, -4, 0), (1, 4, -1)])
def test_negative_key_is_refused_as_numpy_refuses_it(key):
    with pytest.raises(ValueError):
        _numpy_rng(*key)
    with pytest.raises(ValueError):
        (channel.run_rng if len(key) == 2 else channel.slot_rng)(*key)


def test_cloud_shadowing_redrawn_per_slot():
    # the cloud gain over pathloss and fading is the shadowing: a fresh
    # log-normal draw each slot, after the fading in the slot's stream
    cfg = SystemConfig()
    geom = channel.place_devices(cfg, _rng(4))
    g_cloud = channel.pathloss_gain(geom.d_cloud, cfg)
    shadows = []
    for t in (0, 1):
        draw = channel.draw_channels(geom, cfg, channel.slot_rng(5, 4, t))
        _, cloud, rng = _fading(cfg, t)
        shadows.append(draw.h2_cloud / (g_cloud * np.abs(cloud) ** 2))
        expect = 10.0 ** (rng.normal(0.0, cfg.channel.shadowing_std_db,
                                     cfg.system.num_devices) / 10.0)
        assert np.allclose(shadows[-1], expect, rtol=1e-12, atol=0)
    assert not np.allclose(shadows[0], shadows[1])


@pytest.mark.parametrize("n", [1, 8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_stored_gains_reproduce_the_from_distance_draw(n, seed):
    # the gains fixed at placement give, bit for bit, what the formulas on
    # the distances give when recomputed in every slot
    cfg = SystemConfig(system=SystemParams(num_devices=n, chi_edge=min(4, n),
                                           chi_cloud=min(2, n)))
    rng = _rng(seed)
    geom = channel.place_devices(cfg, rng)
    replay = _rng(seed)
    r = np.sqrt(replay.uniform(50.0 ** 2, 150.0 ** 2, n))
    theta = replay.uniform(0.0, 2.0 * np.pi, n)
    positions = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    assert np.array_equal(geom.d_edge, r)
    assert np.array_equal(geom.d_cloud, np.linalg.norm(positions - np.array([500.0, 0.0]),
                                                       axis=1))
    g_edge = channel.pathloss_gain(geom.d_edge, cfg)
    g_cloud = channel.pathloss_gain(geom.d_cloud, cfg)
    k = 10.0 ** (cfg.channel.rician_k_db / 10.0)
    for t in range(4):
        draw = channel.draw_channels(geom, cfg, channel.slot_rng(seed, 4, t))
        fading = channel.slot_rng(seed, 4, t)
        scatter = (fading.standard_normal(n) + 1j * fading.standard_normal(n)) / np.sqrt(2.0)
        h_edge = np.sqrt(k / (k + 1.0)) + np.sqrt(1.0 / (k + 1.0)) * scatter
        h_cloud = (fading.standard_normal(n) + 1j * fading.standard_normal(n)) / np.sqrt(2.0)
        shadow = 10.0 ** (fading.normal(0.0, cfg.channel.shadowing_std_db, n) / 10.0)
        assert draw.h2_edge.tobytes() == (np.abs(np.sqrt(g_edge) * h_edge) ** 2).tobytes()
        assert draw.h2_cloud.tobytes() == \
            (np.abs(np.sqrt(g_cloud * shadow) * h_cloud) ** 2).tobytes()
