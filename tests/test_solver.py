import math

import numpy as np
import pytest

from mxl.families import EeGame, MacGame, scalar_profile, synth_channels
from mxl.games import LinearGame, ZeroGame, nash_residual
from mxl.solver import (
    AsyncSchedule,
    ConfigurationError,
    NoiseModel,
    SolverConfig,
    StepSchedule,
    initial_state,
    inject_noise,
    profile_kl,
    relative_sigma,
    run,
    run_async,
)
from mxl.spectral import Spectrahedron, hermiticity_defect, hermitize, mirror_map, nuclear_norm

# frozen Monte-Carlo oracle values for E||Z||_*^2 of the Gaussian Hermitian
# draw at sigma=1 (2e5 independent draws, seed 123456; see the noise tests)
GUE_DUAL_SQ = {1: 1.0009, 2: 1.6339, 3: 2.0400}


def mac_game():
    return MacGame(2, "quadratic", b=1.0, c=2.0)


class TestStepSchedule:
    def test_values(self):
        assert StepSchedule.power_law(1.0, 0.5).at(4) == pytest.approx(0.5)
        assert StepSchedule.optimized(0.5).at(10) == pytest.approx(0.4)
        assert StepSchedule.constant(0.3).at(999) == pytest.approx(0.3)

    def test_nonincreasing_positive(self):
        for sched in (StepSchedule.power_law(2.0, 1.0), StepSchedule.optimized(2.0),
                      StepSchedule.constant(0.1)):
            vals = [sched.at(n) for n in range(1, 50)]
            assert all(v > 0 for v in vals)
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StepSchedule.power_law(1.0, 1.5)
        with pytest.raises(ConfigurationError):
            StepSchedule.power_law(-1.0, 0.5)
        with pytest.raises(ConfigurationError):
            StepSchedule.optimized(0.0)
        with pytest.raises(ConfigurationError):
            StepSchedule("warp")


class TestInjectNoise:
    def test_none_and_zero_sigma_identity(self, rng):
        v = np.diag([1.0, -2.0]).astype(complex)
        assert inject_noise(v, NoiseModel.none(), rng) is v
        out = inject_noise(v, NoiseModel.gaussian_hermitian(0.0), rng)
        assert np.array_equal(out, v)

    def test_gaussian_moments_against_frozen_oracle(self):
        dim, draws = 3, 100_000
        rng = np.random.default_rng(99)
        v = np.zeros((dim, dim), dtype=complex)
        acc = np.zeros((dim, dim), dtype=complex)
        acc_sq = np.zeros((dim, dim))
        dual_sq = 0.0
        for _ in range(draws):
            z = inject_noise(v, NoiseModel.gaussian_hermitian(1.0), rng)
            acc += z
            acc_sq += np.abs(z) ** 2
            w = np.linalg.eigvalsh(z)
            dual_sq += max(abs(w[0]), abs(w[-1])) ** 2
        mean = acc / draws
        stderr = np.sqrt(np.maximum(acc_sq / draws - np.abs(mean) ** 2, 0.0) / draws)
        assert np.all(np.abs(mean) <= 3.0 * stderr + 1e-12)
        dual_sq /= draws
        assert math.isfinite(dual_sq)
        assert abs(dual_sq - GUE_DUAL_SQ[dim]) <= 0.2 * GUE_DUAL_SQ[dim]
        assert dual_sq <= 1.0 * dim  # E||Z||_*^2 <= sigma^2 dim

    def test_relative_level_calibration(self):
        rng = np.random.default_rng(5)
        v = np.diag([2.0, 1.0]).astype(complex)
        level = 0.5
        acc = 0.0
        draws = 20_000
        for _ in range(draws):
            z = inject_noise(v, NoiseModel.relative(level), rng) - v
            acc += float(np.linalg.norm(z)) ** 2
        rms = math.sqrt(acc / draws)
        assert rms == pytest.approx(level * float(np.linalg.norm(v)), rel=0.05)

    def test_raw_noise_needs_hermitize(self):
        rng = np.random.default_rng(6)
        v = np.zeros((2, 2), dtype=complex)
        z = inject_noise(v, NoiseModel.gaussian_hermitian(1.0, hermitian=False), rng)
        assert hermiticity_defect(z) > 1e-6

    def test_block_structure_respected(self):
        rng = np.random.default_rng(7)
        v = np.zeros((4, 4), dtype=complex)
        z = inject_noise(v, NoiseModel.gaussian_hermitian(1.0), rng, blocks=(2, 2))
        assert np.allclose(z[:2, 2:], 0.0) and np.allclose(z[2:, :2], 0.0)

    def test_pareto_zero_mean_heavy_tail(self):
        rng = np.random.default_rng(8)
        v = np.zeros((2, 2), dtype=complex)
        draws = [inject_noise(v, NoiseModel.pareto_tail(1.5, 1.0), rng) for _ in range(20_000)]
        mean = sum(draws) / len(draws)
        assert np.abs(mean).max() < 0.1
        norms = sorted(float(np.linalg.norm(d)) for d in draws)
        assert norms[-1] > 20 * norms[len(norms) // 2]  # heavy tail present

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseModel.pareto_tail(0.9)
        with pytest.raises(ConfigurationError):
            NoiseModel.gaussian_hermitian(-1.0)


def test_zero_game_is_stationary():
    doms = [Spectrahedron(2, 1.0)] * 2
    game = ZeroGame(doms)
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(),
                       max_iters=10, log_every=10)
    trace = run(game, cfg)
    assert trace.iterations == 10 and trace.updates_per_player == (10, 10)
    for x, d in zip(trace.final_actions, doms):
        assert np.allclose(x, d.center(), atol=1e-14)


def test_single_player_linear_reaches_extreme_point():
    game = LinearGame([np.diag([1.0, 0.0])])
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(),
                       max_iters=500, stop_residual=0.0, seed=0, log_every=500)
    trace = run(game, cfg)
    # closed-form maximizer: full mass on the leading eigvector
    assert nash_residual(game, trace.final_actions) < 1e-4
    assert nuclear_norm(trace.final_actions[0] - np.diag([1.0, 0.0]).astype(complex)) < 1e-3


def test_mac_noiseless_converges_to_interior_equilibrium():
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(),
                       max_iters=10_000, stop_residual=1e-6, seed=0, log_every=100)
    trace = run(mac_game(), cfg)
    assert trace.status == "converged"
    for x in trace.final_actions:
        assert abs(float(x[0, 0].real) - 1 / 3) < 1e-6


def test_mac_noisy_converges_for_most_seeds():
    game = mac_game()
    sigma = relative_sigma(game.payoff_gradient(0, game.center_profile()), 0.5)
    ok = 0
    for s in range(50):
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.gaussian_hermitian(sigma),
                           max_iters=5000, stop_residual=1e-2, seed=s, log_every=50)
        if run(game, cfg).status == "converged":
            ok += 1
    assert ok >= 45


def test_pareto_noise_smoke():
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.pareto_tail(1.5, 1.0),
                       max_iters=2000, stop_residual=0.0, seed=3, log_every=100)
    trace = run(mac_game(), cfg)
    assert trace.status == "max_iters"
    assert all(math.isfinite(r.nash_residual) for r in trace.records)
    for x, p in zip(trace.final_actions, mac_game().players):
        assert p.domain.contains(x)


def test_reference_divergence_trends_down_noiseless():
    game = mac_game()
    ref = scalar_profile([1 / 3, 1 / 3])
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(),
                       max_iters=2000, stop_residual=0.0, seed=0, log_every=50,
                       reference_point=ref)
    trace = run(game, cfg)
    kls = [r.kl_to_reference for r in trace.records]
    assert all(k is not None for k in kls)
    # windowed trailing monotonicity for the deterministic monotone case
    window = 4
    trailing = [max(kls[i : i + window]) for i in range(0, len(kls) - window, window)]
    assert all(a >= b - 1e-12 for a, b in zip(trailing, trailing[1:]))


def test_run_determinism_bit_exact(tmp_path):
    game = mac_game()
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.relative(0.5),
                       max_iters=500, stop_residual=0.0, seed=11, log_every=25)
    t1, t2 = run(game, cfg), run(game, cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.to_csv(p1)
    t2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.utilities == r2.utilities
        assert r1.nash_residual == r2.nash_residual


def test_stop_residual_reverified_independently():
    game = mac_game()
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(),
                       max_iters=10_000, stop_residual=1e-5, seed=0, log_every=50)
    trace = run(game, cfg)
    assert trace.status == "converged"
    assert nash_residual(game, trace.final_actions) <= cfg.stop_residual


def test_logged_actions_feasible_under_adversarial_scores():
    # constant positive gradient pushes the top score eigenvalue to ~1e4
    game = LinearGame([np.diag([2.0, 1.0])])
    cfg = SolverConfig(StepSchedule.constant(5.0), NoiseModel.none(),
                       max_iters=1000, stop_residual=0.0, seed=0, log_every=100)
    trace = run(game, cfg)
    x = trace.final_actions[0]
    assert np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))
    assert game.players[0].domain.contains(x)
    assert nuclear_norm(x) == pytest.approx(1.0, abs=1e-9)


def test_diverged_status_on_non_finite_gradient():
    class BrokenGame(LinearGame):
        def gradient_stack(self, i, actions):
            return np.full((len(actions[i]), 1, 1), np.nan, dtype=complex)

    game = BrokenGame([np.array([[1.0]])])
    cfg = SolverConfig(StepSchedule.constant(0.1), max_iters=10, log_every=5)
    trace = run(game, cfg)
    assert trace.status == "diverged"
    assert "non-finite" in trace.diagnostic


NAN_AT_4 = "non-finite gradient for player 2 at iteration 4"
EIG_FAILED = "Eigenvalues did not converge"


@pytest.mark.parametrize("schedule, diagnostic", [
    pytest.param(None, NAN_AT_4, id="None"),
    pytest.param(AsyncSchedule((1.0, 1.0)), NAN_AT_4, id="schedule1"),
    pytest.param(None, EIG_FAILED, id="eigensolver-run"),
    pytest.param(AsyncSchedule((1.0, 1.0)), EIG_FAILED, id="eigensolver-run_async"),
])
def test_aborted_epoch_counts_for_no_player(schedule, diagnostic):
    class LateFailure(LinearGame):
        """Player 2's gradient fails at iteration 4 (NaN or LinAlgError); player 1's stays finite."""

        def __init__(self):
            super().__init__([np.array([[1.0]]), np.array([[1.0]])])
            self.calls = [0, 0]

        def gradient_stack(self, i, actions):
            self.calls[i] += 1
            if i == 1 and self.calls[i] == 4:
                if diagnostic == EIG_FAILED:
                    raise np.linalg.LinAlgError(EIG_FAILED)
                return np.full((len(actions[i]), 1, 1), np.nan, dtype=complex)
            return np.ones((len(actions[i]), 1, 1), dtype=complex)

    cfg = SolverConfig(StepSchedule.constant(0.1), max_iters=10, log_every=5)
    game = LateFailure()
    trace = run(game, cfg) if schedule is None else run_async(game, cfg, schedule)
    assert trace.status == "diverged"
    assert trace.diagnostic == diagnostic
    assert trace.iterations == 3
    assert trace.updates_per_player == (3, 3)


def test_non_finite_score_diverges_with_finite_actions():
    # the score grows by 1e307 per step and overflows at step 18
    game = LinearGame([np.diag([1e307, 0.0])])
    cfg = SolverConfig(StepSchedule.constant(1.0), max_iters=50, log_every=50)
    trace = run(game, cfg)  # the suite turns a RuntimeWarning into an error
    assert trace.status == "diverged"
    assert trace.diagnostic == "score has non-finite entries"
    assert trace.iterations == 17 and trace.updates_per_player == (17,)
    x = trace.final_actions[0]
    assert np.all(np.isfinite(x)) and game.players[0].domain.contains(x)


@pytest.mark.parametrize("noise", [NoiseModel.none(), NoiseModel.gaussian_hermitian(0.1),
                                   NoiseModel.relative(0.1)], ids=["none", "gaussian", "relative"])
def test_infinite_gradient_diverges_without_warnings(noise):
    class Infinite(LinearGame):
        def gradient_stack(self, i, actions):
            return np.repeat(np.diag([np.inf, 1.0]).astype(complex)[None], len(actions[i]), axis=0)

    cfg = SolverConfig(StepSchedule.constant(1.0), noise, max_iters=10, log_every=5)
    trace = run(Infinite([np.eye(2)]), cfg)  # the suite turns a RuntimeWarning into an error
    assert trace.status == "diverged"
    assert trace.diagnostic == "non-finite gradient for player 1 at iteration 1"
    assert trace.iterations == 0 and trace.updates_per_player == (0,)


def reference_run_async(game, cfg, schedule):
    """One 2-D trajectory with per-player counts and delays, in the solver's order of draws.

    Returns the logged (n, utilities, residual) rows, the final actions and the
    update counts. Uses `stochastic_gradient`, `inject_noise`, `hermitize` and
    `mirror_map` one player at a time, so no draw is batched or buffered.
    """
    noise_seq, sched_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    noise_rng, sched_rng = np.random.default_rng(noise_seq), np.random.default_rng(sched_seq)
    probs, d_max = schedule.probabilities, schedule.delay_max
    scores = [np.zeros((p.domain.dim, p.domain.dim), dtype=complex) for p in game.players]
    actions = [mirror_map(y, p.domain) for y, p in zip(scores, game.players)]
    history = [tuple(actions)]
    counts = [0] * game.n_players
    rows = []
    for n in range(1, cfg.max_iters + 1):
        if schedule.mode == "single":
            weights = np.array(probs) / sum(probs)
            update_set = [int(sched_rng.choice(game.n_players, p=weights))]
        else:
            update_set = [i for i, p in enumerate(probs) if sched_rng.random() < p]
        estimates = []
        for i in update_set:
            lags = (sched_rng.integers(0, d_max + 1, size=game.n_players) if d_max
                    else [0] * game.n_players)
            delayed = tuple(history[min(int(lag), len(history) - 1)][j]
                            for j, lag in enumerate(lags))
            v = game.stochastic_gradient(i, delayed, noise_rng)
            blocks = game.players[i].domain.blocks
            estimates.append(hermitize(inject_noise(v, cfg.noise, noise_rng, blocks=blocks)))
        for i, vhat in zip(update_set, estimates):
            counts[i] += 1
            scores[i] = scores[i] + cfg.schedule.at(counts[i]) * vhat
            actions[i] = mirror_map(scores[i], game.players[i].domain)
        history.insert(0, tuple(actions))
        del history[d_max + 1 :]
        if n % cfg.log_every == 0:
            utilities = tuple(game.utility(i, actions) for i in range(game.n_players))
            rows.append((n, utilities, nash_residual(game, actions)))
    return rows, actions, tuple(counts)


def _ee_small():
    return EeGame(synth_channels(2, 2, 2, 2, pathloss_spread=1.0, seed=9), pmax=2.0, pc=0.1)


# name: (game, noise, async schedule, max_iters). Bernoulli update sets vary per
# epoch, so the buffered noise must be handed out in update order to match.
ASYNC_CASES = {
    "bernoulli_hermitian": (mac_game, NoiseModel.gaussian_hermitian(0.3),
                            AsyncSchedule((0.5, 0.7), delay_max=3), 2500),
    "bernoulli_raw_no_delay": (mac_game, NoiseModel.gaussian_hermitian(0.3, hermitian=False),
                               AsyncSchedule((0.5, 0.7)), 2500),
    "single_hermitian": (mac_game, NoiseModel.gaussian_hermitian(0.3),
                         AsyncSchedule((0.5, 0.9), delay_max=2, mode="single"), 2500),
    "single_raw": (mac_game, NoiseModel.gaussian_hermitian(0.3, hermitian=False),
                   AsyncSchedule((0.5, 0.9), delay_max=2, mode="single"), 2500),
    "ee_bernoulli_relative_blocks": (_ee_small, NoiseModel.relative(0.5),
                                     AsyncSchedule((0.6, 0.8), delay_max=2), 120),
}


@pytest.mark.parametrize("name", sorted(ASYNC_CASES))
def test_run_async_equals_per_trajectory_reference(name):
    make, noise, schedule, max_iters = ASYNC_CASES[name]
    game = make()
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.6), noise, max_iters=max_iters,
                       stop_residual=0.0, seed=17, log_every=max_iters // 5)
    trace = run_async(game, cfg, schedule)
    rows, actions, counts = reference_run_async(game, cfg, schedule)
    assert trace.status == "max_iters"
    assert [(r.n, r.utilities, r.nash_residual) for r in trace.records] == rows
    assert all(np.array_equal(a, b) for a, b in zip(trace.final_actions, actions))
    assert trace.updates_per_player == counts


def test_profile_kl_rescales_by_trace_bound():
    game = LinearGame([np.eye(2)], trace_bounds=[2.0])
    a = (np.diag([1.0, 0.5]).astype(complex),)
    assert profile_kl(game, a, a) == pytest.approx(0.0, abs=1e-12)


def test_y0_override():
    game = mac_game()
    y0 = scalar_profile([2.0, 2.0])
    state = initial_state(game, y0)
    x = float(state.actions[0][0, 0, 0].real)
    assert x == pytest.approx(math.exp(2) / (1 + math.exp(2)), rel=1e-12)


def test_config_validation():
    sched = StepSchedule.power_law(1.0, 0.5)
    with pytest.raises(ConfigurationError):
        SolverConfig(sched, max_iters=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(sched, stop_residual=-1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(sched, log_every=0)


class TestAsync:
    def test_degenerate_matches_sync_bitwise(self, tmp_path):
        game = mac_game()
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.relative(0.5),
                           max_iters=400, stop_residual=0.0, seed=7, log_every=40)
        sync = run(game, cfg)
        async_ = run_async(game, cfg, AsyncSchedule((1.0, 1.0), delay_max=0))
        pa, pb = tmp_path / "sync.csv", tmp_path / "async.csv"
        sync.to_csv(pa)
        async_.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_zero_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncSchedule((0.0, 0.5), delay_max=1)

    def test_delay_bound_vs_horizon(self):
        game = mac_game()
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), max_iters=5)
        with pytest.raises(ConfigurationError):
            run_async(game, cfg, AsyncSchedule((1.0, 1.0), delay_max=5))

    def test_partial_updates_counted(self):
        game = mac_game()
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), max_iters=2000, log_every=500)
        trace = run_async(game, cfg, AsyncSchedule((0.5, 0.5), delay_max=3))
        for c in trace.updates_per_player:
            assert 800 <= c <= 1200
        assert trace.status in ("max_iters", "converged")

    def test_single_mode_one_update_per_epoch(self):
        game = mac_game()
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), max_iters=1000, log_every=500)
        trace = run_async(game, cfg, AsyncSchedule((0.5, 0.5), delay_max=2, mode="single"))
        assert sum(trace.updates_per_player) == 1000

    def test_async_converges_with_delays(self):
        game = mac_game()
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), max_iters=20_000,
                           stop_residual=0.0, seed=3, log_every=20_000)
        trace = run_async(game, cfg, AsyncSchedule((0.5, 0.5), delay_max=5))
        for x in trace.final_actions:
            assert abs(float(x[0, 0].real) - 1 / 3) < 1e-2


def test_trace_csv_and_summary_format(tmp_path):
    game = mac_game()
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(),
                       max_iters=100, stop_residual=0.0, seed=1, log_every=50)
    trace = run(game, cfg)
    csv_path = tmp_path / "trace.csv"
    trace.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,player,utility,nash_residual,kl_to_ref,step_size"
    assert len(lines) == 1 + 2 * len(trace.records)
    first = lines[1].split(",")
    assert first[0] == "50" and first[1] == "1"
    trace.write_summary(tmp_path / "summary.json")
    import json

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "max_iters"
    assert summary["iterations"] == 100
    assert summary["seed"] == 1
