import math

import numpy as np
import pytest

import mxl.solver
from mxl.families import (
    EeGame,
    MacGame,
    MetricLearningProblem,
    make_cluster_dataset,
    scalar_profile,
    synth_channels,
)
from mxl.games import GameModel, LinearGame, ZeroGame, nash_residual
from mxl.solver import (
    AsyncSchedule,
    ConfigurationError,
    NoiseModel,
    SeedNoise,
    SolverConfig,
    StepSchedule,
    initial_state,
    inject_noise,
    profile_kl,
    relative_sigma,
    run,
    run_async,
    run_batch,
)
from helpers import block_slices, random_hermitian, ref_advance
from mxl.spectral import (
    DomainError,
    Spectrahedron,
    exp_projection_blocks,
    hermiticity_defect,
    hermitize,
    mirror_map,
    nuclear_norm,
)

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
        z = inject_noise(v, NoiseModel.gaussian_hermitian(1.0), rng, Spectrahedron(4, 1.0, blocks=2))
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
            domain = game.players[i].domain
            estimates.append(hermitize(inject_noise(v, cfg.noise, noise_rng, domain)))
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


def assert_same_trace(a, b):
    """Two traces agree bit for bit: records (a nan step size included), ends and counts."""
    rows = [[(r.n, r.step_size, r.utilities, r.nash_residual, r.kl_to_reference)
             for r in t.records] for t in (a, b)]
    assert repr(rows[0]) == repr(rows[1])
    assert (a.status, a.iterations, a.seed, a.diagnostic, a.updates_per_player) == (
        b.status, b.iterations, b.seed, b.diagnostic, b.updates_per_player)
    assert all(np.array_equal(x, y) for x, y in zip(a.final_actions, b.final_actions))


def _metric_small():
    points, labels = make_cluster_dataset(4, 16, n_classes=2, spread=0.6, seed=3)
    return MetricLearningProblem(points, labels, margin=0.2, batch_size=8)


POWER = StepSchedule.power_law(1.0, 0.5)
# name: (game, solver config, async schedule or None, seeds)
BATCH_CASES = {
    "mac_gaussian": (mac_game, SolverConfig(POWER, NoiseModel.gaussian_hermitian(0.3),
                                            max_iters=2000, stop_residual=1e-2, log_every=25),
                     None, range(6)),
    "ee_relative": (lambda: EeGame(synth_channels(2, 2, 2, 2, seed=8), pmax=2.0, pc=1.0),
                    SolverConfig(StepSchedule.power_law(1.0, 0.6), NoiseModel.relative(0.5),
                                 max_iters=1000, stop_residual=1e-2, log_every=25),
                    None, range(5)),
    "metric_drawing_oracle": (_metric_small, SolverConfig(
        StepSchedule.constant(0.05), NoiseModel.gaussian_hermitian(0.1), max_iters=110,
        stop_residual=0.0, log_every=25), None, range(3)),
    "mac_reference_kl": (mac_game, SolverConfig(
        POWER, NoiseModel.relative(0.5), max_iters=1000, stop_residual=1e-2, log_every=25,
        reference_point=scalar_profile([1 / 3, 1 / 3])), None, range(4)),
    "mac_async_delay": (mac_game, SolverConfig(POWER, NoiseModel.gaussian_hermitian(0.3),
                                               max_iters=600, stop_residual=1e-2, log_every=25),
                        AsyncSchedule((0.5, 0.7), delay_max=3), range(4)),
    "mac_max_iters_off_log_grid": (mac_game, SolverConfig(
        POWER, NoiseModel.gaussian_hermitian(0.3), max_iters=130, stop_residual=1e-2,
        log_every=25), None, range(8)),
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_run_batch_equals_solo_runs(name, monkeypatch):
    make, cfg, schedule, seeds = BATCH_CASES[name]
    game = make()
    stacks = []
    real_initial_state = mxl.solver.initial_state

    def recording(game, y0=None, seeds=1):
        stacks.append(seeds)
        return real_initial_state(game, y0, seeds)

    monkeypatch.setattr(mxl.solver, "initial_state", recording)
    traces = run_batch(game, cfg, seeds, schedule)
    # synchronous play shares one stack; an async schedule runs each seed alone
    assert stacks == ([1] * len(seeds) if schedule else [len(seeds)])
    monkeypatch.undo()
    solo_schedule = schedule or AsyncSchedule((1.0,) * game.n_players)
    for seed, trace in zip(seeds, traces):
        solo = run_async(game, SolverConfig(**{**vars(cfg), "seed": seed}), solo_schedule)
        assert_same_trace(trace, solo)
    if name in ("mac_gaussian", "ee_relative"):  # rows leave the stack at different epochs
        assert len({t.iterations for t in traces}) > 2
    if name == "mac_max_iters_off_log_grid":
        assert {t.status for t in traces} == {"converged", "max_iters"}
        assert {t.records[-1].n for t in traces if t.status == "max_iters"} == {130}
    if name == "mac_reference_kl":
        assert all(r.kl_to_reference is not None for t in traces for r in t.records)


class Cliff(MacGame):
    """MAC whose gradient fails for the whole stack once a row's player-1 power is below 0.25."""

    def gradient_stack(self, i, actions):
        low = actions[0][:, 0, 0].real
        if (low < 0.25).any():
            raise DomainError(f"player 1 power {low.min():.17g} below 0.25")
        return super().gradient_stack(i, actions)


def test_gradient_stacks_keep_a_redefined_gradient_stack():
    # a subclass's own gradient_stack serves every player through the per-player default
    game = Cliff(2, "quadratic", b=1.0, c=2.0)
    fine = [np.full((3, 1, 1), 0.5, dtype=complex), np.full((3, 1, 1), 0.3, dtype=complex)]
    rows = game.gradient_stacks(fine, [1, 0])
    assert isinstance(rows, list)
    want = MacGame(2, "quadratic", b=1.0, c=2.0).gradient_stacks(fine, [1, 0])
    assert all(np.array_equal(a, b) for a, b in zip(rows, want))
    low = [fine[0].copy(), fine[1]]
    low[0][1] = 0.2
    with pytest.raises(DomainError, match="^player 1 power 0.2000+1 below 0.25$"):
        game.gradient_stacks(low, [0, 1])


@pytest.mark.parametrize("seeds", [(1, 2, 4, 7, 9, 15), (1, 4)], ids=["four-live", "one-live"])
def test_run_batch_one_diverging_row(seeds):
    # solo, seed 4 diverges at epoch 166; seeds 1 and 2 converge at 20 and 40, 9 and 15
    # later, and 7 runs to max_iters: the stack fails with four rows live, or with one
    game = Cliff(2, "quadratic", b=1.0, c=2.0)
    cfg = SolverConfig(StepSchedule.constant(0.1), NoiseModel.gaussian_hermitian(0.5),
                       max_iters=300, stop_residual=1e-2, log_every=10)
    traces = run_batch(game, cfg, seeds)
    for seed, trace in zip(seeds, traces):
        assert_same_trace(trace, run_async(game, SolverConfig(**{**vars(cfg), "seed": seed}),
                                           AsyncSchedule((1.0, 1.0))))
    diverged = [t for t in traces if t.status == "diverged"]
    assert [t.seed for t in diverged] == [4] and diverged[0].iterations == 166
    assert diverged[0].diagnostic.startswith("player 1 power 0.24")


class NanAbove(LinearGame):
    """u = x on [0, 1], whose gradient is NaN wherever x > 0.9."""

    def __init__(self):
        super().__init__([[[1.0]]])

    def gradient_stack(self, i, actions):
        return np.where(actions[i].real > 0.9, math.nan, 1.0).astype(complex)


NAN_RESIDUAL = "non-finite gradient for player 1 in the Nash residual"


def test_non_finite_gradient_at_a_log_point_diverges():
    # x passes 0.9 in epoch 3, and that epoch's log point reads the gradient there first
    cfg = SolverConfig(StepSchedule.constant(1.0), max_iters=10, stop_residual=0.0, log_every=1)
    trace = run(NanAbove(), cfg)
    assert (trace.status, trace.iterations, len(trace.records)) == ("diverged", 3, 2)
    assert trace.diagnostic == NAN_RESIDUAL


def test_non_finite_gradient_at_a_log_point_ends_only_its_row():
    game = NanAbove()
    cfg = SolverConfig(StepSchedule.constant(0.05), NoiseModel.gaussian_hermitian(2.0),
                       max_iters=40, stop_residual=0.0, log_every=1)
    seeds = (1, 3, 6)
    traces = run_batch(game, cfg, seeds)
    for seed, trace in zip(seeds, traces):
        assert_same_trace(trace, run(game, SolverConfig(**{**vars(cfg), "seed": seed})))
    assert [(t.status, t.iterations) for t in traces] == [
        ("max_iters", 40), ("diverged", 30), ("max_iters", 40)]
    assert traces[1].diagnostic == NAN_RESIDUAL


def ref_perturb(noise, i, v):
    """SeedNoise.perturb's per-block loop for `gaussian` and `relative` noise, each seed's
    normals drawn straight from the Generators of `noise`, never through a buffer."""
    model, domain = noise.model, noise.game.players[i].domain
    dim = v.shape[-1]
    sigma = model.sigma
    if model.kind == "relative":
        if dim == 1:
            g = v[:, 0, 0]
            norms = np.sqrt(g.real * g.real + g.imag * g.imag)
        else:
            norms = np.array([np.linalg.norm(vs) for vs in v])
        sigma = (model.level * norms / np.sqrt(dim))[:, None, None]
    draws = np.stack([rng.standard_normal(2 * dim * dim // domain.blocks) for rng in noise.rngs])
    z = np.zeros_like(v) if domain.blocks > 1 else None
    pos = 0
    for sl in block_slices(domain):
        b = sl.stop - sl.start
        re = draws[:, pos : pos + b * b].reshape(-1, b, b)
        im = draws[:, pos + b * b : pos + 2 * b * b].reshape(-1, b, b)
        pos += 2 * b * b
        if model.hermitian:
            a = re + 1j * im
            zb = (a + a.conj().swapaxes(-1, -2)) * (sigma / (2.0 * np.sqrt(b)))
        else:
            zb = (sigma / np.sqrt(2.0 * b)) * (re + 1j * im)
        if z is None:
            z = zb
        else:
            z[:, sl, sl] = zb
    return hermitize(v + z)


NOISE_LAYOUT_GAME = ZeroGame([
    Spectrahedron(1, 1.0), Spectrahedron(3, 1.0), Spectrahedron(4, 1.0, blocks=2),
    Spectrahedron(64, 1.0, blocks=16),
])


@pytest.mark.parametrize("n_seeds", [1, 4, 50])
@pytest.mark.parametrize("model", [
    NoiseModel.gaussian_hermitian(0.3), NoiseModel.gaussian_hermitian(0.3, hermitian=False),
    NoiseModel.relative(0.5), NoiseModel.relative(0.5, hermitian=False),
], ids=["gaussian", "gaussian_raw", "relative", "relative_raw"])
def test_perturb_equals_per_block_loop_bit_for_bit(model, n_seeds):
    game = NOISE_LAYOUT_GAME  # blocks of four sizes: drawn seed by seed, not buffered
    noise, ref = (SeedNoise(game, model, [np.random.default_rng(s) for s in range(n_seeds)], 4)
                  for _ in range(2))
    assert noise.chunked is False and noise.each
    rng = np.random.default_rng(53)
    everyone = list(range(game.n_players))
    for players in (everyone, everyone[::-1], [3], [3, 0]):
        for i in players:
            dim = game.players[i].domain.dim
            v = np.stack([random_hermitian(dim, rng) for _ in range(n_seeds)])
            blocks = game.players[i].domain.diagonal_blocks(ref_perturb(ref, i, v))
            assert np.array_equal(noise.perturb(i, v), blocks)


def ref_inject_noise(v, model, rng, domain):
    """inject_noise as a loop over the domain's blocks, two draws of normals per block."""
    if model.kind == "none":
        return v
    dim = v.shape[0]

    def hermitian(b, scale):
        a = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        return (a + a.conj().T) * (scale / (2.0 * np.sqrt(b)))

    def raw(b, sigma):
        s = sigma / np.sqrt(2.0 * b)
        return s * (rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b)))

    def blockwise(draw):
        out = np.zeros((dim, dim), dtype=complex)
        for sl in block_slices(domain):
            out[sl, sl] = draw(sl.stop - sl.start)
        return out

    if model.kind in ("gaussian", "relative"):
        sigma = model.sigma if model.kind == "gaussian" else relative_sigma(v, model.level)
        if model.hermitian:
            return v + blockwise(lambda b: hermitian(b, sigma))
        return v + blockwise(lambda b: raw(b, sigma))
    direction = blockwise(lambda b: hermitian(b, 1.0))
    direction /= max(float(np.linalg.norm(direction)), 1e-300)
    magnitude = model.scale * rng.pareto(model.tail_index)
    return v + magnitude * direction


@pytest.mark.parametrize("model", [
    NoiseModel.gaussian_hermitian(0.3), NoiseModel.gaussian_hermitian(0.3, hermitian=False),
    NoiseModel.relative(0.5), NoiseModel.relative(0.5, hermitian=False),
    NoiseModel.pareto_tail(1.5, 0.2),
], ids=["gaussian", "gaussian_raw", "relative", "relative_raw", "pareto"])
def test_inject_noise_equals_per_block_loop_bit_for_bit(model):
    rng = np.random.default_rng(59)
    for domain in NOISE_LAYOUT_GAME.domains:
        draws, ref_draws = np.random.default_rng(61), np.random.default_rng(61)
        for _ in range(3):  # consecutive draws also pin how many numbers each one takes
            v = random_hermitian(domain.dim, rng)
            ref = ref_inject_noise(v, model, ref_draws, domain)
            assert np.array_equal(inject_noise(v, model, draws, domain), ref)
        if domain.blocks == 1:  # no domain: the unblocked set of V's size
            v = random_hermitian(domain.dim, rng)
            assert np.array_equal(inject_noise(v, model, np.random.default_rng(67)),
                                  ref_inject_noise(v, model, np.random.default_rng(67), domain))


def test_profile_kl_rescales_by_trace_bound():
    game = LinearGame([np.eye(2)], trace_bounds=[2.0])
    a = (np.diag([1.0, 0.5]).astype(complex),)
    assert profile_kl(game, a, a) == pytest.approx(0.0, abs=1e-12)


def test_y0_override():
    game = mac_game()
    y0 = scalar_profile([2.0, 2.0])
    state = initial_state(game, y0)
    x = float(state.actions[0][0, 0, 0].real)  # seed 0
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


class Coupled(LinearGame):
    """Three players on domains of dim 2 (A = 1), dim 3 (A = 2) and dim 2 (A = 1), so the
    groups are {1, 3} and {2}: u_i = tr(C_i X_i) - 0.3 tr(X_i) (sum of the others' traces).

    Once player 2's trace passes `level`, the gradients of the players in `nan` turn NaN
    and that of player `failing` raises DomainError.
    """

    def __init__(self, nan=(), failing=None, level=1.2):
        super().__init__([np.diag([1.0, 0.2]), np.diag([2.0, 1.5, 0.5]), np.diag([0.4, 0.9])],
                         trace_bounds=[1.0, 2.0, 1.0])
        self.nan, self.failing, self.level = nan, failing, level

    def _others(self, i, actions):
        traces = [np.trace(a, axis1=-2, axis2=-1).real for a in actions]
        return sum(t for j, t in enumerate(traces) if j != i), traces[1] > self.level

    def utility_stack(self, i, actions):
        others, _ = self._others(i, actions)
        own = np.trace(actions[i], axis1=-2, axis2=-1).real
        return super().utility_stack(i, actions) - 0.3 * own * others

    def gradient_stack(self, i, actions):
        others, past = self._others(i, actions)
        v = self._c[i] - 0.3 * others[:, None, None] * np.eye(len(self._c[i]))
        if i == self.failing and past.any():
            raise DomainError("gradient oracle failed")
        return np.where(past[:, None, None], np.nan, v) if i in self.nan else v


class NoisyCoupled(Coupled):
    """Coupled with a gradient oracle that draws."""

    def stochastic_gradient(self, i, actions, rng):
        v = self.payoff_gradient(i, actions)
        return v + 0.1 * rng.standard_normal() * np.eye(len(v))


GROUP_SCHEDULES = {
    "sync": None,
    "bernoulli": AsyncSchedule((0.6, 0.7, 0.5), delay_max=3),
    "single": AsyncSchedule((0.6, 0.7, 0.5), mode="single"),
}
GROUP_NOISES = {
    "none": NoiseModel.none(),
    "gaussian": NoiseModel.gaussian_hermitian(0.4),
    "gaussian_raw": NoiseModel.gaussian_hermitian(0.4, hermitian=False),
    "relative": NoiseModel.relative(0.5),
    "pareto": NoiseModel.pareto_tail(1.5, 0.2),
}


def _advance_pair(game, model, schedule, n_seeds, steps, engine):
    """Run `engine` (the solver's advance or the per-player reference) from fresh state."""
    state = initial_state(game, None, n_seeds)
    noise = SeedNoise(game, model, [np.random.default_rng(40 + s) for s in range(n_seeds)], steps)
    sched_rng = np.random.default_rng(9)
    steps_out = [(n, repr(g), [x.copy() for x in state.actions])
                 for n, g in engine(game, state, POWER, noise, steps, schedule, sched_rng)]
    rng_states = [r.bit_generator.state for r in [*noise.rngs, sched_rng]]
    return steps_out, state, rng_states


@pytest.mark.parametrize("n_seeds", [1, 4])
@pytest.mark.parametrize("noise_name", list(GROUP_NOISES))
@pytest.mark.parametrize("schedule_name", list(GROUP_SCHEDULES))
@pytest.mark.parametrize("game_kind", [Coupled, NoisyCoupled])
def test_grouped_epoch_equals_per_player_loop(game_kind, schedule_name, noise_name, n_seeds):
    game = game_kind(level=np.inf)
    assert game.domains[0] == game.domains[2] != game.domains[1]  # groups {1, 3} and {2}
    runs = [_advance_pair(game, GROUP_NOISES[noise_name], GROUP_SCHEDULES[schedule_name],
                          n_seeds, 60, engine) for engine in (mxl.solver.advance, ref_advance)]
    (steps, state, rngs), (ref_steps, ref_state, ref_rngs) = runs
    assert [(n, g) for n, g, _ in steps] == [(n, g) for n, g, _ in ref_steps]
    for (_, _, xs), (_, _, ref_xs) in zip(steps, ref_steps):
        assert all(np.array_equal(x, r) for x, r in zip(xs, ref_xs))
    assert all(np.array_equal(y, r) for y, r in zip(state.scores, ref_state.scores))
    assert (state.counts, state.n) == (ref_state.counts, ref_state.n)
    assert rngs == ref_rngs
    if schedule_name == "bernoulli":  # the members of group {1, 3} step at different sizes
        assert state.counts[0] != state.counts[2]


@pytest.mark.parametrize("schedule_name", [*GROUP_SCHEDULES, "delayed_all"])
@pytest.mark.parametrize("nan, failing", [((1,), None), ((2,), None), ((1, 2), None),
                                          ((0,), 2), ((), 2)],
                         ids=["player2_nan", "player3_nan", "players2_3_nan",
                              "player1_nan_player3_fails", "player3_fails"])
def test_grouped_epoch_diverges_as_per_player_loop(nan, failing, schedule_name, monkeypatch):
    # "delayed_all": everyone updates every epoch, each gradient taken in turn (delays)
    schedule = GROUP_SCHEDULES.get(schedule_name, AsyncSchedule((1.0,) * 3, delay_max=1))
    level = -1.0 if failing is not None else 1.2  # a failing oracle fails from epoch 1
    cfg = SolverConfig(POWER, NoiseModel.gaussian_hermitian(0.3), max_iters=80,
                       stop_residual=0.0, log_every=5)
    seeds = [1, 2, 3, 4] if schedule is None else [2]
    traces = run_batch(Coupled(nan, failing, level), cfg, seeds, schedule)
    monkeypatch.setattr(mxl.solver, "advance", ref_advance)
    ref = run_batch(Coupled(nan, failing, level), cfg, seeds, schedule)
    for trace, ref_trace in zip(traces, ref):
        assert trace.status == "diverged"
        assert_same_trace(trace, ref_trace)
    if schedule_name == "delayed_all" and failing is not None:
        # player 3's oracle fails after player 1's gradient turned NaN in the same epoch
        expected = ("non-finite gradient for player 1 at iteration 1" if nan
                    else "gradient oracle failed")
        assert [t.diagnostic for t in traces] == [expected]


EE_8X4X16 = EeGame(synth_channels(8, 4, 4, 16, pathloss_spread=1.0, seed=8), pmax=2.0, pc=1.0)


@pytest.mark.parametrize("schedule", [None, AsyncSchedule((0.6, 0.9) * 4, delay_max=2)],
                         ids=["sync", "bernoulli_delay2"])
def test_block_epoch_equals_dense_loop_at_8x4x16(schedule):
    # 16 blocks of 4x4 per player: the scores are held as blocks, the actions whole
    game = EE_8X4X16
    runs = [_advance_pair(game, NoiseModel.relative(0.5), schedule, 2, 12, engine)
            for engine in (mxl.solver.advance, ref_advance)]
    (steps, state, _), (ref_steps, ref_state, _) = runs
    assert [(n, g) for n, g, _ in steps] == [(n, g) for n, g, _ in ref_steps]
    for (_, _, xs), (_, _, ref_xs) in zip(steps, ref_steps):
        assert all(x.shape == (2, 64, 64) for x in xs)
        assert all(np.array_equal(x, r) for x, r in zip(xs, ref_xs))
    assert all(y.shape == (2, 16, 4, 4) for y in state.scores)
    assert all(np.array_equal(y, r) for y, r in zip(state.scores, ref_state.scores))
    # (the Generators may differ: a buffer refill falls at another point of an epoch's draws)
    assert (state.counts, state.n) == (ref_state.counts, ref_state.n)


@pytest.mark.parametrize("delay_max", [None, 2], ids=["sync", "bernoulli_delay2"])
@pytest.mark.parametrize("make_game", [lambda: Coupled(level=np.inf), lambda: EE_8X4X16, mac_game],
                         ids=["coupled", "ee_8x4x16", "mac"])
def test_actions_are_the_projection_of_the_scores(make_game, delay_max):
    # scores stay (S, blocks, m, m) blocks; each action is their projection, as (S, d, d)
    game = make_game()
    schedule = None if delay_max is None else AsyncSchedule(
        ((0.6, 0.9) * game.n_players)[: game.n_players], delay_max=delay_max)
    state = initial_state(game, None, 2)
    noise = SeedNoise(game, NoiseModel.relative(0.5), [np.random.default_rng(s) for s in (3, 4)],
                      10)
    for _ in mxl.solver.advance(game, state, POWER, noise, 10, schedule,
                                np.random.default_rng(5)):
        for domain, y, x in zip(game.domains, state.scores, state.actions):
            m = domain.dim // domain.blocks
            assert y.shape == (2, domain.blocks, m, m)
            assert x.shape == (2, domain.dim, domain.dim)
            assert np.array_equal(x, domain.block_diagonal(exp_projection_blocks(y, domain)))


class UniformBlocks(Coupled):
    """Coupled on four domains of one block size m = 2 and different dims and block counts,
    Spectrahedron(2), Spectrahedron(4, A = 2, blocks=2), Spectrahedron(2) and
    Spectrahedron(8, blocks=4), so the groups are {1, 3}, {2} and {4}."""

    def __init__(self):
        self._c = tuple(np.diag(np.linspace(1.0, 0.2, d)).astype(complex) for d in (2, 4, 2, 8))
        GameModel.__init__(self, [Spectrahedron(2), Spectrahedron(4, 2.0, blocks=2),
                                  Spectrahedron(2), Spectrahedron(8, blocks=4)])
        self.nan, self.failing, self.level = (), None, np.inf


BUFFER_SCHEDULES = {
    "trivial": None,
    "bernoulli": AsyncSchedule((0.6, 0.7, 0.5, 0.8), delay_max=2),
    "single": AsyncSchedule((0.6, 0.7, 0.5, 0.8), mode="single"),
}
BUFFER_NOISES = {
    "gaussian": NoiseModel.gaussian_hermitian(0.4),
    "gaussian_raw": NoiseModel.gaussian_hermitian(0.4, hermitian=False),
    "relative": NoiseModel.relative(0.5),
    "relative_raw": NoiseModel.relative(0.5, hermitian=False),
}


# 3 seeds draw 3 x 8 units of 8 normals per epoch of all four players: a chunk of one epoch
# (refilled every epoch) or of three, which partial epochs leave part used at a refill
@pytest.mark.parametrize("chunk_floats", [1, 3 * 3 * 64], ids=["one_epoch", "three_epochs"])
@pytest.mark.parametrize("noise_name", list(BUFFER_NOISES))
@pytest.mark.parametrize("schedule_name", list(BUFFER_SCHEDULES))
def test_blocks_buffer_equals_per_player_loop(schedule_name, noise_name, chunk_floats,
                                              monkeypatch):
    monkeypatch.setattr(mxl.solver, "CHUNK_FLOATS", chunk_floats)
    game, model = UniformBlocks(), BUFFER_NOISES[noise_name]
    assert SeedNoise(game, model, [np.random.default_rng(0)], 1).chunked
    runs = [_advance_pair(game, model, BUFFER_SCHEDULES[schedule_name], 3, 60, engine)
            for engine in (mxl.solver.advance, ref_advance)]
    (steps, state, _), (ref_steps, ref_state, _) = runs
    assert [(n, g) for n, g, _ in steps] == [(n, g) for n, g, _ in ref_steps]
    for (_, _, xs), (_, _, ref_xs) in zip(steps, ref_steps):
        assert all(np.array_equal(x, r) for x, r in zip(xs, ref_xs))
    assert all(np.array_equal(y, r) for y, r in zip(state.scores, ref_state.scores))
    assert (state.counts, state.n) == (ref_state.counts, ref_state.n)


@pytest.mark.parametrize("noise_name", ["gaussian", "relative_raw"])
def test_blocks_buffer_rows_leaving_mid_chunk_equal_solo_runs(noise_name, monkeypatch):
    # a chunk of 7 epochs for the 6 seeds: rows leave the stack at log points inside a chunk
    monkeypatch.setattr(mxl.solver, "CHUNK_FLOATS", 7 * 6 * 64)
    game = UniformBlocks()
    cfg = SolverConfig(POWER, BUFFER_NOISES[noise_name], max_iters=400, stop_residual=2e-2,
                       log_every=5)
    traces = run_batch(game, cfg, range(6))
    for seed, trace in zip(range(6), traces):
        assert_same_trace(trace, run(game, SolverConfig(**{**vars(cfg), "seed": seed})))
    left = [t.iterations for t in traces if t.status == "converged"]
    assert len(set(left)) > 2 and any(n % 7 for n in left)


@pytest.mark.parametrize("noise_name", list(BUFFER_NOISES))
@pytest.mark.parametrize("make_game", [lambda: NOISE_LAYOUT_GAME, Coupled],
                         ids=["noise_layout", "coupled"])
def test_mixed_block_sizes_draw_seed_by_seed(make_game, noise_name):
    # blocks of several sizes are no plain sequence of units: inject_noise per seed and player
    game, model = make_game(), BUFFER_NOISES[noise_name]
    noise = SeedNoise(game, model, [np.random.default_rng(0)], 1)
    assert noise.chunked is False and noise.each
    schedule = AsyncSchedule((0.6, 0.7, 0.5, 0.8)[: game.n_players], delay_max=2)
    runs = [_advance_pair(game, model, schedule, 2, 30, engine)
            for engine in (mxl.solver.advance, ref_advance)]
    (steps, state, rngs), (ref_steps, ref_state, ref_rngs) = runs
    for (_, _, xs), (_, _, ref_xs) in zip(steps, ref_steps):
        assert all(np.array_equal(x, r) for x, r in zip(xs, ref_xs))
    assert all(np.array_equal(y, r) for y, r in zip(state.scores, ref_state.scores))
    assert rngs == ref_rngs


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_gradient_failing_mid_epoch_with_lags_in_one_draw(failing, monkeypatch):
    # an epoch's lags come from one draw before its first gradient; an oracle that fails
    # after some players of the epoch took theirs ends the run as the per-player draws do
    schedule = AsyncSchedule((1.0, 0.8, 1.0), delay_max=3)
    cfg = SolverConfig(POWER, NoiseModel.gaussian_hermitian(0.3), max_iters=200,
                       stop_residual=0.0, log_every=5)
    trace = run_async(Coupled(failing=failing, level=1.6), cfg, schedule)
    monkeypatch.setattr(mxl.solver, "advance", ref_advance)
    ref = run_async(Coupled(failing=failing, level=1.6), cfg, schedule)
    assert (trace.status, trace.diagnostic) == ("diverged", "gradient oracle failed")
    # failing = 1 or 2 raises after the epoch's first player took its gradient
    assert trace.iterations == (3, 2, 1)[failing]
    assert_same_trace(trace, ref)


class Leaky(ZeroGame):
    """One player on two 2x2 blocks whose gradient has mass outside the blocks at every
    profile whose first diagonal entry passes `level`."""

    def __init__(self, level):
        super().__init__([Spectrahedron(4, 1.0, blocks=2)])
        self.level = level

    def gradient_stack(self, i, actions):
        v = np.repeat(np.diag([0.5, 0.1, -0.2, 0.3]).astype(complex)[None], len(actions[i]), 0)
        past = actions[i][:, 0, 0].real > self.level
        v[past, 0, 3] = v[past, 3, 0] = 0.25
        return v


@pytest.mark.parametrize("level", [0.0, 0.3])
def test_off_block_gradient_diverges(level, monkeypatch):
    cfg = SolverConfig(POWER, NoiseModel.gaussian_hermitian(0.3), max_iters=40,
                       stop_residual=0.0, log_every=5)
    traces = run_batch(Leaky(level), cfg, [1, 2])
    monkeypatch.setattr(mxl.solver, "advance", ref_advance)
    ref = run_batch(Leaky(level), cfg, [1, 2])
    for trace, ref_trace in zip(traces, ref):
        assert trace.status == "diverged" and (trace.iterations > 0) == (level > 0)
        assert trace.diagnostic == "score must be block-diagonal for a block-structured domain"
        assert_same_trace(trace, ref_trace)


class CountingEe(EeGame):
    """EeGame that logs each covariance mapping (with its `checked` flag), each receivers
    pass (with its receivers) and each separate utility call."""

    def __init__(self, channels):
        super().__init__(channels)
        self.log = []

    def _covariance_blocks(self, actions, checked=True):
        self.log.append(("covariances", checked))
        return super()._covariance_blocks(actions, checked)

    def _received(self, players, x, q, psi):
        self.log.append(("received", tuple(players)))
        return super()._received(players, x, q, psi)

    def utility_stack(self, i, actions):
        self.log.append(("utility", i))
        return super().utility_stack(i, actions)


@pytest.mark.parametrize("seeds", [[4], [4, 5, 6]])
def test_synchronous_run_evaluates_each_profile_stack_once_unchecked(monkeypatch, seeds):
    game = CountingEe(synth_channels(3, 2, 2, 4, pathloss_spread=1.0, seed=5))
    shapes = []
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(np.shape(a))
                        or real_eigvalsh(a))
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.relative(0.5),
                       max_iters=20, log_every=5)
    traces = run_batch(game, cfg, seeds)
    assert [t.iterations for t in traces] == [20] * len(seeds)
    n, dim, evaluations = game.n_players, game.domains[0].dim, 20 + 4  # epochs + log points
    # per evaluation: one unchecked covariance mapping of every player's blocks and one
    # receivers pass over every player
    everyone = ("received", tuple(range(n)))
    assert game.log.count(("covariances", False)) == game.log.count(everyone) == evaluations
    assert sorted(set(game.log)) == [("covariances", False), everyone]
    # the only eigvalsh left is each log point's lambda_max of the whole gradients
    assert shapes == [(len(seeds), dim, dim)] * (n * 4)


def test_delayed_run_evaluates_the_solver_actions_unchecked():
    # with delays each updating player's gradient is its own pass over a delayed profile;
    # every snapshot in it is a projection's, so no pass checks the covariance blocks
    game = CountingEe(synth_channels(3, 2, 2, 4, pathloss_spread=1.0, seed=5))
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.relative(0.5),
                       max_iters=300, stop_residual=0.0, log_every=25, seed=3)
    trace = run_async(game, cfg, AsyncSchedule((0.5, 0.7, 0.9), delay_max=4))
    assert trace.iterations == 300 and len(trace.records) == 12
    assert trace.updates_per_player == (158, 209, 267)
    assert [game.log.count(("received", (i,))) for i in range(3)] == [158, 209, 267]
    assert game.log.count(("covariances", True)) == 0
    assert game.log.count(("covariances", False)) == 634 + 12  # and one per log point
