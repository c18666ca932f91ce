import math

import numpy as np
import pytest

import mxl.games
import mxl.verify
from helpers import (
    ref_best_response_pg,
    ref_estimate_strong_stability,
    ref_max_sampled_gradient_norm,
    symmetric_equilibrium,
)
from mxl.families import (
    EeGame,
    MacGame,
    MetricLearningProblem,
    make_cluster_dataset,
    scalar_profile,
    synth_channels,
    uniform_baseline,
)
from mxl.games import (
    BilinearGame,
    GameModel,
    LinearGame,
    ZeroGame,
    check_hessian_definiteness,
    check_variational_stability,
    nash_residual,
)
from mxl.solver import (
    NoiseModel,
    NonFiniteGradientError,
    SolverConfig,
    StepSchedule,
    initial_state,
    inject_noise,
)
from mxl.spectral import Spectrahedron, dual_norm, hermitize, mirror_map
from mxl.verify import (
    ConvergenceError,
    _fit_table,
    _profile_metric,
    brute_force_ne,
    estimate_strong_stability,
    max_sampled_gradient_norm,
    rate_experiment,
)


def test_brute_force_mac_matches_closed_form():
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    oracle = brute_force_ne(game, tol=1e-8)
    for a in oracle:
        assert float(a[0, 0].real) == pytest.approx(1 / 3, abs=1e-6)


@pytest.mark.parametrize("make_game", [
    lambda: MacGame(2, "quadratic", b=1.0, c=2.0),
    lambda: EeGame(synth_channels(2, 2, 2, 2, seed=8), pmax=2.0, pc=1.0),
    lambda: EeGame(synth_channels(3, 2, 2, 4, pathloss_spread=1.0, seed=8), pmax=2.0, pc=1.0),
], ids=["mac", "ee_2x2x2", "ee_3x2x4"])
def test_brute_force_ne_one_evaluation_per_candidate(make_game, monkeypatch):
    # each line-search candidate's value and gradient from one evaluate_stacks call give the
    # oracle of a utility call per candidate and a payoff_gradient call per accepted step
    game = make_game()
    oracle = brute_force_ne(game, tol=1e-6)
    monkeypatch.setattr(mxl.verify, "_best_response_pg", ref_best_response_pg)
    ref = brute_force_ne(game, tol=1e-6)
    assert all(a.dtype == r.dtype and np.array_equal(a, r) for a, r in zip(oracle, ref))


def test_brute_force_linear_top_eigenvector():
    from mxl.games import LinearGame

    game = LinearGame([np.diag([2.0, 1.0])])
    oracle = brute_force_ne(game, tol=1e-8)
    assert np.allclose(oracle[0], np.diag([1.0, 0.0]), atol=1e-7)


def test_brute_force_seeded_ee_game():
    game = EeGame(synth_channels(2, 2, 2, 2, pathloss_spread=1.0, seed=9), pmax=2.0, pc=0.1)
    oracle = brute_force_ne(game, tol=1e-6)
    assert nash_residual(game, oracle) < 1e-6


def test_brute_force_reports_cycling():
    # anti-coordination via the positive coupling toy: best responses slam
    # between the corners and never settle
    game = BilinearGame(threshold=0.5)

    class Stubborn(BilinearGame):
        def utility_stack(self, i, actions):
            sign = 1.0 if i == 0 else -1.0
            return sign * actions[i][:, 0, 0].real * (actions[1 - i][:, 0, 0].real - 0.5)

        def gradient_stack(self, i, actions):
            sign = 1.0 if i == 0 else -1.0
            return (sign * (actions[1 - i].real - 0.5)).astype(complex)

    with pytest.raises(ConvergenceError):
        brute_force_ne(Stubborn(), tol=1e-10, max_sweeps=40)


class TestStrongStability:
    def test_mac_positive_margin(self):
        game = MacGame(2, "quadratic", b=1.0, c=2.0)
        est = estimate_strong_stability(game, scalar_profile([1 / 3, 1 / 3]), 10_000, seed=11)
        assert est.b_hat > 0
        assert est.violation_count == 0
        assert est.samples == 10_000

    def test_zero_game_zero_margin(self):
        doms = [Spectrahedron(1, 1.0), Spectrahedron(1, 1.0)]
        game = ZeroGame(doms)
        xstar = scalar_profile([0.3, 0.3])
        est = estimate_strong_stability(game, xstar, 500, seed=1)
        assert est.b_hat == 0.0

    def test_anti_monotone_violations(self):
        game = BilinearGame(threshold=0.0)
        xstar = scalar_profile([0.5, 0.5])
        est = estimate_strong_stability(game, xstar, 2000, seed=1)
        assert est.violation_count > 0

    def test_serializable(self):
        game = MacGame(2, "quadratic", b=1.0, c=2.0)
        est = estimate_strong_stability(game, scalar_profile([1 / 3, 1 / 3]), 100, seed=4)
        d = est.to_dict()
        assert set(d) == {"b_hat", "samples", "violation_count", "rng_seed"}


class TestRateExperiment:
    def test_checkpoint_validation(self):
        game = MacGame(2, "quadratic", b=1.0, c=2.0)
        xstar = scalar_profile([1 / 3, 1 / 3])
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), max_iters=100)
        with pytest.raises(ValueError):
            rate_experiment(game, xstar, cfg, 4, [10, 20, 30])  # too few
        with pytest.raises(ValueError):
            rate_experiment(game, xstar, cfg, 4, [10, 20, 40, 80, 160])  # < 2 decades
        with pytest.raises(ValueError):
            rate_experiment(game, xstar, cfg, 1, [10, 100, 500, 1000])  # too few seeds
        with pytest.raises(ValueError, match="strictly increasing"):
            rate_experiment(game, xstar, cfg, 4, [10, 10, 50, 1000])  # duplicate
        with pytest.raises(ValueError, match=">= 1"):
            rate_experiment(game, xstar, cfg, 4, [0, 10, 50, 1000])  # step 0 never happens

    def test_noiseless_metric_decreases(self):
        game = MacGame(2, "quadratic", b=1.0, c=2.0)
        xstar = scalar_profile([1 / 3, 1 / 3])
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(), seed=3)
        fit = rate_experiment(game, xstar, cfg, 2, [10, 50, 200, 1000], metric="kl")
        assert list(fit.values) == sorted(fit.values, reverse=True)
        assert fit.slope < 0

    def test_bound_evaluation_and_flag(self):
        game = MacGame(2, "quadratic", b=1.0, c=2.0)
        xstar = scalar_profile([1 / 3, 1 / 3])
        cfg = SolverConfig(StepSchedule.optimized(0.5), NoiseModel.none(), seed=3)
        fit = rate_experiment(game, xstar, cfg, 2, [10, 50, 200, 1000],
                              b_hat=0.5, v_bound=1.0)
        # gamma = 4, gamma*B = 2 > 1: bound = 16/(1*n)
        assert fit.gamma_b == pytest.approx(2.0)
        assert not fit.gamma_b_flag
        assert fit.bound[0] == pytest.approx(16.0 / 10.0)
        assert fit.to_dict()["gamma_b_flag"] is False and fit.to_dict()["bound"] == fit.bound
        flagged = rate_experiment(game, xstar, cfg, 2, [10, 50, 200, 1000],
                                  b_hat=0.2, v_bound=1.0)
        assert flagged.gamma_b_flag and flagged.bound is None
        # a raised flag is reported with its gamma*B; there is no bound to report
        d = flagged.to_dict()
        assert d["gamma_b_flag"] is True and d["gamma_b"] == flagged.gamma_b == 0.8
        assert "bound" not in d
        plain = rate_experiment(game, xstar, cfg, 2, [10, 50, 200, 1000]).to_dict()
        assert not {"bound", "gamma_b", "gamma_b_flag"} & set(plain)

    def test_deterministic_given_seed(self):
        game = MacGame(2, "quadratic", b=1.0, c=2.0)
        xstar = scalar_profile([1 / 3, 1 / 3])
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.relative(0.5), seed=5)
        a = rate_experiment(game, xstar, cfg, 3, [10, 50, 200, 1000])
        b = rate_experiment(game, xstar, cfg, 3, [10, 50, 200, 1000])
        assert a.values == b.values and a.slope == b.slope


def sequential_step(game, scores, actions, gamma, n, noise, rng):
    """One synchronous update of a single trajectory, in the solver's order of draws."""
    new_scores = []
    for i, spec in enumerate(game.players):
        v = game.stochastic_gradient(i, actions, rng)
        if not np.all(np.isfinite(v)):
            raise NonFiniteGradientError(i, n)
        vhat = hermitize(inject_noise(v, noise, rng, spec.domain))
        new_scores.append(scores[i] + gamma * vhat)
    return new_scores, [mirror_map(y, p.domain) for y, p in zip(new_scores, game.players)]


def sequential_rate(game, xstar, cfg, seeds, checkpoints, metric):
    """Reference: each seed run alone from initial_state on its own Generator."""
    table = np.zeros((seeds, len(checkpoints)))
    for s, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(seeds)):
        rng = np.random.default_rng(child)
        state = initial_state(game, cfg.y0)
        scores = [p.domain.block_diagonal(y[0]) for p, y in zip(game.players, state.scores)]
        actions = [x[0] for x in state.actions]
        for n in range(1, checkpoints[-1] + 1):
            scores, actions = sequential_step(
                game, scores, actions, cfg.schedule.at(n), n, cfg.noise, rng)
            if n in checkpoints:
                table[s, checkpoints.index(n)] = _profile_metric(game, xstar, actions, metric)
    means, stderrs, slope, _ = _fit_table(table, checkpoints)
    return tuple(float(v) for v in means), tuple(float(v) for v in stderrs), slope


class Stubborn(BilinearGame):
    """Redefines the gradient formula: BilinearGame's must apply neither to its stacks nor
    to the stacks of one of the per-seed loop."""

    def gradient_stack(self, i, actions):
        return ((1.0 if i == 0 else -1.0) * (actions[1 - i].real - 0.5)).astype(complex)


def _mac3():
    game = MacGame(3, "quadratic", b=1.0, c=2.0)
    return game, scalar_profile([symmetric_equilibrium(game)] * 3)


def _linear2():
    payoff = np.array([[1.0, 0.2j], [-0.2j, 0.8]])
    top = np.linalg.eigh(payoff)[1][:, -1]
    return LinearGame([payoff]), (hermitize(np.outer(top, top.conj())),)


def _ee():
    game = EeGame(synth_channels(2, 2, 2, 2, pathloss_spread=1.0, seed=9), pmax=2.0, pc=0.1)
    return game, uniform_baseline(game)


def _metric():
    points, labels = make_cluster_dataset(3, 8, seed=2)
    game = MetricLearningProblem(points, labels, batch_size=4)
    return game, (game.players[0].domain.center(),)


LOGIT_085 = math.log(0.85 / 0.15)
LONG, SHORT = (10, 30, 100, 300, 1000), (1, 3, 10, 30, 100)
# name: (game and reference point, noise, rate_experiment keywords, y0, checkpoints).
# MAC, linear and bilinear games and the Stubborn subclass take their array
# formulas; EE and metric learning loop their per-profile formula inside their
# own gradient_stack. The metric minibatch oracle draws, so it is called seed by
# seed; it and pareto noise make the noise per seed too.
CASES = {
    "mac_gaussian": (_mac3, NoiseModel.gaussian_hermitian(0.25), {}, None, LONG),
    "linear_kl_bound": (_linear2, NoiseModel.gaussian_hermitian(0.3),
                        {"metric": "kl", "b_hat": 0.5, "v_bound": 3.0}, None, LONG),
    "mac_relative_raw": (_mac3, NoiseModel.relative(0.5, hermitian=False), {}, None, LONG),
    "bilinear_y0": (lambda: (BilinearGame(0.5), scalar_profile([1.0, 1.0])),
                    NoiseModel.gaussian_hermitian(0.1), {}, scalar_profile([LOGIT_085] * 2),
                    LONG),
    "stubborn_subclass": (lambda: (Stubborn(), scalar_profile([0.5, 0.5])),
                          NoiseModel.gaussian_hermitian(0.1), {}, None, LONG),
    "mac_pareto": (_mac3, NoiseModel.pareto_tail(1.5, 0.1), {}, None, LONG),
    "ee_relative_blocks": (_ee, NoiseModel.relative(0.5), {}, None, SHORT),
    "ee_raw_blocks": (_ee, NoiseModel.gaussian_hermitian(0.2, hermitian=False), {}, None, SHORT),
    "metric_minibatch": (_metric, NoiseModel.gaussian_hermitian(0.1), {"metric": "kl"}, None,
                         SHORT),
}


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical_to_per_seed_loop(self, name):
        make, noise, kwargs, y0, checkpoints = CASES[name]
        game, xstar = make()
        cfg = SolverConfig(StepSchedule.optimized(0.5), noise, seed=21, y0=y0)
        fit = rate_experiment(game, xstar, cfg, 3, checkpoints, **kwargs)
        values, stderrs, slope = sequential_rate(
            game, xstar, cfg, 3, list(checkpoints), kwargs.get("metric", "nuclear_distance"))
        assert fit.values == values
        assert fit.stderrs == stderrs
        assert fit.slope == slope
        if name == "linear_kl_bound":
            assert fit.bound is not None and fit.gamma_b == 2.0

    def test_non_finite_gradient_same_player_and_step(self):
        class Blowup(GameModel):
            def utility_stack(self, i, actions):
                return np.zeros(len(actions[i]))

            def gradient_stack(self, i, actions):
                x = actions[i].real
                return np.where((i == 1) & (x > 0.9), math.nan, 1.0).astype(complex)

        game = Blowup([Spectrahedron(1, 1.0), Spectrahedron(1, 1.0)])
        xstar = scalar_profile([1.0, 1.0])
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(), seed=1)
        with pytest.raises(NonFiniteGradientError) as seq:
            sequential_rate(game, xstar, cfg, 3, [1, 10, 100, 1000], "nuclear_distance")
        with pytest.raises(NonFiniteGradientError) as batched:
            rate_experiment(game, xstar, cfg, 3, [1, 10, 100, 1000])
        assert seq.value.player == batched.value.player == 1
        assert batched.value.iteration == seq.value.iteration > 1


class NanGradients(GameModel):
    """Gradients 0.3 - x_i (a positive margin at x* = 0.3) that are NaN wherever a
    player's level exceeds 0.7."""

    def utility_stack(self, i, actions):
        return np.zeros(len(actions[i]))

    def gradient_stack(self, i, actions):
        x = actions[i].real
        return np.where(x > 0.7, math.nan, 0.3 - x).astype(complex)


def _ee_large():
    game = EeGame(synth_channels(8, 4, 4, 16, pathloss_spread=1.0, seed=9), pmax=2.0, pc=0.1)
    return game, uniform_baseline(game)


# name: (game and reference point, samples); batches of 37 samples are forced as well
STABILITY_CASES = {
    "mac": (lambda: (MacGame(2, "quadratic", b=1.0, c=2.0), scalar_profile([1 / 3, 1 / 3])),
            2000),
    "bilinear_violations": (lambda: (BilinearGame(0.0), scalar_profile([0.5, 0.5])), 500),
    "zero_game": (lambda: (ZeroGame([Spectrahedron(1, 1.0)] * 2), scalar_profile([0.3, 0.3])),
                  100),
    "nan_gradients": (lambda: (NanGradients([Spectrahedron(1, 1.0)] * 2),
                               scalar_profile([0.3, 0.3])), 300),
    "ee_2x2x2": (_ee, 1100),
    "ee_8x4x16": (_ee_large, 3),
    "metric": (_metric, 2000),
}


@pytest.mark.parametrize("batch", [None, 37])
@pytest.mark.parametrize("name", sorted(STABILITY_CASES))
def test_strong_stability_equals_per_sample_loop(name, batch, monkeypatch):
    make, samples = STABILITY_CASES[name]
    game, xstar = make()
    if batch is not None:
        floats = sum(2 * p.domain.dim ** 2 for p in game.players)
        monkeypatch.setattr(mxl.games, "CHUNK_FLOATS", batch * floats)
    est = estimate_strong_stability(game, xstar, samples, seed=13)
    b_hat, violations = ref_estimate_strong_stability(game, xstar, samples, 13)
    assert repr(est.b_hat) == repr(b_hat)  # the sign of a zero too
    assert est.violation_count == violations
    if name == "bilinear_violations":
        assert violations > 0
    if name == "nan_gradients":
        assert b_hat > 0


def test_max_sampled_gradient_norm():
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(), seed=1)
    v = max_sampled_gradient_norm(game, cfg, 200, seed=2)
    # |V_i| = |1 - 2 x_i - x_j| <= 2 on the square, noiseless
    assert 0.5 < v <= 2.0


def test_max_sampled_gradient_norm_uses_the_drawing_oracle():
    # metric learning's minibatch oracle draws from the probe's generator: the bound
    # is the replay of sample_profile, stochastic_gradient and the noise, in that order
    pts, labels = make_cluster_dataset(5, 40, n_classes=2, spread=0.6, seed=3)
    game = MetricLearningProblem(pts, labels, margin=0.2, trace_cap=2.5, batch_size=16)
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(), seed=1)
    rng = np.random.default_rng(0)
    expected = 0.0
    for _ in range(500):
        x = game.sample_profile(rng)
        v = inject_noise(game.stochastic_gradient(0, x, rng), cfg.noise, rng,
                         game.players[0].domain)
        expected = max(expected, dual_norm(hermitize(v)))
    assert max_sampled_gradient_norm(game, cfg, 500, seed=0) == expected


BOUND_GAMES = {
    "mac2_quadratic": lambda: MacGame(2, "quadratic", b=1.0, c=2.0),
    "mac3_log": lambda: MacGame(3, "log", a=1.0),
    "ee_2x2x2": lambda: _ee()[0],
    "ee_3x2x4": lambda: EeGame(synth_channels(3, 2, 2, 4, pathloss_spread=1.0, seed=5)),
}
BOUND_NOISES = {
    "gaussian": NoiseModel.gaussian_hermitian(0.3),
    "relative": NoiseModel.relative(0.5),
    "raw_gaussian": NoiseModel.gaussian_hermitian(0.3, hermitian=False),
    "none": NoiseModel.none(),
    "pareto": NoiseModel.pareto_tail(1.5, 0.2),
}


def _bound_batches(monkeypatch):
    """The batch sizes `max_sampled_gradient_norm` draws through `sample_batches`."""
    sizes = []

    def spy(*args):
        for batch in mxl.games.sample_batches(*args):
            sizes.append(len(batch[0][0]))
            yield batch

    monkeypatch.setattr(mxl.verify, "sample_batches", spy)
    return sizes


@pytest.mark.parametrize("noise", ["gaussian", "relative", "raw_gaussian"])
@pytest.mark.parametrize("name", sorted(BOUND_GAMES))
def test_gradient_bound_equals_per_probe_loop(name, noise, monkeypatch):
    game = BOUND_GAMES[name]()
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), BOUND_NOISES[noise], seed=1)
    sizes = _bound_batches(monkeypatch)
    bound = max_sampled_gradient_norm(game, cfg, 500, seed=12)
    assert repr(bound) == repr(ref_max_sampled_gradient_norm(game, cfg, 500, 12))
    assert sum(sizes) == 500  # the batched path


@pytest.mark.parametrize("probes, batch", [(100, 37), (1, None)], ids=["100_by_37", "one"])
@pytest.mark.parametrize("noise", ["none", "relative", "pareto"])
@pytest.mark.parametrize("name", ["mac3_log", "ee_2x2x2"])
def test_gradient_bound_batches_and_fallback_equal_per_probe_loop(name, noise, probes, batch,
                                                                   monkeypatch):
    # batches of 37 probes (74 with no noise normals) leave a short last batch; pareto
    # noise interleaves its draws with the probes', so it keeps the per-probe loop
    game = BOUND_GAMES[name]()
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), BOUND_NOISES[noise], seed=1)
    if batch is not None:
        floats = 2 * sum(2 * p.domain.dim ** 2 for p in game.players)
        monkeypatch.setattr(mxl.games, "CHUNK_FLOATS", batch * floats)
    sizes = _bound_batches(monkeypatch)
    bound = max_sampled_gradient_norm(game, cfg, probes, seed=7)
    assert repr(bound) == repr(ref_max_sampled_gradient_norm(game, cfg, probes, 7))
    if noise == "pareto":
        assert sizes == []
    elif batch is None:
        assert sizes == [1]
    else:
        assert sum(sizes) == 100 and len(set(sizes)) == 2


def test_zero_probes_or_samples_rejected():
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.relative(0.5), seed=1)
    with pytest.raises(ValueError, match="^probes must be >= 1$"):
        max_sampled_gradient_norm(game, cfg, 0)
    xstar = scalar_profile([1 / 3, 1 / 3])
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        estimate_strong_stability(game, xstar, 0)
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        check_variational_stability(game, xstar, 0.2, 0)
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        check_hessian_definiteness(game, 0)
