import math

import numpy as np
import pytest

import mxl.games
from mxl.families import (
    EeGame,
    MacGame,
    MetricLearningProblem,
    make_cluster_dataset,
    scalar_profile,
    synth_channels,
)
from mxl.games import (
    VIOLATION_TOL,
    BilinearGame,
    GameModel,
    LinearGame,
    ZeroGame,
    check_hessian_definiteness,
    check_monotonicity,
    check_variational_stability,
    finite_diff_gradient_check,
    hessian_quadratic_form,
    nash_residual,
    sample_batches,
)
from mxl.spectral import DomainError, Spectrahedron, hermitize
from mxl.verify import brute_force_ne

from helpers import (
    concavity_violations,
    ref_check_hessian_definiteness,
    ref_check_variational_stability,
    ref_gradients,
    ref_hessian_quadratic_form,
    ref_nash_residual,
    ref_trace_inner,
    ref_utility,
)


class OwnQuadraticGame(LinearGame):
    """Single player, u(X) = -tr(X^2)/2; gradient -X, Hessian -identity."""

    def __init__(self, dim=2):
        super().__init__([np.zeros((dim, dim))])

    def utility_stack(self, i, actions):
        x = actions[0]
        return -0.5 * np.trace(x @ x, axis1=-2, axis2=-1).real

    def gradient_stack(self, i, actions):
        return -np.array(actions[0], dtype=complex)


STACK_GAMES = {
    "mac_quadratic": lambda: MacGame(3, "quadratic", b=1.0, c=2.5),
    "mac_log": lambda: MacGame(3, "log", a=0.8),
    "linear": lambda: LinearGame([[[1.0, 0.2j], [-0.2j, 0.8]], np.diag([0.5, -1.0, 2.0])],
                                 trace_bounds=[1.0, 2.0]),
    "bilinear": lambda: BilinearGame(threshold=0.3),
    "zero": lambda: ZeroGame([Spectrahedron(2, 1.0), Spectrahedron(3, 2.0)]),
    "ee_2x2x2": lambda: EeGame(synth_channels(2, 2, 2, 2, pathloss_spread=1.0, seed=9)),
    "ee_3x2x4": lambda: EeGame(synth_channels(3, 2, 2, 4, pathloss_spread=1.0, seed=5)),
    "metric": lambda: MetricLearningProblem(*make_cluster_dataset(3, 8, seed=2), batch_size=4),
}


@pytest.mark.parametrize("name", sorted(STACK_GAMES))
def test_gradient_stack_rows_equal_stacks_of_one(name):
    game = STACK_GAMES[name]()
    rng = np.random.default_rng(17)
    profiles = [game.sample_profile(rng) for _ in range(5)]
    stacks = [np.stack([p[j] for p in profiles]) for j in range(game.n_players)]
    for i, spec in enumerate(game.players):
        v = game.gradient_stack(i, stacks)
        assert v.shape == (5, spec.domain.dim, spec.domain.dim)
        for s, profile in enumerate(profiles):
            assert np.array_equal(v[s], game.payoff_gradient(i, profile))


@pytest.mark.parametrize("n_stack", [1, 5])
@pytest.mark.parametrize("name", sorted(STACK_GAMES))
def test_gradient_stacks_rows_equal_gradient_stack(name, n_stack):
    game = STACK_GAMES[name]()
    rng = np.random.default_rng(23)
    profiles = [game.sample_profile(rng) for _ in range(n_stack)]
    stacks = [np.stack([p[j] for p in profiles]) for j in range(game.n_players)]
    everyone = list(range(game.n_players))
    for players in (everyone, everyone[::-1], everyone[-1:], []):
        rows = game.gradient_stacks(stacks, players)
        assert len(rows) == len(players)
        for i, v in zip(players, rows):
            assert np.array_equal(v, game.gradient_stack(i, stacks))


EVALUATE_GAMES = {
    **{name: STACK_GAMES[name] for name in ("bilinear", "ee_2x2x2", "ee_3x2x4", "linear",
                                            "mac_quadratic", "metric")},
    "ee_1sub": lambda: EeGame(synth_channels(2, 2, 2, 1, pathloss_spread=1.0, seed=4)),
    "ee_8x4x16": lambda: EeGame(synth_channels(8, 4, 4, 16, pathloss_spread=1.0, seed=6)),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_stack", [1, 5])
@pytest.mark.parametrize("name", sorted(EVALUATE_GAMES))
def test_evaluate_stacks_rows_equal_gradient_stacks_and_utility_stack(name, n_stack):
    game = EVALUATE_GAMES[name]()
    # only EeGame shares one pass; the others keep the default hook
    overrides = type(game).evaluate_stacks is not GameModel.evaluate_stacks
    assert overrides == isinstance(game, EeGame)
    rng = np.random.default_rng(31)
    profiles = [game.sample_profile(rng) for _ in range(n_stack)]
    stacks = [np.stack([p[j] for p in profiles]) for j in range(game.n_players)]
    everyone = list(range(game.n_players))
    for players in (everyone, everyone[::-1], everyone[-1:], []):
        gradients, utilities = game.evaluate_stacks(stacks, players)
        assert len(gradients) == len(utilities) == len(players)
        stacked = game.gradient_stacks(stacks, players)
        for i, v, w, u in zip(players, gradients, stacked, utilities):
            assert same_bits(v, w) and same_bits(v, game.gradient_stack(i, stacks))
            assert u.shape == (n_stack,) and same_bits(u, game.utility_stack(i, stacks))


@pytest.mark.parametrize("name", sorted(EVALUATE_GAMES))
def test_unchecked_evaluation_of_solver_actions_equals_checked(name):
    # the solver's actions (initial projections and every epoch's) are exactly Hermitian and
    # feasible, so skipping the game's checks of them changes no bit
    from mxl.solver import NoiseModel, SeedNoise, StepSchedule, advance, initial_state

    game = EVALUATE_GAMES[name]()
    rng = np.random.default_rng(37)
    everyone = range(game.n_players)
    y0 = tuple(3.0 * d.sample(rng) for d in game.domains)
    for scores in (None, y0):
        state = initial_state(game, scores, seeds=3)
        noise = SeedNoise(game, NoiseModel.relative(0.5),
                          [np.random.default_rng(s) for s in range(3)], 6)
        profiles = [list(state.actions)]
        for _ in advance(game, state, StepSchedule.power_law(1.0, 0.5), noise, 6):
            profiles.append(list(state.actions))
        for actions in profiles:
            checked = game.evaluate_stacks(actions, everyone)
            unchecked = game.evaluate_stacks(actions, everyone, checked=False)
            for got, want in zip(unchecked, checked):
                assert all(same_bits(a, b) for a, b in zip(got, want))
            assert all(same_bits(a, b) for a, b in zip(
                game.gradient_stacks(actions, everyone, checked=False), checked[0]))


def test_subclass_defining_payoff_gradient_rejected():
    with pytest.raises(TypeError, match="gradient_stack"):
        class Scalar(LinearGame):
            def payoff_gradient(self, i, actions):
                return np.zeros((1, 1), dtype=complex)


def test_subclass_defining_utility_rejected():
    with pytest.raises(TypeError, match="utility_stack"):
        class Scalar(LinearGame):
            def utility(self, i, actions):
                return 0.0


@pytest.mark.parametrize("n_stack", [1, 5])
@pytest.mark.parametrize("name", sorted(STACK_GAMES))
def test_utility_stack_and_residual_rows_equal_per_profile_references(name, n_stack):
    game = STACK_GAMES[name]()
    rng = np.random.default_rng(29)
    profiles = [game.sample_profile(rng) for _ in range(n_stack)]
    stacks = [np.stack([p[j] for p in profiles]) for j in range(game.n_players)]
    residuals = nash_residual(game, stacks)
    assert residuals.shape == (n_stack,)
    for s, profile in enumerate(profiles):
        single = nash_residual(game, profile)
        assert type(single) is float
        assert single.hex() == float(residuals[s]).hex() == ref_nash_residual(game, profile).hex()
    for i in range(game.n_players):
        u = game.utility_stack(i, stacks)
        assert u.shape == (n_stack,)
        for s, profile in enumerate(profiles):
            single = game.utility(i, profile)
            assert type(single) is float
            assert single.hex() == float(u[s]).hex() == float(ref_utility(game, i, profile)).hex()


def test_nash_residual_of_a_stack_checks_every_row():
    game = MacGame(3)
    stacks = [np.stack(a) for a in zip(scalar_profile([0.2, 0.3, 0.4]),
                                       scalar_profile([0.5, 1.5, 0.1]))]
    with pytest.raises(DomainError, match="action of player 2 is not a member"):
        nash_residual(game, stacks)
    nan = NanGradients([Spectrahedron(1, 1.0)] * 2)
    stacks = [np.stack(a) for a in zip(scalar_profile([0.2, 0.3]), scalar_profile([0.5, 0.8]))]
    with pytest.raises(DomainError, match="non-finite gradient for player 2"):
        nash_residual(nan, stacks)
    with pytest.raises(DomainError, match="non-finite gradient for player 1"):
        nash_residual(nan, scalar_profile([0.9, 0.1]))


def test_unchecked_nash_residual_skips_only_the_membership_check(monkeypatch):
    from mxl.solver import SolverConfig, StepSchedule, run

    game = MacGame(3)
    rng = np.random.default_rng(4)
    stacks = [np.stack(a) for a in zip(*[game.sample_profile(rng) for _ in range(5)])]
    assert np.array_equal(nash_residual(game, stacks, checked=False), nash_residual(game, stacks))
    outside = [np.stack(a) for a in zip(scalar_profile([0.2, 0.3, 0.4]),
                                        scalar_profile([0.5, 1.5, 0.1]))]
    assert np.isfinite(nash_residual(game, outside, checked=False)).all()
    nan = NanGradients([Spectrahedron(1, 1.0)] * 2)
    with pytest.raises(DomainError, match="non-finite gradient for player 1"):
        nash_residual(nan, scalar_profile([0.9, 0.1]), checked=False)
    # the solver's log points read actions the projection just made: no membership check
    calls = []
    real_contains = Spectrahedron.contains
    monkeypatch.setattr(Spectrahedron, "contains",
                        lambda self, x: calls.append(1) or real_contains(self, x))
    trace = run(game, SolverConfig(StepSchedule.power_law(1.0, 0.5), max_iters=30, log_every=1))
    assert len(trace.records) == 30 and not calls
    nash_residual(game, stacks)
    assert len(calls) == game.n_players


def test_sample_profile_count_equals_per_profile_loop():
    # sample_batches' pairs of profile stacks, in order, equal a loop of sample_profile pairs,
    # and leave the Generator where the loop does; the second game takes one sample per batch
    for domains in ([Spectrahedron(1, 1.0), Spectrahedron(3, 2.0), Spectrahedron(4, 1.0, blocks=2)],
                    [Spectrahedron(3, 2.0), Spectrahedron(64, 1.0, blocks=16)]):
        game = ZeroGame(domains)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        batches = list(sample_batches(game, rng, 6, "xx"))
        ref = [(game.sample_profile(ref_rng), game.sample_profile(ref_rng)) for _ in range(6)]
        for k in range(2):
            for i in range(game.n_players):
                stack = np.concatenate([batch[k][i] for batch in batches])
                assert np.array_equal(stack, np.stack([pair[k][i] for pair in ref]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_player_ids_contiguous():
    game = MacGame(3)
    assert [p.pid for p in game.players] == [1, 2, 3]


def test_nash_residual_linear_extremes():
    game = LinearGame([np.diag([1.0, -1.0])])
    assert nash_residual(game, (np.diag([1.0, 0.0]).astype(complex),)) == pytest.approx(0.0, abs=1e-12)
    assert nash_residual(game, (np.diag([0.0, 1.0]).astype(complex),)) == pytest.approx(2.0, abs=1e-12)


def test_nash_residual_at_mac_equilibrium():
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    oracle = brute_force_ne(game, tol=1e-9)
    assert nash_residual(game, oracle) < 1e-8


def test_nash_residual_rejects_infeasible():
    game = MacGame(2)
    with pytest.raises(DomainError):
        nash_residual(game, scalar_profile([1.5, 0.2]))


def test_nash_residual_nonnegative_and_scale_invariant_zero_set(rng):
    class Scaled(MacGame):
        def gradient_stack(self, i, actions):
            return 7.0 * super().gradient_stack(i, actions)

    base = MacGame(2, "quadratic", b=1.0, c=2.0)
    scaled = Scaled(2, "quadratic", b=1.0, c=2.0)
    ne = scalar_profile([1 / 3, 1 / 3])
    assert nash_residual(base, ne) < 1e-9
    assert nash_residual(scaled, ne) < 1e-9
    for _ in range(20):
        x = base.sample_profile(rng)
        assert nash_residual(base, x) >= -1e-9


def test_monotonicity_quadratic_mac():
    report = check_monotonicity(MacGame(2, "quadratic", b=1.0, c=2.0), 10_000, seed=3)
    assert report.violations == 0
    assert report.worst_value <= 1e-9
    assert report.passed()


def test_monotonicity_zero_game():
    report = check_monotonicity(ZeroGame([Spectrahedron(2, 1.0), Spectrahedron(2, 1.0)]), 500, seed=3)
    assert report.violations == 0
    assert report.worst_value == pytest.approx(0.0, abs=1e-15)


def test_monotonicity_anti_monotone_toy():
    # the coupling expression is 2(dx1)(dx2): positive for about half of random pairs
    report = check_monotonicity(BilinearGame(threshold=0.0), 10_000, seed=3)
    assert 0.4 <= report.violations / report.samples <= 0.6
    assert report.worst_value > 0.1


def test_variational_stability_at_mac_equilibrium():
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    report = check_variational_stability(game, scalar_profile([1 / 3, 1 / 3]), 0.2, 3000, seed=5)
    assert report.violations == 0


def test_variational_stability_flags_non_equilibrium():
    game = LinearGame([np.diag([1.0, 0.0])])
    off = (np.diag([0.2, 0.5]).astype(complex),)
    report = check_variational_stability(game, off, 0.3, 500, seed=5)
    assert report.violations > 0


def test_variational_stability_zero_radius_vacuous():
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    report = check_variational_stability(game, scalar_profile([0.4, 0.4]), 0.0, 100, seed=5)
    assert report.violations == 0


def test_variational_stability_negative_radius_rejected():
    # (0.9, 0.9) is no equilibrium: radius 0.3 finds violations, radius -0.3 would sample
    # only X* and pass
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    off = scalar_profile([0.9, 0.9])
    assert check_variational_stability(game, off, 0.3, 500, seed=5).violations > 0
    with pytest.raises(ValueError, match="^radius must be >= 0$"):
        check_variational_stability(game, off, -0.3, 500, seed=5)


def test_hessian_quadratic_form_mac_constant():
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    val = hessian_quadratic_form(game, scalar_profile([0.4, 0.5]), scalar_profile([1.0, 1.0]), eps=1e-5)
    assert val == pytest.approx(-6.0, abs=1e-6)


def test_hessian_quadratic_form_zero_game(rng):
    doms = [Spectrahedron(2, 1.0)] * 2
    game = ZeroGame(doms)
    x = tuple(0.5 * d.sample(rng) for d in doms)
    z = tuple(d.sample_direction(rng) for d in doms)
    assert hessian_quadratic_form(game, x, z) == pytest.approx(0.0, abs=1e-12)


def test_hessian_quadratic_form_identity_curvature(rng):
    game = OwnQuadraticGame(2)
    x = (0.5 * game.domains[0].sample(rng),)
    z = (game.domains[0].sample_direction(rng),)
    ref = -float(np.trace(z[0] @ z[0]).real)
    assert hessian_quadratic_form(game, x, z, eps=1e-5) == pytest.approx(ref, abs=1e-6)


def test_hessian_quadratic_form_even_in_direction(rng):
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    x = scalar_profile([0.4, 0.6])
    z = scalar_profile([0.7, -0.4])
    neg = tuple(-zi for zi in z)
    a = hessian_quadratic_form(game, x, z)
    b = hessian_quadratic_form(game, x, neg)
    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_hessian_quadratic_form_eps_shrink_then_error():
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    edge = scalar_profile([1.0, 1.0])
    z = scalar_profile([1.0, 1.0])
    # x + eps z leaves [0,1] for every eps; the shrink loop must give up
    with pytest.raises(DomainError):
        hessian_quadratic_form(game, edge, z, eps=1e-4)


def test_hessian_scan_negative_for_mac():
    report = check_hessian_definiteness(MacGame(2, "quadratic", b=1.0, c=2.0), 200, seed=9)
    assert report.violations == 0
    assert report.worst_value < 0


def test_finite_diff_gradient_mac(rng):
    game = MacGame(3, "quadratic", b=1.0, c=2.5)
    x = scalar_profile([0.3, 0.4, 0.5])
    dirs = [np.array([[1.0]], dtype=complex), np.array([[-0.7]], dtype=complex)]
    assert finite_diff_gradient_check(game, 1, x, dirs, eps=1e-6) < 1e-9


def test_gradients_hermitian(rng):
    game = MacGame(2, "log", a=0.8)
    x = game.sample_profile(rng)
    for i in range(2):
        v = game.payoff_gradient(i, x)
        assert np.allclose(v, hermitize(v))


def test_concavity_midpoint_mac(rng):
    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    assert concavity_violations(game, 0, 200, seed=1) == 0


def test_stability_report_serializable():
    report = check_monotonicity(MacGame(2), 50, seed=1)
    d = report.to_dict()
    assert d["check"] == "monotonicity"
    assert d["samples"] == 50
    assert d["rng_seed"] == 1
    assert set(d) == {"check", "samples", "rng_seed", "violations", "worst_value", "passed"}
    assert d["passed"] is True and d["worst_value"] == report.worst_value


def ref_check_monotonicity(game, samples, seed):
    """The per-sample loop that the batched check replaced: (worst value, violations)."""
    rng = np.random.default_rng(seed)
    worst, violations = float("-inf"), 0
    for _ in range(samples):
        xa = game.sample_profile(rng)
        xb = game.sample_profile(rng)
        va = ref_gradients(game, xa)
        vb = ref_gradients(game, xb)
        val = sum(ref_trace_inner(xb[i] - xa[i], vb[i] - va[i]) for i in range(game.n_players))
        worst = max(worst, val)
        if val > VIOLATION_TOL:
            violations += 1
    return worst, violations


class NanGradients(GameModel):
    """Exact gradients that are NaN wherever a player's level exceeds 0.7."""

    def utility_stack(self, i, actions):
        return np.zeros(len(actions[i]))

    def gradient_stack(self, i, actions):
        x = actions[i].real
        return np.where(x > 0.7, math.nan, 0.5 - x).astype(complex)


def _ee(users, antennas, subcarriers):
    channels = synth_channels(users, antennas, antennas, subcarriers, pathloss_spread=1.0, seed=9)
    return EeGame(channels, pmax=2.0, pc=0.1)


# name: (game, samples); batches of 37 samples are forced as well
MONOTONICITY_CASES = {
    "mac3": (lambda: MacGame(3, "quadratic", b=1.0, c=2.0), 300),
    "bilinear": (lambda: BilinearGame(0.0), 300),
    "nan_gradients": (lambda: NanGradients([Spectrahedron(1, 1.0)] * 2), 300),
    "ee_2x2x2": (lambda: _ee(2, 2, 2), 300),
    "ee_3x2x4": (lambda: _ee(3, 2, 4), 100),
    "ee_8x4x16": (lambda: _ee(8, 4, 16), 2),
    "metric": (lambda: MetricLearningProblem(*make_cluster_dataset(3, 8, seed=2), batch_size=4),
               300),
}


@pytest.mark.parametrize("batch", [None, 37])
@pytest.mark.parametrize("name", sorted(MONOTONICITY_CASES))
def test_monotonicity_equals_per_sample_loop(name, batch, monkeypatch):
    make, samples = MONOTONICITY_CASES[name]
    game = make()
    if batch is not None:
        floats = sum(2 * p.domain.dim ** 2 for p in game.players)
        monkeypatch.setattr(mxl.games, "CHUNK_FLOATS", batch * 2 * floats)
    report = check_monotonicity(game, samples, seed=7)
    worst, violations = ref_check_monotonicity(game, samples, 7)
    assert repr(report.worst_value) == repr(worst)
    assert report.violations == violations
    if name == "bilinear":
        assert violations > 0


def _interior(game, rng):
    """A random profile pulled halfway toward the domain centers."""
    return tuple(0.5 * x + 0.5 * d.center() for x, d in zip(game.sample_profile(rng), game.domains))


# name: game of the batched stability scans' reference comparison
SCAN_GAMES = {
    "mac_quadratic": lambda: MacGame(2, "quadratic", b=1.0, c=2.0),
    "mac3_log": lambda: MacGame(3, "log", a=0.8),
    "bilinear": lambda: BilinearGame(0.3),
    "linear_3_2": lambda: LinearGame([np.diag([1.0, -0.5, 0.2]), [[0.3, 0.1j], [-0.1j, -0.2]]]),
    "ee_2x2x2": lambda: _ee(2, 2, 2),
    "ee_2x2x1": lambda: _ee(2, 2, 1),
    "ee_3x2x4": lambda: _ee(3, 2, 4),
    "metric": lambda: MetricLearningProblem(*make_cluster_dataset(3, 8, seed=2), batch_size=4),
}


@pytest.mark.parametrize("name", sorted(SCAN_GAMES))
def test_stability_scans_equal_per_sample_loops(name, monkeypatch):
    # the batched Hessian and variational scans report exactly what the per-sample loops
    # did; 23 samples span batches of 5 (Hessian) and 10 (variational) samples
    game = SCAN_GAMES[name]()
    xstar = _interior(game, np.random.default_rng(1))
    floats = sum(2 * d.dim ** 2 for d in game.domains)
    for count, chunk in ((1, None), (7, None), (23, 10 * floats)):
        if chunk is not None:
            monkeypatch.setattr(mxl.games, "CHUNK_FLOATS", chunk)
        report = check_hessian_definiteness(game, count, seed=count)
        ref = ref_check_hessian_definiteness(game, count, count)
        assert repr(report.to_dict()) == repr(ref.to_dict())
        for radius in (0.0, 0.2, 0.5):
            report = check_variational_stability(game, xstar, radius, count, seed=count + 1)
            ref = ref_check_variational_stability(game, xstar, radius, count, count + 1)
            assert repr(report.to_dict()) == repr(ref.to_dict())


@pytest.mark.parametrize("make", [SCAN_GAMES["mac3_log"], SCAN_GAMES["ee_3x2x4"]],
                         ids=["mac3_log", "ee_3x2x4"])
def test_stacked_hessian_quadratic_form_rows_equal_one_profile_calls(make):
    game = make()
    rng = np.random.default_rng(12)
    rows = [(_interior(game, rng), tuple(d.sample_direction(rng) for d in game.domains))
            for _ in range(5)]
    x, z = ([np.stack([r[k][i] for r in rows]) for i in range(game.n_players)] for k in (0, 1))
    values = hessian_quadratic_form(game, x, z)
    assert values.shape == (5,)
    assert [repr(float(q)) for q in values] == [
        repr(ref_hessian_quadratic_form(game, xr, zr, 1e-5)) for xr, zr in rows]
    assert [float(q) for q in values] == [hessian_quadratic_form(game, xr, zr) for xr, zr in rows]


def test_stacked_hessian_quadratic_form_shrinks_eps_for_the_whole_stack():
    # row 1 leaves the domain at eps 1e-4 but not at 1e-5, so both rows use 1e-5
    game = MacGame(2, "log", a=0.8)
    rows = [(scalar_profile([0.4, 0.5]), scalar_profile([0.7, -0.4])),
            (scalar_profile([1.0 - 5e-5, 0.5]), scalar_profile([1.0, 1.0]))]
    x, z = ([np.stack([r[k][i] for r in rows]) for i in range(2)] for k in (0, 1))
    values = hessian_quadratic_form(game, x, z, eps=1e-4)
    assert [float(q) for q in values] == [hessian_quadratic_form(game, xr, zr, eps=1e-5)
                                          for xr, zr in rows]
    assert float(values[0]) != hessian_quadratic_form(game, *rows[0], eps=1e-4)
    edge = [np.stack([a, b]) for a, b in zip(scalar_profile([0.4, 1.0]), scalar_profile([1.0, 1.0]))]
    with pytest.raises(DomainError):
        hessian_quadratic_form(game, edge, [np.ones((2, 1, 1))] * 2, eps=1e-4)


def test_cross_oracle_agreement_monotone_games():
    # monotone instances: best response and the learning loop find the same point
    from mxl.solver import NoiseModel, SolverConfig, StepSchedule, run
    from mxl.spectral import nuclear_norm

    game = MacGame(2, "quadratic", b=1.0, c=2.0)
    assert check_monotonicity(game, 10_000, seed=2).violations == 0
    oracle = brute_force_ne(game, tol=1e-9)
    cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(),
                       max_iters=10_000, stop_residual=1e-8, seed=1, log_every=100)
    trace = run(game, cfg)
    dist = sum(nuclear_norm(a - b) for a, b in zip(trace.final_actions, oracle))
    assert dist < 1e-3
