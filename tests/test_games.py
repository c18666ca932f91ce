import numpy as np
import pytest

from mxl.families import (
    EeGame,
    MacGame,
    MetricLearningProblem,
    make_cluster_dataset,
    scalar_profile,
    synth_channels,
)
from mxl.games import (
    BilinearGame,
    LinearGame,
    ZeroGame,
    check_hessian_definiteness,
    check_monotonicity,
    check_variational_stability,
    finite_diff_gradient_check,
    hessian_quadratic_form,
    nash_residual,
)
from mxl.spectral import DomainError, Spectrahedron, hermitize
from mxl.verify import brute_force_ne

from helpers import concavity_violations


class OwnQuadraticGame(LinearGame):
    """Single player, u(X) = -tr(X^2)/2; gradient -X, Hessian -identity."""

    def __init__(self, dim=2):
        super().__init__([np.zeros((dim, dim))])

    def utility(self, i, actions):
        x = actions[0]
        return -0.5 * float(np.trace(x @ x).real)

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


def test_subclass_defining_payoff_gradient_rejected():
    with pytest.raises(TypeError, match="gradient_stack"):
        class Scalar(LinearGame):
            def payoff_gradient(self, i, actions):
                return np.zeros((1, 1), dtype=complex)


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
    assert report.hessian_max_quadform < 0


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
    assert "violations" in d and "worst_value" in d and "passed" in d


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
