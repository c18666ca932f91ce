import math

import numpy as np
import pytest

from mxl.families import (
    ChannelSet,
    EeGame,
    MacGame,
    MetricLearningProblem,
    make_cluster_dataset,
    metric_gradient,
    scalar_profile,
    similarity_triples,
    smooth_hinge,
    smooth_hinge_slope,
    synth_channels,
    transform_q_to_x,
    transform_x_to_q,
    uniform_baseline,
)
from mxl.games import finite_diff_gradient_check
from mxl.solver import NoiseModel, SolverConfig, StepSchedule, run
from mxl.spectral import DomainError, Spectrahedron, hermitize, mirror_map
from mxl.verify import brute_force_ne

from helpers import (
    block_slices,
    concavity_violations,
    contention,
    full_objective,
    metric_objective,
    ref_received,
    ref_utility,
    ref_x_to_q,
    symmetric_equilibrium,
)


class TestMacGame:
    def test_contention_two_players(self):
        game = MacGame(2)
        x = scalar_profile([0.2, 0.7])
        assert contention(game, 0, x) == pytest.approx(0.7)
        assert contention(game, 1, x) == pytest.approx(0.2)

    def test_no_contention_gradient_is_base_slope(self):
        game = MacGame(3, "quadratic", b=1.0, c=2.0)
        x = scalar_profile([0.4, 0.0, 0.0])
        v = game.payoff_gradient(0, x)
        assert float(v[0, 0].real) == pytest.approx(1.0 - 2.0 * 0.4)

    @pytest.mark.parametrize("kind", ["quadratic", "log"])
    def test_gradient_stack_is_the_scalar_formula(self, kind):
        # U'(x_i) - (1 - prod_{j != i}(1 - x_j)) in Python floats, bit for bit
        game = MacGame(3, kind, b=1.0, c=2.5, a=0.8)
        x = np.random.default_rng(5).random((5, 3))
        stacks = [x[:, j].astype(complex)[:, None, None] for j in range(3)]
        for i in range(3):
            v = game.gradient_stack(i, stacks)
            for s in range(5):
                xs = [float(e) for e in x[s]]
                free = 1.0
                for j in range(3):
                    if j != i:
                        free = free * (1.0 - xs[j])
                slope = 1.0 - 2.5 * xs[i] if kind == "quadratic" else 0.8 / (1.0 + xs[i])
                assert v[s, 0, 0] == complex(slope - (1.0 - free))

    def test_closed_form_equilibrium(self):
        game = MacGame(2, "quadratic", b=1.0, c=2.0)
        # FOC: b - c x - x = 0 at the symmetric point
        assert symmetric_equilibrium(game) == pytest.approx(1 / 3, abs=1e-9)
        oracle = brute_force_ne(game, tol=1e-8)
        for a in oracle:
            assert float(a[0, 0].real) == pytest.approx(1 / 3, abs=1e-6)

    def test_log_utility_family(self):
        game = MacGame(2, "log", a=1.0)
        xstar = symmetric_equilibrium(game)
        # oracle: a/(1+x) = x  =>  x = (sqrt(1+4a)-1)/2
        assert xstar == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-9)
        assert concavity_violations(game, 0, 100, seed=2) == 0

    def test_scalar_mirror_is_logistic(self):
        game = MacGame(2)
        y = 1.3
        x = mirror_map(np.array([[y]], dtype=complex), game.domains[0])
        assert float(x[0, 0].real) == pytest.approx(math.exp(y) / (1 + math.exp(y)), rel=1e-12)


class TestSmoothHinge:
    def test_regions(self):
        assert smooth_hinge(-1.0) == 0.0
        assert smooth_hinge(0.05) == pytest.approx(0.05 ** 2 / 0.2)
        assert smooth_hinge(1.0) == pytest.approx(1.0 - 0.05)
        assert smooth_hinge_slope(-1.0) == 0.0
        assert smooth_hinge_slope(0.05) == pytest.approx(0.5)
        assert smooth_hinge_slope(1.0) == 1.0

    def test_continuity_at_knots(self):
        for t in (0.0, 0.1):
            below = smooth_hinge(t - 1e-9)
            above = smooth_hinge(t + 1e-9)
            assert abs(above - below) < 1e-8


@pytest.fixture(scope="module")
def problem():
    pts, labels = make_cluster_dataset(5, 40, n_classes=2, spread=0.6, seed=3)
    return MetricLearningProblem(pts, labels, margin=0.2, trace_cap=2.5, batch_size=16)


class TestMetricLearning:

    def test_triples_enumeration(self):
        labels = np.array([0, 0, 1])
        triples = similarity_triples(labels)
        assert len(triples) == 2  # (0,1,2) and (1,0,2)
        with pytest.raises(ValueError):
            similarity_triples(np.array([0, 0, 0]))

    def test_inactive_hinge_leaves_regularizer_gradient(self, problem):
        # a matrix close to zero keeps every triple in the flat hinge region
        x = 1e-6 * np.eye(5, dtype=complex)
        gaps = np.max(np.abs(x)) * 100 - problem.margin
        assert gaps < 0
        g = metric_gradient(x, problem.points, problem.triples, problem.margin)
        assert np.allclose(g, 2.0 * (x.real - np.eye(5)), atol=1e-12)

    def test_objective_larger_at_identity_than_oracle(self, problem):
        oracle = brute_force_ne(problem, tol=1e-7)
        at_identity = problem.expected_objective(np.eye(5, dtype=complex))
        at_oracle = problem.expected_objective(oracle[0])
        assert at_identity > at_oracle + 0.1

    def test_minibatch_mean_unbiased(self, problem):
        rng = np.random.default_rng(0)
        x = (0.8 * problem.domains[0].sample(rng) + 0.2 * problem.domains[0].center(),)
        exact = problem.payoff_gradient(0, x)
        draws = 10_000
        acc = np.zeros((5, 5), dtype=complex)
        acc_sq = np.zeros((5, 5))
        rng2 = np.random.default_rng(11)
        for _ in range(draws):
            g = problem.stochastic_gradient(0, x, rng2)
            acc += g
            acc_sq += np.abs(g) ** 2
        mean = acc / draws
        stderr = np.sqrt(np.maximum(acc_sq / draws - np.abs(mean) ** 2, 0.0) / draws)
        assert np.all(np.abs(mean - exact) <= 3.0 * stderr + 1e-12)

    def test_gradient_matches_finite_differences(self, problem):
        rng = np.random.default_rng(1)
        x = (0.8 * problem.domains[0].sample(rng) + 0.2 * problem.domains[0].center(),)
        dirs = [problem.domains[0].sample_direction(rng) for _ in range(6)]
        assert finite_diff_gradient_check(problem, 0, x, dirs, eps=1e-6) < 1e-6

    def test_full_objective_consistency(self, problem):
        x = np.eye(5, dtype=complex) * 0.3
        direct = metric_objective(x, problem.points, problem.triples, problem.margin)
        assert full_objective(problem, x) == pytest.approx(direct)
        # a minibatch of every triple scales the hinge sum by 1: the utility is -objective
        whole = MetricLearningProblem(problem.points, problem.labels, margin=problem.margin,
                                      trace_cap=2.5, batch_size=problem.n_triples)
        assert whole.utility(0, (x,)) == pytest.approx(-direct)

    def test_empty_batch_rejected(self):
        pts, labels = make_cluster_dataset(3, 8, seed=0)
        with pytest.raises(ValueError):
            MetricLearningProblem(pts, labels, batch_size=0)


class TestTransforms:
    def test_zero_maps_to_zero(self):
        q = np.zeros((3, 3), dtype=complex)
        assert np.allclose(transform_q_to_x(q, 0.1, 2.0), 0.0)

    def test_full_power_saturates_trace(self):
        q = np.eye(4, dtype=complex) * 0.5  # trace = pmax
        x = transform_q_to_x(q, 0.1, 2.0)
        assert float(np.trace(x).real) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self, rng):
        for _ in range(30):
            q = np.zeros((4, 4), dtype=complex)
            for blk in (slice(0, 2), slice(2, 4)):
                a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                q[blk, blk] = a @ a.conj().T
            q *= 2.0 * rng.random() / max(float(np.trace(q).real), 1e-12)
            x = transform_q_to_x(q, 0.1, 2.0)
            back = transform_x_to_q(x, 0.1, 2.0)
            assert np.abs(back - q).max() < 1e-12

    def test_stack_is_the_per_matrix_transform(self, rng):
        x = np.stack([0.9 * Spectrahedron(4, 1.0).sample(rng) for _ in range(5)])
        q = transform_x_to_q(x, 0.1, 2.0)
        for s in range(5):
            assert np.array_equal(q[s], transform_x_to_q(x[s], 0.1, 2.0))
            assert np.array_equal(q[s], ref_x_to_q(x[s], 0.1, 2.0))
        x[3] = np.eye(4)  # trace > 1
        with pytest.raises(DomainError, match=r"argument must be PSD with trace <= 1"):
            transform_x_to_q(x, 0.1, 2.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            transform_q_to_x(np.eye(2, dtype=complex) * 3.0, 0.1, 2.0)  # trace > pmax
        with pytest.raises(DomainError):
            transform_x_to_q(np.eye(2, dtype=complex), 0.1, 2.0)  # trace > 1


class TestChannels:
    def test_deterministic_per_seed(self):
        a = synth_channels(2, 2, 2, 2, seed=4)
        b = synth_channels(2, 2, 2, 2, seed=4)
        assert np.array_equal(a.links, b.links)
        assert not np.array_equal(a.links, synth_channels(2, 2, 2, 2, seed=5).links)

    def test_zero_spread_unit_gains(self):
        ch = synth_channels(3, 2, 2, 1, pathloss_spread=0.0, seed=1)
        assert np.allclose(ch.gains, 1.0)

    def test_second_moment(self):
        # E[tr(H H^dag)] = n_tx * n_rx * gain, within 5% over 1e3 draws
        total = 0.0
        n_tx = n_rx = 2
        for seed in range(1000):
            ch = synth_channels(1, n_tx, n_rx, 1, pathloss_spread=0.0, seed=seed)
            h = ch.links[0, 0, 0]
            total += float(np.trace(h @ h.conj().T).real)
        assert total / 1000 == pytest.approx(n_tx * n_rx, rel=0.05)

    def test_json_roundtrip_byte_identical(self):
        ch = synth_channels(2, 2, 2, 2, seed=9)
        text = ch.to_json()
        back = ChannelSet.from_json(text)
        assert np.array_equal(back.links, ch.links)
        assert back.to_json() == text


def effective_channels(game, i, actions):
    """Whitened direct channels W^{-1/2} H of player i, stacked over subcarriers."""
    covariances = [game._covariance_blocks(x) for x in actions]
    vals, vecs = np.linalg.eigh(hermitize(game._mui(i, covariances)))
    w_isqrt = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return w_isqrt @ game.channels.links[i, i]


def ref_gradient(game, i, actions):
    pc, pmax = game.pc, game.pmax
    tau = float(np.trace(np.asarray(actions[i])).real)
    phi, psi = game._prefactors(tau)
    d = pc + (1.0 - tau) * pmax
    phi_slope = -pmax / (pc * (pc + pmax))
    psi_slope = pc * pmax * pmax / (d * d)
    received, log_sum = ref_received(game, i, actions, psi)
    dim = game.domains[i].dim
    grad = np.zeros((dim, dim), dtype=complex)
    trace_sum = 0.0
    for sl, (h, k, a) in zip(block_slices(game.domains[i]), received):
        a_inv_h = np.linalg.solve(a, h)
        trace_sum += float(np.trace(np.linalg.solve(a, k)).real)
        grad[sl, sl] = phi * psi * (h.conj().T @ a_inv_h)
    scalar = phi_slope * log_sum + phi * psi_slope * trace_sum
    return hermitize(grad + scalar * np.eye(dim, dtype=complex))


@pytest.fixture(scope="module")
def game():
    return EeGame(synth_channels(2, 2, 2, 2, pathloss_spread=1.0, seed=9), pmax=2.0, pc=0.1)


class TestEeGame:

    def test_zero_action_zero_utility(self, game):
        zero = tuple(np.zeros((4, 4), dtype=complex) for _ in range(2))
        assert game.utility(0, zero) == pytest.approx(0.0, abs=1e-12)
        assert game.energy_efficiency(0, (np.zeros((4, 4), dtype=complex),) * 2) == pytest.approx(0.0)

    def test_block_domains(self, game):
        dom = game.domains[0]
        assert dom.dim == 4 and dom.blocks == 2

    def test_utility_positive_at_uniform(self, game):
        base = uniform_baseline(game)
        for i in range(2):
            u = game.utility(i, base)
            assert math.isfinite(u) and u > 0

    def test_utility_equals_physical_energy_efficiency(self, game, rng):
        # transform round-trip oracle: evaluate the rate/power ratio directly in Q
        x = tuple(d.sample(rng) for d in game.domains)
        q = tuple(transform_x_to_q(xi, game.pc, game.pmax) for xi in x)
        for i in range(2):
            assert game.utility(i, x) == pytest.approx(game.energy_efficiency(i, q), rel=1e-10)

    def test_single_user_scalar_closed_form(self):
        # S=1, M=Nrx=1: the transformed utility reduces to an explicit scalar formula
        ch = synth_channels(1, 1, 1, 1, pathloss_spread=0.0, seed=2)
        pc, pmax = 0.3, 1.5
        game = EeGame(ch, pmax=pmax, pc=pc)
        h2 = float(np.abs(ch.links[0, 0, 0, 0, 0]) ** 2)
        for xval in (0.05, 0.3, 0.8, 0.999):
            x = (np.array([[xval]], dtype=complex),)
            d = pc + (1 - xval) * pmax
            ref = d / (pc * (pc + pmax)) * math.log(1 + pc * pmax * h2 * xval / d)
            assert game.utility(0, x) == pytest.approx(ref, rel=1e-12)
            q = transform_x_to_q(x[0], pc, pmax)
            assert game.energy_efficiency(0, (q,)) == pytest.approx(ref, rel=1e-10)

    def test_gradient_block_diagonal_and_hermitian(self, game, rng):
        x = tuple(d.sample(rng) for d in game.domains)
        v = game.payoff_gradient(0, x)
        assert game.domains[0].off_block_mass(v) < 1e-12
        assert np.abs(v - v.conj().T).max() < 1e-12

    def test_gradient_matches_finite_differences(self, game, rng):
        x = tuple(0.8 * d.sample(rng) + 0.2 * d.center() for d in game.domains)
        dirs = [game.domains[0].sample_direction(rng) for _ in range(8)]
        assert finite_diff_gradient_check(game, 0, x, dirs, eps=1e-5) < 1e-5

    def test_unitary_covariance(self, game, rng):
        # conjugating the action per subcarrier while rotating the effective
        # channels consistently leaves the utility unchanged
        from helpers import haar_unitary

        x = tuple(0.9 * d.sample(rng) + 0.1 * d.center() for d in game.domains)
        h_eff = effective_channels(game, 0, x)
        tau = float(np.trace(x[0]).real)
        phi, psi = game._prefactors(tau)
        direct = 0.0
        rotated = 0.0
        u_blocks = [haar_unitary(2, rng) for _ in range(2)]
        for s, h in enumerate(h_eff):
            xs = x[0][2 * s : 2 * s + 2, 2 * s : 2 * s + 2]
            u = u_blocks[s]
            direct += float(np.linalg.slogdet(np.eye(2) + psi * h @ xs @ h.conj().T)[1].real)
            rotated += float(
                np.linalg.slogdet(
                    np.eye(2) + psi * (h @ u) @ (u.conj().T @ xs @ u) @ (h @ u).conj().T
                )[1].real
            )
        assert phi * direct == pytest.approx(game.utility(0, x), rel=1e-9)
        assert rotated == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("users, tx, rx, subcarriers", [
        (1, 1, 1, 1), (1, 2, 2, 3), (2, 2, 2, 2), (3, 2, 2, 4), (4, 3, 3, 8), (2, 2, 3, 2),
        (8, 4, 4, 16),
    ], ids=["1x1x1", "1x2x3", "2x2x2", "3x2x4", "4x3x8", "2x2x2_rx3", "8x4x16"])
    def test_stacked_formula_equals_per_profile_loops_bit_for_bit(self, users, tx, rx,
                                                                  subcarriers):
        game = EeGame(synth_channels(users, tx, rx, subcarriers, seed=users + 10 * subcarriers),
                      pmax=2.0, pc=0.1)
        rng = np.random.default_rng(subcarriers)
        stacks = [np.stack([d.sample(rng) for _ in range(5)]) for d in game.domains]
        for i in range(users):
            v = game.gradient_stack(i, stacks)
            for s in range(5):
                x = [a[s] for a in stacks]
                ref = ref_gradient(game, i, x)
                assert np.array_equal(v[s], ref)
                assert np.array_equal(game.payoff_gradient(i, x), ref)
                assert game.utility(i, x).hex() == ref_utility(game, i, x).hex()

    @pytest.mark.parametrize("users, tx, rx, subcarriers, n_stack", [
        (2, 2, 2, 2, 1), (2, 2, 2, 2, 5), (3, 2, 2, 4, 5),
    ], ids=["2x2x2_stack1", "2x2x2_stack5", "3x2x4_stack5"])
    def test_gradient_does_not_rely_on_numpy2_solve_broadcasting(self, monkeypatch, users, tx,
                                                                 rx, subcarriers, n_stack):
        # numpy < 2 solves a right-hand side with one axis fewer than `a` as a stack
        # of vectors; the gradient must give the same values under that rule
        game = EeGame(synth_channels(users, tx, rx, subcarriers, seed=4), pmax=2.0, pc=0.1)
        rng = np.random.default_rng(4)
        stacks = [np.stack([d.sample(rng) for _ in range(n_stack)]) for d in game.domains]
        expected = game.gradient_stack(0, stacks)
        solve = np.linalg.solve

        def solve_vector_rule(a, b):
            b = np.asarray(b)
            return solve(a, b[..., None])[..., 0] if b.ndim == np.ndim(a) - 1 else solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_vector_rule)
        assert np.array_equal(game.gradient_stack(0, stacks), expected)

    def test_physical_oracles_reject_infeasible_covariances(self, game):
        fine = (game.pmax / 8.0) * np.eye(4, dtype=complex)
        not_psd = np.diag([0.5, 0.5, 0.5, -0.1]).astype(complex)
        over_power = (game.pmax / 2.0) * np.eye(4, dtype=complex)
        for bad in (not_psd, over_power):
            for profile in ((bad, fine), (fine, bad)):
                with pytest.raises(DomainError, match=r"covariance must be PSD with trace <= pmax"):
                    game.throughput(0, profile)
                with pytest.raises(DomainError, match=r"covariance must be PSD with trace <= pmax"):
                    game.energy_efficiency(0, profile)

    @pytest.mark.parametrize("where", ["receiver", "interferer"])
    @pytest.mark.parametrize("bad", ["non_psd_block", "trace_above_one"])
    def test_blockwise_check_rejects_infeasible_actions(self, game, bad, where):
        fine = np.eye(4, dtype=complex) / 8
        x = {"non_psd_block": np.diag([0.3, 0.3, 0.3, -0.05]),  # subcarrier 2, trace 0.85
             "trace_above_one": 0.3 * np.eye(4)}[bad].astype(complex)
        profile = (x, fine) if where == "receiver" else (fine, x)
        stacks = [np.stack([fine, a, fine]) for a in profile]  # only profile 1 is infeasible
        message = r"^argument must be PSD with trace <= 1$"
        with pytest.raises(DomainError, match=message):
            game.gradient_stack(0, stacks)
        for players in ([0], [1, 0]):
            with pytest.raises(DomainError, match=message):
                game.gradient_stacks(stacks, players)
        with pytest.raises(DomainError, match=message):
            game.utility(0, profile)

    def test_only_the_subcarrier_blocks_enter(self, game, rng):
        # entries outside the blocks are neither checked nor used
        x = [0.9 * d.sample(rng) for d in game.domains]
        dom = game.domains[0]
        off_block = np.ones((dom.dim, dom.dim))
        dom.diagonal_blocks(off_block)[...] = 0.0
        noisy = [a + 0.5 * off_block for a in x]
        assert np.linalg.eigvalsh(noisy[1])[0] < -0.1
        for i in range(2):
            assert game.utility(i, noisy) == game.utility(i, x)
            assert np.array_equal(game.payoff_gradient(i, noisy), game.payoff_gradient(i, x))

    def test_uniform_baseline_definition(self, game):
        base = uniform_baseline(game)
        q = transform_x_to_q(base[0], game.pc, game.pmax)
        expected = (game.pmax / 2.0) / 4.0 * np.eye(4)
        assert np.allclose(q, expected, atol=1e-12)
        for d, x in zip(game.domains, base):
            assert d.contains(x)

    def test_concave_in_own_action(self, game):
        assert concavity_violations(game, 0, 60, seed=3) == 0

    def test_mxl_beats_uniform_baseline(self, game):
        base = uniform_baseline(game)
        base_sum = sum(game.utility(i, base) for i in range(2))
        cfg = SolverConfig(StepSchedule.power_law(1.0, 0.5), NoiseModel.none(),
                           max_iters=2000, stop_residual=1e-4, seed=1, log_every=100)
        trace = run(game, cfg)
        learned_sum = sum(game.utility(i, trace.final_actions) for i in range(2))
        assert learned_sum > base_sum
