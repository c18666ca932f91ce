"""Helpers shared by the test modules."""

import numpy as np


def concavity_violations(game, i: int, samples: int, seed: int = 0, tol: float = 1e-9) -> int:
    """Random midpoint test of player i's own-action concavity; returns the violation count."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(samples):
        base = list(game.sample_profile(rng))
        a = game.players[i].domain.sample(rng)
        b = game.players[i].domain.sample(rng)
        vals = []
        for x in (a, b, (a + b) / 2):
            base[i] = x
            vals.append(game.utility(i, tuple(base)))
        if vals[2] < (vals[0] + vals[1]) / 2 - tol:
            bad += 1
    return bad
