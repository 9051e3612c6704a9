"""Seeded, splittable random streams for reproducible experiments.

Every stochastic component draws from a Generator obtained through
``stream(seed, *key)``.  The key tuple (for example ``(link_id,)`` or
``(trial_block, link_id)``) is folded into numpy's SeedSequence spawn
key, so distinct keys give statistically independent streams and the
same (seed, key) pair always reproduces the same draws, regardless of
how many other streams were created in between.
"""

import numpy as np


def stream(seed, *key):
    """Independent Generator keyed by (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))

