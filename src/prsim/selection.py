"""Rate conventions, the decoding subset and the block selection kernel.

Every scheme separates two views of each link: the *score* (a stale or
predicted observation, used only to choose relays) and the *actual*
end-to-end SNR (used only to decide outage and realized rate).  Keeping
the two apart is what lets the same kernel express perfect, outdated
and predicted CSI by changing only the score.

`select` runs one rule over a block of n frames and K relays: restrict
to the eligible relays, take the highest score (ties go to the lowest
relay id), optionally lose the frame when the two best eligible scores
sit inside a timer's uncertainty window, and judge the pick on its
actual SNR.  The distributed timer race, the destination-side ranking,
DF, AF and the space-time-coded pair all reduce to this rule by their
choice of score, eligibility mask and actual SNR.

Rates are half-duplex: a two-phase relay link sustains R bits/s/Hz end
to end only if each phase carries 2R, hence the relay threshold
gamma_o = 2^(2R) - 1, while direct transmission uses the full frame and
compares against 2^R - 1.  A link exactly at the threshold counts as
success (outage is "falls below").
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class RateConfig:
    """Target end-to-end rate and the derived SNR thresholds."""

    target_rate: float

    def __post_init__(self):
        if self.target_rate <= 0:
            raise ValueError("target rate must be positive")

    @property
    def gamma_o(self):
        # relay links compress the payload into half the frame
        return 2.0 ** (2.0 * self.target_rate) - 1.0

    @property
    def direct_threshold(self):
        return 2.0 ** self.target_rate - 1.0


def decoding_subset(g_sr, rate):
    """(n, K) mask of relays whose source-hop SNR clears gamma_o."""
    return g_sr >= rate.gamma_o


class Selection(NamedTuple):
    """Per-frame outcome of a block: who forwarded and did it survive."""

    chosen: np.ndarray     # best relay id, -1 when nobody forwards
    outage: np.ndarray
    rate: np.ndarray       # realized half-duplex rate, 0 when lost
    collision: np.ndarray


def select(g, score, rate, eligible=None, window=None, pair=False):
    """Pick relays by score and judge them on their actual SNR.

    g, score and eligible are (n, K).  With pair=True the two best
    eligible relays forward a space-time-coded pair, whose combiner
    output is the half-sum of their SNRs (a single eligible relay
    forwards alone).  With a window, a frame whose two best eligible
    scores differ by less than it is a collision.  A frame with no
    eligible relay, or a collision, is an outage at rate 0.
    """
    rows = np.arange(g.shape[0])
    if eligible is not None:
        score = np.where(eligible, score, -np.inf)
    first = np.argmax(score, axis=1)
    g_sel = g[rows, first]
    collision = np.zeros(g.shape[0], dtype=bool)
    if pair or window is not None:
        top = score[rows, first]
        if eligible is None:
            score = score.copy()
        score[rows, first] = -np.inf
        second = np.argmax(score, axis=1)
        if window is not None:
            # an ineligible runner-up scores -inf and never collides;
            # a row with nobody eligible gives nan, no collision either
            with np.errstate(invalid="ignore"):
                collision = top - score[rows, second] < window
        if pair:
            both = (eligible.sum(axis=1) >= 2 if eligible is not None
                    else g.shape[1] >= 2)
            g_sel = np.where(both, 0.5 * (g_sel + g[rows, second]), g_sel)
    chosen = first
    if eligible is not None or window is not None:
        lost = collision
        if eligible is not None:
            lost = lost | ~eligible.any(axis=1)
        g_sel = np.where(lost, 0.0, g_sel)
        chosen = np.where(lost, -1, first)
    return Selection(chosen, g_sel < rate.gamma_o,
                     0.5 * np.log2(1.0 + g_sel), collision)
