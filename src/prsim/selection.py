"""Rate conventions, the decoding subset and the block selection kernel.

Every scheme separates two views of each link: the *score* (a stale or
predicted observation, used only to choose relays) and the *actual*
end-to-end SNR (used only to decide outage and realized rate).  Keeping
the two apart is what lets the same kernel express perfect, outdated
and predicted CSI by changing only the score.

`select` runs one rule over a block of n frames and K relays.  Its
pick step, `pick`, restricts to the eligible relays, takes the highest
score (ties go to the lowest relay id) and optionally loses the frame
when the two best eligible scores sit inside a timer's uncertainty
window; it then decides each frame on the pick's actual SNR.  The
distributed timer race, the destination-side ranking, DF, AF and the
space-time-coded pair all reduce to this rule by their choice of
score, eligibility mask and actual SNR.  The Monte-Carlo engines call
`pick` and judge by `simulator._mc_estimate`'s rule, the one `select`
applies; `select` is the block reference they are tested against.

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
        # from 512 on, gamma_o's 2^(2R) leaves the float range
        if not 0 < self.target_rate < 512:
            raise ValueError("target rate must be positive and below 512")

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


class Pick(NamedTuple):
    """Per-frame pick of a block, before any actual SNR is read."""

    first: np.ndarray      # best eligible relay id (any id when lost)
    second: np.ndarray     # runner-up id, -1 without one; None unless pair
    lost: np.ndarray       # nobody eligible, or a collision
    collision: np.ndarray


def pick(score, eligible=None, window=None, pair=False):
    """Rank relays by score: the pick, its runner-up and the race's loss.

    score and eligible are (n, K), the scores finite.  The pick is the
    highest eligible score (ties go to the lowest relay id).  With
    pair=True the runner-up is kept, -1 when nobody else is eligible.
    With a window, a frame whose two best eligible scores differ by
    less than it is a collision.  A frame with no eligible relay, or a
    collision, is lost.
    """
    rows = np.arange(score.shape[0])
    if eligible is not None:
        score = np.where(eligible, score, -np.inf)
    first = np.argmax(score, axis=1)
    second = None
    collision = np.zeros(score.shape[0], dtype=bool)
    if pair or window is not None:
        top = score[rows, first]
        if eligible is None:
            score = score.copy()
        score[rows, first] = -np.inf
        second = np.argmax(score, axis=1)
        runner_up = score[rows, second]  # -inf when nobody else is eligible
        if window is not None:
            # an ineligible runner-up scores -inf and never collides;
            # a row with nobody eligible gives nan, no collision either
            with np.errstate(invalid="ignore"):
                collision = top - runner_up < window
        second = np.where(runner_up > -np.inf, second, -1) if pair else None
    lost = collision
    if eligible is not None:
        # with nobody eligible the argmax lands on a masked relay
        lost = lost | ~eligible[rows, first]
    return Pick(first, second, lost, collision)


def select(g, score, rate, eligible=None, window=None, pair=False):
    """Pick relays by score and judge them on their actual SNR.

    g, score and eligible are (n, K); `pick` ranks the scores under
    eligible and window.  With pair=True the runner-up forwards with
    the pick, when there is one, and the combiner output is the
    half-sum of the two SNRs.  A lost frame is an outage at rate 0.
    """
    picked = pick(score, eligible, window, pair)
    rows = np.arange(score.shape[0])
    g_sel = g[rows, picked.first]
    if pair:
        g_sel = np.where(picked.second >= 0,
                         0.5 * (g_sel + g[rows, picked.second]), g_sel)
    g_sel = np.where(picked.lost, 0.0, g_sel)
    return Selection(np.where(picked.lost, -1, picked.first),
                     g_sel < rate.gamma_o, 0.5 * np.log2(1.0 + g_sel),
                     picked.collision)
