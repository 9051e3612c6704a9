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

The rule runs in two steps: `rank` reads only scores and eligibility
and returns who forwards (pick, runner-up, lost frames, collisions);
`judge` turns the picks' actual SNRs into outage and rate.  A caller
holding every relay's actual SNR chains them (`select`); a sampler
may draw the actual SNRs of the picks alone between the two.

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


class Ranking(NamedTuple):
    """Who forwards in each frame of a block, before any actual SNR is
    read: `rank`'s half of the selection rule."""

    first: np.ndarray      # top-ranked relay (meaningless in a lost frame)
    second: np.ndarray     # runner-up, None unless a pair or a window
    paired: np.ndarray     # whether the pair has two relays, None unless pair
    lost: np.ndarray       # nobody eligible, or a collision
    collision: np.ndarray


def rank(score, eligible=None, window=None, pair=False):
    """Rank a block of frames by score, reading no actual SNR.

    score and eligible are (n, K), the scores finite.  The pick is the
    highest eligible score (ties go to the lowest relay id).  With
    pair=True the runner-up forwards with it, when there is one.  With
    a window, a frame whose two best eligible scores differ by less
    than it is a collision.  A frame with no eligible relay, or a
    collision, is lost.
    """
    rows = np.arange(score.shape[0])
    if eligible is not None:
        score = np.where(eligible, score, -np.inf)
    first = np.argmax(score, axis=1)
    second = paired = None
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
        if pair:
            paired = runner_up > -np.inf
    lost = collision
    if eligible is not None:
        # with nobody eligible the argmax lands on a masked relay
        lost = lost | ~eligible[rows, first]
    return Ranking(first, second, paired, lost, collision)


def judge(ranking, rate, g_first, g_second=None):
    """Judge a ranked block on the actual SNRs of its picks.

    g_first holds each frame's pick's actual SNR and g_second its
    runner-up's (read only for a pair).  A pair's combiner output is
    the half-sum of the two SNRs; a pair with one relay forwards it
    alone.  A lost frame is an outage at rate 0.
    """
    g = g_first
    if ranking.paired is not None:
        g = np.where(ranking.paired, 0.5 * (g_first + g_second), g_first)
    g = np.where(ranking.lost, 0.0, g)
    return Selection(np.where(ranking.lost, -1, ranking.first),
                     g < rate.gamma_o, 0.5 * np.log2(1.0 + g),
                     ranking.collision)


def select(g, score, rate, eligible=None, window=None, pair=False):
    """Pick relays by score and judge them on their actual SNR.

    g, score and eligible are (n, K): `rank`, then `judge` on the
    entries of g it picked.  With pair=True the two best eligible
    relays forward a space-time-coded pair.
    """
    ranking = rank(score, eligible, window, pair)
    rows = np.arange(g.shape[0])
    return judge(ranking, rate, g[rows, ranking.first],
                 g[rows, ranking.second] if pair else None)
