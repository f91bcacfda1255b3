"""Block-fading SNR process: Rayleigh (exponential) SNR law and seeded sampling.

All SNRs are linear-scale internally; dB conversion happens only at I/O
boundaries (see :mod:`harqlink.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class FadingMode(Enum):
    FAST = "fast"   # independent SNR draw in every transmission round
    SLOW = "slow"   # one SNR draw shared by all rounds of a HARQ cycle


@dataclass(frozen=True)
class ChannelConfig:
    """Immutable channel description.

    avg_snr is the linear mean SNR (> 0).  The seed, together with a
    per-use stream id, fully determines every sample drawn from this
    channel.
    """

    avg_snr: float
    fading_mode: FadingMode = FadingMode.FAST
    seed: int = 0

    def __post_init__(self):
        if not self.avg_snr > 0:
            raise ValueError(f"avg_snr must be > 0, got {self.avg_snr}")


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x_lin) -> float:
    return 10.0 * np.log10(x_lin)


def make_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream_id).

    Philox with a 128-bit key built from the two 64-bit values, so distinct
    stream ids give statistically independent, reproducible streams that
    are safe to use concurrently.
    """
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) | ((int(stream_id) & 0xFFFFFFFFFFFFFFFF) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _cursor_after(gen: np.random.Generator, k: int) -> np.random.Generator:
    """A second cursor on gen's Philox stream: a new generator whose next
    double is the one gen would return after k more doubles; gen does not
    move.  Philox emits four 64-bit words per counter step and `random()`
    takes one word per double, so this costs O(1) whatever k is: a copy of
    gen's state skips the words left in gen's buffer and then whole
    four-word counter steps (`advance` empties the buffer), and draws the
    rest, fewer than four.  For a fresh stream that is k // 4 steps and
    k % 4 draws."""
    state = gen.bit_generator.state
    skip = k + state["buffer_pos"] - 4  # words past the end of gen's buffer
    bit_gen = np.random.Philox()
    bit_gen.state = state
    if skip > 0:
        bit_gen.advance(skip // 4)
        k = skip % 4
    cursor = np.random.Generator(bit_gen)
    cursor.random(k)
    return cursor


def draw_exponential(gen: np.random.Generator, avg_snr: float, size=None):
    """Inverse-CDF exponential draws, -avg*log(1-U); platform-reproducible."""
    u = gen.random(size)
    np.negative(u, out=u)  # in place: no temporaries the size of the draw
    np.log1p(u, out=u)
    u *= -avg_snr
    return u

