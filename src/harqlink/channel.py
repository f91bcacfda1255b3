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


def draw_exponential(gen: np.random.Generator, avg_snr: float, size=None):
    """Inverse-CDF exponential draws, -avg*log(1-U); platform-reproducible."""
    u = gen.random(size)
    np.negative(u, out=u)  # in place: no temporaries the size of the draw
    np.log1p(u, out=u)
    u *= -avg_snr
    return u

