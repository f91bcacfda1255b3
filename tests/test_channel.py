import math

import numpy as np
import pytest
from scipy.integrate import quad

from harqlink.channel import (ChannelConfig, FadingMode, _cursor_after, db_to_linear,
                              draw_exponential, linear_to_db, make_stream)
from harqlink.coding import McsTable, first_round_cum


def snr_pdf(gamma, avg_snr: float):
    """Exponential SNR density (1/avg) * exp(-gamma/avg) of Rayleigh fading:
    the law that the closed-form averages of first_round_cum integrate."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("SNR must be nonnegative")
    if not avg_snr > 0:
        raise ValueError("avg_snr must be positive")
    out = np.exp(-gamma / avg_snr) / avg_snr
    return out if out.ndim else float(out)


def test_pdf_normalizes_and_has_correct_mean():
    for avg in (0.3, 1.0, 10.0):
        mass, _ = quad(lambda g: snr_pdf(g, avg), 0, np.inf)
        mean, _ = quad(lambda g: g * snr_pdf(g, avg), 0, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(avg, rel=1e-9)
        part, _ = quad(lambda g: snr_pdf(g, avg), 0.2, 1.5)
        hi, lo = first_round_cum(1, (1.5, 0.2), McsTable(rates=(1.0,)), avg)[0]
        assert hi - lo == pytest.approx(part, rel=1e-12)


def test_pdf_matches_exponential_formula():
    assert snr_pdf(2.0, 4.0) == pytest.approx(math.exp(-0.5) / 4.0, rel=1e-12)
    assert snr_pdf(0.0, 4.0) == pytest.approx(0.25, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(avg_snr=0.0, fading_mode=FadingMode.FAST, seed=0)
    with pytest.raises(ValueError):
        ChannelConfig(avg_snr=-1.0, fading_mode=FadingMode.SLOW, seed=0)


def test_draws_are_deterministic_per_seed_and_stream():
    a = draw_exponential(make_stream(7, 0), 2.0, 100)
    b = draw_exponential(make_stream(7, 0), 2.0, 100)
    c = draw_exponential(make_stream(7, 1), 2.0, 100)
    d = draw_exponential(make_stream(8, 0), 2.0, 100)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_draw_moments():
    x = draw_exponential(make_stream(0, 0), 3.0, 200_000)
    assert np.all(x >= 0)
    assert x.mean() == pytest.approx(3.0, rel=0.02)
    assert x.std() == pytest.approx(3.0, rel=0.02)


def test_db_roundtrip():
    for db in (-10.0, 0.0, 7.5, 25.0):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert db_to_linear(10.0) == pytest.approx(10.0)


@pytest.mark.parametrize("drawn", [0, 1, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 10 ** 5 + 17, 2 ** 17 + 3])
def test_cursor_after_equals_draw_and_discard(k, drawn):
    # a second cursor k doubles ahead, from a stream that has drawn 0, 1 or
    # 3 doubles (a Philox counter step holds four), equals drawing k doubles
    # and discarding them; the first generator does not move
    gen = make_stream(13, 7)
    gen.random(drawn)
    cursor = _cursor_after(gen, k)
    ref = make_stream(13, 7)
    ref.random(drawn + k)
    np.testing.assert_array_equal(cursor.random(9), ref.random(9))
    np.testing.assert_array_equal(gen.random(5), make_stream(13, 7).random(drawn + 5)[drawn:])
