"""P² update is float-for-float the textbook loop form.

The production ``P2Quantile.update`` binds its marker lists once and
unrolls the desired-position adds; this test keeps the plain loop form of
Jain & Chlamtac's algorithm and demands exact (``==``) agreement of every
marker height, position and desired position after every update.
"""

import numpy as np
import pytest

from repro.detect.quantiles import P2Quantile


class TextbookP2:
    """Loop-form P² with the same marker state as the production class."""

    def __init__(self, q):
        self.q = q
        self.initial = []
        self.h = self.n = self.desired = self.increments = None

    def update(self, value):
        if self.h is None:
            self.initial.append(float(value))
            if len(self.initial) == 5:
                q = self.q
                self.h = sorted(self.initial)
                self.n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self.desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q,
                                3.0 + 2.0 * q, 5.0]
                self.increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return
        h, n = self.h, self.n
        if value < h[0]:
            h[0] = float(value)
            k = 0
        elif value >= h[4]:
            h[4] = float(value)
            k = 3
        else:
            k = next(i - 1 for i in range(1, 5) if value < h[i])
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self.desired[i] += self.increments[i]
        for i in range(1, 4):
            d = self.desired[i] - n[i]
            if ((d >= 1.0 and n[i + 1] - n[i] > 1.0)
                    or (d <= -1.0 and n[i - 1] - n[i] < -1.0)):
                d = 1.0 if d > 0 else -1.0
                parabolic = h[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (h[i + 1] - h[i])
                    / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1])
                    / (n[i] - n[i - 1]))
                if h[i - 1] < parabolic < h[i + 1]:
                    h[i] = parabolic
                else:
                    j = i + int(d)
                    h[i] = h[i] + d * (h[j] - h[i]) / (n[j] - n[i])
                n[i] += d


def _lognormal():
    return np.random.default_rng(2024).lognormal(4.4, 0.6, 20_000).tolist()


STREAMS = {
    "lognormal": _lognormal,
    "constant": lambda: [250.0] * 5_000,
    "sorted": lambda: sorted(_lognormal()[:5_000]),
    "reverse_sorted": lambda: sorted(_lognormal()[:5_000], reverse=True),
}


@pytest.mark.parametrize("quantile", [0.5, 0.95, 0.99])
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_update_matches_textbook_loop_exactly(stream, quantile):
    production, reference = P2Quantile(quantile), TextbookP2(quantile)
    for value in STREAMS[stream]():
        production.update(value)
        reference.update(value)
        assert production._heights == reference.h
        assert production._positions == reference.n
        assert production._desired == reference.desired
    assert production.count == len(STREAMS[stream]())
