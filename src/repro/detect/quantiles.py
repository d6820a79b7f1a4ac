"""P² streaming quantile estimation (Jain & Chlamtac, 1985).

Tracks one quantile with five markers in O(1) memory — the right tool for
in-kernel percentile tracking where storing all samples is out of the
question.
"""

import math


class P2Quantile:
    """Streaming estimate of the ``q`` quantile (0 < q < 1)."""

    def __init__(self, q):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1), got {}".format(q))
        self.q = q
        self._initial = []
        self._heights = None
        self._positions = None
        self._desired = None
        self._increments = None
        self.count = 0

    def update(self, value):
        """Add a sample; returns the current estimate (NaN until 5 samples)."""
        self.count += 1
        if self._heights is None:
            self._initial.append(float(value))
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                q = self.q
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
                self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return self.value

        h = self._heights
        if value < h[0]:
            h[0] = float(value)
            k = 0
        elif value >= h[4]:
            h[4] = float(value)
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if value < h[i]:
                    k = i - 1
                    break
            else:
                k = 3

        n = self._positions
        desired = self._desired
        increments = self._increments
        for i in range(k + 1, 5):
            n[i] += 1.0
        # The five desired-position adds, unrolled (same order as a loop).
        desired[0] += increments[0]
        desired[1] += increments[1]
        desired[2] += increments[2]
        desired[3] += increments[3]
        desired[4] += increments[4]

        for i in range(1, 4):
            d = desired[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (d <= -1.0 and n[i - 1] - n[i] < -1.0):
                d = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, d)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, d)
                n[i] += d
        return self.value

    def _parabolic(self, i, d):
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i, d):
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    def merge(self, other):
        """Fold another estimator of the *same* quantile into this one.

        P² keeps five markers, not samples, so the merge is approximate:
        the extreme markers (observed min/max) merge exactly, the middle
        markers combine as count-weighted averages of the two sketches'
        height estimates, and marker positions add (each side's position is
        its local rank estimate for that quantile level, and ranks are
        additive under concatenation).  The result is tolerance-bounded
        against a single sketch fed the concatenated stream — good enough
        for fleet-wide tail-latency gates, not for exact accounting (use
        :meth:`~repro.detect.histogram.Histogram.merge` when exactness
        matters).  Returns ``self`` for chaining.
        """
        if not isinstance(other, P2Quantile) or other.q != self.q:
            raise ValueError(
                "cannot merge P2Quantile(q={}) with {!r}".format(
                    self.q, other))
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._initial = list(other._initial)
            self._heights = None if other._heights is None else list(other._heights)
            self._positions = (None if other._positions is None
                               else list(other._positions))
            self._desired = None if other._desired is None else list(other._desired)
            self._increments = (None if other._increments is None
                                else list(other._increments))
            return self
        if self._heights is None and other._heights is None:
            # Both still buffering: replay the pooled samples in sorted
            # order (deterministic regardless of merge order).
            values = sorted(self._initial + other._initial)
            self.__init__(self.q)
            for value in values:
                self.update(value)
            return self
        if self._heights is None or other._heights is None:
            # One side initialized: adopt it, then replay the buffered
            # samples of the other side through the normal update path.
            small = self._initial if self._heights is None else other._initial
            big = other if self._heights is None else self
            state = (big.count, list(big._heights), list(big._positions),
                     list(big._desired), list(big._increments))
            self.count, self._heights, self._positions, self._desired, \
                self._increments = state
            self._initial = []
            for value in sorted(small):
                self.update(value)
            return self
        c1, c2 = self.count, other.count
        total = c1 + c2
        h1, h2 = self._heights, other._heights
        # Extremes are exact; interior markers are count-weighted blends of
        # the two local estimates of the same quantile level.
        heights = [
            min(h1[0], h2[0]),
            (h1[1] * c1 + h2[1] * c2) / total,
            (h1[2] * c1 + h2[2] * c2) / total,
            (h1[3] * c1 + h2[3] * c2) / total,
            max(h1[4], h2[4]),
        ]
        heights.sort()  # enforce marker monotonicity after blending
        positions = [a + b for a, b in zip(self._positions, other._positions)]
        positions[0] = 1.0
        positions[4] = float(total)
        for i in range(1, 5):  # strictly increasing, inside [1, total]
            if positions[i] <= positions[i - 1]:
                positions[i] = positions[i - 1] + 1.0
        for i in range(3, -1, -1):
            if positions[i] >= positions[i + 1]:
                positions[i] = positions[i + 1] - 1.0
        q = self.q
        self.count = total
        self._heights = heights
        self._positions = positions
        # Canonical desired positions at n samples (the running form adds
        # `increments` once per update; closed form = initial + (n-5)*inc).
        extra = total - 5
        self._desired = [
            1.0,
            1.0 + 2.0 * q + extra * (q / 2.0),
            1.0 + 4.0 * q + extra * q,
            3.0 + 2.0 * q + extra * ((1.0 + q) / 2.0),
            float(total),
        ]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        return self

    def to_json(self):
        """Exact marker-state dump: ``from_json(to_json(p))`` is identical.

        Both phases serialize — the pre-marker sample buffer verbatim, the
        marker phase as the five heights/positions/desired arrays.  All
        floats survive JSON repr-exactly, so a round-tripped sketch produces
        bit-identical estimates and merges.
        """
        state = {"q": self.q, "count": self.count,
                 "initial": list(self._initial)}
        if self._heights is not None:
            state["heights"] = list(self._heights)
            state["positions"] = list(self._positions)
            state["desired"] = list(self._desired)
        return state

    @classmethod
    def from_json(cls, data):
        sketch = cls(data["q"])
        sketch.count = int(data["count"])
        sketch._initial = [float(v) for v in data["initial"]]
        if "heights" in data:
            q = sketch.q
            sketch._heights = [float(v) for v in data["heights"]]
            sketch._positions = [float(v) for v in data["positions"]]
            sketch._desired = [float(v) for v in data["desired"]]
            sketch._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        return sketch

    @property
    def value(self):
        """Current quantile estimate; NaN before five samples arrive."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return math.nan
        from repro.detect.windows import _lerp

        ordered = sorted(self._initial)
        rank = self.q * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return ordered[lo]
        return _lerp(ordered[lo], ordered[hi], rank - lo)
