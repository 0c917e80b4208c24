"""Tests for FlowConfig and the (sigma, rho) leaky bucket."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow import FlowConfig, LeakyBucket
from repro.errors import ConfigurationError


class TestFlowConfig:
    def test_defaults(self):
        c = FlowConfig("web", 2)
        assert c.flow_id == "web"
        assert c.share == 2
        assert c.name == "web"

    def test_custom_name(self):
        c = FlowConfig(7, 1, name="voice")
        assert c.name == "voice"

    @pytest.mark.parametrize("share", [0, -1, -0.5])
    def test_nonpositive_share_rejected(self, share):
        with pytest.raises(ConfigurationError):
            FlowConfig("x", share)

    def test_nan_share_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowConfig("x", float("nan"))

    def test_repr_mentions_id(self):
        assert "web" in repr(FlowConfig("web", 1))


class TestLeakyBucketBasics:
    def test_starts_full(self):
        b = LeakyBucket(sigma=1000, rho=100)
        assert b.tokens_at(0) == 1000
        assert b.conforms(1000, 0)
        assert not b.conforms(1001, 0)

    def test_refill_capped_at_sigma(self):
        b = LeakyBucket(1000, 100)
        b.consume(1000, 0)
        assert b.tokens_at(5) == 500
        assert b.tokens_at(100) == 1000  # capped

    def test_consume_depletes(self):
        b = LeakyBucket(1000, 100)
        b.consume(600, 0)
        assert b.tokens_at(0) == 400

    def test_nonconforming_consume_raises(self):
        b = LeakyBucket(100, 10)
        with pytest.raises(ValueError):
            b.consume(200, 0)

    def test_time_backwards_raises(self):
        b = LeakyBucket(100, 10)
        b.consume(50, 5)
        with pytest.raises(ValueError):
            b.tokens_at(4)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LeakyBucket(-1, 10)
        with pytest.raises(ConfigurationError):
            LeakyBucket(10, 0)

    def test_nan_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LeakyBucket(float("nan"), 10)
        with pytest.raises(ConfigurationError):
            LeakyBucket(10, float("nan"))

    def test_envelope(self):
        b = LeakyBucket(500, 100)
        assert b.envelope(0) == 500
        assert b.envelope(2) == 700
        with pytest.raises(ValueError):
            b.envelope(-1)


class TestEarliestConformingTime:
    def test_immediate_when_tokens_available(self):
        b = LeakyBucket(1000, 100)
        assert b.earliest_conforming_time(500, 3.0) == 3.0

    def test_waits_for_refill(self):
        b = LeakyBucket(1000, 100)
        b.consume(1000, 0)
        # needs 500 tokens at rate 100/s -> 5 seconds
        assert b.earliest_conforming_time(500, 0) == pytest.approx(5.0)

    def test_oversized_packet_rejected(self):
        b = LeakyBucket(100, 10)
        with pytest.raises(ConfigurationError):
            b.earliest_conforming_time(200, 0)

    def test_exact_arithmetic_with_fractions(self):
        b = LeakyBucket(Fraction(1000), Fraction(100))
        b.consume(Fraction(1000), Fraction(0))
        t = b.earliest_conforming_time(Fraction(1), Fraction(0))
        assert t == Fraction(1, 100)


class TestLeakyBucketProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        sigma=st.integers(100, 10_000),
        rho=st.integers(1, 1_000),
        lengths=st.lists(st.integers(1, 100), min_size=1, max_size=50),
        gaps=st.lists(st.floats(0, 10, allow_nan=False), min_size=50, max_size=50),
    )
    def test_shaped_output_satisfies_envelope(self, sigma, rho, lengths, gaps):
        """Packets released at earliest_conforming_time satisfy eq. (17)."""
        b = LeakyBucket(sigma, rho)
        now = 0.0
        releases = []
        for length, gap in zip(lengths, gaps):
            now = max(now + gap, now)
            t = b.earliest_conforming_time(length, now)
            b.consume(length, t)
            releases.append((t, length))
            now = t
        # Check A(t1, t2) <= sigma + rho (t2 - t1) on all release intervals.
        for i in range(len(releases)):
            total = 0
            t_i = releases[i][0]
            for t_j, length in releases[i:]:
                total += length
                assert total <= sigma + rho * (t_j - t_i) + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(
        sigma=st.integers(1, 1000),
        rho=st.integers(1, 1000),
        t=st.floats(0, 1000, allow_nan=False),
    )
    def test_tokens_never_exceed_sigma(self, sigma, rho, t):
        b = LeakyBucket(sigma, rho)
        assert 0 <= b.tokens_at(t) <= sigma

    @settings(max_examples=100, deadline=None)
    @given(
        sigma=st.integers(10, 1000),
        rho=st.integers(1, 100),
        length=st.integers(1, 10),
    )
    def test_earliest_time_is_tight(self, sigma, rho, length):
        """One tick earlier than the earliest conforming time must fail."""
        b = LeakyBucket(sigma, rho)
        b.consume(sigma, 0)
        t = b.earliest_conforming_time(length, 0)
        # Conforming at t up to float rounding (consume() forgives <=1e-9
        # relative deficits), and clearly non-conforming meaningfully
        # earlier.
        assert b.tokens_at(t) >= length * (1 - 1e-9)
        if t > 0:
            assert not b.conforms(length, t * (1 - 1e-6) - 1e-12)
