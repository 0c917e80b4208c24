"""Flow (session) configuration and the leaky bucket regulator.

A *flow* in this library corresponds to a *session* in the paper: a stream
of packets with a guaranteed service share phi (equivalently a guaranteed
rate ``r_i = phi_i * r``).  :class:`FlowConfig` is the immutable description
handed to a scheduler when the flow is registered.

:class:`LeakyBucket` implements the (sigma, rho) regulator of eq. (17):
``A_i(t1, t2) <= sigma + rho * (t2 - t1)``.  It can be used either as a
*shaper* (compute when a packet conforms) or as a *policer* (test
conformance), and is the traffic model under which the paper's delay bounds
(Lemma 1, Corollaries 1-2) hold.
"""

from repro.errors import ConfigurationError

__all__ = ["FlowConfig", "LeakyBucket"]


class FlowConfig:
    """Static description of a flow registered with a scheduler.

    Parameters
    ----------
    flow_id:
        Hashable identifier, unique within one scheduler.
    share:
        The service share phi_i > 0.  Shares need not sum to one: schedulers
        normalise internally where the theory requires it (a flow's
        guaranteed rate is ``share / sum(shares) * link_rate`` when shares
        are not normalised, or ``share * link_rate`` when they are).
    name:
        Optional human-readable label for reports.
    """

    __slots__ = ("flow_id", "share", "name")

    def __init__(self, flow_id, share, name=None):
        if not share > 0:  # also True for NaN
            raise ConfigurationError(
                f"flow {flow_id!r}: share must be positive, got {share!r}"
            )
        self.flow_id = flow_id
        self.share = share
        self.name = name if name is not None else str(flow_id)

    def __repr__(self):
        return f"FlowConfig({self.flow_id!r}, share={self.share!r})"


class LeakyBucket:
    """A (sigma, rho) leaky bucket: burst ``sigma`` bits, rate ``rho`` bps.

    The bucket starts full (``sigma`` tokens), matching the paper's
    constraint that A(t1, t2) <= sigma + rho (t2 - t1) for *all* intervals.

    Use :meth:`conforms` to police and :meth:`earliest_conforming_time` /
    :meth:`consume` to shape.
    """

    __slots__ = ("sigma", "rho", "_tokens", "_last_time")

    def __init__(self, sigma, rho):
        if not sigma >= 0:  # also True for NaN
            raise ConfigurationError(f"sigma must be >= 0, got {sigma!r}")
        if not rho > 0:  # also True for NaN
            raise ConfigurationError(f"rho must be > 0, got {rho!r}")
        self.sigma = sigma
        self.rho = rho
        self._tokens = sigma
        self._last_time = 0

    def _refill(self, now):
        if now < self._last_time:
            raise ValueError(
                f"time moved backwards: {now!r} < {self._last_time!r}"
            )
        self._tokens = min(self.sigma, self._tokens + self.rho * (now - self._last_time))
        self._last_time = now

    def tokens_at(self, now):
        """Tokens available at time ``now`` without mutating state."""
        if now < self._last_time:
            raise ValueError(
                f"time moved backwards: {now!r} < {self._last_time!r}"
            )
        return min(self.sigma, self._tokens + self.rho * (now - self._last_time))

    def conforms(self, length, now):
        """Would a ``length``-bit packet at time ``now`` conform?"""
        return self.tokens_at(now) >= length

    def earliest_conforming_time(self, length, now):
        """Earliest time >= ``now`` at which a ``length``-bit packet conforms.

        Raises :class:`~repro.errors.ConfigurationError` if the packet can
        never conform (``length > sigma``).
        """
        if length > self.sigma:
            raise ConfigurationError(
                f"packet of {length!r} bits exceeds bucket depth {self.sigma!r}"
            )
        available = self.tokens_at(now)
        if available >= length:
            return now
        return now + (length - available) / self.rho

    def consume(self, length, now):
        """Withdraw ``length`` tokens at time ``now`` (shaping).

        Raises ValueError if the packet does not conform; call
        :meth:`earliest_conforming_time` first when shaping.  A sub-ULP
        deficit (float rounding at exactly the earliest conforming instant)
        is forgiven; exact types like Fraction are unaffected.
        """
        self._refill(now)
        deficit = length - self._tokens
        if deficit > 0:
            if deficit > 1e-9 * length:
                raise ValueError(
                    f"non-conforming packet: {length!r} bits, "
                    f"{self._tokens!r} tokens at t={now!r}"
                )
            self._tokens = length  # forgive the rounding residue
        self._tokens -= length

    def envelope(self, interval):
        """Maximum bits admissible over an interval of the given duration."""
        if interval < 0:
            raise ValueError("interval must be non-negative")
        return self.sigma + self.rho * interval

    def __repr__(self):
        return f"LeakyBucket(sigma={self.sigma!r}, rho={self.rho!r})"
