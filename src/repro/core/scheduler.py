"""The common interface and shared machinery of all packet schedulers.

Every one-level PFQ algorithm (and the hierarchical H-PFQ server) exposes the
same small surface:

* :meth:`PacketScheduler.add_flow` — register a session with a service share.
* :meth:`PacketScheduler.enqueue` — a packet arrives at time ``now``.
* :meth:`PacketScheduler.dequeue` — the link asks for the next packet at
  time ``now``; returns a :class:`ScheduledPacket` record.

Timing conventions
------------------
The scheduler keeps a monotonically non-decreasing internal clock.  Calls may
omit ``now``:

* ``enqueue(packet)`` falls back to ``packet.arrival_time`` and then to the
  internal clock,
* ``dequeue()`` falls back to the time the previously dequeued packet
  finished transmission (i.e. it emulates a continuously busy link), which
  makes algorithm-level tests read naturally: enqueue everything at t=0,
  then ``dequeue()`` repeatedly to obtain the service order.

Subclasses implement four hooks (``_on_enqueue``, ``_select_flow``,
``_on_dequeued``, ``_on_system_empty``) and never touch the queues directly.

Batch operations
----------------
:meth:`PacketScheduler.enqueue_batch`, :meth:`PacketScheduler.dequeue_batch`
and :meth:`PacketScheduler.drain_until` process a *chunk* of packets per
call by looping over the per-packet operations, so every scheduler has
correct batch semantics.  Only ``drain_until``, the call the Link's burst
drain makes, has amortized kernels: the exact WF2Q+ and flattened H-WF2Q+
schedulers override it with a loop that hoists attribute lookups and
skips per-packet hook dispatch while producing packet-for-packet identical
results (``tests/test_batch.py``).  Batch calls feed the ``batch_stats()``
counters, so the batched fraction of a run is observable.
"""

import numbers
from collections import deque

from repro.core.flow import FlowConfig
from repro.core.packet import Packet
from repro.errors import (
    ConfigurationError,
    DuplicateFlowError,
    EmptySchedulerError,
    UnknownFlowError,
)
from repro.obs.events import DequeueEvent, DropEvent, EnqueueEvent, EventBus

__all__ = ["PacketScheduler", "ScheduledPacket", "FlowState",
           "DROP_TAIL", "DROP_FRONT", "DROP_LONGEST", "BATCH_BUCKETS"]

_INF = float("inf")

#: Drop policies for finite buffers.  ``tail`` rejects the arriving packet,
#: ``front`` evicts the oldest queued packet of the over-limit flow (so the
#: freshest data survives — the classic choice for control traffic), and
#: ``longest`` (shared buffer only) evicts from the currently longest queue
#: (longest-queue-drop, which approximately equalises per-flow loss).
DROP_TAIL = "tail"
DROP_FRONT = "front"
DROP_LONGEST = "longest"

#: Bucket labels of the packets-per-batch histogram (``batch_stats()``).
BATCH_BUCKETS = ("1", "2-7", "8-63", "64-511", "512+")


def _bucket(n):
    """Index into :data:`BATCH_BUCKETS` for a batch of ``n`` packets."""
    if n >= 64:
        return 4 if n >= 512 else 3
    if n >= 8:
        return 2
    return 1 if n >= 2 else 0


class ScheduledPacket:
    """The result of one dequeue: the packet plus its service interval.

    ``start_time`` is the instant the link began transmitting the packet and
    ``finish_time = start_time + length / link_rate`` the instant it ends.
    ``virtual_start`` / ``virtual_finish`` carry the algorithm's tags when it
    has them (``None`` for FIFO and DRR).
    """

    __slots__ = ("packet", "start_time", "finish_time", "virtual_start", "virtual_finish")

    def __init__(self, packet, start_time, finish_time, virtual_start=None, virtual_finish=None):
        self.packet = packet
        self.start_time = start_time
        self.finish_time = finish_time
        self.virtual_start = virtual_start
        self.virtual_finish = virtual_finish

    @property
    def flow_id(self):
        return self.packet.flow_id

    @property
    def delay(self):
        """Queueing + transmission delay, if the arrival time is known."""
        if self.packet.arrival_time is None:
            return None
        return self.finish_time - self.packet.arrival_time

    def __repr__(self):
        return (
            f"ScheduledPacket({self.packet!r}, "
            f"start={self.start_time!r}, finish={self.finish_time!r})"
        )


class FlowState:
    """Per-flow runtime state: the FIFO queue plus algorithm tag slots.

    ``index`` is the registration order; schedulers break virtual-tag ties
    by it, which makes service orders deterministic and matches the paper's
    Figure 2 convention (session 1, registered first, wins its ties).

    ``tag_epoch`` implements the lazy busy-period tag reset: schedulers that
    zero all tags at a busy-period boundary bump their scheduler-wide epoch
    instead of touching every flow, and a flow's stale tags are zeroed the
    next time they are read (see ``PacketScheduler._tag_epoch``).

    ``inv_rate`` caches ``1 / r_i`` (the inverse guaranteed rate) so tag
    updates are one multiply instead of a share-normalising division chain;
    ``rate_gen`` is the share-generation stamp that invalidates the cache
    when the total share or the link rate changes.
    """

    __slots__ = ("config", "queue", "start_tag", "finish_tag", "bits_queued",
                 "index", "tag_epoch", "inv_rate", "rate_gen")

    def __init__(self, config, index=0):
        self.config = config
        self.queue = deque()
        self.start_tag = 0
        self.finish_tag = 0
        self.bits_queued = 0
        self.index = index
        self.tag_epoch = 0
        self.inv_rate = None
        self.rate_gen = -1

    @property
    def flow_id(self):
        return self.config.flow_id

    @property
    def share(self):
        return self.config.share

    def head(self):
        return self.queue[0] if self.queue else None

    def __repr__(self):
        return f"FlowState({self.flow_id!r}, queued={len(self.queue)})"


class PacketScheduler:
    """Abstract base for all one-level and hierarchical packet schedulers.

    Parameters
    ----------
    rate:
        Output link rate in bits per second.
    """

    #: Human-readable algorithm name, overridden by subclasses.
    name = "abstract"

    #: True for schedulers whose selection policy is Smallest Eligible
    #: virtual Finish time First (WF2Q, WF2Q+); the invariant checker
    #: verifies eligibility on every dequeue of such schedulers.
    seff = False

    def __init__(self, rate):
        #: The attached :class:`~repro.obs.events.EventBus`, or ``None``.
        #: An instance attribute (not a class default) so the hot-path
        #: guard is a single instance-dict hit resolving to this None.
        self._obs = None
        #: Generation stamp for the per-flow ``1/r_i`` caches; bumped
        #: whenever ``_total_share`` or the link rate changes.
        self._share_gen = 0
        #: Busy-period epoch for the lazy tag reset (see FlowState).
        self._tag_epoch = 0
        self.rate = rate  # property setter validates and bumps _share_gen
        self._flows = {}
        self._next_flow_index = 0
        self._buffer_limits = {}
        #: flow_id -> non-default drop policy (absent means drop-tail).
        self._drop_policies = {}
        #: Scheduler-wide packet budget shared by all flows (None = off).
        self._shared_limit = None
        self._shared_policy = DROP_TAIL
        self._drops = {}
        self._drops_total = 0
        #: Lifetime drop count: unlike ``_drops_total`` it is *never*
        #: decremented (``remove_flow`` forgets a departed flow's counter),
        #: so the conservation ledger stays balanced across flow churn.
        self._drops_lifetime = 0
        #: Offered packets (accepted or dropped); the conservation ledger's
        #: left-hand side.
        self._arrivals = 0
        self._total_share = 0
        self._backlog_packets = 0
        self._backlog_bits = 0
        self._clock = 0
        self._free_at = 0
        self._dequeues = 0
        self._enqueues = 0
        #: Insertion-ordered index of flows with a non-empty queue (dict
        #: used as an ordered set), maintained on every queue transition so
        #: ``backlogged_flows()`` is O(backlogged), not O(registered).
        self._backlogged = {}
        #: Batch-path counters: calls, packets moved through batch APIs,
        #: and a packets-per-batch histogram (see :data:`BATCH_BUCKETS`).
        self._batch_calls = 0
        self._batch_packets = 0
        self._batch_hist = [0, 0, 0, 0, 0]
        #: Idle flows whose FlowState was evicted to bound memory:
        #: flow_id -> {share, name, index}.  Evicted flows stay logically
        #: registered — their share keeps counting toward ``_total_share``
        #: and their registration index is preserved — so rate arithmetic
        #: and tie-breaks are identical to a run that never evicted.  See
        #: :meth:`evict_idle_flow`.
        self._evicted = {}

    @property
    def rate(self):
        """Output link rate in bits per second."""
        return self._rate

    @rate.setter
    def rate(self, value):
        if not value > 0:  # also True for NaN
            raise ConfigurationError(
                f"link rate must be positive, got {value!r}"
            )
        self._rate = value
        self._share_gen += 1

    # ------------------------------------------------------------------
    # Flow registration
    # ------------------------------------------------------------------
    def add_flow(self, flow_id, share=1, name=None):
        """Register a flow; returns its :class:`FlowConfig`.

        ``flow_id`` may also be a ready-made :class:`FlowConfig`.
        """
        if isinstance(flow_id, FlowConfig):
            config = flow_id
        else:
            config = FlowConfig(flow_id, share, name=name)
        if config.flow_id in self._flows or config.flow_id in self._evicted:
            raise DuplicateFlowError(config.flow_id)
        state = FlowState(config, index=self._next_flow_index)
        self._next_flow_index += 1
        self._flows[config.flow_id] = state
        self._total_share += config.share
        self._share_gen += 1
        self._on_flow_added(state)
        return config

    def remove_flow(self, flow_id):
        """Unregister an *idle* flow."""
        if flow_id in self._evicted:
            # An evicted flow is idle by construction; unregister it for
            # real — unlike eviction, removal gives its share back.
            record = self._evicted.pop(flow_id)
            self._total_share -= record["share"]
            if not self._flows and not self._evicted:
                self._total_share = 0
            self._share_gen += 1
            self._buffer_limits.pop(flow_id, None)
            self._drop_policies.pop(flow_id, None)
            self._drops_total -= self._drops.pop(flow_id, 0)
            return
        state = self._flow(flow_id)
        if state.queue:
            raise ConfigurationError(
                f"cannot remove backlogged flow {flow_id!r}"
            )
        self._on_flow_removed(state)
        del self._flows[flow_id]
        self._total_share -= state.share
        if not self._flows and not self._evicted:
            self._total_share = 0  # kill float residue from +=/-= churn
        self._share_gen += 1
        # Per-flow policy state must not leak to a future flow that happens
        # to reuse the id: a stale buffer cap would silently throttle it and
        # a stale drop counter would misattribute losses.  (The lifetime
        # drop counter keeps the departed flow's drops: conservation
        # accounts packets, not flows.)
        self._buffer_limits.pop(flow_id, None)
        self._drop_policies.pop(flow_id, None)
        self._drops_total -= self._drops.pop(flow_id, 0)
        self._backlogged.pop(flow_id, None)

    # ------------------------------------------------------------------
    # Live reconfiguration
    # ------------------------------------------------------------------
    def set_share(self, flow_id, share):
        """Renegotiate a flow's service share during a run.

        Existing head-of-queue start tags are kept (they record service
        already owed) and derived state — finish tags, heap keys, cached
        inverse rates — is rebased by the subclass's
        :meth:`_on_reconfigured` hook, so eq. (27)'s ``min S_i`` arm and
        the SEFF eligibility classification are unaffected.
        """
        if flow_id in self._evicted:
            self._revive(flow_id)
        state = self._flow(flow_id)
        if not share > 0:  # also True for NaN
            raise ConfigurationError(
                f"flow {flow_id!r}: share must be positive, got {share!r}"
            )
        old = state.config.share
        if share == old:
            return
        state.config = FlowConfig(flow_id, share, name=state.config.name)
        self._total_share += share - old
        self._share_gen += 1
        self._on_reconfigured()

    def set_link_rate(self, rate):
        """Change the output link rate during a run (e.g. link degradation).

        Tags are rebased exactly as for :meth:`set_share`: start tags are
        service baselines and persist; finish tags are recomputed under the
        new rate by :meth:`_on_reconfigured`.
        """
        if rate == self._rate:
            return
        self.rate = rate  # validates and bumps _share_gen
        self._on_reconfigured()

    def _on_reconfigured(self):
        """Hook: rebase derived tag state after a share/rate change.

        Called after ``_total_share`` / ``rate`` and ``_share_gen`` have
        been updated.  Tag-based subclasses recompute each backlogged
        head's finish tag ``F = S + L / r_i'`` and re-key finish-keyed
        heap entries; round-robin subclasses refresh cached share minima.
        The base implementation does nothing (FIFO ignores shares).
        """

    def _flow(self, flow_id):
        try:
            return self._flows[flow_id]
        except KeyError:
            raise UnknownFlowError(flow_id) from None

    # ------------------------------------------------------------------
    # Idle-flow eviction (bounded memory for long-lived service runs)
    # ------------------------------------------------------------------
    def evict_idle_flow(self, flow_id, now=None):
        """Drop an idle flow's :class:`FlowState`, keeping it registered.

        Returns True when the state was evicted, False when the scheduler
        refuses (flow backlogged, already evicted, or the algorithm cannot
        prove the flow's tags are dead — see :meth:`_evictable_idle`).

        Eviction is *exact*: the flow's share stays in ``_total_share``
        (other flows' guaranteed rates are untouched), its registration
        index is preserved (tie-breaks replay identically), and revival on
        the next arrival rebuilds a zero-tag state that the algorithm's
        own idle-flow tag rules map to the very tags the retained state
        would have produced.  Only schedulers that can prove that mapping
        opt in by overriding :meth:`_evictable_idle`.
        """
        state = self._flows.get(flow_id)
        if state is None:
            if flow_id in self._evicted:
                return False
            raise UnknownFlowError(flow_id)
        if state.queue:
            return False
        if now is None:
            now = self._clock
        if not self._evictable_idle(state, now):
            return False
        self._evicted[flow_id] = {
            "share": state.config.share,
            "name": state.config.name,
            "index": state.index,
        }
        del self._flows[flow_id]
        return True

    def _evictable_idle(self, state, now):
        """Hook: may this idle flow's state be discarded without changing
        any future service order?  Default False — only algorithms whose
        idle-flow tag rules make a zero-tag revival provably equivalent
        (WF2Q+'s ``S = max(F, V)``, FIFO's statelessness) opt in.
        """
        return False

    def _revive(self, flow_id):
        """Rebuild the FlowState of an evicted flow on its next arrival.

        The revived state is the canonical fresh-flow state (zero tags,
        stale tag epoch) with the *original* registration index and share;
        :meth:`_evictable_idle` guaranteed at eviction time that this is
        indistinguishable from the retained state.
        """
        record = self._evicted.pop(flow_id, None)
        if record is None:
            raise UnknownFlowError(flow_id)
        config = FlowConfig(flow_id, record["share"], name=record["name"])
        state = FlowState(config, index=record["index"])
        self._flows[flow_id] = state
        return state

    @property
    def evicted_flow_ids(self):
        """Flow ids whose FlowState is currently evicted."""
        return list(self._evicted)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def flow_ids(self):
        ids = list(self._flows)
        if self._evicted:
            ids.extend(self._evicted)  # evicted flows stay registered
        return ids

    @property
    def backlog(self):
        """Number of queued packets across all flows."""
        return self._backlog_packets

    @property
    def backlog_bits(self):
        return self._backlog_bits

    @property
    def is_empty(self):
        return self._backlog_packets == 0

    @property
    def clock(self):
        """Latest time the scheduler has observed."""
        return self._clock

    @property
    def busy_until(self):
        """Finish time of the most recently dequeued packet."""
        return self._free_at

    def queue_length(self, flow_id):
        """Queued packet count for one flow."""
        if flow_id in self._evicted:
            return 0  # evicted flows are idle by construction
        return len(self._flow(flow_id).queue)

    def queued_bits(self, flow_id):
        if flow_id in self._evicted:
            return 0
        return self._flow(flow_id).bits_queued

    def backlogged_flows(self):
        """Flow ids with at least one queued packet.

        O(backlogged): served from an index maintained on queue
        transitions, in became-backlogged order (registration order after
        a :meth:`restore`), so chaos probes and the batch path do not pay
        a scan over every registered flow per call.
        """
        return list(self._backlogged)

    def _require_shares(self, flow_id):
        """The flow's state, or ConfigurationError when no share exists."""
        if not self._flows or self._total_share <= 0:
            raise ConfigurationError(
                f"{self.name}: no registered flows with positive total "
                f"share; cannot compute a rate/share for {flow_id!r} "
                f"(all flows removed?)"
            )
        return self._flow(flow_id)

    def guaranteed_rate(self, flow_id):
        """Absolute guaranteed rate r_i = share_i / total_share * rate."""
        record = self._evicted.get(flow_id)
        if record is not None:
            return record["share"] / self._total_share * self._rate
        state = self._require_shares(flow_id)
        return state.share / self._total_share * self._rate

    def normalized_share(self, flow_id):
        record = self._evicted.get(flow_id)
        if record is not None:
            return record["share"] / self._total_share
        state = self._require_shares(flow_id)
        return state.share / self._total_share

    def _inv_rate(self, state):
        """Cached inverse guaranteed rate ``1 / r_i`` for a flow state.

        Tag updates run once per head-of-queue packet; recomputing
        ``share / total * rate`` there costs an attribute chase and two
        divisions per packet.  The cache is stamped with ``_share_gen``,
        which add_flow / remove_flow and the rate setter bump, so it is
        recomputed only when the underlying quantities actually changed.
        """
        gen = self._share_gen
        if state.rate_gen != gen:
            state.inv_rate = 1 / (
                state.config.share / self._total_share * self._rate
            )
            state.rate_gen = gen
        return state.inv_rate

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def observer(self):
        """The attached :class:`~repro.obs.events.EventBus`, or ``None``."""
        return self._obs

    def attach_observer(self, *sinks):
        """Subscribe sinks to this scheduler's event stream.

        Creates the :class:`~repro.obs.events.EventBus` on first use and
        returns it.  With a bus attached, every enqueue/dequeue/drop (and,
        for tag-based schedulers, virtual-time and hierarchy-node updates)
        emits a typed event; with none attached the emission sites reduce
        to a single ``is None`` test.
        """
        if self._obs is None:
            self._obs = EventBus()
        for sink in sinks:
            self._obs.subscribe(sink)
        return self._obs

    def detach_observer(self, sink=None):
        """Remove one sink (or all, when ``sink`` is None).

        The bus is dropped once empty, restoring the no-op fast path.
        Returns True if something was detached.
        """
        if self._obs is None:
            return False
        if sink is None:
            self._obs = None
            return True
        removed = self._obs.unsubscribe(sink)
        if not self._obs.sinks:
            self._obs = None
        return removed

    def system_virtual_time(self, now=None):
        """The scheduler-wide virtual time V, or ``None`` if undefined.

        Overridden by tag-based schedulers; consumed by the dequeue event
        stream and the SEFF/monotonicity invariant checks.
        """
        return None

    # ------------------------------------------------------------------
    # Main operations
    # ------------------------------------------------------------------
    def set_buffer_limit(self, flow_id, packets, policy=DROP_TAIL):
        """Cap a flow's queue at ``packets``; ``None`` removes the cap.

        ``policy`` selects what happens on an over-limit arrival:
        ``"tail"`` rejects the arriving packet (the default; what lets TCP
        sources self-regulate in the link-sharing experiments), ``"front"``
        evicts the flow's oldest queued packet and accepts the arrival.
        """
        self._flow(flow_id)
        if packets is None:
            self._buffer_limits.pop(flow_id, None)
            self._drop_policies.pop(flow_id, None)
            return
        if not packets >= 1:  # also True for NaN
            raise ConfigurationError(
                f"buffer limit must be >= 1 packet, got {packets!r}"
            )
        if policy not in (DROP_TAIL, DROP_FRONT):
            raise ConfigurationError(
                f"per-flow drop policy must be {DROP_TAIL!r} or "
                f"{DROP_FRONT!r}, got {policy!r}"
            )
        self._buffer_limits[flow_id] = packets
        if policy == DROP_TAIL:
            self._drop_policies.pop(flow_id, None)
        else:
            self._drop_policies[flow_id] = policy

    def set_shared_buffer(self, packets, policy=DROP_TAIL):
        """Cap the *total* backlog at ``packets``; ``None`` removes the cap.

        ``policy``: ``"tail"`` rejects the arriving packet; ``"longest"``
        (longest-queue-drop) evicts the newest packet of the currently
        longest queue and accepts the arrival.
        """
        if packets is None:
            self._shared_limit = None
            self._shared_policy = DROP_TAIL
            return
        if not packets >= 1:  # also True for NaN
            raise ConfigurationError(
                f"shared buffer limit must be >= 1 packet, got {packets!r}"
            )
        if policy not in (DROP_TAIL, DROP_LONGEST):
            raise ConfigurationError(
                f"shared drop policy must be {DROP_TAIL!r} or "
                f"{DROP_LONGEST!r}, got {policy!r}"
            )
        self._shared_limit = packets
        self._shared_policy = policy

    def drops(self, flow_id=None):
        """Packets dropped by the buffer cap (per flow, or total).

        The total is a running counter maintained at drop time, not a
        sum over the per-flow dict (which TCP experiments query per
        delivered ack).
        """
        if flow_id is None:
            return self._drops_total
        return self._drops.get(flow_id, 0)

    def conservation(self):
        """The packet ledger: ``arrivals == departures + drops + backlog``.

        ``drops`` here is the *lifetime* counter (never decremented by
        ``remove_flow``), so the ledger balances across flow churn; the
        chaos harness asserts ``balanced`` after every fault scenario.
        """
        arrivals = self._arrivals
        departures = self._dequeues
        dropped = self._drops_lifetime
        backlog = self._backlog_packets
        return {
            "arrivals": arrivals,
            "departures": departures,
            "drops": dropped,
            "backlog": backlog,
            "balanced": arrivals == departures + dropped + backlog,
        }

    # ------------------------------------------------------------------
    # Drop bookkeeping (buffer-limit enforcement)
    # ------------------------------------------------------------------
    def _validate_length(self, length):
        """Slow-path packet length validation (fast paths inline the
        common int/float cases); raises ConfigurationError on any value
        that would corrupt tag arithmetic."""
        if isinstance(length, bool) or not isinstance(length, numbers.Real):
            raise ConfigurationError(
                f"{self.name}: packet length must be a real number, "
                f"got {length!r}"
            )
        if not length > 0:  # False for non-positives *and* NaN
            raise ConfigurationError(
                f"{self.name}: packet length must be positive, "
                f"got {length!r}"
            )
        if length == _INF:
            raise ConfigurationError(
                f"{self.name}: packet length must be finite, got {length!r}"
            )

    def _record_drop(self, packet, now, policy, evicted):
        flow_id = packet.flow_id
        count = self._drops.get(flow_id, 0) + 1
        self._drops[flow_id] = count
        self._drops_total += 1
        self._drops_lifetime += 1
        obs = self._obs
        if obs is not None:
            obs.emit(DropEvent(now, self.name, flow_id, packet.uid,
                               packet.length, count, policy, evicted))

    def _evict(self, state, index, now, policy):
        """Evict ``state.queue[index]``, charging the drop to its flow."""
        queue = state.queue
        victim = queue[index]
        if index == 0:
            queue.popleft()
        else:
            del queue[index]
        state.bits_queued -= victim.length
        self._backlog_packets -= 1
        self._backlog_bits -= victim.length
        if not queue:
            del self._backlogged[victim.flow_id]
        self._on_packet_evicted(state, victim, index, now)
        self._record_drop(victim, now, policy, True)
        return victim

    def _evictable_front_index(self, state):
        """Queue slot drop-front may evict, or None when it must refuse.

        The hierarchical scheduler overrides this: a committed logical
        head (possibly adopted up the tree) must never be evicted.
        """
        return 0

    def _evictable_tail_index(self, state):
        """Queue slot longest-queue-drop may evict, or None to skip."""
        return len(state.queue) - 1

    def _admit_over_limit(self, state, packet, now):
        """Per-flow cap reached: apply the flow's drop policy.

        Returns True when the arrival should be accepted (an old packet
        was evicted to make room), False when the arrival was dropped.
        """
        policy = self._drop_policies.get(packet.flow_id, DROP_TAIL)
        if policy == DROP_FRONT:
            index = self._evictable_front_index(state)
            if index is not None:
                self._evict(state, index, now, policy)
                return True
        self._record_drop(packet, now, policy, False)
        return False

    def _admit_over_shared(self, state, packet, now):
        """Shared buffer full: apply the scheduler-wide drop policy."""
        policy = self._shared_policy
        if policy == DROP_LONGEST:
            victim = self._lqd_victim()
            if victim is not None:
                victim_state, index = victim
                self._evict(victim_state, index, now, policy)
                return True
        self._record_drop(packet, now, policy, False)
        return False

    def _lqd_victim(self):
        """(FlowState, queue index) of the longest-queue-drop victim.

        The longest *evictable* queue wins; registration order breaks
        ties.  O(N) — acceptable on the drop path, which only runs under
        overload.
        """
        best = None
        best_len = 0
        for flow_state in self._flows.values():
            qlen = len(flow_state.queue)
            # Registration order (index) breaks ties explicitly: after an
            # evict/revive cycle the dict's iteration order no longer
            # matches registration order, and the victim choice must not
            # depend on eviction history.
            if qlen > best_len or (
                qlen == best_len and best is not None
                and flow_state.index < best[0].index
            ):
                index = self._evictable_tail_index(flow_state)
                if index is not None:
                    best = (flow_state, index)
                    best_len = qlen
        return best

    def _on_packet_evicted(self, state, packet, index, now):
        """Hook: a queued packet left ``state.queue[index]`` by eviction.

        Subclasses with head-of-queue tags must re-tag when ``index == 0``:
        the successor inherits the evicted head's start tag (service that
        was never consumed) and only the finish tag is recomputed for the
        new head length; when the queue emptied, the finish tag is rolled
        back to the start tag so a later arrival resumes from the same
        baseline.
        """

    def enqueue(self, packet, now=None):
        """A packet arrives.  ``now`` defaults to ``packet.arrival_time``.

        Returns True if the packet was queued, False if the flow's buffer
        cap dropped it.
        """
        if now is None:
            now = packet.arrival_time
        if now is None:
            now = self._clock
        if now < self._clock:
            raise ValueError(
                f"enqueue time {now!r} precedes scheduler clock {self._clock!r}"
            )
        if packet.arrival_time is None:
            packet.arrival_time = now
        flow_id = packet.flow_id
        state = self._flows.get(flow_id)
        if state is None:
            # Evicted flows resurrect on arrival (raises UnknownFlowError
            # for flows that were never registered).
            state = self._revive(flow_id)
        length = packet.length
        # Inline fast path for the common length types; anything unusual
        # (bool, NaN/inf, non-numeric, exotic Real types) takes the slow
        # validator, which raises ConfigurationError for invalid values.
        if type(length) is float:
            if not 0 < length < _INF:  # False for NaN, inf, non-positive
                self._validate_length(length)
        elif type(length) is not int:
            self._validate_length(length)
        elif length <= 0:
            self._validate_length(length)
        self._clock = now
        self._arrivals += 1
        # The idle test runs before any eviction: an arrival that makes
        # room by evicting the system's last queued packet continues the
        # *same* busy period (no time passed), so tags and V must persist.
        was_idle = self._backlog_packets == 0
        if self._buffer_limits:
            limit = self._buffer_limits.get(flow_id)
            if limit is not None and len(state.queue) >= limit:
                if not self._admit_over_limit(state, packet, now):
                    return False
        if self._shared_limit is not None \
                and self._backlog_packets >= self._shared_limit:
            if not self._admit_over_shared(state, packet, now):
                return False
        was_flow_empty = not state.queue
        state.queue.append(packet)
        state.bits_queued += length
        self._backlog_packets += 1
        self._backlog_bits += length
        self._enqueues += 1
        if was_flow_empty:
            self._backlogged[flow_id] = True
        if was_idle:
            # A new system busy period begins now (at the earliest).
            self._free_at = max(self._free_at, now)
        self._on_enqueue(state, packet, now, was_flow_empty, was_idle)
        obs = self._obs
        if obs is not None:
            obs.emit(EnqueueEvent(now, self.name, packet.flow_id, packet.uid,
                                  packet.length, self._backlog_packets,
                                  len(state.queue)))
        return True

    def dequeue(self, now=None):
        """Select the next packet for transmission at time ``now``.

        Returns a :class:`ScheduledPacket`.  Raises
        :class:`~repro.errors.EmptySchedulerError` when nothing is queued.
        """
        if self._backlog_packets == 0:
            raise EmptySchedulerError(f"{self.name}: dequeue on empty scheduler")
        if now is None:
            now = max(self._clock, self._free_at)
        if now < self._clock:
            raise ValueError(
                f"dequeue time {now!r} precedes scheduler clock {self._clock!r}"
            )
        self._clock = now
        state = self._select_flow(now)
        packet = state.queue.popleft()
        length = packet.length
        state.bits_queued -= length
        self._backlog_packets -= 1
        self._backlog_bits -= length
        self._dequeues += 1
        if not state.queue:
            del self._backlogged[packet.flow_id]
        finish = now + length / self._rate
        self._free_at = finish
        record = self._make_record(state, packet, now, finish)
        self._on_dequeued(state, packet, now)
        obs = self._obs
        if obs is not None:
            obs.emit(DequeueEvent(
                now, self.name, packet.flow_id, packet.uid, packet.length,
                packet.arrival_time, record.start_time, record.finish_time,
                record.virtual_start, record.virtual_finish,
                self.system_virtual_time(now), self.seff,
                self._backlog_packets))
        if self._backlog_packets == 0:
            self._on_system_empty(now)
        return record

    def sync(self, now=None):
        """Settle any lazily deferred internal work up to time ``now``.

        The flat schedulers have none (no-op); the hierarchical scheduler
        runs a pending RESET-PATH whose transmission has completed, so
        callers about to check quiescence (detach/remove during fault
        injection) see the settled tree.
        """

    def drain(self, now=None):
        """Dequeue everything back-to-back; returns the list of records.

        Emulates a continuously busy link starting at ``now`` (default: the
        natural next transmission time).
        """
        records = []
        if self.is_empty:
            return records
        if now is not None:
            record = self.dequeue(now)
            records.append(record)
        while not self.is_empty:
            records.append(self.dequeue())
        return records

    # ------------------------------------------------------------------
    # Batch operations
    # ------------------------------------------------------------------
    def _count_batch(self, n):
        """Record one batch-API call of ``n`` packets in the counters."""
        self._batch_calls += 1
        self._batch_packets += n
        self._batch_hist[_bucket(n)] += 1

    def batch_stats(self):
        """Counters proving (not inferring) batch-path amortization.

        ``batched_fraction`` is the share of all enqueues+dequeues that
        went through a batch API; ``packets_per_batch`` is a histogram
        over :data:`BATCH_BUCKETS`.  Surfaced by ``repro stats
        --pipeline`` and :class:`~repro.obs.profile.SchedulerProfiler`.
        """
        ops = self._enqueues + self._dequeues
        return {
            "batch_calls": self._batch_calls,
            "batch_packets": self._batch_packets,
            "batched_fraction": self._batch_packets / ops if ops else 0.0,
            "packets_per_batch": dict(zip(BATCH_BUCKETS, self._batch_hist)),
        }

    def enqueue_batch(self, packets, now=None):
        """Enqueue a chunk of packets in order; returns the number accepted.

        Semantically identical to calling :meth:`enqueue` per packet:
        arrival times must be non-decreasing, every buffer policy applies,
        and (with an observer attached) the same per-packet events fire.
        When ``now`` is given it is used for *every* packet (a same-instant
        burst); otherwise each packet's ``arrival_time`` drives the clock
        as usual.
        """
        enqueue = self.enqueue
        accepted = 0
        for packet in packets:
            if enqueue(packet, now):
                accepted += 1
        self._count_batch(accepted)
        return accepted

    def dequeue_batch(self, n, now=None):
        """Dequeue up to ``n`` packets back-to-back; returns their records.

        The first dequeue happens at ``now`` (default: the natural next
        transmission time), each subsequent one at the previous packet's
        finish time — exactly the semantics of ``n`` consecutive
        :meth:`dequeue` calls.  Stops early when the scheduler empties;
        unlike :meth:`dequeue` an empty scheduler yields ``[]`` rather
        than raising.
        """
        records = []
        if n > 0 and self._backlog_packets:
            append = records.append
            dequeue = self.dequeue
            append(dequeue(now))
            while len(records) < n and self._backlog_packets:
                append(dequeue())
        self._count_batch(len(records))
        return records

    def drain_until(self, limit, now=None, into=None):
        """Dequeue back-to-back until ``limit``; the crossing packet is kept.

        Emulates a continuously busy link exactly like :meth:`dequeue_batch`
        but bounded by *time* instead of count: packets are dequeued until
        the scheduler empties or a packet's finish time reaches or passes
        ``limit``.  That crossing packet is the last record returned — its
        transmission straddles ``limit``, which is precisely what a caller
        re-entering real-time event processing needs (the Link burst drain
        schedules its completion as a real event).  ``limit=None`` drains
        everything.  ``into`` optionally names the output list (appended
        in service order even if a dequeue raises mid-chunk, so callers
        can account for partially drained work).  The exact WF2Q+ and
        H-PFQ schedulers override this loop with amortized kernels.
        """
        records = [] if into is None else into
        if self._backlog_packets:
            append = records.append
            dequeue = self.dequeue
            count = 1
            record = dequeue(now)
            append(record)
            if limit is None:
                while self._backlog_packets:
                    append(dequeue())
                    count += 1
            else:
                while record.finish_time < limit and self._backlog_packets:
                    record = dequeue()
                    append(record)
                    count += 1
            self._count_batch(count)
        else:
            self._count_batch(0)
        return records

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot(self):
        """Plain-data checkpoint of all mutable scheduler state.

        The snapshot is a nested dict of plain values (numbers, strings,
        packet dicts, heap entry lists) — picklable, and exact: Fraction
        tags survive untouched, so a restored run reproduces the original
        packet-for-packet (``tests/test_checkpoint.py``).

        Restore into a scheduler built by the *same* configuration code
        (same flow set, same registration order, same topology);
        :meth:`restore` validates this.  Subclasses contribute their
        algorithm state via :meth:`_snapshot_extra`.
        """
        flows = {}
        for flow_id, state in self._flows.items():
            flows[flow_id] = {
                "queue": [p.to_dict() for p in state.queue],
                "start_tag": state.start_tag,
                "finish_tag": state.finish_tag,
                "bits_queued": state.bits_queued,
                "index": state.index,
                "tag_epoch": state.tag_epoch,
                "share": state.config.share,
            }
        return {
            "scheduler": self.name,
            "rate": self._rate,
            "clock": self._clock,
            "free_at": self._free_at,
            "tag_epoch": self._tag_epoch,
            "next_flow_index": self._next_flow_index,
            "arrivals": self._arrivals,
            "enqueues": self._enqueues,
            "dequeues": self._dequeues,
            "drops": dict(self._drops),
            "drops_total": self._drops_total,
            "drops_lifetime": self._drops_lifetime,
            "backlog_packets": self._backlog_packets,
            "backlog_bits": self._backlog_bits,
            "buffer_limits": dict(self._buffer_limits),
            "drop_policies": dict(self._drop_policies),
            "shared_limit": self._shared_limit,
            "shared_policy": self._shared_policy,
            "batch_calls": self._batch_calls,
            "batch_packets": self._batch_packets,
            "batch_hist": list(self._batch_hist),
            "flows": flows,
            "evicted": {fid: dict(rec) for fid, rec in self._evicted.items()},
            "extra": self._snapshot_extra(),
        }

    def restore(self, snap):
        """Restore a :meth:`snapshot` into this (compatibly built) scheduler.

        Returns the ``uid -> Packet`` map of the rebuilt queued packets
        (subclass extras and the Link/Simulator joint checkpoint resolve
        their packet references through it).
        """
        if snap.get("scheduler") != self.name:
            raise ConfigurationError(
                f"snapshot is from scheduler {snap.get('scheduler')!r}, "
                f"cannot restore into {self.name!r}"
            )
        flows_snap = snap["flows"]
        evicted_snap = snap.get("evicted") or {}
        # Realign this scheduler's live/evicted split with the snapshot's
        # before the per-flow restore: a freshly built scheduler has every
        # flow live, while the snapshot may have evicted some (and vice
        # versa after in-process rollback).
        for fid in list(self._evicted):
            if fid in flows_snap:
                self._revive(fid)
        for fid in evicted_snap:
            state = self._flows.pop(fid, None)
            if state is not None:
                self._evicted[fid] = {
                    "share": state.config.share,
                    "name": state.config.name,
                    "index": state.index,
                }
        if set(flows_snap) != set(self._flows) \
                or set(evicted_snap) != set(self._evicted):
            missing = (set(flows_snap) | set(evicted_snap)) \
                ^ (set(self._flows) | set(self._evicted))
            raise ConfigurationError(
                f"{self.name}: snapshot flow set does not match this "
                f"scheduler (mismatched: {sorted(map(repr, missing))})"
            )
        # The snapshot's records are authoritative (index/share may have
        # drifted through set_share while evicted is impossible — set_share
        # revives — but a rebuilt scheduler's records are fresh guesses).
        self._evicted = {fid: dict(rec) for fid, rec in evicted_snap.items()}
        uid_map = {}
        total_share = 0
        for rec in evicted_snap.values():
            total_share += rec["share"]
        for flow_id, state in self._flows.items():
            fs = flows_snap[flow_id]
            if state.index != fs["index"]:
                raise ConfigurationError(
                    f"{self.name}: flow {flow_id!r} was registered in a "
                    f"different order than the snapshot (index "
                    f"{state.index} != {fs['index']}); tie-breaks would "
                    f"diverge"
                )
            queue = deque()
            for packet_dict in fs["queue"]:
                packet = Packet.from_dict(packet_dict)
                uid_map[packet.uid] = packet
                queue.append(packet)
            state.queue = queue
            state.start_tag = fs["start_tag"]
            state.finish_tag = fs["finish_tag"]
            state.bits_queued = fs["bits_queued"]
            state.tag_epoch = fs["tag_epoch"]
            if state.config.share != fs["share"]:
                state.config = FlowConfig(flow_id, fs["share"],
                                          name=state.config.name)
            state.rate_gen = -1  # force inv_rate recomputation
            total_share += fs["share"]
        self._total_share = total_share
        self._rate = snap["rate"]
        self._share_gen += 1
        self._clock = snap["clock"]
        self._free_at = snap["free_at"]
        self._tag_epoch = snap["tag_epoch"]
        self._next_flow_index = snap["next_flow_index"]
        self._arrivals = snap["arrivals"]
        self._enqueues = snap["enqueues"]
        self._dequeues = snap["dequeues"]
        self._drops = dict(snap["drops"])
        self._drops_total = snap["drops_total"]
        self._drops_lifetime = snap["drops_lifetime"]
        self._backlog_packets = snap["backlog_packets"]
        self._backlog_bits = snap["backlog_bits"]
        self._buffer_limits = dict(snap["buffer_limits"])
        self._drop_policies = dict(snap["drop_policies"])
        self._shared_limit = snap["shared_limit"]
        self._shared_policy = snap["shared_policy"]
        self._batch_calls = snap.get("batch_calls", 0)
        self._batch_packets = snap.get("batch_packets", 0)
        self._batch_hist = list(snap.get("batch_hist", (0, 0, 0, 0, 0)))
        # Rebuild the backlogged index from the restored queues
        # (registration order — deterministic for any restored run).
        self._backlogged = {
            fid: True for fid, state in self._flows.items() if state.queue
        }
        self._restore_extra(snap["extra"], uid_map)
        return uid_map

    def _snapshot_extra(self):
        """Hook: subclass algorithm state for :meth:`snapshot`.

        Must return plain data; packet references are stored as uids and
        resolved back through the uid map in :meth:`_restore_extra`.
        """
        return None

    def _restore_extra(self, extra, uid_map):
        """Hook: restore the state captured by :meth:`_snapshot_extra`."""

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _on_flow_added(self, state):
        """Called after a flow is registered."""

    def _on_flow_removed(self, state):
        """Called before a flow is unregistered."""

    def _on_enqueue(self, state, packet, now, was_flow_empty, was_idle):
        """Called after a packet joined ``state.queue``."""

    def _select_flow(self, now):
        """Return the FlowState whose head packet is served next."""
        raise NotImplementedError

    def _on_dequeued(self, state, packet, now):
        """Called after ``packet`` left ``state.queue``."""

    def _on_system_empty(self, now):
        """Called when the last packet leaves the system (busy period end)."""

    def _make_record(self, state, packet, now, finish):
        """Build the ScheduledPacket; subclasses may attach virtual tags."""
        return ScheduledPacket(packet, now, finish)

    def __repr__(self):
        return (
            f"{type(self).__name__}(rate={self.rate!r}, "
            f"flows={len(self._flows)}, backlog={self._backlog_packets})"
        )
