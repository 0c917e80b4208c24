"""WF2Q+ — the paper's primary contribution (Section 3.4).

WF2Q+ keeps WF2Q's *Smallest Eligible virtual Finish time First* (SEFF)
policy but replaces the O(N) exact GPS virtual time with the self-contained
system virtual time of eq. (27):

    V(t + tau) = max( V(t) + tau,  min over backlogged i of S_i )

where ``S_i`` is the virtual start tag of the packet at the head of session
i's queue.  The two properties that matter (both discussed in the paper):

* **minimum slope 1** (the ``V(t) + tau`` arm) — necessary and sufficient for
  delay bounds within one packet of GPS;
* **V >= min start tag** (the ``min S_i`` arm) — a newly backlogged session's
  start tag (``S = max(F_old, V)``) is then at least as large as some
  currently backlogged session's, which yields the N-independent WFI of
  Theorem 4, and it guarantees at least one eligible packet, i.e. work
  conservation.

Per-session (not per-packet) tags follow eqs. (28)-(29): when a packet
reaches the head of session i's queue,

    S_i = F_i                      if the queue was non-empty
    S_i = max(F_i, V(arrival))     if the session was idle
    F_i = S_i + L / r_i

Tags are in seconds of guaranteed service: ``r_i`` is the session's absolute
guaranteed rate ``share_i / total_share * link_rate``.

Complexity: two :class:`~repro.dstruct.heap.IndexedHeap` instances give
O(log N) per enqueue/dequeue — the paper's claim (c), demonstrated
empirically by ``benchmarks/test_complexity_scaling.py``.  Eligible flows
are keyed by finish tag (SEFF selection), ineligible ones by start tag (the
eligibility test).  No third heap tracks min S_i: every eligible flow has
S_i <= V, so the min-S_i arm of eq. (27) can only move V when the eligible
heap is empty, and then min S_i is the ineligible heap's top key.

Hot-path engineering (none of it changes eq. 27/28-29 semantics — see
DESIGN.md "Hot-path architecture" and ``tests/test_equivalence_optimized``):

* busy-period tag resets are *lazy*: a per-scheduler epoch counter is
  bumped at the boundary and a flow's stale tags are zeroed on first read,
  so the boundary costs O(1) instead of O(N);
* ``1 / r_i`` is cached per flow (``FlowState.inv_rate``), invalidated by
  share/rate changes only;
* the dequeue path re-keys the served flow with single-sift heap
  operations (``replace_top`` / ``move_top_to``) instead of discard +
  push pairs.
"""

from repro.core.scheduler import PacketScheduler, ScheduledPacket
from repro.dstruct.heap import IndexedHeap
from repro.obs.events import VirtualTimeUpdate

__all__ = ["WF2QPlusScheduler"]


class WF2QPlusScheduler(PacketScheduler):
    """One-level WF2Q+ server: SEFF policy with the eq. (27) virtual time."""

    name = "WF2Q+"
    seff = True

    def __init__(self, rate):
        super().__init__(rate)
        self._virtual = 0
        #: Real time at which self._virtual was last brought up to date.
        self._virtual_stamp = 0
        self._eligible = IndexedHeap()    # backlogged flows, key = finish tag
        self._ineligible = IndexedHeap()  # backlogged flows, key = start tag

    # ------------------------------------------------------------------
    # Virtual time (eq. 27)
    # ------------------------------------------------------------------
    def virtual_time(self):
        """Current value of V (as of the last update instant)."""
        return self._virtual

    def system_virtual_time(self, now=None):
        return self._virtual

    def _advance_virtual(self, now, floor=True):
        """V(t + tau) = max(V + tau, min S_i) — evaluated lazily at events.

        The min-S arm only applies at *selection* instants (``floor=True``),
        mirroring the paper's pseudocode where V is updated in RESTART-NODE.
        Applying it at arrival instants would let V leap to the start tag of
        a lone backlogged session's queued packet, handing that session
        extra early service and inflating the WFI beyond Theorem 4.

        Every eligible flow has S <= V (it was classified against an
        earlier, no larger V), so min S can only exceed V when the eligible
        heap is empty — and then min S is the ineligible heap's top key.
        """
        tau = now - self._virtual_stamp
        v = self._virtual + tau
        if floor and not self._eligible.entries:
            ient = self._ineligible.entries
            if ient and ient[0][0][0] > v:
                v = ient[0][0][0]
        self._virtual = v
        self._virtual_stamp = now
        obs = self._obs
        if obs is not None:
            obs.emit(VirtualTimeUpdate(now, self.name, None, v))

    # ------------------------------------------------------------------
    # Tag bookkeeping
    # ------------------------------------------------------------------
    def _set_head_tags(self, state, was_flow_empty, now):
        """Apply eqs. (28)-(29) for the packet now at the head of ``state``."""
        head = state.head()
        if state.tag_epoch != self._tag_epoch:
            # Lazy busy-period reset: this flow's tags are stale leftovers
            # from a previous busy period (everything was served).
            state.start_tag = 0
            state.finish_tag = 0
            state.tag_epoch = self._tag_epoch
        if was_flow_empty:
            state.start_tag = max(state.finish_tag, self._virtual)
        else:
            state.start_tag = state.finish_tag
        state.finish_tag = state.start_tag + head.length * self._inv_rate(state)
        self._register_head(state)

    def _register_head(self, state):
        flow_id = state.flow_id
        if state.start_tag <= self._virtual:
            self._ineligible.discard(flow_id)
            self._eligible.push_or_update(
                flow_id, (state.finish_tag, state.index)
            )
        else:
            self._eligible.discard(flow_id)
            self._ineligible.push_or_update(
                flow_id, (state.start_tag, state.index)
            )

    def _promote_eligible(self):
        ineligible = self._ineligible
        ient = ineligible.entries
        if not ient:
            return
        eligible = self._eligible
        flows = self._flows
        virtual = self._virtual
        while ient and ient[0][0][0] <= virtual:
            state = flows[ient[0][2]]
            ineligible.move_top_to(
                eligible, (state.finish_tag, state.index)
            )

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def _on_enqueue(self, state, packet, now, was_flow_empty, was_idle):
        if was_idle and now >= self._free_at:
            # New system busy period: V restarts at zero and stale finish
            # tags (everything was served) are cleared.  An arrival while
            # the last packet is still in transmission (now < _free_at)
            # belongs to the *same* busy period — tags must persist, or a
            # returning flow would jump ahead with a fresh S = 0 and break
            # the Theorem 4 WFI.  The per-flow clearing is lazy: bumping
            # the epoch invalidates every flow's tags in O(1); each flow
            # zeroes its own on the next read (_set_head_tags), so the
            # boundary no longer costs O(N).
            self._virtual = 0
            self._virtual_stamp = now
            self._tag_epoch += 1
            obs = self._obs
            if obs is not None:
                obs.emit(VirtualTimeUpdate(now, self.name, None, 0,
                                           reset=True))
        if was_flow_empty:
            self._advance_virtual(now, floor=False)
            self._set_head_tags(state, True, now)

    def _select_flow(self, now):
        self._advance_virtual(now)
        self._promote_eligible()
        # The min-S arm of eq. (27) guarantees the eligible heap is
        # non-empty whenever any flow is backlogged.
        flow_id = self._eligible.entries[0][2]
        return self._flows[flow_id]

    def _on_dequeued(self, state, packet, now):
        self._last_virtual_start = state.start_tag
        self._last_virtual_finish = state.finish_tag
        flow_id = state.flow_id
        eligible = self._eligible
        ent = eligible.entries
        if ent and ent[0][2] == flow_id:
            # Hot path: SEFF selection always serves the eligible top, so
            # the flow can be re-keyed in place with single-sift heap ops
            # instead of the discard x2 + push pattern.  The served
            # flow's tags are fresh this epoch (they were set when its
            # head packet was tagged inside the current busy period).
            if state.queue:
                start = state.finish_tag          # eq. (28), Q != 0
                state.start_tag = start
                finish = start + state.queue[0].length * self._inv_rate(state)
                state.finish_tag = finish
                if start <= self._virtual:
                    eligible.replace_top(flow_id, (finish, state.index))
                else:
                    eligible.move_top_to(
                        self._ineligible, (start, state.index)
                    )
            else:
                eligible.pop()
        else:
            # Ablation subclasses (no-SEFF / no-floor) may legitimately
            # serve a flow that is not the eligible top — or is in the
            # ineligible heap; fall back to the general bookkeeping.
            eligible.discard(flow_id)
            self._ineligible.discard(flow_id)
            if state.queue:
                self._set_head_tags(state, False, now)

    def _make_record(self, state, packet, now, finish):
        return ScheduledPacket(
            packet, now, finish,
            virtual_start=state.start_tag,
            virtual_finish=state.finish_tag,
        )

    def _on_system_empty(self, now):
        # Busy period over; the reset happens lazily on the next enqueue.
        pass

    # ------------------------------------------------------------------
    # Batch drain (amortized kernel)
    # ------------------------------------------------------------------
    def drain_until(self, limit, now=None, into=None):
        """Amortized :meth:`PacketScheduler.drain_until`: hoisted
        heaps/counters, inline eq. (27) advance and single-sift re-keying,
        zero per-packet dispatch.

        Packet-for-packet identical to repeated :meth:`dequeue` calls (the
        arithmetic is the same expression sequence on the same operands —
        exact under ``Fraction``).  Only this exact class runs it, and only
        with no observer, so no hook or event site is bypassed; anything
        else takes the base loop.  Appends into the records list as it
        goes so partially drained work survives an exception.
        """
        if type(self) is not WF2QPlusScheduler or self._obs is not None:
            return PacketScheduler.drain_until(self, limit, now, into)
        records = [] if into is None else into
        backlog = self._backlog_packets
        if backlog == 0:
            self._count_batch(0)
            return records
        clock = self._clock
        if now is None:
            now = clock if clock > self._free_at else self._free_at
        elif now < clock:
            raise ValueError(
                f"dequeue time {now!r} precedes scheduler clock {clock!r}"
            )
        flows = self._flows
        backlogged = self._backlogged
        rate = self._rate
        total_share = self._total_share
        gen = self._share_gen
        eligible = self._eligible
        ineligible = self._ineligible
        eent = eligible.entries
        ient = ineligible.entries
        replace_top = eligible.replace_top
        demote = eligible.move_top_to
        promote = ineligible.move_top_to
        virtual = self._virtual
        stamp = self._virtual_stamp
        backlog_bits = self._backlog_bits
        append = records.append
        count = 0
        start_tag = finish_tag = None
        try:
            while backlog:
                # eq. (27): V = max(V + tau, min S_i), floored at selection;
                # min S_i > V only with no eligible flow (_advance_virtual).
                v = virtual + (now - stamp)
                if not eent and ient[0][0][0] > v:
                    v = ient[0][0][0]
                virtual = v
                stamp = now
                while ient and ient[0][0][0] <= v:
                    st = flows[ient[0][2]]
                    promote(eligible, (st.finish_tag, st.index))
                flow_id = eent[0][2]
                state = flows[flow_id]
                queue = state.queue
                packet = queue.popleft()
                length = packet.length
                state.bits_queued -= length
                backlog -= 1
                backlog_bits -= length
                finish = now + length / rate
                start_tag = state.start_tag
                finish_tag = state.finish_tag
                append(ScheduledPacket(packet, now, finish,
                                       start_tag, finish_tag))
                if queue:
                    start = finish_tag  # eq. (28), Q != 0
                    state.start_tag = start
                    if state.rate_gen != gen:
                        state.inv_rate = 1 / (
                            state.config.share / total_share * rate
                        )
                        state.rate_gen = gen
                    fin = start + queue[0].length * state.inv_rate
                    state.finish_tag = fin
                    if start <= virtual:
                        replace_top(flow_id, (fin, state.index))
                    else:
                        demote(ineligible, (start, state.index))
                else:
                    eligible.pop()
                    del backlogged[flow_id]
                count += 1
                clock = now
                now = finish
                if limit is not None and finish >= limit:
                    break
        finally:
            self._clock = clock
            self._free_at = now if count else self._free_at
            self._virtual = virtual
            self._virtual_stamp = stamp
            self._backlog_packets = backlog
            self._backlog_bits = backlog_bits
            self._dequeues += count
            if count:
                self._last_virtual_start = start_tag
                self._last_virtual_finish = finish_tag
            self._count_batch(count)
        return records

    # ------------------------------------------------------------------
    # Robustness hooks (reconfiguration / eviction / checkpoint)
    # ------------------------------------------------------------------
    def _on_reconfigured(self):
        # Start tags record service already owed and persist; each
        # backlogged head's finish tag is rebased to F = S + L / r_i'
        # under the new rates.  Eligibility (S vs V) is untouched, so only
        # the finish-keyed eligible heap needs re-keying; the ineligible
        # heap is keyed by the unchanged S.
        eligible = self._eligible
        for state in self._flows.values():
            if not state.queue:
                continue
            finish = state.start_tag \
                + state.queue[0].length * self._inv_rate(state)
            state.finish_tag = finish
            if state.flow_id in eligible.pos:
                eligible.update(state.flow_id, (finish, state.index))

    def _evictable_idle(self, state, now):
        """An idle WF2Q+ flow's state is dead weight once its tags can no
        longer influence eq. (28)'s ``S = max(F, V)``.

        Two provably safe cases:

        * the tag epoch is stale — the lazy busy-period reset would zero
          the tags on the next read anyway, exactly what a revived state
          carries;
        * ``F <= V``: V is non-decreasing within a busy-period epoch, so
          at any later arrival ``max(F, V) = V = max(0, V)`` — the revived
          zero-tag state produces the identical start tag.  ``_virtual``
          at its stamp is a valid lower bound for every future V in this
          epoch (the clock may lag the stamp after a chunked drain, so the
          elapsed-time term is only added when non-negative).

        An idle flow sits in neither heap (they hold only backlogged
        flows), so no heap surgery is needed.
        """
        if state.tag_epoch != self._tag_epoch:
            return True
        v = self._virtual
        tau = now - self._virtual_stamp
        if tau > 0:
            v = v + tau
        return state.finish_tag <= v

    def _on_packet_evicted(self, state, packet, index, now):
        if index != 0:
            return  # only the head packet carries tags
        flow_id = state.flow_id
        if state.queue:
            finish = state.start_tag \
                + state.queue[0].length * self._inv_rate(state)
            state.finish_tag = finish
            if flow_id in self._eligible.pos:
                self._eligible.update(flow_id, (finish, state.index))
            # _ineligible is keyed by the inherited start tag.
        else:
            state.finish_tag = state.start_tag
            self._eligible.discard(flow_id)
            self._ineligible.discard(flow_id)

    def _snapshot_extra(self):
        return {
            "virtual": self._virtual,
            "virtual_stamp": self._virtual_stamp,
            "eligible": self._eligible.snapshot(),
            "ineligible": self._ineligible.snapshot(),
        }

    def _restore_extra(self, extra, uid_map):
        # Checkpoints from before the two-heap floor also carry a "starts"
        # heap; it is derivable from the other two and ignored.
        self._virtual = extra["virtual"]
        self._virtual_stamp = extra["virtual_stamp"]
        self._eligible.restore(extra["eligible"])
        self._ineligible.restore(extra["ineligible"])
