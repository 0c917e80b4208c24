"""Batch-kernel engagement guards re-checked on *every* batch call.

The amortized kernels of the exact :class:`WF2QPlusScheduler` and
:class:`HPFQScheduler` bypass the event bus and the buffer-cap
bookkeeping, so they may only run while neither exists.  These are the
regression tests for the mid-run cases: an observer or buffer limit set
*between* batch calls must disengage the kernel from the very next call
onward, with the served schedule identical to a per-packet run.
"""

import pytest

from repro.config import leaf, node
from repro.core.hierarchy import HPFQScheduler
from repro.core.packet import Packet
from repro.core.wf2qplus import WF2QPlusScheduler
from repro.obs import MetricsSink, RingBufferSink

N = 32  # comfortably above BATCH_KERNEL_MIN


def burst(fids, length=1.0, t=0.0, base=0):
    return [Packet(fid, length, arrival_time=t, seqno=base + i)
            for i, fid in enumerate(list(fids) * (N // len(fids)))]


def flat():
    s = WF2QPlusScheduler(8.0)
    for fid in "abcd":
        s.add_flow(fid, 1)
    return s


def tree():
    return HPFQScheduler(node("root", 1, [
        node("g", 1, [leaf("a", 1), leaf("b", 1)]),
        node("h", 2, [leaf("c", 1), leaf("d", 3)]),
    ]), 8.0)


@pytest.fixture(params=[flat, tree], ids=["WF2Q+", "H-WF2Q+"])
def make(request):
    return request.param


def test_observer_attached_mid_run_sees_every_later_packet(make):
    """The kernels bypass the event bus, so events for post-attach
    batches are only possible if the guard disengaged them."""
    sched = make()
    sched.enqueue_batch(burst("abcd"), now=0.0)
    sched.dequeue_batch(N)

    sink = RingBufferSink()
    sched.attach_observer(sink)  # mid-run, between batch calls
    sched.enqueue_batch(burst("abcd", t=10.0, base=100), now=10.0)
    sched.dequeue_batch(N)
    kinds = [e.kind for e in sink.events()]
    assert kinds.count("enqueue") == N
    assert kinds.count("dequeue") == N


def test_drain_until_also_guarded(make):
    sched = make()
    sched.enqueue_batch(burst("abcd"), now=0.0)
    sink = RingBufferSink()
    sched.attach_observer(sink)
    sched.drain_until(limit=None)
    assert sum(e.kind == "dequeue" for e in sink.events()) == N


def test_buffer_limit_set_mid_run_enforced_on_next_batch(make):
    sched = make()
    sched.enqueue_batch(burst("abcd"), now=0.0)
    sched.dequeue_batch(N)

    sched.set_buffer_limit("a", 3)
    accepted = sched.enqueue_batch(burst("a", t=10.0, base=100), now=10.0)
    assert accepted == 3
    assert sched.drops("a") == N - 3

    # Clearing the cap admits the whole next batch again.
    sched.dequeue_batch(N)
    sched.set_buffer_limit("a", None)
    assert sched.enqueue_batch(burst("a", t=20.0, base=200), now=20.0) == N


def test_schedule_identical_across_mid_run_attach(make):
    """Disengaging mid-run must not perturb service: the batch run with
    a mid-run attach matches a per-packet run of the same arrivals."""
    def row(r):
        return (r.packet.flow_id, r.packet.seqno, r.start_time,
                r.finish_time, r.virtual_start, r.virtual_finish)

    def batched(sched):
        sched.enqueue_batch(burst("abcd"), now=0.0)
        out = sched.dequeue_batch(N)
        sched.attach_observer(MetricsSink())
        sched.enqueue_batch(burst("abcd", t=10.0, base=100), now=10.0)
        out += sched.dequeue_batch(N)
        return [row(r) for r in out]

    def per_packet(sched):
        out = []
        for t, base in ((0.0, 0), (10.0, 100)):
            for packet in burst("abcd", t=t, base=base):
                sched.enqueue(packet, now=t)
            out += [sched.dequeue() for _ in range(N)]
        return [row(r) for r in out]

    assert batched(make()) == per_packet(make())
