"""The packet model shared by every scheduler and the simulator.

A :class:`Packet` is deliberately minimal: a flow id, a length in bits, and
optional bookkeeping fields (arrival time, sequence number, and an opaque
``payload`` used by higher layers such as the TCP model).  Schedulers never
mutate packets; all scheduling state lives in the scheduler.

Lengths and times are plain numbers so that exact tests can use
:class:`fractions.Fraction` while simulations use floats.
"""

import itertools

__all__ = ["Packet"]

_packet_ids = itertools.count()


class Packet:
    """An immutable-ish network packet.

    Parameters
    ----------
    flow_id:
        Identifier of the flow (session / leaf node) the packet belongs to.
    length:
        Packet length in bits.  Must be positive.
    arrival_time:
        Time the packet arrived at the scheduler (seconds).  Optional for
        schedulers driven directly (non-simulated); required by delay
        analysis.
    seqno:
        Per-flow sequence number, assigned by the caller (sources do this).
    payload:
        Opaque object carried through the scheduler untouched (e.g. a TCP
        segment descriptor).
    """

    __slots__ = ("uid", "flow_id", "length", "arrival_time", "seqno", "payload")

    def __init__(self, flow_id, length, arrival_time=None, seqno=None, payload=None):
        if length <= 0:
            raise ValueError(f"packet length must be positive, got {length!r}")
        self.uid = next(_packet_ids)
        self.flow_id = flow_id
        self.length = length
        self.arrival_time = arrival_time
        self.seqno = seqno
        self.payload = payload

    def to_dict(self):
        """Plain-data form for checkpointing (see ``from_dict``).

        ``payload`` is carried by reference, not serialised: snapshots are
        in-process checkpoints, and higher layers (e.g. the TCP model) own
        whatever lifecycle their payload objects have.
        """
        return {
            "uid": self.uid,
            "flow_id": self.flow_id,
            "length": self.length,
            "arrival_time": self.arrival_time,
            "seqno": self.seqno,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, d):
        """Rebuild a packet from ``to_dict``, preserving its ``uid``.

        The global uid counter is not rewound: packets created after a
        restore keep drawing fresh ids, so a restored packet and a new one
        can never collide.
        """
        packet = cls(d["flow_id"], d["length"],
                     arrival_time=d["arrival_time"], seqno=d["seqno"],
                     payload=d["payload"])
        packet.uid = d["uid"]
        return packet

    def __repr__(self):
        parts = [f"flow={self.flow_id!r}", f"len={self.length!r}"]
        if self.arrival_time is not None:
            parts.append(f"t={self.arrival_time!r}")
        if self.seqno is not None:
            parts.append(f"seq={self.seqno}")
        return f"Packet({', '.join(parts)})"

    def __hash__(self):
        return hash(self.uid)

    def __eq__(self, other):
        return self is other

