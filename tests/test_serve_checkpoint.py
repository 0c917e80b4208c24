"""Service checkpoints: one serialization, a frozen rollback point.

Each :meth:`ServiceRunner.checkpoint` pickles its payload exactly once.
Those bytes are both the durable file's payload and the in-memory
rollback point the quarantine path restores, so no command applied after
the checkpoint can reach back into either.  The file layout is the
version-1 format (magic, version, length, SHA-256, pickle): a plain
version-1 reader and writer defined here must interoperate with it.  The
digest rows the service folds are pinned for every field type.
"""

import copy
import hashlib
import os
import pickle
import struct
from fractions import Fraction

import pytest

from repro.core.packet import Packet
from repro.core.scheduler import ScheduledPacket
from repro.errors import InvariantViolation
from repro.faults.checkpoint import (
    CheckpointStore,
    encode_checkpoint,
    load_checkpoint,
)
from repro.obs import CallbackSink, DequeueEvent
from repro.serve import DigestTrace, ServiceRunner, build_service_spec


def small_spec():
    return build_service_spec(flows=4, rate=1e6, duration=0.5, seed=7,
                              waves=2)


def newest(directory):
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("ckpt-") and n.endswith(".bin"))
    return os.path.join(directory, names[-1])


def tripwire(flow, after):
    """A sink raising an InvariantViolation naming ``flow`` once the
    service clock passes ``after``."""

    def fn(event):
        if (isinstance(event, DequeueEvent) and event.flow_id == flow
                and event.time >= after):
            raise InvariantViolation(
                "tripwire", f"injected violation on {flow}", event=event)

    return CallbackSink(fn)


def share_of(payload, flow):
    return dict(payload["spec"]["scheduler"]["flows"])[flow]


# ----------------------------------------------------------------------
# One serialization per checkpoint
# ----------------------------------------------------------------------
@pytest.fixture
def counted(monkeypatch):
    """Count every ``pickle.dumps`` and ``copy.deepcopy`` call."""
    calls = {"pickle": 0, "deepcopy": 0}
    dumps, deepcopy = pickle.dumps, copy.deepcopy

    def counting_dumps(*args, **kwargs):
        calls["pickle"] += 1
        return dumps(*args, **kwargs)

    def counting_deepcopy(*args, **kwargs):
        calls["deepcopy"] += 1
        return deepcopy(*args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting_dumps)
    monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
    return calls


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "dir"])
class TestOneSerialization:
    def runner(self, durable, tmp_path, **kwargs):
        return ServiceRunner(
            small_spec(), checkpoint_dir=tmp_path if durable else None,
            **kwargs)

    def test_checkpoint_pickles_once_and_never_deep_copies(
            self, durable, tmp_path, counted):
        runner = self.runner(durable, tmp_path)
        runner.run_to(0.1)
        counted.update(pickle=0, deepcopy=0)
        runner.checkpoint()
        assert counted == {"pickle": 1, "deepcopy": 0}

    def test_cadence_checkpoints_pickle_once_each(self, durable, tmp_path,
                                                  counted):
        runner = self.runner(durable, tmp_path, checkpoint_every=0.05)
        runner.run_to(0.05)
        written = runner.checkpoints_written
        counted.update(pickle=0, deepcopy=0)
        runner.run_to(0.3)
        assert runner.checkpoints_written - written == 5
        assert counted == {"pickle": 5, "deepcopy": 0}


# ----------------------------------------------------------------------
# The rollback point is frozen at checkpoint time
# ----------------------------------------------------------------------
class TestFrozenRollbackPoint:
    def test_no_command_reaches_back_into_the_checkpoint(self, tmp_path):
        runner = ServiceRunner(small_spec(), checkpoint_dir=tmp_path)
        runner.run_to(0.1)
        path = runner.checkpoint()
        expected = copy.deepcopy(runner._last_payload)

        for op, params in [
                ("set_share", {"flow": "f0001", "share": 7}),
                ("set_link_rate", {"rate": 2e6}),
                ("attach", {"flow": "late", "share": 2}),
                ("add_source", {"source": {
                    "type": "cbr", "flow": "late", "length": 8000.0,
                    "rate": 1e5, "start": 0.0, "stop": 0.4}}),
                ("set_buffer", {"flow": "f0000", "packets": 5}),
                ("fault", {"time": 0.3, "fault_kind": "link_rate",
                           "value": 5e5})]:
            runner.submit(op, **params)
        runner.apply_pending()
        runner.run_to(0.14)  # serve on, short of the next checkpoint

        assert runner.commands_applied == 6
        assert runner.spec != expected["spec"]
        assert runner._last_payload == expected
        assert load_checkpoint(path) == expected
        assert load_checkpoint(newest(tmp_path)) == expected

    def test_each_read_is_a_fresh_copy(self):
        runner = ServiceRunner(small_spec())
        first = runner._last_payload
        first["spec"]["scheduler"]["flows"].append(("ghost", 1))
        assert runner._last_payload != first

    def test_command_after_quarantine_leaves_rollback_point_alone(self):
        """A command applied after a quarantine must not reach the
        rollback point, whose spec has to keep agreeing with the link
        snapshot beside it."""
        runner = ServiceRunner(small_spec(), checkpoint_every=0.05)
        runner.link.attach_observer(tripwire("f0001", 0.18))
        runner.run_to(0.19)
        assert "f0001" in runner.status()["ingress_blocked"]
        rollback = runner._last_payload
        assert rollback["clock"] == pytest.approx(0.15)
        assert share_of(rollback, "f0002") == 3

        runner.submit("set_share", flow="f0002", share=7)
        runner.apply_pending()
        assert share_of({"spec": runner.spec}, "f0002") == 7
        rollback = runner._last_payload
        assert share_of(rollback, "f0002") == 3
        assert rollback["link"]["scheduler"]["flows"]["f0002"]["share"] == 3

    def test_two_quarantines_in_one_checkpoint_interval(self):
        """The first quarantine's completed detach must not reach the
        rollback point: the second quarantine restores a snapshot that
        still holds that flow, so the rollback spec must not yet list it
        as detached."""
        runner = ServiceRunner(small_spec(), checkpoint_every=0.05)
        runner.link.attach_observer(tripwire("f0001", 0.16))
        runner.run_to(0.17)
        runner.submit("set_share", flow="f0002", share=7)
        runner.link.attach_observer(tripwire("f0000", 0.17))
        runner.run_to(0.2)

        assert [e.category for e in runner.incidents] == [
            "quarantine", "quarantine"]
        assert runner.status()["ingress_blocked"] == ["f0000", "f0001"]
        # Both rolled back to t=0.15, which discards the set_share: the
        # rebuilt spec agrees with the restored scheduler.
        live_share = runner.link.scheduler._flows["f0002"].config.share
        assert share_of({"spec": runner.spec}, "f0002") == live_share == 3

        # The t=0.2 checkpoint rebuilds the same world.
        payload = runner._last_payload
        resumed = ServiceRunner(payload["spec"], checkpoint_every=0.05,
                                _restore=payload)
        runner.run_to(0.5)
        resumed.run_to(0.5)
        assert resumed.digest == runner.digest
        assert runner.link.scheduler.conservation()["balanced"]


# ----------------------------------------------------------------------
# The file format: version 1, unchanged by the encode/write split
# ----------------------------------------------------------------------
V1_HEADER = struct.Struct(">4sIQ32s")


def v1_write(path, payload):
    """The version-1 writer as first released: one pickle, one header."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "wb") as fh:
        fh.write(V1_HEADER.pack(b"RPCK", 1, len(blob),
                                hashlib.sha256(blob).digest()))
        fh.write(blob)


def v1_read(path):
    """The version-1 reader as first released."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, length, digest = V1_HEADER.unpack(data[:V1_HEADER.size])
    blob = data[V1_HEADER.size:]
    assert (magic, version, length) == (b"RPCK", 1, len(blob))
    assert hashlib.sha256(blob).digest() == digest
    return pickle.loads(blob)


class TestFileFormat:
    def test_file_and_rollback_point_are_the_same_bytes(self, tmp_path):
        runner = ServiceRunner(small_spec(), checkpoint_dir=tmp_path)
        runner.run_to(0.1)
        path = runner.checkpoint()
        with open(path, "rb") as fh:
            blob = fh.read()[V1_HEADER.size:]
        assert pickle.loads(blob) == runner._last_payload
        assert blob == encode_checkpoint(runner._last_payload)

    def test_service_checkpoint_reads_with_the_v1_reader(self, tmp_path):
        runner = ServiceRunner(small_spec(), checkpoint_dir=tmp_path,
                               checkpoint_every=0.05)
        runner.run_to(0.12)
        path = newest(tmp_path)
        assert v1_read(path) == runner._last_payload
        legacy = tmp_path / "legacy.bin"
        v1_write(legacy, runner._last_payload)
        with open(path, "rb") as new, open(legacy, "rb") as old:
            assert new.read() == old.read()

    def test_v1_file_recovers_to_the_uninterrupted_digest(self, tmp_path):
        baseline = ServiceRunner(small_spec(), checkpoint_every=0.05)
        baseline.run_to(0.3)

        victim = ServiceRunner(small_spec(), checkpoint_every=0.05)
        victim.run_to(0.17)
        restore_dir = tmp_path / "restore"
        restore_dir.mkdir()
        v1_write(restore_dir / "ckpt-00000001.bin", victim._last_payload)
        survivor = ServiceRunner.recover(restore_dir, checkpoint_every=0.05)
        assert survivor.now == pytest.approx(0.15)
        survivor.run_to(0.3)
        assert survivor.digest == baseline.digest

    def test_store_writes_a_dict_and_its_bytes_identically(self, tmp_path):
        payload = {"clock": 0.25, "rows": [1, 2, Fraction(1, 3)]}
        store = CheckpointStore(tmp_path, keep=5)
        from_dict = store.save(payload)
        from_bytes = store.save(encode_checkpoint(payload))
        with open(from_dict, "rb") as a, open(from_bytes, "rb") as b:
            assert a.read() == b.read()
        assert v1_read(from_bytes) == payload


# ----------------------------------------------------------------------
# Digest rows are the same text for every field type
# ----------------------------------------------------------------------
class Ratio(Fraction):
    pass


class Seconds(float):
    def __repr__(self):
        return f"Seconds({float(self)!r})"


class Count(int):
    pass


class Name(str):
    pass


def canonical(value):
    """The row rule: ``num/den`` for any Fraction, ``repr`` otherwise."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


FIELDS = [
    ("f0000", 1, 8000.0, 0.0, 0.008, 0.0, 0.004),
    ("f0001", 2, 8000.0, 0.1, 0.2, Fraction(1, 3), Fraction(7, 3)),
    ("f0002", True, 1e300, -0.0, float("inf"), None, float("nan")),
    (7, False, 12000, 2 ** 70, 0.5, Ratio(5, 4), Fraction(3)),
    (Name("f0003"), Count(4), Seconds(0.25), Seconds(1.5), 3.0,
     Ratio(1, 2), Count(9)),
    (("cell", 3), None, 8000.0, 0.1, 0.2, 0.3, 0.4),
]


@pytest.mark.parametrize("fields", FIELDS, ids=lambda f: repr(f)[:40])
def test_digest_row_text_for_every_field_type(fields):
    flow, seqno, length, start, finish, vstart, vfinish = fields
    packet = Packet(flow, length, arrival_time=0.0, seqno=seqno)
    record = ScheduledPacket(packet, start, finish, vstart, vfinish)

    trace = DigestTrace()
    seed = trace.digest
    trace.record_service(record)
    row = "|".join(canonical(v) for v in fields)
    assert trace.digest == hashlib.sha256((seed + row).encode()).hexdigest()
