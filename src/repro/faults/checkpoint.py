"""Joint checkpoint/rollback of a Simulator + Link + scheduler stack.

The individual pieces each know how to snapshot themselves
(``scheduler.snapshot()``, ``link.snapshot()``, ``sim.snapshot()``); the
subtlety a joint checkpoint must handle is the in-flight packet's finish
event, which lives in the simulator queue *and* is re-armed by
``Link.restore``.  :func:`checkpoint` excludes it from the simulator
snapshot so :func:`rollback` neither loses nor doubles it.

Checkpoints are in-process: simulator callbacks (traffic sources, fault
actions) are captured by reference.  Scheduler-only snapshots
(``scheduler.snapshot()``) are plain data and picklable.

Durable checkpoints
-------------------
:func:`save_checkpoint` / :func:`load_checkpoint` persist any *picklable*
checkpoint payload (the cell-level snapshots ``repro.shard.worker``
builds, the service-mode state ``repro.serve`` checkpoints) to disk with
crash-safe atomicity.  Saving is two steps: :func:`encode_checkpoint`
pickles the payload once, and :func:`write_checkpoint` persists those
bytes, so a caller that keeps the bytes (``repro.serve``'s rollback
point, read back with :func:`decode_checkpoint`) serializes each
checkpoint only once:

* the payload is written to a temp file in the target directory, flushed
  and ``fsync``'d, then moved into place with ``os.replace`` (atomic on
  POSIX), and the directory entry is fsync'd — a crash at any instant
  leaves either the old file or the new file, never a torn one;
* a versioned header (magic + format version + payload length + SHA-256)
  lets the loader *detect* truncated, corrupt, or foreign files and
  mismatched format versions and raise a typed
  :class:`~repro.errors.CheckpointError` instead of unpickling garbage.

:class:`CheckpointStore` manages a directory of sequentially numbered
checkpoints and recovers from the newest file that passes verification,
skipping corrupt or partial ones.
"""

import hashlib
import os
import pickle
import struct
import tempfile

from repro.errors import CheckpointError

__all__ = [
    "checkpoint",
    "rollback",
    "encode_checkpoint",
    "decode_checkpoint",
    "write_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointStore",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

#: File magic: identifies a repro checkpoint regardless of version.
CHECKPOINT_MAGIC = b"RPCK"
#: Current on-disk format version.  Bump on any layout change; the loader
#: refuses mismatches with a clear error instead of misinterpreting bytes.
CHECKPOINT_VERSION = 1

#: Header layout: magic, u32 version, u64 payload length, 32-byte SHA-256.
_HEADER = struct.Struct(">4sIQ32s")


def encode_checkpoint(payload, path=None):
    """Pickle ``payload`` into the bytes a checkpoint file carries.

    The one serialization of a checkpoint: :func:`write_checkpoint` and
    :meth:`CheckpointStore.save` persist these bytes unchanged and
    :func:`decode_checkpoint` turns them back into a payload, so a
    caller may also keep them as an in-memory copy frozen at this
    instant.  ``path`` only names the target in the
    :class:`~repro.errors.CheckpointError` (reason ``"pickle"``) raised
    for an unpicklable payload.
    """
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(path, "pickle",
                              f"payload is not picklable: {exc}") from exc


def decode_checkpoint(blob, path=None):
    """Unpickle :func:`encode_checkpoint` bytes into a fresh payload.

    Raises :class:`~repro.errors.CheckpointError` (reason
    ``"unpickle"``) on undecodable bytes; ``path`` names their file.
    """
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(path, "unpickle",
                              f"payload failed to unpickle: {exc}") from exc


def write_checkpoint(path, blob):
    """Atomically persist an :func:`encode_checkpoint` ``blob`` to ``path``.

    Temp file + fsync + ``os.replace`` + directory fsync: after this
    returns, the checkpoint survives a crash or power loss; if the
    process dies mid-write, ``path`` still holds its previous content
    (or stays absent).  Returns the number of bytes written.
    """
    path = os.fspath(path)
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob),
                          hashlib.sha256(blob).digest())
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # fsync the directory so the rename itself is durable.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return len(header) + len(blob)  # platform without dir fds
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return len(header) + len(blob)


def save_checkpoint(path, payload):
    """Atomically persist a picklable ``payload`` to ``path``.

    :func:`encode_checkpoint` then :func:`write_checkpoint`; returns the
    number of bytes written.
    """
    path = os.fspath(path)
    return write_checkpoint(path, encode_checkpoint(payload, path))


def load_checkpoint(path):
    """Load and verify a :func:`save_checkpoint` file.

    Raises :class:`~repro.errors.CheckpointError` with a stable ``reason``
    slug on any defect: ``"truncated"`` (short header or payload),
    ``"magic"`` (not a checkpoint file), ``"version"`` (format version
    mismatch — re-run with the writing version or discard), ``"digest"``
    (bit rot / torn write), ``"unpickle"`` (undecodable payload).
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CheckpointError(
                path, "truncated",
                f"file is {len(header)} bytes, shorter than the "
                f"{_HEADER.size}-byte header")
        magic, version, length, digest = _HEADER.unpack(header)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                path, "magic",
                f"bad magic {magic!r}: not a repro checkpoint file")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                path, "version",
                f"format version {version} does not match this build's "
                f"version {CHECKPOINT_VERSION}; refusing to guess at the "
                f"layout")
        blob = fh.read(length + 1)
        if len(blob) != length:
            raise CheckpointError(
                path, "truncated",
                f"payload is {len(blob)} bytes, header promises {length}")
        if hashlib.sha256(blob).digest() != digest:
            raise CheckpointError(
                path, "digest",
                "payload SHA-256 does not match the header (torn write "
                "or bit rot)")
    return decode_checkpoint(blob, path)


class CheckpointStore:
    """A directory of sequentially numbered durable checkpoints.

    ``save(payload)`` writes ``ckpt-<seq>.bin`` atomically and prunes old
    files beyond ``keep``; ``load_latest()`` returns the newest payload
    that passes verification, *skipping* corrupt/truncated/foreign files
    (each skip is reported through ``on_skip(path, error)``), so a crash
    mid-write — or a damaged newest file — degrades to the previous good
    checkpoint instead of killing recovery.
    """

    def __init__(self, directory, keep=3, on_skip=None):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.keep = max(1, int(keep))
        self.on_skip = on_skip
        self._seq = self._max_seq()

    def _entries(self):
        """Sorted (seq, path) pairs of files matching the naming scheme."""
        entries = []
        for name in os.listdir(self.directory):
            if not (name.startswith("ckpt-") and name.endswith(".bin")):
                continue
            stem = name[5:-4]
            if not stem.isdigit():
                continue
            entries.append((int(stem), os.path.join(self.directory, name)))
        entries.sort()
        return entries

    def _max_seq(self):
        entries = self._entries()
        return entries[-1][0] if entries else 0

    def path_for(self, seq):
        return os.path.join(self.directory, f"ckpt-{seq:08d}.bin")

    def save(self, payload):
        """Persist ``payload`` as the next checkpoint; returns its path.

        ``payload`` is a picklable object, or the ``bytes`` that
        :func:`encode_checkpoint` made of one, written as they are.
        """
        self._seq += 1
        path = self.path_for(self._seq)
        if not isinstance(payload, bytes):
            payload = encode_checkpoint(payload, path)
        write_checkpoint(path, payload)
        self._prune()
        return path

    def _prune(self):
        entries = self._entries()
        for _seq, path in entries[:-self.keep]:
            try:
                os.unlink(path)
            except OSError:
                pass

    def load_latest(self):
        """(payload, path) of the newest verifiable checkpoint.

        Returns ``(None, None)`` when no usable checkpoint exists.
        Corrupt files are skipped newest-first (and surfaced through
        ``on_skip``), never deleted — post-mortem debugging may want
        them.
        """
        for _seq, path in reversed(self._entries()):
            try:
                return load_checkpoint(path), path
            except CheckpointError as exc:
                if self.on_skip is not None:
                    self.on_skip(path, exc)
        return None, None

    def __repr__(self):
        return (f"CheckpointStore({self.directory!r}, "
                f"seq={self._seq}, keep={self.keep})")


def checkpoint(sim, link):
    """Snapshot a simulator and a link (with its scheduler) jointly."""
    return {
        # != not `is not`: each ``link._finish`` access builds a fresh
        # bound method, so identity never matches; equality compares the
        # underlying function and instance.
        "sim": sim.snapshot(keep=lambda e: e.callback != link._finish),
        "link": link.snapshot(),
    }


def rollback(sim, link, snap):
    """Restore a joint :func:`checkpoint`; returns the packet uid map.

    The simulator is restored first (the clock must precede the
    in-flight finish time before the link re-arms it).
    """
    sim.restore(snap["sim"])
    return link.restore(snap["link"], rearm=True)
