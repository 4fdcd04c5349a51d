"""A seed's outputs written by a forked child process, off the core that
simulates the seed.

The run loop feeds :class:`ForkedOutputs` what it would feed a seed's
``outputs.SeedOutputs``: growth batches, snapshots and the final sizes. The
parent writes them to a pipe as raw bytes behind a fixed header; the child
reads them back into the ``SeedOutputs`` it inherited by the fork, so the
same code writes the same bytes as in one process. Only a run that forks
imports this module.
"""
from __future__ import annotations

import fcntl
import os
import struct

import numpy as np

from .model import GrowthBatch

# Bytes the pipe to the child holds (64 KiB by default on Linux). While the
# child formats a 2,000-row snapshot the parent steps on, and its growth
# batches wait in the pipe instead of blocking it.
_PIPE_BYTES = 1 << 20
# Header of each message to the child: kind (b"G" growth batch, b"S"
# snapshot, b"F" final sizes), t, column length, and each column's numpy
# dtype string (b"=" for the array of the column before, b"" for none).
_HEADER = struct.Struct("<cqq4s4s4s")


class ForkedOutputs:
    """``outputs``, a ``SeedOutputs``, run by a forked child behind the same
    three methods: ``growth``, ``snapshot`` and ``finish``.

    The child replies with the pairs or with its error, and leaves by
    ``os._exit``. Its error is raised in the parent, and leaving the context
    reaps the child whatever happened.
    """

    def __init__(self, outputs):
        data_r, data_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):
            pass  # not Linux, or above the host's pipe size limit: the default
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (data_r, data_w, reply_r, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(data_w)
            os.close(reply_r)
            _serve(outputs, data_r, reply_w)
        os.close(data_r)
        os.close(reply_w)
        # Fewer, larger pipe writes: 64 KiB holds two growth batches of
        # 2,000 records.
        self._data = open(data_w, "wb", buffering=1 << 16)
        self._reply = reply_r

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:  # the parent failed: end the child and reap it
            self._collect()
        return False

    def growth(self, batch: GrowthBatch) -> None:
        self._send(b"G", 0, *batch.arrays())

    def snapshot(self, t: int, sizes, outputs, solds) -> None:
        self._send(b"S", t, sizes, outputs, solds)

    def finish(self, sizes) -> list[tuple[str, str]]:
        self._send(b"F", 0, sizes)
        return self._outcome()

    def _send(self, kind: bytes, t: int, *columns) -> None:
        codes, arrays = [], []
        for i, col in enumerate(columns):
            if i and col is columns[i - 1]:
                codes.append(b"=")
            else:
                arrays.append(np.ascontiguousarray(col))
                codes.append(arrays[-1].dtype.str.encode())
        codes += [b""] * (3 - len(codes))
        try:
            self._data.write(_HEADER.pack(kind, t, arrays[0].size, *codes))
            for arr in arrays:
                self._data.write(arr)
        except BrokenPipeError:  # the child stopped reading: it failed, and says why
            self._outcome()
            raise

    def _outcome(self) -> list[tuple[str, str]]:
        """Reap the child; returns its pairs, or raises its error."""
        reply, status = self._collect()
        if reply.startswith(b"+"):
            return [tuple(line.split("\t")) for line in reply[1:].decode().splitlines()]
        if reply.startswith(b"!"):
            raise RuntimeError(reply[1:].decode())
        code = os.waitstatus_to_exitcode(status)
        how = f"exited with code {code}" if code >= 0 else f"was killed by signal {-code}"
        raise RuntimeError(f"the process writing the outputs {how}")

    def _collect(self) -> tuple[bytes, int]:
        """Close the pipe to the child, read its reply to the end and reap it;
        returns the reply and the wait status."""
        pid, self.pid = self.pid, None
        try:
            try:
                self._data.close()  # closes the pipe even when the flush fails
            except BrokenPipeError:
                pass  # the child is gone; its reply or its status says why
            with open(self._reply, "rb") as fh:
                reply = fh.read()
        finally:
            status = os.waitpid(pid, 0)[1]
        return reply, status


def _serve(outputs, data_fd: int, reply_fd: int):
    """The forked child's whole life: feed ``outputs`` from the pipe until the
    final sizes arrive, reply, and leave by ``os._exit``, so that no buffer or
    exit handler inherited from the parent runs twice. A pipe that ends early
    means the parent failed; the child then writes nothing more."""
    status, reply = 1, ""
    try:
        with open(data_fd, "rb") as data:
            while head := data.read(_HEADER.size):
                kind, t, n, *codes = _HEADER.unpack(head)
                columns = []
                for code in filter(None, (c.rstrip(b"\0") for c in codes)):
                    if code == b"=":
                        columns.append(columns[-1])
                        continue
                    dtype = np.dtype(code.decode())
                    raw = data.read(n * dtype.itemsize)
                    if len(raw) < n * dtype.itemsize:
                        raise EOFError("the simulating process stopped mid-message")
                    columns.append(np.frombuffer(raw, dtype))
                if kind == b"G":
                    outputs.growth(GrowthBatch(*columns))
                elif kind == b"S":
                    outputs.snapshot(t, *columns)
                else:
                    pairs = outputs.finish(*columns)
                    reply = "+" + "".join(f"{rel}\t{digest}\n" for rel, digest in pairs)
                    break
        status = 0
    except BaseException as exc:  # noqa: BLE001 - raised again in the parent
        reply = "!" + str(exc)
    finally:
        try:
            with open(reply_fd, "w", encoding="utf-8", errors="backslashreplace") as fh:
                fh.write(reply)
        finally:
            os._exit(status)
