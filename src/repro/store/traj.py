"""Append-only elimination trajectories (``.traj`` artifacts).

The elimination trajectory — the ``(T+1) × n`` float64 array at the heart of
Algorithm 2 — is the single largest allocation at scale: it grows with the
round budget, while each round reads only the row before it.  This module is
the artifact store's only on-disk trajectory format: an *append-only*
buffer, so a round loop handed an :class:`AppendTrajectory` as its ``out=``
sink (a store-backed ``Session`` hands one to a large run) keeps only a
sliding window of rows resident, and prefix-resume, ``Session`` restart and
the artifact store all read and extend the same file::

    <root>/
      <fingerprint>/                       # the store's content address
        trajectory-lam<λ>.traj/
          header.json                      # schema, fingerprint, λ, n, dtype,
                                           # rounds (= published rows - 1)
          rows.bin                         # raw little-endian float64 rows;
                                           # row t at byte offset t * n * 8

Row 0 is the all-``+inf`` initial state, stored explicitly; row ``t`` holds
every node's surviving number after ``t`` synchronous rounds — exactly the
in-memory layout, so a read-only ``np.memmap`` over the published prefix is a
drop-in trajectory array.

Append protocol (the crash-safety contract):

* a writer appends the new row(s) *first*, flushes, and only then publishes
  the new round count with an atomic ``header.json`` replace — so a reader
  never observes a round the file does not fully hold;
* readers clamp to ``min(header.rounds, file_rows - 1)``: a torn tail (a
  crash mid-append, an interrupted truncate) costs at most the unpublished
  rounds, never a wrong or unreadable prefix;
* a crash between the row write and the header replace therefore loses at
  most the last un-published round.  (The protocol is crash-consistent
  against process crashes — the OS page cache holds flushed data; power-loss
  durability is best-effort, with an ``fsync`` on writer close.)
* published rows are never rewritten and ``rows.bin`` is never truncated in
  place: a writer that must start over unlinks and recreates it, so a live
  read-only mapping of the old file stays valid.

Because every round is a deterministic function of the previous row,
concurrent appenders of the same ``(fingerprint, λ)`` write identical bytes
to identical offsets and the last header wins.  A header that names a foreign
fingerprint, schema or dtype, or carries a malformed ``n`` or ``rounds``,
reads as absent (and a fresh writer starts over): corruption can cost a
recompute, never a wrong answer.

The default (and currently only) dtype is float64 — bit-identity with the
in-memory engines is the contract.  A narrow ``float32`` flavour would be a
distinct, non-default artifact (the ``dtype`` header field is the hook); see
ROADMAP.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.errors import StoreError
from repro.obs import trace as obs_trace
from repro.utils.numeric import canonical_lam

#: Suffix of the per-(graph, λ) trajectory directory.
TRAJ_SUFFIX = ".traj"

#: Schema stamp embedded in (and required of) every ``header.json``.
TRAJ_SCHEMA_VERSION = "repro-traj/1"

#: The two files inside a ``.traj`` directory.
HEADER_NAME = "header.json"
ROWS_NAME = "rows.bin"

#: Canonical little-endian dtype of the stored rows (the bit-identity contract).
TRAJ_DTYPE = "<f8"

#: Bytes of fixed-point rows materialised at a time by :meth:`AppendTrajectory.fill_to`.
_FILL_CHUNK_BYTES = 8 << 20

_HEX_DIGITS = frozenset("0123456789abcdef")


def is_fingerprint(fingerprint) -> bool:
    """Whether ``fingerprint`` is a well-formed content address.

    Exactly 64 lowercase hex characters — the output shape of
    :func:`repro.graph.csr.csr_fingerprint`.  Anything else (prefixes,
    uppercase spellings, arbitrary strings) must be rejected before it touches
    the filesystem, or stray directories pollute the store layout.
    """
    return (isinstance(fingerprint, str) and len(fingerprint) == 64
            and set(fingerprint) <= _HEX_DIGITS)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Publish ``payload`` at ``path`` with a temp write and ``os.replace``.

    The temp file sits in the same directory, hidden (a leading ``.``) so the
    artifact store's ``info``/``purge``/``evict`` never see an in-flight
    write, and unique per process *and* thread, so concurrent writers of one
    artifact never share a temp file (``os.replace`` could otherwise publish
    torn bytes).
    """
    tmp = path.with_name(
        f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def format_lam(lam: float) -> str:
    """Exact, filename-safe spelling of a λ (``repr`` of the canonical float).

    The one spelling of every store filename that carries a λ.  Canonicalised
    through :func:`repro.utils.numeric.canonical_lam` so the filename agrees
    with every in-memory λ key: ``-0.0`` spells ``"0.0"`` (dict keys collapse
    the two, so the disk must too) and non-finite values — which would mint
    un-reloadable artifact names — raise ``ValueError`` at this boundary.
    """
    return repr(canonical_lam(lam))


def traj_dir(root, fingerprint: str, lam: float) -> Path:
    """The ``.traj`` directory of ``(fingerprint, λ)`` under ``root``."""
    if not is_fingerprint(fingerprint):
        raise StoreError(f"not a 64-char hex fingerprint: {fingerprint!r}")
    return Path(root) / fingerprint / f"trajectory-lam{format_lam(lam)}{TRAJ_SUFFIX}"


def rows_path(root, fingerprint: str, lam: float) -> Path:
    """The ``rows.bin`` file of ``(fingerprint, λ)`` under ``root``."""
    return traj_dir(root, fingerprint, lam) / ROWS_NAME


def is_traj_dir(path) -> bool:
    """Whether ``path`` names a per-(graph, λ) trajectory directory."""
    name = Path(path).name
    return name.startswith("trajectory-lam") and name.endswith(TRAJ_SUFFIX)


def _read_header(directory: Path) -> dict:
    """The parsed ``header.json`` of a ``.traj`` directory ({} when absent/corrupt)."""
    try:
        header = json.loads((directory / HEADER_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return header if isinstance(header, dict) else {}


def _header_matches(header: dict, fingerprint: str, lam: float) -> bool:
    """Whether ``header`` describes *this* ``(fingerprint, λ)`` artifact.

    ``n`` and ``rounds`` must be plain ints (``type(...) is int`` rejects the
    bools JSON can also hold) with ``n >= 1`` and ``rounds >= 0``: a negative
    count would send a writer seeking before row 0.
    """
    n, rounds = header.get("n"), header.get("rounds")
    return (header.get("schema") == TRAJ_SCHEMA_VERSION
            and header.get("fingerprint") == fingerprint
            and header.get("lam") == canonical_lam(lam)
            and header.get("dtype") == TRAJ_DTYPE
            and type(n) is int and n >= 1
            and type(rounds) is int and rounds >= 0)


def _clamped_rounds(directory: Path, header: dict) -> int:
    """Published rounds clamped to what ``rows.bin`` actually holds (-1: none).

    The torn-write recovery rule: the header is the publication record, but a
    crashed or interrupted writer may leave the file shorter than the header
    claims — readers trust whichever is *smaller*, so any prefix they serve
    is fully on disk.
    """
    n = header["n"]
    try:
        size = (directory / ROWS_NAME).stat().st_size
    except OSError:
        return -1
    return min(int(header["rounds"]), size // (n * 8) - 1)


def published_rounds(root, fingerprint: str, lam: float) -> Optional[int]:
    """Round count of the published on-disk trajectory, or None when absent."""
    directory = traj_dir(root, fingerprint, lam)
    header = _read_header(directory)
    if not _header_matches(header, fingerprint, lam):
        return None
    rounds = _clamped_rounds(directory, header)
    return rounds if rounds >= 0 else None


def open_trajectory(root, fingerprint: str, lam: float) -> Optional[np.ndarray]:
    """Read-only ``(rounds+1, n)`` view of the published prefix, or None.

    Absent, corrupted, foreign-fingerprint and fully-torn files all read as
    None (a miss); a partially-torn file reads as its clamped prefix.
    """
    directory = traj_dir(root, fingerprint, lam)
    header = _read_header(directory)
    if not _header_matches(header, fingerprint, lam):
        return None
    rounds = _clamped_rounds(directory, header)
    if rounds < 0:
        return None
    try:
        return np.memmap(directory / ROWS_NAME, dtype=np.float64, mode="r",
                         shape=(rounds + 1, int(header["n"])))
    except (OSError, ValueError):
        return None


class AppendTrajectory:
    """Writer/reader handle over one ``(fingerprint, λ)`` append-trajectory.

    Opens (or creates) the ``.traj`` directory and resumes from whatever
    prefix is already published — the on-disk rows *are* the warm start, so a
    run handed a fresh handle on the same directory continues where a
    crashed or completed run left off.  All writes go through the append
    protocol described in the module docstring.

    The handle owns one ``rows.bin`` file object; :meth:`close` releases it
    (with a best-effort ``fsync``).  Arrays returned by :meth:`as_array` map
    the file independently and stay valid after close.
    """

    def __init__(self, directory, *, fingerprint: str, lam: float,
                 num_nodes: int) -> None:
        if num_nodes < 1:
            raise StoreError(f"an append-trajectory needs n >= 1, got {num_nodes}")
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.lam = canonical_lam(lam)
        self.num_nodes = int(num_nodes)
        self._rowbytes = self.num_nodes * 8
        self.directory.mkdir(parents=True, exist_ok=True)
        header = _read_header(self.directory)
        if _header_matches(header, fingerprint, self.lam) \
                and header.get("n") == self.num_nodes:
            #: rounds published so far (-1: no rows yet), torn tails clamped.
            self.rounds = _clamped_rounds(self.directory, header)
        else:
            # Foreign, corrupt or absent: start over (costs a recompute,
            # never a wrong answer).
            (self.directory / ROWS_NAME).unlink(missing_ok=True)
            (self.directory / HEADER_NAME).unlink(missing_ok=True)
            self.rounds = -1
        path = self.directory / ROWS_NAME
        self._file = open(path, "r+b" if path.exists() else "w+b")
        self._closed = False

    @classmethod
    def open(cls, root, fingerprint: str, lam: float, *,
             num_nodes: int) -> "AppendTrajectory":
        """Open-or-create the appender for ``(fingerprint, λ)`` under ``root``."""
        return cls(traj_dir(root, fingerprint, lam), fingerprint=fingerprint,
                   lam=lam, num_nodes=num_nodes)

    # ------------------------------------------------------------------ reading
    def row(self, t: int) -> np.ndarray:
        """One published row as a fresh (writable) float64 array."""
        if t < 0 or t > self.rounds:
            raise StoreError(f"row {t} is not published (have {self.rounds} rounds)")
        self._file.flush()
        self._file.seek(t * self._rowbytes)
        data = self._file.read(self._rowbytes)
        if len(data) != self._rowbytes:
            raise StoreError(f"published row {t} is truncated on disk")
        return np.frombuffer(data, dtype=np.float64).copy()

    def as_array(self, rounds: Optional[int] = None) -> np.ndarray:
        """Read-only ``(T+1, n)`` memmap of the published prefix.

        ``rounds`` caps the view (a file holding more rounds than requested is
        served by slicing, exactly like an over-long in-memory prefix).  The
        returned array is an independent mapping: it stays valid after
        :meth:`close`.
        """
        r = self.rounds if rounds is None else min(int(rounds), self.rounds)
        if r < 0:
            raise StoreError("no published rows to map")
        self._file.flush()
        return np.memmap(self.directory / ROWS_NAME, dtype=np.float64, mode="r",
                         shape=(r + 1, self.num_nodes))

    # ------------------------------------------------------------------ writing
    def _write_rows(self, first_row: int, block: np.ndarray) -> None:
        block = np.ascontiguousarray(block, dtype=np.float64)
        self._file.seek(first_row * self._rowbytes)
        self._file.write(block.data)  # the array's own buffer, not a copy

    def publish(self, rounds: int) -> None:
        """Atomically publish ``rounds`` as the completed round count.

        Rows through ``rounds`` must already be on disk, written by this
        handle.  The rows are flushed *before* the header replace, so a
        reader that sees the new header can read every row it advertises.
        """
        # publish() runs once per round on the spilled hot path, so the span
        # is explicitly gated: disabled tracing pays one None-check.
        tracer = obs_trace.active()
        if tracer is not None:
            publish_unix = time.time()
            publish_perf = time.perf_counter()
        self._file.flush()
        header = {"schema": TRAJ_SCHEMA_VERSION, "fingerprint": self.fingerprint,
                  "lam": self.lam, "n": self.num_nodes, "dtype": TRAJ_DTYPE,
                  "rounds": int(rounds)}
        atomic_write_bytes(self.directory / HEADER_NAME,
                           (json.dumps(header, indent=2) + "\n").encode("utf-8"))
        self.rounds = int(rounds)
        if tracer is not None:
            tracer.record_span(
                "traj.publish", start_unix=publish_unix,
                duration=time.perf_counter() - publish_perf,
                parent=obs_trace.current_context(),
                attrs={"rounds": int(rounds), "n": self.num_nodes})

    def append_row(self, values: np.ndarray) -> None:
        """Append one completed round and publish it."""
        if values.shape != (self.num_nodes,):
            raise StoreError(f"row of shape {values.shape} does not fit an "
                             f"n={self.num_nodes} trajectory")
        self._write_rows(self.rounds + 1, values.reshape(1, -1))
        self.publish(self.rounds + 1)

    def ensure_prefix(self, prefix: Optional[np.ndarray] = None) -> int:
        """Sync the file with an optional in-memory prefix; returns the rounds.

        With no prefix (or one no longer than the file) this only seeds row 0
        (the all-``+inf`` initial state) when the file is empty — the on-disk
        rows already *are* the resume point.  A longer prefix has its missing
        rows appended verbatim (bit-identical by round determinism).  The
        return value is the published round count the round loop resumes
        after in :func:`repro.engine.kernels.compact_trajectory`.
        """
        if prefix is not None and prefix.shape[1:] != (self.num_nodes,):
            raise StoreError(f"prefix of shape {prefix.shape} does not fit an "
                             f"n={self.num_nodes} trajectory")
        target = -1 if prefix is None else prefix.shape[0] - 1
        if self.rounds < 0 and target < 0:
            self._write_rows(0, np.full((1, self.num_nodes), np.inf))
            self.publish(0)
        elif target > self.rounds:
            lo = self.rounds + 1
            self._write_rows(lo, prefix[lo:target + 1])
            self.publish(target)
        return self.rounds

    def fill_to(self, rounds: int, values: np.ndarray) -> None:
        """Repeat the fixed-point row through ``rounds`` (early-stop parity).

        The in-memory round loop materialises ``trajectory[t:] = new`` when a
        fixed point is reached; this is the same operation, written in bounded
        chunks so no ``(T+1) × n`` allocation sneaks back in.
        """
        if rounds <= self.rounds:
            return
        row = np.ascontiguousarray(values, dtype=np.float64).reshape(1, -1)
        chunk = max(1, _FILL_CHUNK_BYTES // self._rowbytes)
        lo = self.rounds + 1
        while lo <= rounds:
            k = min(chunk, rounds - lo + 1)
            self._write_rows(lo, np.broadcast_to(row, (k, self.num_nodes)))
            lo += k
        self.publish(rounds)

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the file handle (best-effort ``fsync`` for durability)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._file.flush()
            os.fsync(self._file.fileno())
        except OSError:  # pragma: no cover - best effort
            pass
        self._file.close()

    def __enter__(self) -> "AppendTrajectory":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AppendTrajectory n={self.num_nodes} rounds={self.rounds} "
                f"dir={self.directory}>")
