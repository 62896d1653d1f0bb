"""Out-of-core CSR storage: graph arrays as memory-mapped files on disk.

The in-memory :class:`~repro.graph.csr.CSRAdjacency` holds ``indptr`` /
``indices`` / ``weights`` / ``loops`` as NumPy arrays; for graphs whose edge
arrays exceed RAM the execution engines instead *map* those arrays from disk.
This module materialises a CSR view once as raw little-endian array files and
reopens them as read-only ``np.memmap`` views:

    <root>/
      <fingerprint>/            # the store's content address (64 hex chars)
        csr/
          meta.json             # schema, fingerprint, dtypes, shapes, byte sizes
          indptr.bin            # int64,   shape (n + 1,)
          indices.bin           # int64,   shape (2m',)
          weights.bin           # float64, aligned with indices
          loops.bin             # float64, shape (n,)

The layout deliberately shares the per-fingerprint directory of
:class:`repro.store.ArtifactStore` (``<root>/<fingerprint>/``), so a session
with a persistent store spills its CSR arrays next to the trajectories they
produce, and ``repro cache ls`` accounts for both.

Guarantees:

* **written once, revalidated by fingerprint** — :func:`materialize_csr` is a
  no-op when ``meta.json`` already names the same fingerprint and every array
  file has exactly the advertised byte size; anything else (missing file,
  truncation, foreign fingerprint, unparseable metadata) triggers a full
  rewrite, so a corrupted directory can cost a rewrite, never a wrong answer;
* **atomic publication** — every file goes to a same-directory temp name and
  is published with ``os.replace``; ``meta.json`` is written *last*, so a
  directory with valid metadata always has complete arrays;
* **bit-identical execution** — the mapped arrays carry the same dtypes and
  byte order as the in-memory view, so the per-round kernels
  (:mod:`repro.engine.kernels`) produce bit-identical trajectories whether
  their operands live in RAM or a mapped file (the cross-engine equivalence
  suite pins this).

Concurrent mappers of one fingerprint are safe: writers only ever publish
complete files under the same content address, and readers that raced a
rewrite re-open identical bytes.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Tuple

import numpy as np

from repro.errors import StoreError
from repro.graph.csr import CSRAdjacency, csr_fingerprint

#: Name of the per-fingerprint subdirectory holding the mapped arrays.
CSR_DIR_NAME = "csr"

#: Schema stamp embedded in (and required of) every ``meta.json``.
MMAP_SCHEMA_VERSION = "repro-csr-mmap/1"

#: The four CSR arrays that are materialised, with their canonical
#: little-endian dtypes (matching :class:`CSRAdjacency` exactly).
CSR_ARRAYS: Tuple[Tuple[str, str], ...] = (
    ("indptr", "<i8"),
    ("indices", "<i8"),
    ("weights", "<f8"),
    ("loops", "<f8"),
)

_HEX_DIGITS = frozenset("0123456789abcdef")


def is_fingerprint(fingerprint) -> bool:
    """Whether ``fingerprint`` is a well-formed CSR content address.

    Exactly 64 lowercase hex characters — the output shape of
    :func:`repro.graph.csr.csr_fingerprint`.  Anything else (prefixes,
    uppercase spellings, arbitrary strings) must be rejected before it touches
    the filesystem, or stray directories pollute the store layout.
    """
    return (isinstance(fingerprint, str) and len(fingerprint) == 64
            and set(fingerprint) <= _HEX_DIGITS)


def csr_edge_bytes(csr) -> int:
    """Bytes of the edge-proportional arrays (``indices`` + ``weights``).

    The spill decision of :class:`~repro.engine.sharded.ShardedEngine` keys on
    this: ``indptr``/``loops`` are O(n) and stay cheap, while the two O(m)
    arrays are what outgrows RAM.
    """
    return int(csr.indices.nbytes) + int(csr.weights.nbytes)


class MappedCSR:
    """Duck-typed CSR view whose arrays are read-only ``np.memmap`` files.

    Carries exactly the attributes the per-round kernels consume (``indptr`` /
    ``indices`` / ``weights`` / ``loops`` plus :attr:`num_nodes`); node labels
    stay with the caller's in-memory view — result assembly never runs on the
    mapped arrays.
    """

    __slots__ = ("indptr", "indices", "weights", "loops", "fingerprint",
                 "directory")

    def __init__(self, indptr, indices, weights, loops, *,
                 fingerprint: str, directory: Path) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.loops = loops
        self.fingerprint = fingerprint
        self.directory = directory

    @property
    def num_nodes(self) -> int:
        """Number of nodes (kernel contract, same as :class:`CSRAdjacency`)."""
        return len(self.indptr) - 1

    @property
    def num_directed_entries(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return len(self.indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MappedCSR n={self.num_nodes} "
                f"entries={self.num_directed_entries} dir={self.directory}>")


def csr_mmap_dir(root, fingerprint: str) -> Path:
    """The directory holding the mapped arrays of ``fingerprint`` under ``root``."""
    if not is_fingerprint(fingerprint):
        raise StoreError(f"not a 64-char hex fingerprint: {fingerprint!r}")
    return Path(root) / fingerprint / CSR_DIR_NAME


def _temp_path(path: Path) -> Path:
    """The same-directory temp file an atomic write of ``path`` goes through.

    Hidden (a leading ``.``), so the artifact store's ``info``/``purge``/
    ``evict`` never see an in-flight write, and unique per process *and*
    thread, so concurrent writers of one artifact never share a temp file
    (``os.replace`` could otherwise publish torn bytes).
    """
    return path.with_name(f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Publish ``payload`` at ``path`` with a temp write and ``os.replace``."""
    tmp = _temp_path(path)
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _atomic_write_array(path: Path, array: np.ndarray, dtype: str) -> int:
    """Write ``array`` as raw little-endian bytes; returns the byte size."""
    data = np.ascontiguousarray(array, dtype=np.dtype(dtype))
    tmp = _temp_path(path)
    try:
        data.tofile(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return int(data.nbytes)


def _read_meta(directory: Path) -> dict:
    """The parsed ``meta.json`` of a csr directory, or {} when absent/corrupt."""
    try:
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return meta if isinstance(meta, dict) else {}


def _meta_matches(directory: Path, meta: dict, fingerprint: str) -> bool:
    """Whether ``meta`` describes a complete, same-fingerprint array set."""
    if (meta.get("schema") != MMAP_SCHEMA_VERSION
            or meta.get("fingerprint") != fingerprint):
        return False
    arrays = meta.get("arrays")
    if not isinstance(arrays, dict):
        return False
    for key, dtype in CSR_ARRAYS:
        spec = arrays.get(key)
        if not isinstance(spec, dict) or spec.get("dtype") != dtype:
            return False
        shape, nbytes = spec.get("shape"), spec.get("nbytes")
        if not isinstance(shape, list) or not isinstance(nbytes, int):
            return False
        try:
            if (directory / f"{key}.bin").stat().st_size != nbytes:
                return False
        except OSError:
            return False
    return True


def materialize_csr(csr: CSRAdjacency, root, *,
                    fingerprint: str = None) -> Tuple[str, Path]:
    """Ensure the arrays of ``csr`` exist on disk; returns ``(fingerprint, dir)``.

    Idempotent by content address: when the directory already holds a valid
    array set for the same fingerprint nothing is written (the write-once
    path), otherwise every array is rewritten atomically and ``meta.json`` is
    published last.  ``fingerprint`` may be passed by callers that already
    computed it (a :class:`~repro.session.Session`); it is trusted to be the
    fingerprint *of this csr* — the content-addressing contract of the store.
    """
    if fingerprint is None:
        fingerprint = csr_fingerprint(csr)
    directory = csr_mmap_dir(root, fingerprint)
    meta = _read_meta(directory)
    if _meta_matches(directory, meta, fingerprint):
        return fingerprint, directory
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for key, dtype in CSR_ARRAYS:
        data = getattr(csr, key)
        nbytes = _atomic_write_array(directory / f"{key}.bin", data, dtype)
        arrays[key] = {"dtype": dtype, "shape": list(data.shape), "nbytes": nbytes}
    meta = {"schema": MMAP_SCHEMA_VERSION, "fingerprint": fingerprint,
            "n": int(csr.num_nodes), "entries": int(csr.num_directed_entries),
            "arrays": arrays}
    atomic_write_bytes(directory / "meta.json",
                       (json.dumps(meta, indent=2) + "\n").encode("utf-8"))
    return fingerprint, directory


def open_mapped_csr(root, fingerprint: str) -> MappedCSR:
    """Open the materialised arrays of ``fingerprint`` as a :class:`MappedCSR`.

    Raises :class:`~repro.errors.StoreError` when the directory does not hold
    a valid array set (use :func:`mmap_csr` to materialise-and-open in one
    step).  Zero-length arrays (an edgeless graph) cannot be mmapped by the
    OS and are served as ordinary empty arrays of the right dtype.
    """
    directory = csr_mmap_dir(root, fingerprint)
    meta = _read_meta(directory)
    if not _meta_matches(directory, meta, fingerprint):
        raise StoreError(f"no valid mapped CSR for {fingerprint[:16]}… "
                         f"under {directory}")
    arrays = {}
    for key, dtype in CSR_ARRAYS:
        shape = tuple(meta["arrays"][key]["shape"])
        path = directory / f"{key}.bin"
        if 0 in shape:  # the OS rejects zero-byte mappings
            arrays[key] = np.empty(shape, dtype=np.dtype(dtype))
            continue
        try:
            arrays[key] = np.memmap(path, dtype=np.dtype(dtype), mode="r",
                                    shape=shape)
        except (OSError, ValueError) as exc:
            raise StoreError(f"cannot map {path}: {exc}") from exc
    return MappedCSR(**arrays, fingerprint=fingerprint, directory=directory)


def mmap_csr(csr: CSRAdjacency, root, *, fingerprint: str = None) -> MappedCSR:
    """Materialise (or revalidate) and open the mapped view of ``csr``."""
    fingerprint, _ = materialize_csr(csr, root, fingerprint=fingerprint)
    return open_mapped_csr(root, fingerprint)
