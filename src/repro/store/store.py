"""The content-addressed on-disk artifact store.

Layout
------
One directory per graph, addressed by its CSR content fingerprint
(:func:`repro.graph.csr.csr_fingerprint`)::

    <root>/
      <fingerprint>/                     # exactly 64 lowercase hex chars
        graph.json                       # schema, n, entries, sample labels
        trajectory-lam<λ>.npz            # longest elimination trajectory per λ
        result-T<T>-lam<λ>-<rule>-k<0|1>.npz   # full SurvivingNumbers (see below)
        csr/                             # memory-mapped CSR arrays, written by
          meta.json, *.bin               # repro.graph.mmap_csr for out-of-core runs
        trajectory-lam<λ>.traj/          # append-only out-of-core trajectory
          header.json, rows.bin          # (repro.store.traj): rounds are appended
                                         # by the engine and published with atomic
                                         # header updates; row t at offset t*n*8

The ``.traj`` directory is the spilled twin of ``trajectory-lam<λ>.npz``:
engines running with ``trajectory_storage="mmap"`` append completed rounds
directly into ``rows.bin`` and publish each one by atomically replacing
``header.json``, so a crash loses at most the un-published round — readers
always see a complete round prefix (clamped to what the file actually holds).
Loads consult both spellings and serve whichever holds more rounds, preferring
the mapped file on ties (no RAM copy); ``info``/``purge``/``evict`` account
the directory like the ``csr/`` arrays, with ``header.json`` treated as the
descriptor that is only removed when its rows are gone.

λ is spelled canonically in filenames (:func:`repro.utils.numeric.canonical_lam`:
``-0.0`` and ``0.0`` are one artifact, matching the in-memory caches that
collapse the two; non-finite λ is rejected with ``ValueError``).

Every ``.npz`` carries a JSON ``meta`` entry (schema version, artifact kind,
fingerprint, λ, round count, node count) that is validated on load; files with
a wrong schema, a mismatching fingerprint or any decoding problem are treated
as absent — a corrupted or foreign file can cost a recompute, never a wrong
answer.  Writes go to a same-directory temp file and are published with an
atomic ``os.replace``, so concurrent readers only ever observe complete
artifacts and the last writer wins.

Trajectory artifacts serve the array engines: a stored ``(T+1, n)`` float64
trajectory warm-starts any later request on the same graph and λ (a longer
budget resumes after the stored rounds, a smaller one is served by slicing).
Result artifacts serve engines that keep no trajectory (the faithful
simulator): the per-node values and kept sets are stored as arrays indexed by
integer node id — the fingerprint guarantees the caller's label order matches,
so labels themselves never need to round-trip through the file.  Human-facing
metadata (``graph.json``) serializes sample labels with the collision-free
JSON protocol of :mod:`repro.utils.serialize`.
"""

from __future__ import annotations

import io
import json
import os
import threading
import zipfile
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.rounding import LambdaGrid
from repro.core.surviving import SurvivingNumbers
from repro.errors import StoreError
from repro.graph.mmap_csr import CSR_DIR_NAME, is_fingerprint
from repro.obs import trace as obs_trace
from repro.store import traj as traj_store
from repro.utils.numeric import canonical_lam
from repro.utils.serialize import json_node

#: Schema stamp embedded in (and required of) every stored artifact.
SCHEMA_VERSION = "repro-store/1"

#: Exceptions a load treats as "artifact absent" rather than a crash: anything
#: a truncated, corrupted, foreign or concurrently-replaced file can raise
#: (TypeError covers wrong-typed metadata fields, e.g. a string round count).
_LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError, EOFError,
                zipfile.BadZipFile, json.JSONDecodeError)


def _format_lam(lam: float) -> str:
    """Exact, filename-safe spelling of a λ (``repr`` of the canonical float).

    Canonicalised through :func:`repro.utils.numeric.canonical_lam` so the
    filename agrees with every in-memory λ key: ``-0.0`` spells ``"0.0"``
    (dict keys collapse the two, so the disk must too) and non-finite values
    — which would mint un-reloadable artifact names — raise ``ValueError``
    at this boundary.
    """
    return repr(canonical_lam(lam))


class ArtifactStore:
    """A persistent, content-addressed store of per-graph artifacts.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).  Multiple
        processes may share a root: writes are atomic renames and loads
        tolerate mid-flight replacement.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} exists and is not a directory")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArtifactStore root={self.root}>"

    # ------------------------------------------------------------------ layout
    def graph_dir(self, fingerprint: str) -> Path:
        """The directory holding every artifact of ``fingerprint``.

        Requires a *complete* content address — exactly 64 lowercase hex
        characters, the output shape of
        :func:`repro.graph.csr.csr_fingerprint`.  Anything shorter (or
        case-mangled) would mint a stray directory that ``info``/``purge``
        then misreport, so it raises :class:`StoreError` instead.
        """
        if not is_fingerprint(fingerprint):
            raise StoreError(f"not a 64-char lowercase hex fingerprint: "
                             f"{fingerprint!r}")
        return self.root / fingerprint

    def _trajectory_path(self, fingerprint: str, lam: float) -> Path:
        return self.graph_dir(fingerprint) / f"trajectory-lam{_format_lam(lam)}.npz"

    def _result_path(self, fingerprint: str, *, rounds: int, lam: float,
                     tie_break: str, track_kept: bool) -> Path:
        return self.graph_dir(fingerprint) / (
            f"result-T{int(rounds)}-lam{_format_lam(lam)}-{tie_break}"
            f"-k{int(bool(track_kept))}.npz")

    # ----------------------------------------------------------------- writing
    def _atomic_write(self, path: Path, payload: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique per process *and* thread: concurrent writers of the same
        # artifact (e.g. two store-backed sessions in one process) must never
        # share a temp file, or os.replace could publish torn bytes.
        tmp = path.with_name(
            f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _write_npz(self, path: Path, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
        buffer = io.BytesIO()
        np.savez(buffer, meta=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)
        self._atomic_write(path, buffer.getvalue())

    def _write_graph_meta(self, fingerprint: str, n: int,
                          labels: Sequence[Hashable]) -> None:
        path = self.graph_dir(fingerprint) / "graph.json"
        if path.exists():
            return
        meta = {"schema": SCHEMA_VERSION, "fingerprint": fingerprint, "n": n,
                "sample_labels": [json_node(label) for label in labels[:8]]}
        self._atomic_write(path, (json.dumps(meta, indent=2) + "\n").encode("utf-8"))

    # ----------------------------------------------------------------- reading
    @staticmethod
    def _read_meta(archive: np.lib.npyio.NpzFile) -> dict:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("meta entry is not an object")
        return meta

    def _load_npz(self, path: Path, *, kind: str, fingerprint: str,
                  lam: float) -> Optional[Tuple[dict, "np.lib.npyio.NpzFile"]]:
        """Open and validate one artifact; None for absent/corrupt/foreign files."""
        try:
            archive = np.load(path, allow_pickle=False)
        except _LOAD_ERRORS:
            return None
        try:
            meta = self._read_meta(archive)
            if (meta.get("schema") != SCHEMA_VERSION or meta.get("kind") != kind
                    or meta.get("fingerprint") != fingerprint
                    or meta.get("lam") != float(lam)):
                archive.close()
                return None
            return meta, archive
        except _LOAD_ERRORS:
            archive.close()
            return None

    # ------------------------------------------------------------ trajectories
    def save_trajectory(self, fingerprint: str, lam: float,
                        trajectory: np.ndarray,
                        labels: Sequence[Hashable] = ()) -> Path:
        """Persist the ``(T+1, n)`` trajectory for ``(fingerprint, λ)``.

        Unconditionally replaces any stored trajectory for the pair — callers
        (the :class:`~repro.session.Session` integration) only write when they
        hold more rounds than the store does.
        """
        trajectory = np.ascontiguousarray(trajectory, dtype=np.float64)
        if trajectory.ndim != 2 or trajectory.shape[0] < 1:
            raise StoreError(f"not a trajectory array: shape {trajectory.shape}")
        meta = {"schema": SCHEMA_VERSION, "kind": "trajectory",
                "fingerprint": fingerprint, "lam": canonical_lam(lam),
                "rounds": int(trajectory.shape[0] - 1), "n": int(trajectory.shape[1])}
        path = self._trajectory_path(fingerprint, lam)
        with obs_trace.span("store.save_trajectory", fingerprint=fingerprint,
                            lam=meta["lam"], rounds=meta["rounds"]):
            self._write_npz(path, meta, {"trajectory": trajectory})
            self._write_graph_meta(fingerprint, trajectory.shape[1], labels)
        return path

    def _load_npz_trajectory(self, fingerprint: str, lam: float) -> Optional[np.ndarray]:
        loaded = self._load_npz(self._trajectory_path(fingerprint, lam),
                                kind="trajectory", fingerprint=fingerprint, lam=lam)
        if loaded is None:
            return None
        meta, archive = loaded
        try:
            trajectory = archive["trajectory"]
            if (trajectory.ndim != 2 or trajectory.dtype != np.float64
                    or trajectory.shape != (meta.get("rounds", -2) + 1, meta.get("n"))):
                return None
            return trajectory
        except _LOAD_ERRORS:
            return None
        finally:
            archive.close()

    def load_trajectory(self, fingerprint: str, lam: float) -> Optional[np.ndarray]:
        """The stored trajectory for ``(fingerprint, λ)``, or None.

        Consults both spellings — the monolithic ``.npz`` and the append-only
        ``.traj`` directory — and serves whichever holds more rounds; on a tie
        the ``.traj`` file wins, as a read-only ``np.memmap`` (no RAM copy).
        Absent, corrupted, schema-mismatching and fingerprint-mismatching
        files all read as None (a miss).
        """
        with obs_trace.span("store.load_trajectory", fingerprint=fingerprint,
                            lam=canonical_lam(lam)) as sp:
            mapped = traj_store.open_trajectory(self.root, fingerprint, lam)
            npz = self._load_npz_trajectory(fingerprint, lam)
            if mapped is not None and (npz is None
                                       or mapped.shape[0] >= npz.shape[0]):
                loaded = mapped
            else:
                loaded = npz
            sp.set(hit=loaded is not None,
                   rounds=-1 if loaded is None else loaded.shape[0] - 1)
            return loaded

    def trajectory_rounds(self, fingerprint: str, lam: float) -> Optional[int]:
        """Round count of the stored trajectory without loading the arrays.

        The maximum over both spellings (``.npz`` metadata and the ``.traj``
        append header, the latter clamped to the rows actually on disk).
        """
        counts = []
        loaded = self._load_npz(self._trajectory_path(fingerprint, lam),
                                kind="trajectory", fingerprint=fingerprint, lam=lam)
        if loaded is not None:
            meta, archive = loaded
            archive.close()
            rounds = meta.get("rounds")
            if isinstance(rounds, int):
                counts.append(int(rounds))
        appended = traj_store.published_rounds(self.root, fingerprint, lam)
        if appended is not None:
            counts.append(appended)
        return max(counts) if counts else None

    # ----------------------------------------------------------------- results
    def save_result(self, fingerprint: str, result: SurvivingNumbers, *,
                    lam: float, tie_break: str, track_kept: bool,
                    labels: Sequence[Hashable]) -> Path:
        """Persist a full :class:`SurvivingNumbers` (values + kept sets).

        ``labels`` is the node-label sequence in integer-id order (the CSR
        ``node_order`` / graph insertion order); values and kept sets are
        stored as arrays indexed by those ids.  Used for engines that keep no
        trajectory — trajectory engines persist the (smaller, composable)
        trajectory instead and reassemble results from it.
        """
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(result.values):
            raise StoreError(
                f"labels ({len(index)}) do not cover the result ({len(result.values)})")
        values = np.array([result.values[label] for label in labels], dtype=np.float64)
        kept_ids: List[int] = []
        kept_indptr = np.zeros(len(labels) + 1, dtype=np.int64)
        for i, label in enumerate(labels):
            members = result.kept.get(label, ())
            kept_ids.extend(index[member] for member in members)
            kept_indptr[i + 1] = len(kept_ids)
        meta = {"schema": SCHEMA_VERSION, "kind": "result",
                "fingerprint": fingerprint, "lam": canonical_lam(lam),
                "rounds": int(result.rounds), "n": len(labels),
                "tie_break": tie_break, "track_kept": bool(track_kept),
                "stats_summary": result.stats_summary}
        path = self._result_path(fingerprint, rounds=result.rounds, lam=lam,
                                 tie_break=tie_break, track_kept=track_kept)
        with obs_trace.span("store.save_result", fingerprint=fingerprint,
                            lam=meta["lam"], rounds=meta["rounds"]):
            self._write_npz(path, meta, {
                "values": values,
                "kept_indices": np.asarray(kept_ids, dtype=np.int64),
                "kept_indptr": kept_indptr,
            })
            self._write_graph_meta(fingerprint, len(labels), labels)
        return path

    def load_result(self, fingerprint: str, *, rounds: int, lam: float,
                    tie_break: str, track_kept: bool,
                    labels: Sequence[Hashable],
                    grid: LambdaGrid) -> Optional[SurvivingNumbers]:
        """Rebuild a stored :class:`SurvivingNumbers`, or None on any mismatch.

        ``labels`` and ``grid`` come from the caller's live graph — the
        fingerprint guarantees they match what was stored, so the file only
        carries arrays.  The reloaded result is value- and kept-identical to
        the stored one; the simulator's per-round ``message_stats`` are not
        persisted (``stats_summary`` is).
        """
        path = self._result_path(fingerprint, rounds=rounds, lam=lam,
                                 tie_break=tie_break, track_kept=track_kept)
        with obs_trace.span("store.load_result", fingerprint=fingerprint,
                            lam=canonical_lam(lam), rounds=rounds):
            loaded = self._load_npz(path, kind="result",
                                    fingerprint=fingerprint, lam=lam)
        if loaded is None:
            return None
        meta, archive = loaded
        try:
            if (meta.get("rounds") != int(rounds) or meta.get("n") != len(labels)
                    or meta.get("tie_break") != tie_break
                    or meta.get("track_kept") != bool(track_kept)):
                return None
            values_array = archive["values"]
            kept_indices = archive["kept_indices"]
            kept_indptr = archive["kept_indptr"]
            n = len(labels)
            if (values_array.shape != (n,) or kept_indptr.shape != (n + 1,)
                    or kept_indptr[-1] != kept_indices.shape[0]
                    or (kept_indices.size and not (
                        0 <= kept_indices.min() and kept_indices.max() < n))):
                return None
            values = {label: float(values_array[i]) for i, label in enumerate(labels)}
            kept = {label: tuple(labels[j] for j in
                                 kept_indices[kept_indptr[i]:kept_indptr[i + 1]])
                    for i, label in enumerate(labels)}
            return SurvivingNumbers(values=values, kept=kept, rounds=int(rounds),
                                    grid=grid, num_nodes=n,
                                    stats_summary=str(meta.get("stats_summary", "")))
        except _LOAD_ERRORS:
            return None
        finally:
            archive.close()

    # ----------------------------------------------------------------- lineage
    def lineage_path(self, chain_fingerprint: str) -> Path:
        """The ``lineage.json`` descriptor of a chained (delta-derived) version.

        Lives in the version's *chain*-fingerprint directory — a 64-hex
        address like any content fingerprint, so the same layout, hygiene
        and management machinery apply.
        """
        return self.graph_dir(chain_fingerprint) / "lineage.json"

    def record_lineage(self, chain_fingerprint: str, parent_fingerprint: str,
                       delta, *, content_fingerprint: Optional[str] = None,
                       parent_content_fingerprint: Optional[str] = None) -> Path:
        """Persist the lineage edge ``chain_fingerprint -> (parent, delta)``.

        ``delta`` is a :class:`repro.graph.delta.GraphDelta`; its wire form is
        embedded so the mutation is replayable after a restart (graphs whose
        node labels are not JSON scalars record ``delta: null`` — the edge
        survives, the replay does not).  ``content_fingerprint`` maps the
        chain address to the mutated graph's content address, which is where
        the child's own artifacts (trajectories, results, CSR spills) live.
        Idempotent overwrite: the chain fingerprint determines the content.
        """
        try:
            delta_doc = delta.to_dict()
            json.dumps(delta_doc)
        except TypeError:
            delta_doc = None
        doc = {"schema": SCHEMA_VERSION, "kind": "lineage",
               "fingerprint": chain_fingerprint,
               "parent": parent_fingerprint,
               "content_fingerprint": content_fingerprint,
               "parent_content_fingerprint": parent_content_fingerprint,
               "delta": delta_doc}
        path = self.lineage_path(chain_fingerprint)
        with obs_trace.span("store.record_lineage",
                            fingerprint=chain_fingerprint,
                            parent_fingerprint=parent_fingerprint):
            self._atomic_write(path, (json.dumps(doc, indent=2) + "\n")
                               .encode("utf-8"))
        return path

    def load_lineage(self, chain_fingerprint: str) -> Optional[dict]:
        """The lineage record of ``chain_fingerprint``, or None.

        Absent, corrupted, schema-mismatching and address-mismatching files
        all read as None (the usual "can cost a recompute, never a wrong
        answer" posture).
        """
        try:
            doc = json.loads(self.lineage_path(chain_fingerprint)
                             .read_text(encoding="utf-8"))
        except _LOAD_ERRORS:
            return None
        if (not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION
                or doc.get("kind") != "lineage"
                or doc.get("fingerprint") != chain_fingerprint
                or not is_fingerprint(doc.get("parent", ""))):
            return None
        return doc

    def lineage_chain(self, chain_fingerprint: str) -> List[dict]:
        """The recorded ancestry of ``chain_fingerprint``, child first.

        Walks ``parent`` links until a fingerprint with no lineage record —
        the chain's root (a plain content-addressed graph) — or a cycle
        (corrupt records) is reached.  An empty list means the fingerprint
        itself has no recorded lineage.
        """
        chain: List[dict] = []
        seen = {chain_fingerprint}
        current = chain_fingerprint
        while True:
            record = self.load_lineage(current)
            if record is None:
                return chain
            chain.append(record)
            current = record["parent"]
            if current in seen:  # corrupt: a cycle is not a lineage
                return chain
            seen.add(current)

    # -------------------------------------------------------------- management
    def csr_dir(self, fingerprint: str) -> Path:
        """The subdirectory holding ``fingerprint``'s memory-mapped CSR arrays.

        Written by :mod:`repro.graph.mmap_csr` when a session spills a graph
        out of core; the store accounts for (``info``) and removes
        (``purge``/``evict``) these files like any other artifact.
        """
        return self.graph_dir(fingerprint) / CSR_DIR_NAME

    def traj_dir(self, fingerprint: str, lam: float) -> Path:
        """The append-only ``.traj`` directory of ``(fingerprint, λ)``.

        Written by engines running with ``trajectory_storage="mmap"`` (see
        :mod:`repro.store.traj`); accounted for and removed like any other
        artifact.
        """
        self.graph_dir(fingerprint)  # same malformed-fingerprint contract
        return traj_store.traj_dir(self.root, fingerprint, lam)

    def record_graph(self, fingerprint: str, n: int,
                     labels: Sequence[Hashable] = ()) -> None:
        """Ensure the human-facing ``graph.json`` descriptor exists.

        Idempotent; used by callers that create artifacts without going
        through ``save_trajectory``/``save_result`` (e.g. a session whose
        engine appended the trajectory straight into the ``.traj`` file).
        """
        self._write_graph_meta(fingerprint, n, labels)

    def _artifact_files(self, fingerprint: Optional[str] = None) -> Iterator[Path]:
        # Hidden files are skipped everywhere: a ``.{name}.tmp-*`` file is an
        # in-flight atomic write, not an artifact — counting it misreports
        # ``info`` and letting ``purge``/``evict`` delete it would yank a
        # temp file out from under a concurrent writer's ``os.replace``.
        dirs = [self.graph_dir(fingerprint)] if fingerprint else (
            [p for p in sorted(self.root.iterdir())
             if p.is_dir() and is_fingerprint(p.name)]
            if self.root.is_dir() else [])
        for directory in dirs:
            if directory.is_dir():
                for path in sorted(directory.iterdir()):
                    if path.name.startswith("."):
                        continue
                    if path.is_file():
                        yield path
                    elif path.is_dir() and (path.name == CSR_DIR_NAME
                                            or traj_store.is_traj_dir(path)):
                        yield from sorted(
                            p for p in path.iterdir()
                            if p.is_file() and not p.name.startswith("."))

    def fingerprints(self) -> Tuple[str, ...]:
        """Fingerprints of every graph with at least one stored file.

        Only well-formed content addresses are listed: a stray directory
        (whatever mkdir'd it) is not a graph and must not make ``info`` /
        ``purge`` trip over it.
        """
        if not self.root.is_dir():
            return ()
        return tuple(sorted(p.name for p in self.root.iterdir()
                            if p.is_dir() and is_fingerprint(p.name)
                            and any(p.iterdir())))

    @staticmethod
    def _is_csr_file(path: Path) -> bool:
        return path.parent.name == CSR_DIR_NAME

    @staticmethod
    def _is_traj_file(path: Path) -> bool:
        return traj_store.is_traj_dir(path.parent)

    def info(self, fingerprint: Optional[str] = None) -> dict:
        """Totals (and per-graph rows) for the CLI and tests.

        Returns ``{"root", "graphs": [{"fingerprint", "files", "bytes",
        "csr_bytes", "traj_bytes", "kinds"}, ...], "files", "bytes"}``;
        ``csr_bytes`` / ``traj_bytes`` are the slices of ``bytes`` held by
        memory-mapped CSR arrays and append-only trajectories (the
        out-of-core footprint ``repro cache ls`` reports per graph).  A file
        vanishing between the directory scan and its ``stat`` (a concurrent
        ``purge``/``evict``/replace) is skipped, not a crash.
        """
        graphs = []
        total_files = total_bytes = 0
        targets = (fingerprint,) if fingerprint else self.fingerprints()
        for fp in targets:
            sizes = {}
            for p in self._artifact_files(fp):
                try:
                    sizes[p] = p.stat().st_size
                except OSError:
                    continue  # deleted/replaced mid-scan: not an artifact now
            size = sum(sizes.values())
            csr_bytes = sum(s for p, s in sizes.items() if self._is_csr_file(p))
            traj_bytes = sum(s for p, s in sizes.items() if self._is_traj_file(p))
            kinds = sorted({"csr" if self._is_csr_file(p)
                            else "trajectory" if self._is_traj_file(p)
                            else p.name.split("-")[0].removesuffix(".json")
                            for p in sizes})
            graphs.append({"fingerprint": fp, "files": len(sizes),
                           "bytes": size, "csr_bytes": csr_bytes,
                           "traj_bytes": traj_bytes, "kinds": kinds})
            total_files += len(sizes)
            total_bytes += size
        return {"root": str(self.root), "graphs": graphs,
                "files": total_files, "bytes": total_bytes}

    def purge(self, fingerprint: Optional[str] = None) -> int:
        """Delete every artifact (of one graph, or of the whole store).

        Returns the number of files removed.  Directories left empty are
        pruned; the root itself is kept.
        """
        removed = 0
        for path in list(self._artifact_files(fingerprint)):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent removal
                pass
        dirs = [self.graph_dir(fingerprint)] if fingerprint else (
            [p for p in self.root.iterdir()
             if p.is_dir() and is_fingerprint(p.name)]
            if self.root.is_dir() else [])
        for directory in dirs:
            subdirs = [p for p in directory.iterdir() if p.is_dir()] \
                if directory.is_dir() else []
            for candidate in subdirs + [directory]:
                try:
                    candidate.rmdir()
                except OSError:
                    pass
        return removed

    def evict(self, max_bytes: int) -> int:
        """Remove oldest-modified artifacts until the store fits ``max_bytes``.

        Memory-mapped CSR arrays and append-only trajectories are evictable
        like any other artifact (a later out-of-core run re-materialises /
        recomputes them — the revalidation in :mod:`repro.graph.mmap_csr` and
        the header clamp in :mod:`repro.store.traj` treat a torn set as
        absent).  The ``graph.json`` / ``csr/meta.json`` / ``.traj``
        ``header.json`` descriptors are only removed when their directory has
        no artifacts left.  Returns the number of files removed.
        """
        if max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self._artifact_files():
            if path.name in ("graph.json", "lineage.json") or (
                    self._is_csr_file(path) and path.name == "meta.json") or (
                    self._is_traj_file(path)
                    and path.name == traj_store.HEADER_NAME):
                continue
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - vanished mid-scan
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in sorted(entries, key=lambda entry: entry[0]):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                continue
            total -= size
            removed += 1
        for directory in ([p for p in self.root.iterdir()
                           if p.is_dir() and is_fingerprint(p.name)]
                          if self.root.is_dir() else []):
            for subdir in [p for p in directory.iterdir() if p.is_dir()]:
                if subdir.name == CSR_DIR_NAME:
                    descriptor = "meta.json"
                elif traj_store.is_traj_dir(subdir):
                    descriptor = traj_store.HEADER_NAME
                else:
                    continue
                if not any(p for p in subdir.iterdir()
                           if p.name != descriptor):
                    (subdir / descriptor).unlink(missing_ok=True)
                    try:
                        subdir.rmdir()
                    except OSError:  # pragma: no cover - concurrent write
                        pass
            # graph.json is a descriptor (goes when nothing is left to
            # describe); lineage.json is a *record* — a few hundred bytes
            # whose loss would orphan a whole chain of versions, so evict
            # never candidates it (above) and a directory holding one is
            # not empty.  Only ``purge`` removes lineage.
            artifacts = [p for p in directory.iterdir() if p.name != "graph.json"]
            if not artifacts:
                (directory / "graph.json").unlink(missing_ok=True)
                try:
                    directory.rmdir()
                except OSError:  # pragma: no cover - concurrent write
                    pass
        return removed
