"""The content-addressed on-disk artifact store.

Layout
------
One directory per graph, addressed by its CSR content fingerprint
(:func:`repro.graph.csr.csr_fingerprint`)::

    <root>/
      <fingerprint>/                     # exactly 64 lowercase hex chars
        graph.json                       # schema, n, entries, sample labels
        trajectory-lam<λ>.traj/          # append-only elimination trajectory
          header.json, rows.bin          # per λ (repro.store.traj): rows are
                                         # appended, then published with an
                                         # atomic header replace; row t at
                                         # offset t*n*8
        result-T<T>-lam<λ>-<rule>-k<0|1>.npz   # full SurvivingNumbers (see below)

Trajectories have one on-disk format, the ``.traj`` directory of
:mod:`repro.store.traj`.  :meth:`ArtifactStore.save_trajectory` appends only
the rows the file does not yet publish — published rows are never rewritten,
since each round is a deterministic function of the one before — and
:meth:`ArtifactStore.load_trajectory` maps the published prefix read-only.
A store-backed :class:`~repro.session.Session` whose trajectory reaches its
spill threshold hands the engine this very file's appender, so the run
appends round by round and persisting it appends nothing.  A crash
loses at most the un-published round; readers always see a complete round
prefix (clamped to what the file actually holds).  ``info``/``purge``/
``evict`` account the directory's files like any other artifact, with
``header.json`` treated as the descriptor that is only removed when its rows
are gone.  Trajectory ``.npz`` files and ``csr/`` directories of
memory-mapped CSR arrays written by earlier versions are no longer read (a
trajectory's first request recomputes once); ``info`` counts them, and
``purge`` and ``evict`` remove them.  On decimal weights, where engines can
differ in the last ulp, rows a second engine appends follow the first
engine's prefix; integer and dyadic weights, which the bit-identity contract
covers, are unaffected.

λ is spelled canonically in filenames (:func:`repro.utils.numeric.canonical_lam`:
``-0.0`` and ``0.0`` are one artifact, matching the in-memory caches that
collapse the two; non-finite λ is rejected with ``ValueError``).

Every result ``.npz`` carries a JSON ``meta`` entry (schema version, artifact
kind, fingerprint, λ, round count, node count) that is validated on load;
files with a wrong schema, a mismatching fingerprint or any decoding problem
are treated as absent — a corrupted or foreign file can cost a recompute,
never a wrong answer.  Writes go to a same-directory temp file and are
published with an atomic ``os.replace``, so concurrent readers only ever
observe complete artifacts and the last writer wins.

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
import zipfile
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.orientation import KeptSets, NodeValues
from repro.core.rounding import LambdaGrid
from repro.core.surviving import SurvivingNumbers
from repro.errors import StoreError
from repro.obs import trace as obs_trace
from repro.store import traj as traj_store
from repro.store.traj import atomic_write_bytes, is_fingerprint
from repro.utils.numeric import canonical_lam
from repro.utils.serialize import json_node

#: Schema stamp embedded in (and required of) every stored artifact.
SCHEMA_VERSION = "repro-store/1"

#: Subdirectory of memory-mapped CSR arrays that earlier versions wrote: never
#: read, only counted by ``info`` and removed by ``purge``/``evict``.
_LEGACY_CSR_DIR = "csr"

#: Exceptions a load treats as "artifact absent" rather than a crash: anything
#: a truncated, corrupted, foreign or concurrently-replaced file can raise
#: (TypeError covers wrong-typed metadata fields, e.g. a string round count).
_LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError, EOFError,
                zipfile.BadZipFile, json.JSONDecodeError)


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

    def _result_path(self, fingerprint: str, *, rounds: int, lam: float,
                     tie_break: str, track_kept: bool) -> Path:
        return self.graph_dir(fingerprint) / (
            f"result-T{int(rounds)}-lam{traj_store.format_lam(lam)}-{tie_break}"
            f"-k{int(bool(track_kept))}.npz")

    # ----------------------------------------------------------------- writing
    def _write_npz(self, path: Path, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
        buffer = io.BytesIO()
        np.savez(buffer, meta=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8), **arrays)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, buffer.getvalue())

    def _write_graph_meta(self, fingerprint: str, n: int,
                          labels: Sequence[Hashable]) -> None:
        path = self.graph_dir(fingerprint) / "graph.json"
        if path.exists():
            return
        meta = {"schema": SCHEMA_VERSION, "fingerprint": fingerprint, "n": n,
                "sample_labels": [json_node(label) for label in labels[:8]]}
        atomic_write_bytes(path, (json.dumps(meta, indent=2) + "\n").encode("utf-8"))

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

        Appends, through :meth:`~repro.store.traj.AppendTrajectory.ensure_prefix`,
        only the rows the ``.traj`` file does not yet publish: published rows
        are never rewritten (round determinism makes them equal to
        ``trajectory``'s), and a trajectory no longer than the file appends
        nothing.  Returns the ``.traj`` directory.
        """
        trajectory = np.asarray(trajectory, dtype=np.float64)
        if trajectory.ndim != 2 or trajectory.shape[0] < 1:
            raise StoreError(f"not a trajectory array: shape {trajectory.shape}")
        with obs_trace.span("store.save_trajectory", fingerprint=fingerprint,
                            lam=canonical_lam(lam),
                            rounds=trajectory.shape[0] - 1):
            with traj_store.AppendTrajectory.open(
                    self.root, fingerprint, lam,
                    num_nodes=trajectory.shape[1]) as appender:
                appender.ensure_prefix(trajectory)
            self._write_graph_meta(fingerprint, trajectory.shape[1], labels)
        return appender.directory

    def load_trajectory(self, fingerprint: str, lam: float, *,
                        num_nodes: int) -> Optional[np.ndarray]:
        """The stored trajectory for ``(fingerprint, λ)``, or None.

        A read-only ``np.memmap`` over the published prefix of the ``.traj``
        file (no RAM copy).  Absent, corrupted, foreign and fully-torn files
        all read as None (a miss), and so does a file whose rows are not
        ``num_nodes`` wide: it cannot be this graph's trajectory.
        """
        with obs_trace.span("store.load_trajectory", fingerprint=fingerprint,
                            lam=canonical_lam(lam)) as sp:
            loaded = traj_store.open_trajectory(self.root, fingerprint, lam)
            if loaded is not None and loaded.shape[1] != num_nodes:
                loaded = None
            sp.set(hit=loaded is not None,
                   rounds=-1 if loaded is None else loaded.shape[0] - 1)
            return loaded

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
        labels = tuple(labels)
        distinct = len(set(labels))
        if distinct != len(result.values):
            raise StoreError(
                f"labels ({distinct}) do not cover the result ({len(result.values)})")
        values = np.array([result.values[label] for label in labels], dtype=np.float64)
        # Kept sets that were not tracked are stored empty.
        kept = KeptSets.from_mapping(result.kept if track_kept else {}, labels)
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
                "kept_indices": kept.members,
                "kept_indptr": kept.indptr,
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
        the stored one, its values a
        :class:`~repro.core.orientation.NodeValues` and its kept sets a
        :class:`~repro.core.orientation.KeptSets` over the stored arrays;
        the simulator's per-round ``message_stats`` are not persisted
        (``stats_summary`` is).  Untracked kept sets load empty, whatever
        the file holds (older files stored ``N(v)`` there).
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
                    or kept_indptr[0] != 0
                    or kept_indptr[-1] != kept_indices.shape[0]
                    or (np.diff(kept_indptr) < 0).any()
                    or (kept_indices.size and not (
                        0 <= kept_indices.min() and kept_indices.max() < n))):
                return None
            values = NodeValues(labels, values_array)
            if track_kept:
                kept = KeptSets(labels, kept_indptr, kept_indices)
            else:
                kept = KeptSets.empty(labels)
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
        the child's own artifacts (trajectories, results) live.
        Idempotent overwrite: the chain fingerprint determines the content.
        """
        doc = {"schema": SCHEMA_VERSION, "kind": "lineage",
               "fingerprint": chain_fingerprint,
               "parent": parent_fingerprint,
               "content_fingerprint": content_fingerprint,
               "parent_content_fingerprint": parent_content_fingerprint,
               "delta": None}
        try:
            doc["delta"] = delta.to_dict()
            text = json.dumps(doc, indent=2)
        except TypeError:
            doc["delta"] = None
            text = json.dumps(doc, indent=2)
        path = self.lineage_path(chain_fingerprint)
        with obs_trace.span("store.record_lineage",
                            fingerprint=chain_fingerprint,
                            parent_fingerprint=parent_fingerprint):
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, (text + "\n").encode("utf-8"))
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
                    elif path.is_dir() and (path.name == _LEGACY_CSR_DIR
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
    def _is_traj_file(path: Path) -> bool:
        return traj_store.is_traj_dir(path.parent)

    def info(self, fingerprint: Optional[str] = None) -> dict:
        """Totals (and per-graph rows) for the CLI and tests.

        Returns ``{"root", "graphs": [{"fingerprint", "files", "bytes",
        "traj_bytes", "kinds"}, ...], "files", "bytes"}``; ``traj_bytes`` is
        the slice of ``bytes`` held by append-only trajectories, and a file
        in a subdirectory takes the subdirectory's kind.  A file vanishing
        between the directory scan and its ``stat`` (a concurrent
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
            traj_bytes = sum(s for p, s in sizes.items() if self._is_traj_file(p))
            kinds = sorted({(p if p.parent.name == fp else p.parent).name
                            .split("-")[0].removesuffix(".json")
                            for p in sizes})
            graphs.append({"fingerprint": fp, "files": len(sizes),
                           "bytes": size, "traj_bytes": traj_bytes,
                           "kinds": kinds})
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

        Append-only trajectory rows are evictable like any other artifact (a
        later run recomputes them — the header clamp in
        :mod:`repro.store.traj` treats a torn file as absent).  The
        ``graph.json`` and ``.traj`` ``header.json`` descriptors are only
        removed when their directory has no artifacts left.  Returns the
        number of files removed.
        """
        if max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self._artifact_files():
            if path.name in ("graph.json", "lineage.json") or (
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
                if traj_store.is_traj_dir(subdir) and not any(
                        p.name != traj_store.HEADER_NAME
                        for p in subdir.iterdir()):
                    (subdir / traj_store.HEADER_NAME).unlink(missing_ok=True)
                try:
                    subdir.rmdir()
                except OSError:  # not empty, or a concurrent write
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
