"""Persistent artifact store: durable, content-addressed per-graph caches.

:class:`ArtifactStore` persists the expensive artifacts a
:class:`~repro.session.Session` amortises in memory — elimination trajectories
and :class:`~repro.core.surviving.SurvivingNumbers` results — under a stable
content fingerprint of the graph (:func:`repro.graph.csr.csr_fingerprint`), so
warm-cache wins survive process restarts: a freshly constructed session on a
known graph resumes bit-identically from disk.

>>> from repro import ArtifactStore, Session, load_dataset
>>> store = ArtifactStore("/tmp/repro-cache")          # doctest: +SKIP
>>> session = Session(load_dataset("caveman"), store=store)  # doctest: +SKIP
>>> session.coreness(rounds=8)                          # doctest: +SKIP

Trajectories are stored only as append-only ``trajectory-lam<λ>.traj/``
files (:mod:`repro.store.traj`): a save appends the rounds the file lacks and
a load maps its published prefix read-only.  See :mod:`repro.store.store` for
the on-disk layout, atomicity and corruption semantics, and the ``repro
cache`` CLI for inspection and purging.
"""

from repro.store.store import SCHEMA_VERSION, ArtifactStore, StoreError
from repro.store.traj import TRAJ_SCHEMA_VERSION, AppendTrajectory

__all__ = ["ArtifactStore", "StoreError", "SCHEMA_VERSION",
           "AppendTrajectory", "TRAJ_SCHEMA_VERSION"]
