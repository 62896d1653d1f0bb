"""Async job serving: futures, in-flight dedup, bounded backpressure — and HTTP.

:class:`JobQueue` is the one async front-end: it serves
:class:`~repro.engine.batch.BatchJob`\\ s on a worker pool over a shared
:class:`~repro.engine.batch.BatchRunner`, returns
:class:`concurrent.futures.Future`\\ s, coalesces identical in-flight jobs,
bounds its queue with ``max_pending`` backpressure, and streams results via
``map`` — see :mod:`repro.serve.queue` for the semantics and the
bit-identical-to-sequential guarantee.

:class:`ReproHTTPServer` (:mod:`repro.serve.http`) puts a real socket in
front of one :class:`JobQueue` + :class:`~repro.store.ArtifactStore` —
content-fingerprinted graph resources, job submission/long-polling, streamed
batches, per-tenant quotas and a ``/metrics`` endpoint — and
:class:`ServeClient` (:mod:`repro.serve.client`) is its stdlib client.

>>> from repro import BatchJob, JobQueue, load_dataset
>>> with JobQueue(max_workers=2) as queue:
...     future = queue.submit(BatchJob(graph=load_dataset("caveman"), rounds=4))
...     batch = future.result()
>>> len(batch.values) > 0
True
"""

from repro.serve.client import ServeClient
from repro.serve.http import ReproHTTPServer, TokenBucket
from repro.serve.queue import JobQueue, ServeStats

__all__ = ["JobQueue", "ServeStats", "ReproHTTPServer", "ServeClient",
           "TokenBucket"]
