"""Simulation-as-a-service: a shared-cache experiment server.

The :mod:`repro.serve` package wraps one
:class:`~repro.eval.engine.ExperimentEngine` in a long-running asyncio
service so many concurrent clients share one persistent worker pool,
one warm cache, and one in-flight computation per distinct job:

* :mod:`repro.serve.protocol` — the JSON wire format (job specs in,
  results/stats out);
* :mod:`repro.serve.service`  — the batching job queue: single-flight
  dedup, two admission-controlled priority lanes, the microsecond
  warm path, latency accounting;
* :mod:`repro.serve.http`     — a stdlib-only HTTP/1.1 front end on
  raw asyncio streams (no ``http.server``);
* :mod:`repro.serve.client`   — a thin blocking client
  (:class:`ServeClient`) used by ``repro submit`` and the tests;
* :mod:`repro.serve.stats`    — bounded latency reservoirs and
  percentile estimation.

``repro serve`` starts a server; ``repro submit`` drives one.
"""

from repro.serve.client import ServeClient, fig4_jobs
from repro.serve.http import ExperimentServer, ServerThread
from repro.serve.protocol import job_from_dict, job_to_dict
from repro.serve.service import ExperimentService, ServeConfig
from repro.serve.stats import LatencyStats

__all__ = [
    "ExperimentServer",
    "ExperimentService",
    "LatencyStats",
    "ServeClient",
    "ServeConfig",
    "ServerThread",
    "fig4_jobs",
    "job_from_dict",
    "job_to_dict",
]
