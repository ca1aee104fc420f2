"""The serve wire format: JSON job specs and result payloads.

A job travels as a plain JSON object mirroring
:class:`~repro.eval.engine.SimJob` — ``kernel`` and ``nm`` plus
exactly one workload source (``model``/``layer``/``policy`` or
``shape``/``seed``), and optionally ``backend``, ``verify``,
``schedule`` (a :meth:`~repro.kernels.compiler.Schedule.to_dict`
payload) and ``config`` (a nested
:class:`~repro.arch.config.ProcessorConfig` dict; omitted means the
scaled default).  ``policy`` is either a registered scale-policy name
(``"tiny"``/``"small"``/...) or a full :class:`ScalePolicy` dict, so
custom policies survive the wire byte-for-byte.

The codec round-trips the cache identity exactly:
``job_hash(job_from_dict(job_to_dict(job))) == job_hash(job)`` — the
server's single-flight table and the shared on-disk cache both key on
that hash, so a client-side spec and its server-side reconstruction
can never alias or miss each other.

An ``analytic-sampled`` job's calibration digest is not on the wire
(a ``calibration`` key is an unknown field): the server fills it in
from its own active table when it builds the job, because that table
is the one that prices it.  The round trip above therefore holds
between a client and a server that share a table.

A long-lived server decodes the same few configs, schedules and
policies over and over, so the decoder interns them: equal parts
decode to one object (see :func:`_interned`), whose canonical text
the engine's identity memo then keeps for every job built from it.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

from repro.arch.config import ProcessorConfig
from repro.arch.stats import ExecutionStats
from repro.arch.timing import resolve_backend
from repro.errors import ReproError, ServeError
from repro.eval.engine import CANONICAL_MEMO_SIZE, SimJob
from repro.eval.memo import LRUMemo, canonical
from repro.eval.runner import KernelRun
from repro.kernels.compiler import Schedule
from repro.nn.workload import POLICIES, ScalePolicy

#: jobspec keys the decoder understands; anything else is a client bug
#: (or a newer client talking to an older server) and fails loudly.
_JOB_KEYS = frozenset({
    "kernel", "nm", "model", "layer", "policy", "shape", "seed",
    "backend", "verify", "schedule", "config",
})

#: The two workload sources; a spec names fields of exactly one.
_LAYER_SOURCE = ("model", "layer", "policy")
_SHAPE_SOURCE = ("shape", "seed")

#: Entries of the memo of decoded configs, schedules and policies.  The
#: engine's identity memo keeps as many canonical texts, so a job built
#: from interned parts is hashed without encoding them again.
PART_MEMO_SIZE = CANONICAL_MEMO_SIZE
_parts = LRUMemo(PART_MEMO_SIZE)


def _interned(kind: str, part, decode):
    """``decode(part)``, computed once per distinct ``part`` of this
    ``kind``: equal parts share one decoded object.

    The memo is keyed on the part's compact, key-sorted JSON text, not
    on the value: ``16``, ``16.0`` and ``true`` are equal in Python,
    but only the first is a valid integer field.  A part that fails to
    decode is not kept, so it raises on every submission."""
    try:
        text = json.dumps(part, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        raise ServeError(f"{kind} is not plain JSON") from None
    return _parts.get((kind, text), lambda: decode(part))


def _rebuild_dataclass(template, payload, context: str):
    """Rebuild a (possibly nested) frozen config dataclass from the
    ``canonical()`` dict form, using ``template`` (an instance, e.g.
    the default config) to recover the nested field types.  Works for
    any tree of dataclasses whose leaves are scalars — which is
    exactly what :class:`ProcessorConfig` and :class:`ScalePolicy`
    are."""
    cls = type(template)
    if not isinstance(payload, dict):
        raise ServeError(f"{context} must be an object, "
                         f"not {type(payload).__name__}")
    extra = set(payload) - {f.name for f in fields(cls)}
    if extra:
        raise ServeError(f"unknown {context} fields {sorted(extra)}")
    kwargs = {}
    for name, value in payload.items():
        current = getattr(template, name)
        if is_dataclass(current) and not isinstance(current, type):
            value = _rebuild_dataclass(current, value,
                                       f"{context}.{name}")
        elif isinstance(current, tuple) and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ReproError) as exc:
        raise ServeError(f"invalid {context}: {exc}") from None


def _config_from_wire(value) -> ProcessorConfig:
    return _rebuild_dataclass(ProcessorConfig.scaled_default(), value,
                              "config")


def _schedule_from_wire(value) -> Schedule:
    try:
        return Schedule.from_dict(value)
    except (ReproError, TypeError) as exc:
        raise ServeError(f"invalid schedule: {exc}") from None


def _scale_policy_from_wire(value: dict) -> ScalePolicy:
    payload = dict(value)
    for key in ("rows_range", "k_range", "n_range"):
        if isinstance(payload.get(key), list):
            payload[key] = tuple(payload[key])
    try:
        return ScalePolicy(**payload)
    except (TypeError, ReproError) as exc:
        raise ServeError(f"invalid scale policy: {exc}") from None


def _policy_from_wire(value) -> ScalePolicy:
    if isinstance(value, str):
        if value not in POLICIES:
            known = ", ".join(sorted(POLICIES))
            raise ServeError(
                f"unknown scale policy {value!r} (known: {known})")
        return POLICIES[value]
    if isinstance(value, dict):
        return _interned("policy", value, _scale_policy_from_wire)
    raise ServeError("policy must be a registered name or a "
                     "ScalePolicy object")


def _pair(value, name: str) -> tuple[int, int]:
    # ``true`` is no integer here: it would hash unlike ``1``
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(type(v) is int for v in value)):
        raise ServeError(f"{name} must be a pair of integers")
    return tuple(value)


def job_to_dict(job: SimJob) -> dict:
    """The wire form of ``job`` (pure JSON, hash-identity preserving)."""
    payload: dict = {
        "kernel": job.kernel,
        "nm": list(job.nm),
        "backend": job.backend,
        "verify": job.verify,
        "schedule": job.schedule.to_dict(),
        "config": canonical(job.config),
    }
    if job.model is not None:
        payload["model"] = job.model
        payload["layer"] = job.layer
        payload["policy"] = canonical(job.policy)
    else:
        payload["shape"] = list(job.shape)
        payload["seed"] = job.seed
    return payload


def job_from_dict(payload) -> SimJob:
    """Reconstruct a :class:`SimJob` from its wire form.

    Anything structurally wrong raises :class:`ServeError` (the HTTP
    layer maps it to a 400) — a malformed spec must never reach the
    engine, let alone poison the shared cache.  That includes a spec
    that names fields of both workload sources.  The job itself is
    built fresh every time; its config, schedule and policy are
    interned (see :func:`_interned`).
    """
    if not isinstance(payload, dict):
        raise ServeError("job spec must be a JSON object, "
                         f"not {type(payload).__name__}")
    extra = set(payload) - _JOB_KEYS
    if extra:
        raise ServeError(f"unknown job spec fields {sorted(extra)}")
    if "kernel" not in payload or "nm" not in payload:
        raise ServeError("job spec needs at least kernel and nm")
    verify = payload.get("verify", True)
    if not isinstance(verify, bool):
        raise ServeError("verify must be true or false")
    kwargs = {
        "kernel": payload["kernel"],
        "nm": _pair(payload["nm"], "nm"),
        "verify": verify,
        "backend": payload.get("backend"),
    }
    schedule = payload.get("schedule")
    if schedule is not None:
        kwargs["schedule"] = _interned("schedule", schedule,
                                       _schedule_from_wire)
    config = payload.get("config")
    if config is not None:
        kwargs["config"] = _interned("config", config, _config_from_wire)
    layer_fields = [k for k in _LAYER_SOURCE if payload.get(k) is not None]
    shape_fields = [k for k in _SHAPE_SOURCE if payload.get(k) is not None]
    if layer_fields and shape_fields:
        raise ServeError("job spec mixes two workload sources: "
                         f"{layer_fields + shape_fields}")
    if layer_fields:
        if len(layer_fields) < len(_LAYER_SOURCE):
            raise ServeError("layer jobs need model, layer and policy")
        kwargs["model"] = payload["model"]
        kwargs["layer"] = payload["layer"]
        kwargs["policy"] = _policy_from_wire(payload["policy"])
    elif "shape" in shape_fields:
        shape = payload["shape"]
        if (not isinstance(shape, (list, tuple)) or len(shape) != 3
                or not all(type(v) is int for v in shape)):
            raise ServeError("shape must be [rows, k, n]")
        kwargs["shape"] = tuple(shape)
        kwargs["seed"] = payload.get("seed", 0)
    else:
        raise ServeError("job spec needs exactly one workload source: "
                         "model+layer+policy or shape+seed")
    try:
        return SimJob(**kwargs)
    except ReproError as exc:
        raise ServeError(f"invalid job spec: {exc}") from None


def run_to_dict(run: KernelRun, include_stats: bool = False) -> dict:
    """The wire form of one finished :class:`KernelRun`."""
    payload = {
        "kernel": run.kernel,
        "backend": run.backend,
        "verified": run.verified,
        "cycles": run.stats.cycles,
        "instructions": run.stats.instructions,
    }
    if include_stats:
        payload["stats"] = canonical(run.stats)
    return payload


def run_from_dict(payload: dict) -> KernelRun:
    """Reconstruct a full :class:`KernelRun` (requires the optional
    ``stats`` block, i.e. a submit with ``include_stats=True``)."""
    if "stats" not in payload:
        raise ServeError("result payload carries no stats block "
                         "(submit with include_stats)")
    return KernelRun(kernel=payload["kernel"],
                     stats=ExecutionStats(**payload["stats"]),
                     verified=payload["verified"],
                     backend=resolve_backend(payload.get("backend")))
