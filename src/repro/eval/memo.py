"""Process-local memoisation primitives for the experiment engine.

Worker processes (and the in-process fallback path) redo a lot of
deterministic work between simulations: regenerating a job's operand
matrices, re-encoding CSR baselines, recompiling spec -> trace.  All of
it is a pure function of *content identity* — canonical JSON of the
fields that determine the output — so it can be memoised per process
with bit-exact results.  This module holds the shared pieces:

* :func:`canonical` — reduce dataclasses/enums/tuples to a
  deterministic JSON-serialisable value;
* :func:`canonical_text` — the compact, key-sorted JSON text of
  :func:`canonical`, written directly (the basis of the disk cache's
  job hash and stored payloads in :mod:`repro.eval.engine`);
* :func:`content_key` — sha256 of a canonical payload, stable across
  processes (``PYTHONHASHSEED``-independent), so memo keys derived in
  the parent and in pool workers always agree;
* :class:`LRUMemo` — a bounded, thread-safe LRU; the engine's one
  in-memory result layer is an instance;
* :func:`worker_memo` — named :class:`LRUMemo` instances, one per kind
  of work (``"operands"``, ``"traces"``), living in module globals so
  every entry point of a worker process shares them; each caller
  passes its memo's capacity.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite, isnan

from repro.errors import EngineError


#: Exact types that are their own canonical form (an ``IntEnum``
#: member is an ``int`` but canonicalises to its name).
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


def canonical(value):
    """Reduce a value to a deterministic JSON-serialisable form."""
    if type(value) in _LEAF_TYPES:
        return value
    if isinstance(value, Enum):
        return value.name
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise EngineError(f"cannot canonicalize {type(value).__name__} "
                      "for content hashing")


def _float_text(value) -> str:
    # float.__repr__, not repr: under NumPy 2 a float64 reprs as
    # 'np.float64(x)'; non-finite values take json's spellings
    if isfinite(value):
        return float.__repr__(value)
    if isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _list_text(value) -> str:
    return "[" + ",".join([canonical_text(v) for v in value]) + "]"


def _dict_text(value) -> str:
    # values are encoded in ``canonical``'s order (its errors name the
    # same value), members are joined in the text keys' order
    texts = {str(k): canonical_text(v) for k, v in sorted(value.items())}
    return "{" + ",".join([_quote(key) + ":" + texts[key]
                           for key in sorted(texts)]) + "}"


def _dataclass_encoder(cls):
    """The text encoder of dataclass ``cls``: fields are encoded in
    declaration order (as ``canonical`` does) and joined under labels
    sorted once per class."""
    names = tuple(f.name for f in fields(cls))
    labels = sorted((name, index) for index, name in enumerate(names))
    members = tuple((index, _quote(name) + ":") for name, index in labels)

    def encode(value) -> str:
        texts = [canonical_text(getattr(value, name)) for name in names]
        return "{" + ",".join([label + texts[index]
                               for index, label in members]) + "}"
    return encode


#: The text encoder per exact type.  Types beyond JSON's own (enums,
#: dataclasses, subclasses of str/int/float) join on first use, so a
#: class is classified once; the table grows with the program's types,
#: not with its values.
_ENCODERS = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    list: _list_text,
    tuple: _list_text,
    dict: _dict_text,
}


def _encoder_for(value):
    """The encoder of ``value``'s type, classified in
    :func:`canonical`'s order; ``None`` when ``canonical`` rejects it."""
    if isinstance(value, Enum):
        return lambda member: _quote(member.name)
    if is_dataclass(value) and not isinstance(value, type):
        return _dataclass_encoder(type(value))
    for base in (tuple, list, dict, str, int, float):
        if isinstance(value, base):
            return _ENCODERS[base]
    return None


def canonical_text(value) -> str:
    """``json.dumps(canonical(value), sort_keys=True, separators=(",",
    ":"))``, written without building the intermediate value; it
    raises where :func:`canonical` raises, with the same error."""
    encode = _ENCODERS.get(type(value))
    if encode is None:
        encode = _encoder_for(value)
        if encode is None:
            raise EngineError(f"cannot canonicalize {type(value).__name__} "
                              "for content hashing")
        _ENCODERS[type(value)] = encode
    return encode(value)


def content_key(payload) -> str:
    """Process-stable sha256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_text(payload).encode()).hexdigest()


_MISSING = object()


class LRUMemo:
    """A bounded, thread-safe LRU with hit/miss accounting.

    A ``capacity`` of 0 retains nothing.  Every method takes the
    instance's lock, so one memo can be shared between threads (the
    serve layer probes the engine's result LRU from the event loop
    while its dispatcher thread stores into it).
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def peek(self, key, default=None):
        """The retained value for ``key`` (now the most recently used),
        or ``default`` on a miss; never builds."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Retain ``value`` as the most recently used entry, evicting
        the least recently used beyond ``capacity``."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def get(self, key, build):
        """The memoised value for ``key``, building (and retaining) it
        on a miss."""
        value = self.peek(key, _MISSING)
        if value is _MISSING:
            value = build()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = self.misses = 0


#: The per-process named memo registry (each pool worker has its own).
_MEMOS: dict[str, LRUMemo] = {}


def worker_memo(name: str, capacity: int = 32) -> LRUMemo:
    """The process-wide memo named ``name``, holding up to ``capacity``
    entries (fixed when it is created on first use)."""
    memo = _MEMOS.get(name)
    if memo is None:
        memo = _MEMOS[name] = LRUMemo(capacity)
    return memo


def clear_worker_memos() -> None:
    """Drop every named memo (tests)."""
    for memo in _MEMOS.values():
        memo.clear()
    _MEMOS.clear()
