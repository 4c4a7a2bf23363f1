"""Content-addressed codestream cache with an LRU byte budget.

Serving traffic repeats itself — thumbnails regenerated on every deploy,
hot images re-requested by many clients — and a JPEG2000 encode is
expensive enough (Tier-1 dominates, per the paper) that recomputing an
identical codestream is pure waste.  The key is content-addressed:
SHA-256 over the raw pixels (dtype, shape, bytes) plus the *canonical*
encoder parameters.  Only parameters that change the codestream
participate: the ``affects_bytes`` fields of
:data:`repro.jpeg2000.params.CODING_FIELDS`.  Execution fields
(``workers``, the backends, ``self_check``) are left out because every
execution strategy is bit-exact (the repo's central invariant) — a hit
computed with 1 worker serves a request asking for 8.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.jpeg2000.params import CODING_FIELDS, EncoderParams

#: EncoderParams fields that affect emitted bytes, in declaration order.
CODESTREAM_FIELDS = tuple(f.name for f in CODING_FIELDS if f.affects_bytes)


def canonical_params(params: EncoderParams) -> str:
    """Stable string of the codestream-affecting parameters."""
    return "|".join(
        f"{name}={getattr(params, name)!r}" for name in CODESTREAM_FIELDS
    )


def cache_key(image: np.ndarray, params: EncoderParams) -> str:
    """SHA-256 content address of (pixels, coding parameters)."""
    arr = np.ascontiguousarray(image)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}|{arr.shape}|".encode())
    h.update(arr.tobytes())
    h.update(canonical_params(params).encode())
    return h.hexdigest()


#: Per-entry bookkeeping charge beyond the payload: the key string, the
#: OrderedDict node, and the bytes-object header.  Without this a cache
#: full of tiny codestreams blows its nominal budget by a large factor —
#: 10k one-byte entries under a "64 KiB" budget actually hold ~1.6 MB of
#: keys and dict nodes.
ENTRY_OVERHEAD_BYTES = 96


class ResultCache:
    """Thread-safe LRU cache of codestream bytes under a byte budget.

    The budget charges each entry its *resident* cost — payload plus key
    plus :data:`ENTRY_OVERHEAD_BYTES` of per-entry bookkeeping — so the
    configured ``max_bytes`` bounds what the process actually holds, not
    just the sum of codestream lengths.

    ``max_bytes=0`` disables the cache entirely (every ``get`` misses,
    ``put`` is a no-op) — used by benchmarks to isolate pool effects.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._bytes = 0
        self._payload_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def entry_cost(key: str, data: bytes) -> int:
        """Bytes one entry charges against the budget."""
        return len(data) + len(key) + ENTRY_OVERHEAD_BYTES

    def get(self, key: str, record: bool = True) -> bytes | None:
        """Look up ``key``; ``record=False`` skips the hit/miss counters.

        The service's single-flight path re-probes the cache after waiting
        on an in-flight encode; those internal probes pass ``record=False``
        so the stats stay one-lookup-per-request.
        """
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                if record:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            if record:
                self.hits += 1
            return data

    def put(self, key: str, data: bytes) -> bool:
        """Insert unless the single item's full cost exceeds the budget."""
        if self.entry_cost(key, data) > self.max_bytes:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= self.entry_cost(key, old)
                self._payload_bytes -= len(old)
            self._entries[key] = data
            self._bytes += self.entry_cost(key, data)
            self._payload_bytes += len(data)
            while self._bytes > self.max_bytes:
                evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= self.entry_cost(evicted_key, evicted)
                self._payload_bytes -= len(evicted)
                self.evictions += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._payload_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def snapshot(self) -> dict:
        """JSON-ready view for ``/stats``."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes_used": self._bytes,
                "payload_bytes": self._payload_bytes,
                "overhead_bytes": self._bytes - self._payload_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
