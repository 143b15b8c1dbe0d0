"""The content-addressed result store (and checkpoint side-store).

Layout (everything under one cache root)::

    <root>/results/<k[:2]>/<key>.pkl     # result payload entries
    <root>/checkpoints/<key>.pkl         # latest mid-solve checkpoint

Payloads are pickled because they contain packed ``array('q')`` columns
(the :func:`repro.bdd.io.dump_nodes` wire format); pickling keeps them
at a few bytes per BDD node.  Every file is framed the same way::

    pickle(header)   # {"format": STORE_FORMAT, "summary": {...} | None}
    pickle(body)     # the payload or checkpoint dict, unchanged
    sha256           # 32-byte digest of everything before it

The header carries a result's :data:`SUMMARY_FIELDS`, so a cache hit
(:meth:`ResultStore.get` with ``body=False``) answers from it without
unpickling the body.  Every read, with or without the body, first
streams the file through SHA-256 and checks the trailer; nothing is
unpickled before that check passes.

Writes are atomic (temp file + rename in the same directory), so a
killed server never leaves a torn entry — a partial temp file is simply
ignored and overwritten by the next solve.  An entry damaged some other
way — truncated, a flipped byte, a digest that does not match, or a
file in an older layout without the header and trailer — is a miss: it
is deleted, logged once, and the next submit re-solves it.

Eviction is LRU by file mtime: every :meth:`ResultStore.get` touches
the entry, and :meth:`ResultStore.put` evicts the stalest entries when
``max_entries`` is exceeded.  The digest catches damage, not forgery:
only trust the cache directory as far as you trust its writers —
pickles execute code when loaded, so the store must never be pointed
at an untrusted directory.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path

from repro.obs.log import get_logger

_log = get_logger("repro.serve.store")

#: Version tag of the entry framing (header, body, digest trailer).
STORE_FORMAT = "repro-serve-store/1"

#: Payload fields copied into a result entry's header (what a done
#: job's status shows).
SUMMARY_FIELDS = ("csf_states", "seconds", "method", "cache_key")

#: Hex-digest shape of valid store keys (defensive: keys become paths).
_KEY_CHARS = set("0123456789abcdef")

_DIGEST_BYTES = hashlib.sha256().digest_size
_CHUNK_BYTES = 1 << 16


class _Damaged(Exception):
    """An entry whose framing or digest does not check out."""


#: What reading a damaged entry raises.
_DAMAGED = (
    _Damaged,
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    AttributeError,
    ImportError,
    IndexError,
)


def _check_key(key: str) -> str:
    if not key or set(key) - _KEY_CHARS:
        raise ValueError(f"malformed cache key {key!r}")
    return key


class _HashingWriter:
    """File wrapper feeding everything written through SHA-256."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self.handle.write(data)


def _verify(handle) -> None:
    """Stream a whole entry through SHA-256 and check its trailer."""
    size = os.fstat(handle.fileno()).st_size - _DIGEST_BYTES
    if size <= 0:
        raise _Damaged("shorter than its digest")
    digest = hashlib.sha256()
    left = size
    while left:
        chunk = handle.read(min(left, _CHUNK_BYTES))
        if not chunk:
            raise _Damaged("file shrank while read")
        digest.update(chunk)
        left -= len(chunk)
    if handle.read() != digest.digest():
        raise _Damaged("digest mismatch")


def _load(path: Path, *, body: bool = True):
    """Body (or header summary) of the entry at ``path``; None on a miss.

    A damaged entry is deleted, so the solve that replaces it is not
    shadowed by it again.
    """
    try:
        with open(path, "rb") as handle:
            _verify(handle)
            handle.seek(0)
            header = pickle.load(handle)
            if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
                raise _Damaged("not a store entry header")
            return pickle.load(handle) if body else header["summary"]
    except FileNotFoundError:
        return None
    except _DAMAGED as exc:
        _log.warning("dropping damaged store entry", path=str(path), error=repr(exc))
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - racing cleanup
            pass
        return None


class ResultStore:
    """Content-addressed payload store with LRU eviction."""

    def __init__(self, root: "str | Path", *, max_entries: int | None = None):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.checkpoints_dir = self.root / "checkpoints"
        self.max_entries = max_entries
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoints_dir.mkdir(parents=True, exist_ok=True)

    # -- results ------------------------------------------------------- #

    def path_for(self, key: str) -> Path:
        key = _check_key(key)
        return self.results_dir / key[:2] / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def get(self, key: str, *, body: bool = True) -> dict | None:
        """Load a payload (and refresh its LRU position); None on miss.

        With ``body=False`` only the entry's header summary (the
        :data:`SUMMARY_FIELDS` of the payload) is returned; the body is
        still checked against the digest, but never unpickled.
        """
        path = self.path_for(key)
        payload = _load(path, body=body)
        if payload is None:
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry evicted mid-read
            pass
        return payload

    def put(self, key: str, payload: dict) -> Path:
        """Atomically store a payload, then evict beyond ``max_entries``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        summary = {name: payload.get(name) for name in SUMMARY_FIELDS}
        self._atomic_write(path, payload, summary)
        if self.max_entries is not None:
            self.evict(self.max_entries)
        return path

    def keys(self) -> list[str]:
        """Stored keys, most recently used first."""
        entries = sorted(
            self.results_dir.glob("*/*.pkl"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        return [p.stem for p in entries]

    def evict(self, keep: int) -> int:
        """Delete all but the ``keep`` most recently used entries."""
        victims = self.keys()[max(0, keep):]
        for key in victims:
            try:
                self.path_for(key).unlink()
            except FileNotFoundError:  # pragma: no cover - racing eviction
                pass
        return len(victims)

    # -- checkpoints --------------------------------------------------- #

    def checkpoint_path(self, key: str) -> Path:
        return self.checkpoints_dir / f"{_check_key(key)}.pkl"

    def put_checkpoint(self, key: str, snapshot: dict) -> Path:
        """Atomically persist the latest mid-solve checkpoint for a key."""
        path = self.checkpoint_path(key)
        self._atomic_write(path, snapshot)
        return path

    def get_checkpoint(self, key: str) -> dict | None:
        """The latest checkpoint for a key; None when absent or damaged."""
        return _load(self.checkpoint_path(key))

    def drop_checkpoint(self, key: str) -> None:
        try:
            self.checkpoint_path(key).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------ #

    @staticmethod
    def _atomic_write(path: Path, payload: dict, summary: dict | None = None) -> None:
        """Write header, body and digest to a temp file, then rename."""
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                writer = _HashingWriter(handle)
                header = {"format": STORE_FORMAT, "summary": summary}
                pickle.dump(header, writer, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(payload, writer, protocol=pickle.HIGHEST_PROTOCOL)
                handle.write(writer.digest.digest())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> dict:
        """Entry counts and on-disk size (the ops page's cache block)."""
        entries = list(self.results_dir.glob("*/*.pkl"))
        checkpoints = list(self.checkpoints_dir.glob("*.pkl"))
        return {
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "checkpoints": len(checkpoints),
            "max_entries": self.max_entries,
        }
