"""Content-addressed on-disk cache of run summaries.

Layout: one ``<digest>.json`` file per sweep point under ``cache_dir``,
where the digest is :func:`repro.exec.digest.config_digest` -- SHA-256
over the canonical config JSON plus package/schema versions.  Properties
that follow directly from that addressing:

- **Resume for free.**  Entries are written atomically as each point
  finishes, so an interrupted 20-point campaign replays its finished
  points and simulates only the remainder.
- **Safe sharing.**  Two concurrent campaigns that collide on a point
  write byte-identical content to the same name (last rename wins,
  both are correct); different configs can never collide.
- **Self-invalidation.**  A package upgrade or summary-schema bump
  changes every digest; stale entries are simply never addressed again
  (and a corrupt/foreign file degrades to a cache miss, mirroring
  ``lint/cache.py``).

A ``cache_dir`` of ``None`` gives an in-memory cache: same API, no
persistence -- callers never special-case "caching off", and duplicate
points within one campaign still coalesce.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.exec.digest import SUMMARY_SCHEMA_VERSION
from repro.exec.summary import RunSummary

__all__ = ["ResultCache"]


class ResultCache:
    """Maps config digests to :class:`RunSummary` entries.

    ``hits``/``misses`` count :meth:`get` lookups over this instance's
    lifetime; the CLI and CI surface them so a warm re-run can be
    *asserted* to have simulated nothing.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            # The directory is made by the first put(); a path that cannot
            # become one must fail here, before a point is simulated for it.
            anchor = next(p for p in (self.cache_dir, *self.cache_dir.parents) if p.exists())
            if not (anchor.is_dir() and os.access(anchor, os.W_OK | os.X_OK)):
                raise OSError(
                    f"cannot use cache dir {self.cache_dir}: "
                    f"{anchor} is not a writable directory"
                )
        self.hits = 0
        self.misses = 0
        self._memory: Dict[str, RunSummary] = {}

    def _entry_path(self, digest: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{digest}.json"

    def get(self, digest: str) -> Optional[RunSummary]:
        """The cached summary for a digest, counting hit/miss."""
        summary = self._memory.get(digest)
        if summary is not None:
            self.hits += 1
            return summary
        summary = self._load(digest)
        if summary is None:
            self.misses += 1
            return None
        self._memory[digest] = summary
        self.hits += 1
        return summary

    def _load(self, digest: str) -> Optional[RunSummary]:
        path = self._entry_path(digest)
        if path is None or not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None  # unreadable/corrupt entry == miss
        if not isinstance(payload, dict) or payload.get("digest") != digest:
            return None  # foreign or renamed file: never trust the name alone
        try:
            return RunSummary.from_dict(payload["summary"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, digest: str, summary: RunSummary) -> None:
        """Store one finished point (written to disk immediately, so an
        interrupted campaign keeps everything completed so far)."""
        self._memory[digest] = summary
        path = self._entry_path(digest)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": SUMMARY_SCHEMA_VERSION,
            "digest": digest,
            "summary": summary.to_dict(),
        }
        # Write-then-rename so a crashed run never leaves a torn entry.
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        tmp.replace(path)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
