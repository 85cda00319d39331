"""Canonical config serialization and content-addressed cache keys.

Every campaign artifact (a cached sweep point, a parallel worker's task)
is identified by :func:`config_digest`: the SHA-256 of a *canonical*
JSON rendering of the :class:`~repro.experiments.config.ExperimentConfig`
plus the package version and summary-schema version.  Canonical means:

- ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` -- key
  order cannot depend on dict insertion history;
- floats serialize via ``repr`` (shortest round-trip), which is a pure
  function of the value -- identical in every process;
- SHA-256, never :func:`hash` -- Python's string hashing is salted per
  process (``PYTHONHASHSEED``), so ``hash()``-derived keys would make a
  cache that never warms across runs.

The version salt means a ``pip install -U`` (or any release that could
change simulation behaviour) invalidates every cached result instead of
silently replaying stale physics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional

from repro import __version__
from repro.experiments.config import ExperimentConfig
from repro.network.fabric import FabricParams
from repro.traffic.mix import TrafficMixConfig

__all__ = [
    "SUMMARY_SCHEMA_VERSION",
    "canonical_config_dict",
    "config_digest",
    "config_from_dict",
    "stable_hash",
]

#: Bump when the RunSummary serialization format changes; part of every
#: digest so stale cache entries self-invalidate (cf. lint/cache.py).
SUMMARY_SCHEMA_VERSION = 1

#: TrafficMixConfig fields declared as tuples (JSON round-trips them as
#: lists, so reconstruction must convert back for dataclass equality).
_MIX_TUPLE_FIELDS = ("control_size_range", "burst_size_range")


def canonical_config_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """One run's complete parameterization as a plain JSON-safe dict.

    Nested dataclasses (:class:`FabricParams`, :class:`TrafficMixConfig`)
    become nested dicts; tuples become lists.  The result feeds both the
    digest and the on-disk summary cache, and
    :func:`config_from_dict` inverts it exactly
    (``config_from_dict(canonical_config_dict(c)) == c``).
    """
    return _jsonify(dataclasses.asdict(config))


def _jsonify(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} value {value!r} "
        "for a config digest"
    )


def config_from_dict(doc: Dict[str, Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from its canonical dict."""
    params = FabricParams(**doc["params"])
    mix_doc: Optional[Dict[str, Any]] = doc.get("mix")
    mix: Optional[TrafficMixConfig] = None
    if mix_doc is not None:
        kwargs = dict(mix_doc)
        for name in _MIX_TUPLE_FIELDS:
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(kwargs[name])
        mix = TrafficMixConfig(**kwargs)
    return ExperimentConfig(
        architecture=doc["architecture"],
        load=doc["load"],
        seed=doc["seed"],
        topology=doc["topology"],
        warmup_ns=doc["warmup_ns"],
        measure_ns=doc["measure_ns"],
        params=params,
        mix=mix,
    )


def stable_hash(value: Any) -> int:
    """A drop-in for :func:`hash` that is identical in every process.

    Builtin ``hash()`` on str/bytes is salted per process by
    ``PYTHONHASHSEED``, so anything derived from it (cache keys, bucket
    assignments, tie-breaks) silently differs between pool workers.
    This helper hashes the value's *content*: str/bytes directly,
    anything else through the same canonical JSON rendering the config
    digest uses -- so two equal values give the same 64-bit integer on
    every worker, every run, every platform.

    >>> stable_hash("advanced-2vc")
    5507327187000418832
    >>> stable_hash((1, 2, 3)) == stable_hash([1, 2, 3])
    True
    """
    if isinstance(value, bytes):
        blob = value
    elif isinstance(value, str):
        blob = value.encode("utf-8")
    else:
        blob = json.dumps(
            _jsonify(value), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def config_digest(config: ExperimentConfig, **extras: Any) -> str:
    """Content hash identifying one run's results.

    ``extras`` fold execution options that change the *summary* content
    (``collect_obs``) into the key, so a cached bare summary is never
    replayed for a request that wanted an observability snapshot.  Stable
    across processes and ``PYTHONHASHSEED`` values by construction
    (SHA-256 over canonical JSON; no use of :func:`hash` anywhere).
    """
    payload: Dict[str, Any] = {
        "repro_version": __version__,
        "summary_schema": SUMMARY_SCHEMA_VERSION,
        "config": canonical_config_dict(config),
    }
    if extras:
        payload["extras"] = _jsonify(extras)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
