"""Canonical serialization of job identity: config, spec and launch options.

The simulators are deterministic (vxlint VX001 enforces it), so a result is
fully determined by *what* a job computes: the program bytes, the complete
:class:`~repro.common.config.VortexConfig` payload, the parsed
:class:`~repro.runtime.registry.DriverSpec` and the
:class:`~repro.runtime.launch.LaunchOptions`.  This module defines the one
canonical byte-stable encoding of those records that
:meth:`~repro.runtime.jobs.KernelJob.cache_key` and the service layer's
content-addressed result cache key on.

Canonicalization rules (the cache-key contract):

* **Config** — the full nested dataclass payload, every field, in a
  sorted-key JSON encoding.  Two configs constructed differently but equal
  field-by-field encode identically.
* **Spec** — the simulator name and its options, already sorted by
  :class:`DriverSpec` itself.
* **Options** — ``options=None`` encodes as the all-default
  :class:`LaunchOptions` record (they launch identically).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.common.config import VortexConfig
from repro.runtime.launch import LaunchOptions
from repro.runtime.registry import DriverSpec


def config_payload(config: VortexConfig) -> dict[str, Any]:
    """The full nested field payload of a :class:`VortexConfig` (JSON-ready)."""
    return dataclasses.asdict(config)


def spec_payload(spec: DriverSpec) -> dict[str, Any]:
    """A spec's identity payload: the simulator and its sorted options."""
    return {
        "simulator": spec.simulator,
        "options": [list(pair) for pair in spec.options],
    }


def options_payload(options: LaunchOptions | None) -> dict[str, Any]:
    """A launch-option payload; ``None`` normalizes to the all-default record."""
    return dataclasses.asdict(options if options is not None else LaunchOptions())


def canonical_json(payload: Any) -> str:
    """The one byte-stable JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON encoding."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
