"""Versioned checkpoint envelopes for bit-exact simulator state capture.

Every simulator layer implements the :class:`Snapshotable` protocol —
``snapshot()`` returns a payload of plain Python data (dicts, lists, ints,
bytes), ``restore(payload)`` rebuilds the exact state.  Below the drivers
both methods are derived from each class's ``STATE`` table
(:mod:`repro.common.state`).  The payloads compose bottom-up (MSHR → bank
→ cache → memory subsystem → processor → driver → device) and the
acceptance property holds end to end: a restored simulation continues
counter-identically to one that never paused.

This module owns the *envelope* wrapped around the top-level payloads: a
format version and a config fingerprint (the content digest of the full
:class:`~repro.common.config.VortexConfig` payload), so a checkpoint can
never be restored across format revisions or into a device built with a
different configuration — both are silent state corruption otherwise.
Envelopes are plain dicts: picklable for cross-process hand-off and
stable enough to write to disk.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.common.config import VortexConfig

#: Version of the envelope + payload layout.  Bump on any incompatible
#: change to what ``snapshot()`` emits anywhere in the layer stack.
#: Format 2: the wavefront scheduler snapshot gained the cache-locality
#: policy state (``last_lines``/``current_line``/``hazard_mask``).
#: Format 3: one device clock — the processor payload holds ``now`` and the
#: launch marks; per-component ``cycle`` keys and ``cycles`` counters are gone.
#: Format 4: one driver — the funcsim envelope's state is ``{"processor"}``
#: alone, whose payload holds the launch marks (and no ``perf``).
SNAPSHOT_FORMAT = 4


@runtime_checkable
class Snapshotable(Protocol):
    """The checkpoint/restore protocol every simulator layer implements.

    Simulator components do not write it by hand: they declare ``STATE`` and
    inherit it from :class:`~repro.common.state.Stateful`, whose methods
    also take an optional ``refs`` (live reference ↔ plain data) handed
    down to children.  The drivers, the device and the buffer allocator
    implement it directly on their envelope-level state.
    """

    def snapshot(self) -> dict[str, Any]: ...

    def restore(self, payload: dict[str, Any]) -> None: ...


class SnapshotError(ValueError):
    """Base class for checkpoint envelope failures."""


class SnapshotVersionError(SnapshotError):
    """The envelope was written by an incompatible snapshot format."""


class SnapshotConfigMismatch(SnapshotError):
    """The envelope's config fingerprint does not match the restoring device."""


class SnapshotKindError(SnapshotError):
    """The envelope holds a different kind of state than the restorer expects."""


class SnapshotMalformedError(SnapshotError):
    """The envelope is not a dict, or its state lacks a key the restorer needs."""


def config_fingerprint(config: VortexConfig) -> str:
    """Content digest of the full config payload (the envelope's identity)."""
    # Imported lazily: serialize pulls in the driver registry, whose driver
    # modules import this module for the envelope helpers.
    from repro.runtime.serialize import config_payload, content_digest

    return content_digest(config_payload(config))


def make_envelope(*, kind: str, config: VortexConfig, state: dict[str, Any]) -> dict[str, Any]:
    """Wrap a snapshot payload in the versioned, fingerprinted envelope.

    ``kind`` names what the payload is a snapshot *of* (``"funcsim"``,
    ``"simx"``, ``"device"``) so a payload can never be fed to the wrong
    restorer.
    """
    return {
        "format": SNAPSHOT_FORMAT,
        "kind": kind,
        "config_fingerprint": config_fingerprint(config),
        "state": state,
    }


def open_envelope(
    envelope: dict[str, Any], *, kind: str, config: VortexConfig, keys: tuple[str, ...] = ()
) -> dict[str, Any]:
    """Validate an envelope and return its state payload.

    Raises :class:`SnapshotVersionError` on a format mismatch,
    :class:`SnapshotKindError` when the payload kind differs,
    :class:`SnapshotConfigMismatch` when the restoring configuration's
    fingerprint differs from the one the checkpoint was taken under and
    :class:`SnapshotMalformedError` when the envelope, or its state, is not a
    dict or the state lacks one of ``keys`` (the entries the caller is about
    to read — so corruption is rejected before any simulator state changes).
    """
    if not isinstance(envelope, dict):
        raise SnapshotMalformedError(f"checkpoint is a {type(envelope).__name__}, not a dict")
    version = envelope.get("format")
    if version != SNAPSHOT_FORMAT:
        raise SnapshotVersionError(
            f"checkpoint format {version!r} is not supported "
            f"(this build reads format {SNAPSHOT_FORMAT})"
        )
    if envelope.get("kind") != kind:
        raise SnapshotKindError(
            f"checkpoint holds {envelope.get('kind')!r} state, expected {kind!r}"
        )
    fingerprint = config_fingerprint(config)
    if envelope.get("config_fingerprint") != fingerprint:
        raise SnapshotConfigMismatch(
            "checkpoint was taken under a different device configuration "
            f"({envelope.get('config_fingerprint')!r} != {fingerprint!r})"
        )
    state = envelope.get("state")
    if not isinstance(state, dict):
        raise SnapshotMalformedError(f"{kind} state is a {type(state).__name__}, not a dict")
    missing = [key for key in keys if key not in state]
    if missing:
        raise SnapshotMalformedError(f"{kind} checkpoint state lacks {missing}")
    return state
