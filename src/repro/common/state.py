"""State declared once: ``snapshot()``/``restore()`` derived from a ``STATE`` table.

A checkpointed class lists its state in one class-level ``STATE`` — an
ordered mapping from attribute name to :class:`Codec` — and inherits both
methods of the checkpoint protocol from :class:`Stateful`.  The payload key
of an attribute is its name without the leading underscore (a codec may name
another); restore runs in table order and ends in
:meth:`Stateful.after_restore`, the one place a class drops what it derives
from the restored state (plan and decode caches, validity horizons).  vxlint
VX007 holds every ``self.x`` a checkpointed class assigns to its ``STATE`` or
its ``SNAPSHOT_EXCLUDED`` set, and every ``STATE`` key to an assignment.

``refs`` maps live references to plain data where a payload needs it —
request tags that name cache objects, barrier participants that are warps:
the encoder on snapshot, the decoder on restore (identity when not given),
handed down to every child component.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any, ClassVar, NamedTuple


def _same(value: Any) -> Any:
    return value


class Codec(NamedTuple):
    """How one attribute travels through a checkpoint.

    ``encode(owner, value, refs)`` returns plain data; ``decode(owner, data,
    current, refs)`` returns the value to bind — ``current`` itself when it
    restores in place, because something holds an alias of it.  ``key``
    overrides the payload key; ``""`` makes the encoded dict the payload.
    """

    encode: Callable[[Any, Any, Callable[[Any], Any]], Any]
    decode: Callable[[Any, Any, Any, Callable[[Any], Any]], Any]
    key: str | None = None


def _refill(owner: Any, data: Any, current: Any, refs: Any) -> Any:
    if isinstance(current, dict):
        current.clear()
        current.update(data)
    else:
        current[:] = data
    return current


def _restore_child(owner: Any, data: Any, child: Any, refs: Any) -> Any:
    if child is not None and data is not None:
        child.restore(data, refs)
    return child


def _restore_children(owner: Any, data: Any, children: Any, refs: Any) -> Any:
    for child, payload in zip(children, data):
        child.restore(payload, refs)
    return children


#: A plain value (int, bool, ``None``), bound as it is.
VALUE = Codec(lambda owner, value, refs: value, lambda owner, data, current, refs: data)
#: A list or dict of plain values: copied out, refilled in place.
COPY = Codec(
    lambda owner, value, refs: dict(value) if isinstance(value, dict) else list(value), _refill
)
#: A set, as a sorted list.
SORTED_SET = Codec(
    lambda owner, value, refs: sorted(value), lambda owner, data, current, refs: set(data)
)
#: A :class:`Stateful` component (or ``None``), restored in place.
CHILD = Codec(
    lambda owner, child, refs: None if child is None else child.snapshot(refs), _restore_child
)
#: A list of :class:`Stateful` components.
CHILDREN = Codec(
    lambda owner, children, refs: [child.snapshot(refs) for child in children],
    _restore_children,
)


def child_via(encoder: str, decoder: str) -> Codec:
    """A child component whose ``refs`` are the owner's methods ``encoder``
    (snapshot) and ``decoder`` (restore)."""
    return Codec(
        lambda owner, child, refs: child.snapshot(getattr(owner, encoder)),
        lambda owner, data, child, refs: _restore_child(
            owner, data, child, getattr(owner, decoder)
        ),
    )


class Stateful:
    """Base of every checkpointed component: the protocol, derived from ``STATE``."""

    STATE: ClassVar[Mapping[str, Codec]] = {}

    def snapshot(self, refs: Callable[[Any], Any] = _same) -> dict[str, Any]:
        """The state as plain data, one payload key per ``STATE`` entry."""
        payload: dict[str, Any] = {}
        for attr, codec in self.STATE.items():
            data = codec.encode(self, getattr(self, attr), refs)
            if codec.key == "":
                payload.update(data)
            else:
                payload[codec.key or attr.lstrip("_")] = data
        return payload

    def restore(self, payload: Mapping[str, Any], refs: Callable[[Any], Any] = _same) -> None:
        """Rebuild the state of a :meth:`snapshot` payload, in ``STATE`` order."""
        for attr, codec in self.STATE.items():
            data = payload if codec.key == "" else payload[codec.key or attr.lstrip("_")]
            setattr(self, attr, codec.decode(self, data, getattr(self, attr), refs))
        self.after_restore()

    def after_restore(self) -> None:
        """Drop what is derived from the restored state (none by default)."""
