"""Struct-of-arrays contact schedule for the vectorised backend.

The object backend schedules two heap events per contact and pays a
Python callback for each, whether or not the contact can move any data.
:class:`ContactEventStream` flattens the same schedule into parallel
NumPy arrays sorted by the *identical* ``(time, priority, seq)`` key the
event heap uses, so the vectorised executor (:mod:`repro.core.soa`) can

* slice the schedule into slabs and mask out, in one vector operation,
  every contact whose endpoints are both protocol-inactive, and
* walk the surviving events in exactly the order the heap would have
  popped them.

Ordering contract (mirrors ``ContactNetwork._schedule_trace``): contact
``i`` of the trace gets sequence ``2i`` for its start (priority 0) and
``2i + 1`` for its end (priority 10); all dynamically scheduled events
(probes, source bumps, deliveries) receive later sequence numbers, so at
an equal timestamp the static starts always precede them.  Priority is a
function of the event kind here (start=0, end=10), so sorting by
``(time, kind, seq)`` reproduces the heap order exactly.

Construction is array-native: when the contact starts are already
non-decreasing (every :class:`~repro.mobility.trace.ContactTrace` and
:class:`~repro.mobility.arrays.ContactArrays` is), the event order is a
*merge* of two sorted runs -- the starts as given and the ends stably
sorted by time -- computed with two ``searchsorted`` calls instead of a
full three-key lexsort over ``2n`` events.  Build from a
:class:`~repro.mobility.arrays.ContactArrays` via :meth:`from_arrays`
to skip ``Contact`` objects entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mobility.arrays import ContactArrays
    from repro.mobility.trace import Contact

#: ``kind`` codes in the event arrays.
KIND_START = 0
KIND_END = 1


def aligned_end(time: np.ndarray, pos: int, size: int) -> int:
    """End of a run of the sorted array ``time`` starting at ``pos``: at
    least ``size`` entries (fewer only at the array's end), extended so
    that no timestamp is split between this run and the next.

    >>> aligned_end(np.array([0.0, 1.0, 1.0, 1.0, 2.0]), 0, 2)
    4
    >>> aligned_end(np.array([0.0, 1.0, 1.0, 1.0, 2.0]), 4, 2)
    5
    """
    n = len(time)
    if pos >= n:
        return n
    hi = min(pos + size, n)
    if hi < n:
        hi = int(np.searchsorted(time, time[hi - 1], side="right"))
    return hi


class _NodeIndex:
    """Read-only ``node id -> node index`` mapping over the sorted id
    array.

    Lookups binary-search the id array instead of hashing, so the
    mapping costs nothing beyond the array the stream already holds
    (a dict is ~100 bytes per node -- real money at 10^6 nodes).  The
    executor only queries it a handful of times per run (sources,
    caching nodes, recruited relays), never per event.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: np.ndarray) -> None:
        self._ids = ids

    def __getitem__(self, nid: int) -> int:
        pos = int(np.searchsorted(self._ids, nid))
        if pos == len(self._ids) or self._ids[pos] != nid:
            raise KeyError(nid)
        return pos

    def __contains__(self, nid: object) -> bool:
        pos = int(np.searchsorted(self._ids, nid))
        return pos < len(self._ids) and self._ids[pos] == nid

    def __len__(self) -> int:
        return len(self._ids)

    def get(self, nid: int, default=None):
        pos = int(np.searchsorted(self._ids, nid))
        if pos == len(self._ids) or self._ids[pos] != nid:
            return default
        return pos


class ContactEventStream:
    """The full contact schedule as sorted parallel arrays.

    Parameters
    ----------
    contacts:
        Iterable of :class:`~repro.mobility.trace.Contact` (a
        :class:`~repro.mobility.trace.ContactTrace` works as-is).
        Contacts touching unknown nodes are dropped, matching
        ``ContactNetwork._schedule_trace``.
    node_ids:
        The node population.  Node *indices* (positions in the sorted id
        tuple) index the executor's vectorised per-node state.

    Attributes
    ----------
    time, kind, a_idx, b_idx:
        Event arrays in exact heap pop order: timestamp (float64), kind
        code (int8), and the two endpoint node indices (int32 --
        :data:`~repro.mobility.arrays.MAX_NODE_ID` bounds ids, and
        populations stay far below 2**31 indices).  Endpoint node *ids*
        are not stored per event; gather them on demand as
        ``stream._id_arr[stream.a_idx]`` (the :attr:`a` / :attr:`b`
        properties do exactly that).
    """

    def __init__(self, contacts: Iterable["Contact"],
                 node_ids: Iterable[int]) -> None:
        ids = sorted(int(n) for n in node_ids)
        self.node_ids: tuple[int, ...] = tuple(ids)
        self.num_nodes = len(ids)
        self._id_arr = np.asarray(ids, dtype=np.int64)
        self.index_of = _NodeIndex(self._id_arr)

        known = set(ids)
        start_l: list[float] = []
        end_l: list[float] = []
        a_l: list[int] = []
        b_l: list[int] = []
        for contact in contacts:
            if contact.a not in known or contact.b not in known:
                continue
            start_l.append(contact.start)
            end_l.append(contact.end)
            a_l.append(contact.a)
            b_l.append(contact.b)

        start_t = np.asarray(start_l, dtype=np.float64)
        end_t = np.asarray(end_l, dtype=np.float64)
        a_idx = np.searchsorted(self._id_arr, a_l).astype(np.int32)
        b_idx = np.searchsorted(self._id_arr, b_l).astype(np.int32)
        self._assemble(start_t, end_t, a_idx, b_idx)

    @classmethod
    def from_arrays(cls, arrays: "ContactArrays") -> "ContactEventStream":
        """Build the stream straight from a
        :class:`~repro.mobility.arrays.ContactArrays` trace.

        No ``Contact`` objects, no per-contact Python loop: the trace's
        columns feed the event assembly directly (the ``ContactArrays``
        constructor already guarantees lexsorted contacts over known
        node ids).  Produces arrays identical to
        ``ContactEventStream(arrays.to_trace(), arrays.node_ids)``.
        """
        self = cls.__new__(cls)
        self._id_arr = arrays.node_id_array
        self.node_ids = arrays.node_ids
        self.num_nodes = len(self._id_arr)
        self.index_of = _NodeIndex(self._id_arr)
        a_idx = np.searchsorted(self._id_arr, arrays.a).astype(np.int32)
        b_idx = np.searchsorted(self._id_arr, arrays.b).astype(np.int32)
        self._assemble(arrays.start, arrays.end, a_idx, b_idx)
        return self

    def _assemble(self, start_t: np.ndarray, end_t: np.ndarray,
                  a_idx: np.ndarray, b_idx: np.ndarray) -> None:
        """Lay out the ``2n`` events in heap pop order.

        Sorted-start fast path: the start events (seq ``2i``) are
        already in heap order among themselves, and a stable time-sort
        puts the end events (seq ``2j + 1``) in theirs.  Merging two
        sorted runs only needs each event's final rank: a start at
        ``t`` is preceded by every earlier start plus the ends strictly
        before ``t`` (at a shared timestamp starts win -- kind 0 < 10),
        and an end at ``t`` by every earlier end plus the starts at or
        before ``t``.  Both counts are ``searchsorted`` calls, and the
        resulting order equals the full ``(time, kind, seq)`` lexsort
        because that key is unique per event.
        """
        n = len(start_t)
        self.num_contacts = n
        self.num_events = 2 * n

        if n and bool(np.all(start_t[1:] >= start_t[:-1])):
            arange = np.arange(n, dtype=np.int64)
            end_order = np.argsort(end_t, kind="stable")
            end_sorted = end_t[end_order]
            pos_start = arange + np.searchsorted(end_sorted, start_t,
                                                 side="left")
            pos_end = arange + np.searchsorted(start_t, end_sorted,
                                               side="right")
            self.time = np.empty(2 * n, dtype=np.float64)
            self.time[pos_start] = start_t
            self.time[pos_end] = end_sorted
            self.kind = np.empty(2 * n, dtype=np.int8)
            self.kind[pos_start] = KIND_START
            self.kind[pos_end] = KIND_END
            self.a_idx = np.empty(2 * n, dtype=np.int32)
            self.a_idx[pos_start] = a_idx
            self.a_idx[pos_end] = a_idx[end_order]
            self.b_idx = np.empty(2 * n, dtype=np.int32)
            self.b_idx[pos_start] = b_idx
            self.b_idx[pos_end] = b_idx[end_order]
            #: contact start times in schedule order (a sorted
            #: subsequence of ``time``), for O(log n) opened-by-t queries
            self.start_times = start_t
            return

        # General path (unsorted input): the original three-key lexsort.
        ev_time = np.concatenate([start_t, end_t])
        ev_kind = np.concatenate(
            [np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]
        )
        ev_seq = np.concatenate(
            [np.arange(0, 2 * n, 2, dtype=np.int64),
             np.arange(1, 2 * n, 2, dtype=np.int64)]
        )
        ev_aidx = np.concatenate([a_idx, a_idx])
        ev_bidx = np.concatenate([b_idx, b_idx])
        order = np.lexsort((ev_seq, ev_kind, ev_time))
        self.time = ev_time[order]
        self.kind = ev_kind[order]
        self.a_idx = ev_aidx[order]
        self.b_idx = ev_bidx[order]
        self.start_times = np.sort(start_t) if n else start_t

    @property
    def a(self) -> np.ndarray:
        """Per-event first-endpoint node ids (materialised on demand)."""
        return self._id_arr[self.a_idx]

    @property
    def b(self) -> np.ndarray:
        """Per-event second-endpoint node ids (materialised on demand)."""
        return self._id_arr[self.b_idx]

    def slab_end(self, pos: int, slab_size: int) -> int:
        """End of the slab beginning at ``pos``: at least ``slab_size``
        events, extended so a timestamp is never split across slabs.

        Splitting a timestamp would let the executor run controls (which
        fire between a timestamp's contact starts and its deliveries)
        before static events of the *same* timestamp in a later slab --
        an ordering the event heap can never produce.
        """
        return aligned_end(self.time, pos, slab_size)

    def events_until(self, t: float) -> int:
        """Number of events with time <= ``t`` (how many the object
        backend's heap would have popped by then)."""
        return int(np.searchsorted(self.time, t, side="right"))

    def contacts_opened_until(self, t: float) -> int:
        """Number of contacts whose start time is <= ``t``."""
        return int(np.searchsorted(self.start_times, t, side="right"))

    def __len__(self) -> int:
        return self.num_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContactEventStream({self.num_contacts} contacts, "
            f"{self.num_nodes} nodes)"
        )
