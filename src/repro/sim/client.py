"""Client-side retrieval from a broadcast program.

A client tunes in at slot ``start`` (its *phase*), watches the program go
by, and collects blocks of its target file until it can reconstruct:

* **with IDA** (``need_distinct``): any ``m`` *distinct* dispersed blocks
  suffice (Section 2.1) - the client caches block indices and finishes at
  the ``m``-th distinct one;
* **without IDA** (``need_specific``): the file is not dispersed, so the
  client must catch *every one* of blocks ``0 .. m-1``; a lost block can
  only be replaced by the same index coming round again - the regime of
  Lemma 1.

``retrieve`` is the single engine for both, parameterized by the
requirement; the fault model decides which slots are lost.

The client is an *occurrence walker*: instead of scanning the program
slot by slot, it jumps service-to-service along the program's
precomputed occurrence index (:attr:`BroadcastProgram.index`).  One
private kernel, ``_walk``, is that walk for every retrieval in the
package - plain and specific-block reads here, version-consistent reads
(:func:`repro.rtdb.updates.retrieve_versioned`) and reads across spliced
programs (:class:`repro.server.airing.AirSchedule`).  It asks the fault
model only about services that can still matter, in rounds of as many
services as blocks are missing, so it decides exactly the slots the
seed slot-walking loop (kept in :mod:`repro.sim.reference` as the
executable spec) decides, and the outcome is bit-identical to it:
fault decisions are deterministic per ``(seed, slot)`` and slots
carrying other files never affected the outcome.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence, TYPE_CHECKING

from repro.errors import SimulationError
from repro.bdisk.program import BroadcastProgram
from repro.sim.faults import FaultModel, NoFaults, lost_in

if TYPE_CHECKING:  # pragma: no cover
    from repro.bdisk.multichannel import ChannelSet

def default_horizon(program: BroadcastProgram, m_needed: int) -> int:
    """The default listening horizon: ``(m_needed + 2)`` data cycles.

    The single source of the convention shared by :func:`retrieve`,
    :func:`repro.sim.channel.broadcast_retrieve`, the caching client,
    and the traffic retriever - a client that has heard that many cycles
    without reconstructing gives up (the channel is effectively dark).
    """
    return (m_needed + 2) * program.data_cycle_length


#: One stretch of an occurrence walk, ``(program, file, lo, hi, offset,
#: basis, period)``: the program's services of ``file`` in the absolute
#: slots ``[lo, hi)``, program slot ``p`` airing at ``p + offset``.
#: Held blocks are discarded when the walk absorbs a block whose
#: ``basis`` (a reconstruction-compatibility key, e.g. the IDA level
#: ``m``) or write slot ``t - t % period`` (versioned reads; ``period``
#: is ``None`` for plain reads) differs from theirs.
_Leg = tuple[BroadcastProgram, str, int, int, int, int | None, int | None]


def _walk(
    legs: Iterable[_Leg],
    m_needed: int,
    faults: FaultModel | None,
    *,
    need_distinct: bool = True,
) -> tuple[int | None, dict[int, None], list[int], int, int | None]:
    """The occurrence walk every retrieval shares (Lemma 2's client).

    Walks the legs service by service, skips lost slots and stops at
    the ``m``-th distinct block held (with ``need_distinct=False``,
    once every index below ``m`` is held).  Returns ``(finish, held,
    lost, discards, write)``: the finish slot (``None`` when the legs
    run out), the held blocks in arrival order, the lost services, the
    blocks discarded to resets, and the write slot of the held blocks.

    Fault queries are batched, and the batch is derived rather than
    tuned: each round asks about the next ``missing`` services, where
    ``missing`` counts the blocks still needed.  One service adds at
    most one block and a reset only removes blocks, so the finish is
    never before the last service of a round - the walk asks exactly
    the services from the first leg's ``lo`` through the finish slot,
    as the slot-walking references do.  ``NoFaults`` (or ``None``) is
    never asked.
    """
    if isinstance(faults, NoFaults):
        faults = None  # nothing to ask: every service is received
    never_lost = repeat(False)
    # Blocks at or past `limit` complete nothing in specific-blocks mode.
    limit = m_needed if not need_distinct else 1 << 62
    held: dict[int, None] = {}
    lost: list[int] = []
    missing = m_needed
    discards = 0
    held_basis: int | None = None
    held_write: int | None = None
    for program, file, lo, hi, offset, basis, period in legs:
        index = program.index
        slots = index.occurrence_slots(file)
        blocks = index.occurrence_blocks(file)
        cycle = index.data_cycle_length
        count = len(slots)
        # Pointer (base, i): the next service is occurrence i of the
        # cycle copy airing from absolute slot `base`.
        quotient, within = divmod(lo - offset, cycle)
        base = quotient * cycle + offset
        i = bisect_left(slots, within)
        stale = basis != held_basis
        write = None
        while True:
            if i == count:
                base += cycle
                i = 0
            # One round: the next `missing` services of this cycle copy
            # that air before `hi` (at least one: with m <= 0 the first
            # received block finishes, as in the references).
            j = i + (missing if missing > 0 else 1)
            if j > count:
                j = count
            if base + slots[j - 1] >= hi:
                j = bisect_left(slots, hi - base, i, j)
                if j == i:
                    break
            batch = slots[i:j]
            decisions = (
                never_lost
                if faults is None
                else lost_in(faults, [base + slot for slot in batch])
            )
            for slot, block, is_lost in zip(batch, blocks[i:j], decisions):
                slot += base
                if is_lost:
                    lost.append(slot)
                    continue
                if period is not None:
                    write = slot - slot % period
                if stale or write != held_write:
                    discards += len(held)
                    held.clear()
                    missing = m_needed
                    held_basis, held_write = basis, write
                    stale = False
                if block not in held:
                    held[block] = None
                    if block < limit:
                        missing -= 1
                    if missing <= 0:
                        return slot, held, lost, discards, write
            i = j
    return None, held, lost, discards, held_write


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of one retrieval attempt.

    Attributes
    ----------
    file:
        The target file.
    start:
        The phase (slot at which the client began listening).
    completed:
        Whether the requirement was met within the horizon.
    finish_slot:
        Slot at which the final needed block arrived (None if incomplete).
    latency:
        ``finish_slot - start + 1`` in slots (None if incomplete).
    received:
        Distinct block indices received, in arrival order.
    lost_slots:
        Slots of the target file that the fault model clobbered.
    """

    file: str
    start: int
    completed: bool
    finish_slot: int | None
    latency: int | None
    received: tuple[int, ...]
    lost_slots: tuple[int, ...]

    def met_deadline(self, deadline_slots: int) -> bool:
        """Whether retrieval finished within ``deadline_slots`` slots."""
        return self.completed and self.latency is not None and (
            self.latency <= deadline_slots
        )


def retrieve(
    program: BroadcastProgram,
    file: str,
    m_needed: int,
    *,
    start: int = 0,
    faults: FaultModel | None = None,
    need_distinct: bool = True,
    max_slots: int | None = None,
) -> RetrievalResult:
    """Simulate one retrieval.

    Parameters
    ----------
    program:
        The broadcast program the server runs.
    file:
        Target file name.
    m_needed:
        Blocks required: with ``need_distinct``, any ``m`` distinct
        indices; otherwise every index in ``0 .. m_needed - 1``.
    start:
        The client's phase.
    faults:
        Channel fault model (default :class:`NoFaults`).
    need_distinct:
        IDA mode (True) vs specific-blocks mode (False).
    max_slots:
        Listening horizon: the client hears slots ``[start, start +
        horizon)``.  Defaults to ``(m_needed + 2)`` data cycles, after
        which the retrieval reports failure.  (The same convention as
        :func:`repro.sim.channel.broadcast_retrieve`.)

    Raises
    ------
    SimulationError
        If ``file`` is not in the program (the retrieval could never
        finish, which is a configuration error rather than a timeout).
    """
    if file not in program.files:
        raise SimulationError(f"file {file!r} is not broadcast")
    horizon = (
        max_slots
        if max_slots is not None
        else default_horizon(program, m_needed)
    )
    finish, held, lost, _, _ = _walk(
        ((program, file, start, start + horizon, 0, None, None),),
        m_needed,
        faults,
        need_distinct=need_distinct,
    )
    return RetrievalResult(
        file=file,
        start=start,
        completed=finish is not None,
        finish_slot=finish,
        latency=None if finish is None else finish - start + 1,
        received=tuple(held),
        lost_slots=tuple(lost),
    )


@dataclass(frozen=True)
class MultiChannelRetrieval:
    """Outcome of one retrieval over a :class:`ChannelSet`.

    Attributes
    ----------
    file:
        The target file.
    start:
        The slot at which the client decided to retrieve (*before* any
        re-tuning).
    completed:
        Whether the requirement was met within the horizon.
    channel:
        The channel the client chose to listen on.
    switched:
        Whether choosing it required a re-tune (and paid the cost).
    finish_slot:
        Slot of the final needed block - or, when incomplete, the last
        slot of the exhausted listening horizon (the client is busy
        until then either way, which is what multi-channel callers need
        to advance their clocks; single-channel
        :class:`RetrievalResult` reports ``None`` instead).
    latency:
        ``finish_slot - start + 1``, tuning cost included (None if
        incomplete).
    received / lost_slots:
        As in :class:`RetrievalResult`, on the chosen channel.
    """

    file: str
    start: int
    completed: bool
    channel: int
    switched: bool
    finish_slot: int
    latency: int | None
    received: tuple[int, ...]
    lost_slots: tuple[int, ...]

    def met_deadline(self, deadline_slots: int) -> bool:
        """Whether retrieval finished within ``deadline_slots`` slots."""
        return self.completed and self.latency is not None and (
            self.latency <= deadline_slots
        )


def choose_channel(
    channels: "ChannelSet",
    file: str,
    m_needed: int,
    *,
    start: int,
    tuned: int,
    need_distinct: bool = True,
    max_slots: int | None = None,
    among: Sequence[int] | None = None,
) -> tuple[int, int, int, RetrievalResult]:
    """The channel a rational client listens on, and its probe.

    Deterministic choice rule shared by every walker (fast, reference,
    object engine, SoA engine) - they must agree bit-for-bit: score each
    candidate channel by its **fault-free** finish slot from the slot the
    client could start listening (``start``, plus the tuning cost when
    the candidate is not the currently tuned channel); completed probes
    beat exhausted ones, earlier finishes beat later ones, and ties go
    to the lowest channel index.  Faults are *not* consulted - the
    client cannot predict them, so it commits to the channel that is
    best on the advertised program.

    Returns ``(channel, listen_start, horizon, probe)`` where ``probe``
    is the fault-free retrieval on the chosen channel.  ``among``
    restricts the candidates to a subset of the file's channels (quorum
    assembly crosses channels off as it reads them).
    """
    candidates = (
        channels.channels_for(file) if among is None else tuple(among)
    )
    if not candidates:
        raise SimulationError(
            f"no candidate channels to choose from for {file!r}"
        )
    best: tuple[int, int, int] | None = None
    chosen: tuple[int, int, int, RetrievalResult] | None = None
    for candidate in candidates:
        listen = channels.listen_start(start, tuned, candidate)
        program = channels.programs[candidate]
        horizon = (
            max_slots
            if max_slots is not None
            else default_horizon(program, m_needed)
        )
        probe = retrieve(
            program,
            file,
            m_needed,
            start=listen,
            faults=None,
            need_distinct=need_distinct,
            max_slots=horizon,
        )
        busy_until = (
            probe.finish_slot
            if probe.completed and probe.finish_slot is not None
            else listen + horizon - 1
        )
        key = (0 if probe.completed else 1, busy_until, candidate)
        if best is None or key < best:
            best = key
            chosen = (candidate, listen, horizon, probe)
    assert chosen is not None  # channels_for never returns empty
    return chosen


def retrieve_multichannel(
    channels: "ChannelSet",
    file: str,
    m_needed: int,
    *,
    start: int = 0,
    tuned: int = 0,
    faults: Sequence[FaultModel | None] | None = None,
    need_distinct: bool = True,
    max_slots: int | None = None,
) -> MultiChannelRetrieval:
    """Simulate one retrieval over ``k`` parallel channels.

    The client picks the channel with the earliest feasible (fault-free)
    occurrence run via :func:`choose_channel`, pays ``tuning_cost``
    slots when that channel differs from ``tuned``, then performs the
    ordinary single-channel retrieval there under that channel's fault
    model (``faults[channel]``; ``None`` entries mean a clean channel).

    With one channel and ``tuned=0`` this is exactly
    :func:`retrieve` - same slots heard, same blocks, same latency -
    which is what keeps ``k=1`` scenarios bit-identical to the
    single-channel stack.
    """
    if faults is not None and len(faults) != channels.count:
        raise SimulationError(
            f"faults must have one entry per channel: got {len(faults)} "
            f"for {channels.count} channel(s)"
        )
    channel, listen, horizon, probe = choose_channel(
        channels,
        file,
        m_needed,
        start=start,
        tuned=tuned,
        need_distinct=need_distinct,
        max_slots=max_slots,
    )
    fault_model = faults[channel] if faults is not None else None
    if fault_model is None or isinstance(fault_model, NoFaults):
        result = probe
    else:
        result = retrieve(
            channels.programs[channel],
            file,
            m_needed,
            start=listen,
            faults=fault_model,
            need_distinct=need_distinct,
            max_slots=horizon,
        )
    finish = (
        result.finish_slot
        if result.completed and result.finish_slot is not None
        else listen + horizon - 1
    )
    return MultiChannelRetrieval(
        file=file,
        start=start,
        completed=result.completed,
        channel=channel,
        switched=channel != tuned,
        finish_slot=finish,
        latency=finish - start + 1 if result.completed else None,
        received=result.received,
        lost_slots=result.lost_slots,
    )
