"""The channel dissymmetry criterion of Section VI.

The paper defines, for a dual-rail channel ``A`` whose rails have net
capacitances ``Cl0`` and ``Cl1``,

    ``d_A = |Cl0 − Cl1| / min(Cl0, Cl1)``                    (equation (12'))

"the lower the value of ``d_A``, the more resistant to DPA the chip is".  The
criterion generalises to 1-of-N channels by taking the spread between the
largest and smallest rail capacitance.  Table 2 of the paper reports the most
critical channels (highest criterion) of the AES core for the flat and the
hierarchical place-and-route flows.

This module evaluates the criterion over a netlist whose nets carry channel
annotations and produces Table-2 style reports.  Evaluation is vectorized:
every report carries a dense ``(channels, max rails)`` capacitance matrix
(NaN-padded for narrower channels) and all aggregates — the dissymmetry
vector, max/mean, bound checks, worst-channel ranking — are O(channels)
numpy expressions over it.  The scalar :func:`channel_dissymmetry` stays the
definitional oracle; the vectorized path is exactly equivalent (same float64
operations, bit-identical results), which the test-suite asserts across the
QDI block library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuits.netlist import Net, Netlist


class CriterionError(Exception):
    """Raised on malformed capacitance data."""


def channel_dissymmetry(rail_caps_ff: Sequence[float]) -> float:
    """The dissymmetry criterion for one channel (the scalar oracle).

    For a dual-rail channel this is exactly the paper's
    ``|Cl0 − Cl1| / min(Cl0, Cl1)``; for wider 1-of-N channels the spread
    between the extreme rails is used, which reduces to the same expression
    when N = 2.  A zero-capacitance rail opposite a loaded one yields
    ``inf`` — maximally leaky, never to be averaged away.
    """
    caps = [float(c) for c in rail_caps_ff]
    if len(caps) < 2:
        raise CriterionError("a channel needs at least two rails")
    if any(c < 0 for c in caps):
        raise CriterionError(f"negative capacitance in {caps}")
    smallest = min(caps)
    largest = max(caps)
    if smallest == 0.0:
        return float("inf") if largest > 0.0 else 0.0
    return (largest - smallest) / smallest


def dissymmetry_vector(cap_matrix: np.ndarray, *,
                       validate: bool = True) -> np.ndarray:
    """Vectorized criterion over a dense ``(channels, max rails)`` matrix.

    Rows are channels; entries beyond a channel's rail count are NaN.  The
    result is float64 and **bit-identical** to calling the scalar
    :func:`channel_dissymmetry` row by row: the per-row reduction uses the
    same ``(max − min) / min`` float64 operations, with the same
    zero-capacitance conventions (``0/0 → 0``, ``x/0 → inf``).

    ``validate=False`` skips the shape/NaN/negativity checks — the fast path
    for hot callers (the vectorized placer re-evaluates candidate channel
    rows thousands of times per temperature step against matrices it packed
    itself).
    """
    matrix = np.asarray(cap_matrix, dtype=np.float64)
    if validate:
        if matrix.ndim != 2 or matrix.shape[1] < 2:
            raise CriterionError(
                f"capacitance matrix must be (channels, >=2 rails), "
                f"got shape {matrix.shape}")
        valid = ~np.isnan(matrix)
        if (valid.sum(axis=1) < 2).any():
            raise CriterionError("a channel needs at least two rails")
        if (matrix[valid] < 0).any():
            raise CriterionError("negative capacitance in the matrix")
    smallest = np.nanmin(matrix, axis=1)
    largest = np.nanmax(matrix, axis=1)
    out = np.zeros(matrix.shape[0])
    zero = smallest == 0.0
    np.divide(largest - smallest, smallest, out=out, where=~zero)
    out[zero & (largest > 0.0)] = np.inf
    out[zero & (largest == 0.0)] = 0.0
    return out


def pack_cap_matrix(rail_caps: Sequence[Sequence[float]]) -> np.ndarray:
    """NaN-pad a ragged list of per-channel rail capacitances into a matrix."""
    if not rail_caps:
        return np.empty((0, 2))
    width = max(2, max(len(caps) for caps in rail_caps))
    matrix = np.full((len(rail_caps), width), np.nan)
    for row, caps in enumerate(rail_caps):
        matrix[row, :len(caps)] = caps
    return matrix


@dataclass(frozen=True)
class ChannelCriterion:
    """Criterion evaluation of one channel."""

    channel: str
    block: str
    bit: Optional[int]
    rail_caps_ff: Tuple[float, ...]
    dissymmetry: float

    @property
    def min_cap_ff(self) -> float:
        return min(self.rail_caps_ff)

    @property
    def max_cap_ff(self) -> float:
        return max(self.rail_caps_ff)

    def describe(self) -> str:
        caps = " | ".join(f"{c:.1f}" for c in self.rail_caps_ff)
        return (f"{self.channel:<40s} block={self.block or '-':<16s} "
                f"caps(fF)=[{caps}] dA={self.dissymmetry:.3f}")


def _infer_bit(channel_name: str) -> Optional[int]:
    """Bit index of a ``<bus>_b<bit>`` channel name, or ``None``."""
    if "_b" in channel_name:
        suffix = channel_name.rsplit("_b", 1)[-1]
        if suffix.isdigit():
            return int(suffix)
    return None


@dataclass
class CriterionReport:
    """Criterion evaluation of every channel of a design.

    Aggregates (max/mean dissymmetry, bound checks, worst ranking) are
    computed from a cached dense capacitance matrix and dissymmetry vector,
    rebuilt lazily whenever the channel list grows — per-query cost is one
    O(channels) numpy reduction instead of a Python loop.
    """

    design: str
    channels: List[ChannelCriterion] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._cache_len = -1
        self._cap_matrix: Optional[np.ndarray] = None
        self._dissymmetries: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.channels)

    # ------------------------------------------------------------ dense view
    def _refresh_cache(self) -> None:
        if self._cache_len == len(self.channels):
            return
        self._cap_matrix = pack_cap_matrix(
            [c.rail_caps_ff for c in self.channels])
        self._dissymmetries = np.array(
            [c.dissymmetry for c in self.channels], dtype=np.float64)
        self._cache_len = len(self.channels)

    def cap_matrix(self) -> np.ndarray:
        """Dense ``(channels, max rails)`` rail-capacitance matrix (NaN pad)."""
        self._refresh_cache()
        return self._cap_matrix

    def dissymmetries(self) -> np.ndarray:
        """The per-channel criterion values as one float64 vector."""
        self._refresh_cache()
        return self._dissymmetries

    # ------------------------------------------------------------ aggregates
    def worst(self, count: int = 5) -> List[ChannelCriterion]:
        """The ``count`` channels with the highest criterion (Table 2 rows).

        Ties are broken by channel name (ascending), so the ranking is stable
        across runs, seeds and dict insertion orders.
        """
        order = self._ranked_indices()
        return [self.channels[i] for i in order[:count]]

    def _ranked_indices(self) -> List[int]:
        """Channel indices sorted by (dissymmetry desc, channel name asc)."""
        self._refresh_cache()
        values = self._dissymmetries
        names = [c.channel for c in self.channels]
        # np.lexsort sorts ascending by the last key first; negate the
        # criterion for the descending primary order.  ``-inf`` from negating
        # infinite dissymmetries sorts first, as required.
        return list(np.lexsort((names, -values)))

    @property
    def max_dissymmetry(self) -> float:
        self._refresh_cache()
        if self._dissymmetries.size == 0:
            return 0.0
        return float(self._dissymmetries.max())

    @property
    def mean_dissymmetry(self) -> float:
        """Arithmetic mean of the criterion (``inf`` if any channel is).

        An infinite dissymmetry (a zero-capacitance rail opposite a loaded
        one) propagates: a report containing such a channel never averages
        it away into a finite, reassuring mean.
        """
        self._refresh_cache()
        if self._dissymmetries.size == 0:
            return 0.0
        return float(self._dissymmetries.mean())

    def channels_above(self, threshold: float) -> List[ChannelCriterion]:
        """Channels whose criterion exceeds a bound (the leaky ones).

        Ordered worst-first with the same deterministic name tie-breaking as
        :meth:`worst`, so repair passes and reports walk violations in a
        reproducible order.
        """
        self._refresh_cache()
        return [self.channels[i] for i in self._ranked_indices()
                if self._dissymmetries[i] > threshold]

    def violation_count(self, threshold: float) -> int:
        """How many channels exceed the bound (one vector comparison)."""
        self._refresh_cache()
        return int((self._dissymmetries > threshold).sum())

    def meets_bound(self, threshold: float) -> bool:
        """True when every channel satisfies ``d_A <= threshold``."""
        return self.max_dissymmetry <= threshold

    def as_table(self, count: int = 5) -> str:
        """Render the worst channels as a Table-2 style text table."""
        lines = [
            f"Design: {self.design} — {len(self.channels)} channels, "
            f"max dA = {self.max_dissymmetry:.3f}, mean dA = {self.mean_dissymmetry:.3f}",
            f"{'channel':<40s} {'block':<18s} {'bit':>4s} "
            f"{'rail caps (fF)':>24s} {'dA':>8s}",
        ]
        for criterion in self.worst(count):
            caps = " | ".join(f"{c:.0f}" for c in criterion.rail_caps_ff)
            bit = "" if criterion.bit is None else str(criterion.bit)
            lines.append(
                f"{criterion.channel:<40s} {criterion.block or '-':<18s} {bit:>4s} "
                f"{caps:>24s} {criterion.dissymmetry:>8.2f}"
            )
        return "\n".join(lines)


def _rail_capacitance(netlist: Netlist, net: Net, use_load_cap: bool) -> float:
    """Capacitance of one rail, read from the annotated netlist.

    All criterion evaluations go through the netlist (never through a raw
    extraction-report lookup): ``load_cap_ff`` raises ``NetlistError`` on an
    unknown net, matching the strict
    :meth:`repro.pnr.extraction.ExtractionReport.cap_of` contract — a
    routing/annotation name mismatch fails loudly instead of reporting a
    phantom ``0.0`` capacitance that would understate the dissymmetry.
    """
    if use_load_cap:
        return netlist.load_cap_ff(net.name)
    return net.routing_cap_ff


def _report_from_entries(design_name: str,
                         entries: List[Tuple[str, str, Tuple[float, ...]]]
                         ) -> CriterionReport:
    """Build a report from ``(channel, block, caps)`` rows in one shot.

    The dissymmetries of every channel are computed by one vectorized
    :func:`dissymmetry_vector` call over the packed capacitance matrix; the
    scalar definition stays available as the per-channel oracle.
    """
    report = CriterionReport(design=design_name)
    if not entries:
        return report
    values = dissymmetry_vector(pack_cap_matrix([caps for _, _, caps
                                                 in entries]))
    for (channel_name, block, caps), value in zip(entries, values):
        report.channels.append(ChannelCriterion(
            channel=channel_name,
            block=block,
            bit=_infer_bit(channel_name),
            rail_caps_ff=caps,
            dissymmetry=float(value),
        ))
    return report


def _channel_caps_and_block(netlist: Netlist, rails: Sequence[Net],
                            use_load_cap: bool) -> Tuple[Tuple[float, ...], str]:
    """Rail capacitances and owning block of one channel's nets."""
    caps = tuple(_rail_capacitance(netlist, net, use_load_cap) for net in rails)
    blocks = {net.block for net in rails if net.block}
    return caps, (next(iter(blocks)) if blocks else "")


def evaluate_netlist_channels(netlist: Netlist, *, use_load_cap: bool = True,
                              design_name: Optional[str] = None) -> CriterionReport:
    """Evaluate the dissymmetry criterion of every channel of a netlist.

    Channels are discovered from the per-net ``channel`` / ``rail``
    annotations; nets without channel annotation are ignored (control and
    acknowledge wires are not data channels).
    """
    entries: List[Tuple[str, str, Tuple[float, ...]]] = []
    for channel_name, rails in sorted(netlist.channels().items()):
        if len(rails) < 2:
            continue
        caps, block = _channel_caps_and_block(netlist, rails, use_load_cap)
        entries.append((channel_name, block, caps))
    return _report_from_entries(design_name or netlist.name, entries)


def evaluate_capacitance_map(rail_caps: Mapping[str, Sequence[float]], *,
                             design_name: str = "design") -> CriterionReport:
    """Evaluate the criterion from a plain ``channel → rail capacitances`` map.

    Useful when capacitances come from an external extraction (or from the
    block-level AES model) rather than from a gate-level netlist.
    """
    entries: List[Tuple[str, str, Tuple[float, ...]]] = []
    for channel_name in sorted(rail_caps):
        caps = tuple(float(c) for c in rail_caps[channel_name])
        if len(caps) < 2:
            continue
        block = channel_name.split("/", 1)[0] if "/" in channel_name else ""
        entries.append((channel_name, block, caps))
    return _report_from_entries(design_name, entries)


def compare_reports(reference: CriterionReport, improved: CriterionReport,
                    *, count: int = 5) -> str:
    """Side-by-side comparison of two flows (the Table 2 of the paper)."""
    lines = [
        f"{'':<28s} {reference.design:>20s} {improved.design:>20s}",
        f"{'channels':<28s} {len(reference):>20d} {len(improved):>20d}",
        f"{'max dA':<28s} {reference.max_dissymmetry:>20.3f} {improved.max_dissymmetry:>20.3f}",
        f"{'mean dA':<28s} {reference.mean_dissymmetry:>20.3f} {improved.mean_dissymmetry:>20.3f}",
        "",
        f"--- worst channels: {reference.design} ---",
        reference.as_table(count),
        "",
        f"--- worst channels: {improved.design} ---",
        improved.as_table(count),
    ]
    return "\n".join(lines)
