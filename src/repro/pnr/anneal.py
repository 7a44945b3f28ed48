"""Vectorized, security-aware simulated-annealing placement engine.

The scalar annealer it replaced walked one move at a time over dict-backed
cells; on the reference AES it was ~95 % of every flow run and every
hardening repair iteration.  This module rebuilds the optimizer on numpy:

* **array-backed state** — dense cell ids, float64 coordinate vectors, a
  ``fixed`` mask and per-cell fence rectangles resolved once from the
  floorplan;
* **compiled connectivity** — net ↔ pin incidence flattened into CSR-style
  index arrays (:class:`PlacerConnectivity`), compiled once per
  :attr:`~repro.circuits.netlist.Netlist.topology_version` and cached on the
  netlist (the same idiom as the simulation engine's compile cache);
* **incremental delta-HPWL** — per-net min/max bounds are cached; a move
  re-evaluates only the nets pinned by the moved cells, gathered and reduced
  in bulk (``np.minimum.reduceat`` over the CSR pin slices), never a full
  ``_hpwl`` sweep;
* **batched moves** — each temperature step proposes a whole vector of
  perturbations and swaps, evaluates every candidate's exact cost delta
  against the pre-batch state in one pass, applies Metropolis acceptance
  with a seeded :class:`numpy.random.Generator`, and commits a
  net/channel/cell-disjoint subset so every committed delta stays exact;
* **multi-objective cost** — optional security term: the weighted sum of
  HPWL and the rail-capacitance dissymmetry of every annotated channel,
  evaluated through the same linear extraction model
  (``via + c/µm · fanout_factor · HPWL`` plus pin and dummy loads) that
  :class:`~repro.pnr.extraction.IncrementalExtractor` re-measures after the
  fact, with per-channel criterion updates numerically identical to
  :func:`repro.core.criterion.dissymmetry_vector`.

The scalar pipeline survives in ``tests/oracles/placer.py`` — the oracle
the equivalence tests and the ``benchmarks/bench_placer.py`` ≥10× gate
compare against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from contextlib import nullcontext

import numpy as np

from ..circuits.netlist import Netlist
from ..core.criterion import dissymmetry_vector
from ..electrical.technology import HCMOS9_LIKE, Technology
from ..obs.telemetry import current
from .cells import PlacedCell
from .floorplan import Floorplan
from .routing import fanout_factor

#: Reusable no-op context for per-step spans with telemetry disabled.
_NO_SPAN = nullcontext()


class PlacerConnectivity:
    """Net ↔ pin connectivity compiled into CSR-style index arrays.

    Tracked nets are those with at least two *placed* unique pins; nets
    whose unique-pin count also stays within ``fanout_limit`` carry HPWL
    cost weight (``wl_weight = 1``), exactly mirroring the net selection of
    the scalar oracle (``tests/oracles/placer.py``).  Wider nets are
    tracked with zero cost weight so the security objective can still
    follow the rails of high-fanout channels.
    """

    def __init__(self, netlist: Netlist, cells: Mapping[str, PlacedCell], *,
                 fanout_limit: int = 24):
        self.fanout_limit = fanout_limit
        self.names: List[str] = sorted(cells)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.n_cells = len(self.names)

        net_names: List[str] = []
        net_cells_flat: List[int] = []
        net_ptr = [0]
        conn_counts: List[int] = []
        wl_flags: List[bool] = []
        for net in netlist.nets():
            pins = [pin.instance for pin in net.connections()
                    if pin.instance in self.index]
            unique = sorted(set(pins))
            if len(unique) < 2:
                continue
            net_names.append(net.name)
            net_cells_flat.extend(self.index[p] for p in unique)
            net_ptr.append(len(net_cells_flat))
            conn_counts.append(len(pins))
            wl_flags.append(len(unique) <= fanout_limit)
        self.net_names = net_names
        self.n_nets = len(net_names)
        self.net_index = {n: i for i, n in enumerate(net_names)}
        self.net_ptr = np.asarray(net_ptr, dtype=np.int64)
        self.net_cells = np.asarray(net_cells_flat, dtype=np.int64)
        self.net_size = np.diff(self.net_ptr)
        self.conn_counts = np.asarray(conn_counts, dtype=np.int64)
        self.wl_weight = np.asarray(wl_flags, dtype=np.float64)
        #: flat owner array aligned with ``net_cells`` (for segment masks)
        self.net_owner = np.repeat(np.arange(self.n_nets), self.net_size)

        # Reverse CSR: cell → tracked nets (all, for move evaluation) and
        # cell → cost nets (for the centre-of-gravity sweeps).  A stable
        # argsort of the forward pin list groups it by cell while keeping
        # each cell's nets in ascending net-id order (the forward layout is
        # net-major), so no python-level list building is needed.
        order = np.argsort(self.net_cells, kind="stable")
        self.cell_nets = self.net_owner[order]
        counts = np.bincount(self.net_cells, minlength=self.n_cells)
        self.cell_net_ptr = np.concatenate(
            [[0], np.cumsum(counts)]).astype(np.int64)
        cell_owner = np.repeat(np.arange(self.n_cells), counts)
        keep_wl = self.wl_weight[self.cell_nets] > 0
        self.cell_wlnets = self.cell_nets[keep_wl]
        #: flat owner array aligned with ``cell_wlnets`` (for scatter-adds)
        self.wl_owner = cell_owner[keep_wl]
        wl_counts = np.bincount(self.wl_owner, minlength=self.n_cells)
        self.cell_wlnet_ptr = np.concatenate(
            [[0], np.cumsum(wl_counts)]).astype(np.int64)

        # Channels (the security objective's unit): every annotated channel
        # with >= 2 rails of which at least one is a tracked net.
        self.chan_names: List[str] = []
        chan_ptr = [0]
        rail_net_ids: List[int] = []      # tracked net id, or -1
        rail_net_names: List[str] = []    # for constant-cap lookups
        net_chan = np.full(self.n_nets, -1, dtype=np.int64)
        net_slot = np.full(self.n_nets, -1, dtype=np.int64)
        for channel_name, rails in sorted(netlist.channels().items()):
            if len(rails) < 2:
                continue
            ids = [self.net_index.get(net.name, -1) for net in rails]
            if all(i < 0 for i in ids):
                continue  # every rail is constant: d_A cannot change
            chan_id = len(self.chan_names)
            self.chan_names.append(channel_name)
            for slot, (net, net_id) in enumerate(zip(rails, ids)):
                rail_net_ids.append(net_id)
                rail_net_names.append(net.name)
                if net_id >= 0:
                    net_chan[net_id] = chan_id
                    net_slot[net_id] = slot
            chan_ptr.append(len(rail_net_ids))
        self.n_chans = len(self.chan_names)
        self.chan_ptr = np.asarray(chan_ptr, dtype=np.int64)
        self.rail_net_ids = np.asarray(rail_net_ids, dtype=np.int64)
        self.rail_net_names = rail_net_names
        self.net_chan = net_chan
        self.net_slot = net_slot
        self.max_rails = (int(np.diff(self.chan_ptr).max())
                          if self.n_chans else 0)


def compile_connectivity(netlist: Netlist, cells: Mapping[str, PlacedCell], *,
                         fanout_limit: int = 24) -> PlacerConnectivity:
    """Compile (or fetch the cached) connectivity of a netlist + cell set.

    The compile is cached on the netlist object keyed on its
    ``topology_version`` (and the cell-name set), so repeated placements of
    the same design — every repair iteration, every sweep point sharing a
    netlist — skip straight to the arrays.
    """
    names = tuple(sorted(cells))
    key = (netlist.topology_version, fanout_limit, hash(names))
    cached = getattr(netlist, "_placer_conn_cache", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    conn = PlacerConnectivity(netlist, cells, fanout_limit=fanout_limit)
    netlist._placer_conn_cache = (key, conn)
    return conn


class SecurityObjective:
    """Live rail-capacitance dissymmetry state of every tracked channel.

    ``rows`` is the NaN-padded ``(channels, max rails)`` capacitance matrix
    of :func:`repro.core.criterion.pack_cap_matrix`; ``d`` the matching
    criterion vector (:func:`dissymmetry_vector` semantics).  Rail
    capacitances follow the extraction model exactly:
    ``via + c/µm · fanout_factor(pins) · HPWL`` for tracked rails (plus the
    constant pin and dummy loads), a constant for unplaced rails — so the
    annealer's predicted dissymmetries are the ones
    :class:`~repro.pnr.extraction.IncrementalExtractor` measures afterwards.
    """

    def __init__(self, conn: PlacerConnectivity, netlist: Netlist,
                 technology: Technology, hpwl: np.ndarray):
        self.conn = conn
        factors = np.array([fanout_factor(int(c)) for c in conn.conn_counts])
        self.slope = technology.routing_cap_ff_per_um * factors
        consts = np.empty(conn.n_nets)
        for net_id, name in enumerate(conn.net_names):
            net = netlist.net(name)
            consts[net_id] = (technology.via_cap_ff + net.dummy_cap_ff
                              + netlist.pin_cap_ff(name))
        self.const = consts
        self.rows = np.full((conn.n_chans, conn.max_rails), np.nan)
        for chan_id in range(conn.n_chans):
            lo, hi = conn.chan_ptr[chan_id], conn.chan_ptr[chan_id + 1]
            for slot in range(hi - lo):
                net_id = conn.rail_net_ids[lo + slot]
                if net_id >= 0:
                    continue
                name = conn.rail_net_names[lo + slot]
                net = netlist.net(name)
                self.rows[chan_id, slot] = (technology.via_cap_ff
                                            + net.dummy_cap_ff
                                            + netlist.pin_cap_ff(name))
        self.refresh(hpwl)

    def refresh(self, hpwl: np.ndarray) -> None:
        """Recompute the tracked-rail capacitances and the criterion vector."""
        conn = self.conn
        tracked = conn.net_chan >= 0
        ids = np.flatnonzero(tracked)
        self.rows[conn.net_chan[ids], conn.net_slot[ids]] = (
            self.const[ids] + self.slope[ids] * hpwl[ids])
        self.d = (dissymmetry_vector(self.rows, validate=False)
                  if conn.n_chans else np.zeros(0))

    def total(self) -> float:
        return float(self.d.sum())


def _gather_csr(ptr: np.ndarray, data: np.ndarray,
                ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR slices ``data[ptr[i]:ptr[i+1]] for i in ids``.

    Returns ``(flat values, per-id counts)``.
    """
    counts = ptr[ids + 1] - ptr[ids]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype), counts
    ends = np.cumsum(counts)
    flat = (np.arange(total) - np.repeat(ends - counts, counts)
            + np.repeat(ptr[ids], counts))
    return data[flat], counts


class VectorPlacementEngine:
    """Array-backed placement state plus the batched annealing optimizer."""

    def __init__(self, netlist: Netlist, cells: Dict[str, PlacedCell],
                 floorplan: Floorplan, *, schedule,
                 technology: Technology = HCMOS9_LIKE,
                 rng: Optional[np.random.Generator] = None):
        self.netlist = netlist
        self.cells = cells
        self.floorplan = floorplan
        self.schedule = schedule
        self.technology = technology
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.conn = compile_connectivity(netlist, cells)
        conn = self.conn
        ordered = [cells[n] for n in conn.names]
        self.x = np.array([c.x_um for c in ordered])
        self.y = np.array([c.y_um for c in ordered])
        self.fixed = np.array([c.fixed for c in ordered])
        self.movable_ids = np.flatnonzero(~self.fixed)
        # Fence rects and region membership depend only on the block, so
        # resolve each distinct block once instead of once per cell.
        blocks = [c.block for c in ordered]
        rect_of = {b: floorplan.placement_rect(b) for b in set(blocks)}
        fenced = {b for b in set(blocks)
                  if floorplan.region_for(b) is not None}
        rects = [rect_of[b] for b in blocks]
        self.fx0 = np.array([r.x_um for r in rects])
        self.fy0 = np.array([r.y_um for r in rects])
        self.fx1 = np.array([r.x_max for r in rects])
        self.fy1 = np.array([r.y_max for r in rects])
        self.span = np.maximum(self.fx1 - self.fx0, self.fy1 - self.fy0)
        self.width = np.array([c.width_um for c in ordered])
        self.height = np.array([c.height_um for c in ordered])
        # Legalization groups: cells sharing one placement region.
        groups: Dict[str, List[int]] = {}
        for i, block in enumerate(blocks):
            groups.setdefault(block if block in fenced else "", []).append(i)
        self._legal_groups = [
            (np.asarray(ids, dtype=np.int64),
             floorplan.regions[key].rect if key and key in floorplan.regions
             else floorplan.die)
            for key, ids in groups.items()]
        self.moves_proposed = 0
        self.moves_committed = 0
        self._recompute_bounds()
        self.security: Optional[SecurityObjective] = None
        if schedule.security_weight > 0 and conn.n_chans:
            self.security = SecurityObjective(conn, netlist, technology,
                                              self.hpwl)
        # Live nets: the only ones whose bounds the annealer must keep
        # fresh — HPWL-weighted nets, plus channel rails when the security
        # objective is active.  Wide (fanout-limited) nets outside any
        # channel carry no cost, so their pairs are never evaluated.
        self.live_mask = conn.wl_weight > 0
        if self.security is not None:
            self.live_mask |= conn.net_chan >= 0
        keep = self.live_mask[conn.cell_nets]
        self.live_nets = conn.cell_nets[keep]
        prefix = np.concatenate([[0], np.cumsum(keep)])
        self.live_ptr = prefix[conn.cell_net_ptr]

    # ------------------------------------------------------------ state sync
    @staticmethod
    def _extrema(vals: np.ndarray, seg: np.ndarray,
                 own: np.ndarray) -> tuple:
        """Per-segment (min, 2nd-min, #at-min, max, 2nd-max, #at-max).

        The second extrema and multiplicities make single-mover delta-HPWL
        pure arithmetic: removing a pin that is *not* the unique extremum
        leaves the bound at the cached value, removing the unique extremum
        falls back to the cached second value.
        """
        lo = np.minimum.reduceat(vals, seg)
        at_lo = vals == lo[own]
        lo2 = np.minimum.reduceat(np.where(at_lo, np.inf, vals), seg)
        n_lo = np.add.reduceat(at_lo.astype(np.float64), seg)
        hi = np.maximum.reduceat(vals, seg)
        at_hi = vals == hi[own]
        hi2 = np.maximum.reduceat(np.where(at_hi, -np.inf, vals), seg)
        n_hi = np.add.reduceat(at_hi.astype(np.float64), seg)
        return lo, lo2, n_lo, hi, hi2, n_hi

    def _recompute_bounds(self) -> None:
        conn = self.conn
        if conn.n_nets == 0:
            for attr in ("nmin_x", "nmin2_x", "ncnt_min_x",
                         "nmax_x", "nmax2_x", "ncnt_max_x",
                         "nmin_y", "nmin2_y", "ncnt_min_y",
                         "nmax_y", "nmax2_y", "ncnt_max_y", "hpwl"):
                setattr(self, attr, np.zeros(0))
            return
        starts = conn.net_ptr[:-1]
        own = conn.net_owner
        (self.nmin_x, self.nmin2_x, self.ncnt_min_x,
         self.nmax_x, self.nmax2_x, self.ncnt_max_x) = \
            self._extrema(self.x[conn.net_cells], starts, own)
        (self.nmin_y, self.nmin2_y, self.ncnt_min_y,
         self.nmax_y, self.nmax2_y, self.ncnt_max_y) = \
            self._extrema(self.y[conn.net_cells], starts, own)
        self.hpwl = (self.nmax_x - self.nmin_x) + (self.nmax_y - self.nmin_y)

    def _update_net_bounds(self, nets: np.ndarray) -> None:
        """Recompute bounds and extrema caches for a subset of nets."""
        if nets.size == 0:
            return
        conn = self.conn
        pcells, pcounts = _gather_csr(conn.net_ptr, conn.net_cells, nets)
        seg = np.cumsum(pcounts) - pcounts
        own = np.repeat(np.arange(nets.size), pcounts)
        (self.nmin_x[nets], self.nmin2_x[nets], self.ncnt_min_x[nets],
         self.nmax_x[nets], self.nmax2_x[nets], self.ncnt_max_x[nets]) = \
            self._extrema(self.x[pcells], seg, own)
        (self.nmin_y[nets], self.nmin2_y[nets], self.ncnt_min_y[nets],
         self.nmax_y[nets], self.nmax2_y[nets], self.ncnt_max_y[nets]) = \
            self._extrema(self.y[pcells], seg, own)
        self.hpwl[nets] = ((self.nmax_x[nets] - self.nmin_x[nets])
                           + (self.nmax_y[nets] - self.nmin_y[nets]))

    def wirelength(self) -> float:
        """Total HPWL over the cost-weighted nets (the scalar ``total()``)."""
        return float((self.hpwl * self.conn.wl_weight).sum())

    def writeback(self) -> None:
        """Copy the coordinate arrays back into the ``PlacedCell`` objects."""
        for i, name in enumerate(self.conn.names):
            cell = self.cells[name]
            cell.x_um = float(self.x[i])
            cell.y_um = float(self.y[i])

    def reload(self) -> None:
        """Re-read cell positions (e.g. after a legalization pass)."""
        for i, name in enumerate(self.conn.names):
            cell = self.cells[name]
            self.x[i] = cell.x_um
            self.y[i] = cell.y_um
        self._recompute_bounds()
        if self.security is not None:
            self.security.refresh(self.hpwl)

    # ---------------------------------------------------------- legalization
    def legalize(self) -> None:
        """Array-based row legalization (the scalar oracle's row packer).

        Cells are snapped to rows, overloaded rows spill to a neighbour, and
        each row packs left-to-right with minimum displacement.  The packing
        recurrence ``cursor' = max(cursor, target) + width`` telescopes to a
        running maximum of ``target - prefix_width``, so a whole row packs
        with one ``np.maximum.accumulate``.
        """
        for ids, rect in self._legal_groups:
            if ids.size == 0:
                continue
            row_height = float(self.height[ids].max())
            row_count = max(1, int(rect.height_um // row_height))
            index = ((self.y[ids] - rect.y_um) / row_height).astype(np.int64)
            index = np.clip(index, 0, row_count - 1)
            rows: List[np.ndarray] = []
            for r in range(row_count):
                members = ids[index == r]
                rows.append(members[np.argsort(self.x[members],
                                               kind="stable")])
            capacity = rect.width_um
            for r in range(row_count):
                spill_target = r + 1 if r + 1 < row_count else r - 1
                if not (0 <= spill_target < row_count and spill_target != r):
                    continue
                widths = self.width[rows[r]]
                kept = int(np.searchsorted(np.cumsum(widths),
                                           1.6 * capacity, side="right"))
                if kept < rows[r].size:
                    spilled = rows[r][kept:]
                    rows[r] = rows[r][:kept]
                    merged = np.concatenate([rows[spill_target], spilled])
                    rows[spill_target] = merged[np.argsort(
                        self.x[merged], kind="stable")]
            for r in range(row_count):
                row = rows[r]
                if row.size == 0:
                    continue
                if r + 1 < row_count:  # spills may have arrived out of order
                    row = row[np.argsort(self.x[row], kind="stable")]
                widths = self.width[row]
                packed = float(widths.sum())
                scale = min(1.0, (capacity / packed) if packed > 0 else 1.0)
                widths = widths * scale
                prefix = np.cumsum(widths) - widths
                target = np.minimum(self.x[row] - widths / 2.0,
                                    rect.x_max - widths)
                left = prefix + np.maximum.accumulate(
                    np.maximum(target - prefix, rect.x_um))
                self.x[row] = np.minimum(left + widths / 2.0, rect.x_max)
                self.y[row] = min(rect.y_um + (r + 0.5) * row_height,
                                  rect.y_max)
        self._recompute_bounds()
        if self.security is not None:
            self.security.refresh(self.hpwl)

    def consistency_check(self) -> None:
        """Assert the incremental state equals a from-scratch recompute.

        Only live nets are compared: dead nets (no cost weight, no channel)
        are deliberately left stale between legalization passes.
        """
        live = self.live_mask
        fields = ("hpwl", "nmin_x", "nmin2_x", "ncnt_min_x",
                  "nmax_x", "nmax2_x", "ncnt_max_x",
                  "nmin_y", "nmin2_y", "ncnt_min_y",
                  "nmax_y", "nmax2_y", "ncnt_max_y")
        cached = {name: getattr(self, name).copy() for name in fields}
        self._recompute_bounds()
        for name in fields:
            assert np.array_equal(cached[name][live],
                                  getattr(self, name)[live]), \
                f"incremental {name} drifted"
        if self.security is not None:
            rows = self.security.rows.copy()
            d = self.security.d.copy()
            self.security.refresh(self.hpwl)
            assert np.allclose(rows, self.security.rows, equal_nan=True)
            assert np.array_equal(d, self.security.d), "criterion drifted"

    # --------------------------------------------------- centre of gravity
    def cog_sweeps(self, sweeps: int) -> None:
        """Vectorized centroid sweeps (Jacobi flavour of the scalar pass).

        Every movable cell moves toward the centroid of the other pins of
        its cost nets, all cells at once per sweep; the scalar pass updates
        cells one at a time (Gauss–Seidel).  The annealing refinement that
        follows absorbs the difference — the equivalence tests bound the
        final quality, not this intermediate.
        """
        conn = self.conn
        if conn.cell_wlnets.size == 0:
            return
        deg = np.diff(conn.cell_wlnet_ptr).astype(np.float64)
        neighbour_count = np.bincount(
            conn.wl_owner,
            weights=conn.net_size[conn.cell_wlnets].astype(np.float64) - 1.0,
            minlength=conn.n_cells)
        active = (~self.fixed) & (neighbour_count > 0)
        starts = conn.net_ptr[:-1]
        for _ in range(max(0, sweeps)):
            net_sum_x = np.add.reduceat(self.x[conn.net_cells], starts)
            net_sum_y = np.add.reduceat(self.y[conn.net_cells], starts)
            num_x = np.bincount(conn.wl_owner,
                                weights=net_sum_x[conn.cell_wlnets],
                                minlength=conn.n_cells)
            num_y = np.bincount(conn.wl_owner,
                                weights=net_sum_y[conn.cell_wlnets],
                                minlength=conn.n_cells)
            num_x -= self.x * deg
            num_y -= self.y * deg
            with np.errstate(invalid="ignore", divide="ignore"):
                tx = num_x / neighbour_count
                ty = num_y / neighbour_count
            tx = np.clip(tx, self.fx0, self.fx1)
            ty = np.clip(ty, self.fy0, self.fy1)
            self.x[active] = tx[active]
            self.y[active] = ty[active]
        self._recompute_bounds()
        if self.security is not None:
            self.security.refresh(self.hpwl)

    # ------------------------------------------------------------ annealing
    def _propose(self, size: int, radius_scale: float,
                 allow_swaps: bool) -> tuple:
        """Draw a batch of candidate moves against the current state."""
        rng = self.rng
        movable = self.movable_ids
        a = movable[rng.choice(movable.size, size=size, replace=False)]
        swap_try = (rng.random(size) < self.schedule.swap_fraction
                    if allow_swaps else np.zeros(size, dtype=bool))
        partners = movable[rng.integers(0, movable.size, size=size)]
        du = rng.uniform(-1.0, 1.0, size=size)
        dv = rng.uniform(-1.0, 1.0, size=size)
        valid_swap = (swap_try & (partners != a)
                      # both cells must land inside the other's fence
                      & (self.x[partners] >= self.fx0[a])
                      & (self.x[partners] <= self.fx1[a])
                      & (self.y[partners] >= self.fy0[a])
                      & (self.y[partners] <= self.fy1[a])
                      & (self.x[a] >= self.fx0[partners])
                      & (self.x[a] <= self.fx1[partners])
                      & (self.y[a] >= self.fy0[partners])
                      & (self.y[a] <= self.fy1[partners]))
        radius = np.maximum(self.span[a] * 0.02,
                            self.span[a] * 0.25 * radius_scale)
        ax = np.clip(self.x[a] + du * radius, self.fx0[a], self.fx1[a])
        ay = np.clip(self.y[a] + dv * radius, self.fy0[a], self.fy1[a])
        ax = np.where(valid_swap, self.x[partners], ax)
        ay = np.where(valid_swap, self.y[partners], ay)
        b = np.where(valid_swap, partners, -1)
        bx = self.x[a].copy()
        by = self.y[a].copy()
        return a, ax, ay, b, bx, by

    @staticmethod
    def _removal_bound(old: np.ndarray, new: np.ndarray, best: np.ndarray,
                       second: np.ndarray, count: np.ndarray,
                       is_min: bool) -> np.ndarray:
        """New per-net extremum after moving one pin from ``old`` to ``new``.

        If the moved pin was not the unique extremum the bound stays at the
        cached ``best``; otherwise it falls back to the cached ``second``.
        Reinserting at ``new`` is one more min/max — exact, no pin gather.
        """
        if is_min:
            survives = (old > best) | (count > 1)
            return np.minimum(np.where(survives, best, second), new)
        survives = (old < best) | (count > 1)
        return np.maximum(np.where(survives, best, second), new)

    def _evaluate(self, a, ax, ay, b, bx, by, sec_mult: float) -> tuple:
        """Exact cost delta of each candidate against the pre-batch state.

        Only *live* nets (HPWL-weighted, plus channel rails when the
        security objective is active) are evaluated.  Every pair has exactly
        one moved pin — a swap's shared nets keep the same coordinate
        multiset, so both copies cancel and are dropped — which makes the
        delta pure arithmetic over the cached per-net extrema.
        """
        conn = self.conn
        size = a.size
        nets_a, counts_a = _gather_csr(self.live_ptr, self.live_nets, a)
        move_a = np.repeat(np.arange(size), counts_a)
        has_b = b >= 0
        if has_b.any():
            b_ids = np.where(has_b, b, 0)
            nets_b, counts_b = _gather_csr(self.live_ptr, self.live_nets,
                                           b_ids)
            keep = np.repeat(has_b, counts_b)
            move_b = np.repeat(np.arange(size), counts_b)[keep]
            nets_b = nets_b[keep]
            pair_move = np.concatenate([move_a, move_b])
            pair_net = np.concatenate([nets_a, nets_b])
            mover = np.concatenate([a[move_a], b[move_b]])
            new_x = np.concatenate([ax[move_a], bx[move_b]])
            new_y = np.concatenate([ay[move_a], by[move_b]])
            # A key on both sides means both swap cells pin the net: its
            # coordinate multiset is unchanged, drop both copies.
            keys = pair_move * conn.n_nets + pair_net
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            dup = np.zeros(order.size, dtype=bool)
            if order.size > 1:
                eq = sorted_keys[1:] == sorted_keys[:-1]
                dup[1:] = eq
                dup[:-1] |= eq
            sel = order[~dup]
            pair_move, pair_net = pair_move[sel], pair_net[sel]
            mover, new_x, new_y = mover[sel], new_x[sel], new_y[sel]
        else:
            pair_move, pair_net = move_a, nets_a
            mover = a[move_a]
            new_x, new_y = ax[move_a], ay[move_a]
        if pair_net.size == 0:
            empty = np.empty(0, np.int64)
            return np.zeros(size), empty, empty, None

        old_x, old_y = self.x[mover], self.y[mover]
        new_min_x = self._removal_bound(
            old_x, new_x, self.nmin_x[pair_net], self.nmin2_x[pair_net],
            self.ncnt_min_x[pair_net], is_min=True)
        new_max_x = self._removal_bound(
            old_x, new_x, self.nmax_x[pair_net], self.nmax2_x[pair_net],
            self.ncnt_max_x[pair_net], is_min=False)
        new_min_y = self._removal_bound(
            old_y, new_y, self.nmin_y[pair_net], self.nmin2_y[pair_net],
            self.ncnt_min_y[pair_net], is_min=True)
        new_max_y = self._removal_bound(
            old_y, new_y, self.nmax_y[pair_net], self.nmax2_y[pair_net],
            self.ncnt_max_y[pair_net], is_min=False)
        new_hpwl = (new_max_x - new_min_x) + (new_max_y - new_min_y)
        delta = np.bincount(
            pair_move,
            weights=(new_hpwl - self.hpwl[pair_net])
            * conn.wl_weight[pair_net],
            minlength=size)

        sec_update = None
        if self.security is not None and sec_mult:
            sec = self.security
            rail = np.flatnonzero(conn.net_chan[pair_net] >= 0)
            if rail.size:
                r_move = pair_move[rail]
                r_net = pair_net[rail]
                r_chan = conn.net_chan[r_net]
                new_cap = sec.const[r_net] + sec.slope[r_net] * new_hpwl[rail]
                gkeys, ginv = np.unique(r_move * max(conn.n_chans, 1)
                                        + r_chan, return_inverse=True)
                g_move = gkeys // max(conn.n_chans, 1)
                g_chan = gkeys % max(conn.n_chans, 1)
                rows = sec.rows[g_chan].copy()
                rows[ginv, conn.net_slot[r_net]] = new_cap
                d_new = dissymmetry_vector(rows, validate=False) \
                    if rows.size else np.zeros(0)
                delta += np.bincount(
                    g_move, weights=sec_mult * (d_new - sec.d[g_chan]),
                    minlength=size)
                sec_update = (r_move, r_net, new_cap, g_move, g_chan, d_new)
        return delta, pair_move, pair_net, sec_update

    def _commit(self, a, ax, ay, b, bx, by, accept, pair_move, pair_net,
                sec_update) -> int:
        """Apply a net/channel/cell-disjoint subset of the accepted moves.

        Conflict resolution is a vectorized min-claim rule: every accepted
        move claims its nets, its channels and its cells; a move commits only
        if it is the lowest-index claimant of *all* of them.  Winners are
        mutually disjoint by construction (two winners sharing a resource
        would both have to be its unique minimum claimant), so each committed
        delta is exact against the pre-batch state.  Accepted-but-skipped
        moves simply count as rejections.
        """
        conn = self.conn
        size = a.size
        if not accept.any():
            return 0
        acc_idx = np.flatnonzero(accept[pair_move])
        lose = np.zeros(size, dtype=bool)

        # Pairs are move-ascending, so a reversed fancy-index write leaves
        # the *lowest* accepted claimant in place — no slow ufunc.at.
        rev = acc_idx[::-1]
        first_net = np.full(conn.n_nets, size, dtype=np.int64)
        first_net[pair_net[rev]] = pair_move[rev]
        contested = acc_idx[first_net[pair_net[acc_idx]]
                            != pair_move[acc_idx]]
        lose[pair_move[contested]] = True

        if conn.n_chans:
            pchan = conn.net_chan[pair_net[acc_idx]]
            rail = acc_idx[pchan >= 0]
            if rail.size:
                first_chan = np.full(conn.n_chans, size, dtype=np.int64)
                rrev = rail[::-1]
                first_chan[conn.net_chan[pair_net[rrev]]] = pair_move[rrev]
                bad = rail[first_chan[conn.net_chan[pair_net[rail]]]
                           != pair_move[rail]]
                lose[pair_move[bad]] = True

        moves = np.arange(size)
        acc_moves = moves[accept]
        first_cell = np.full(conn.n_cells, size, dtype=np.int64)
        np.minimum.at(first_cell, a[accept], acc_moves)
        has_b = accept & (b >= 0)
        if has_b.any():
            np.minimum.at(first_cell, b[has_b], moves[has_b])
            lose |= has_b & (first_cell[np.where(b >= 0, b, 0)] != moves)
        lose[accept] |= first_cell[a[accept]] != acc_moves

        apply_mask = accept & ~lose
        if not apply_mask.any():
            return 0
        self.x[a[apply_mask]] = ax[apply_mask]
        self.y[a[apply_mask]] = ay[apply_mask]
        swaps = apply_mask & (b >= 0)
        if swaps.any():
            self.x[b[swaps]] = bx[swaps]
            self.y[b[swaps]] = by[swaps]
        # Winners are net-disjoint, so their pair nets are unique; refresh
        # the extrema caches for exactly those nets from the new positions.
        self._update_net_bounds(pair_net[apply_mask[pair_move]])
        if sec_update is not None:
            sec = self.security
            r_move, r_net, new_cap, g_move, g_chan, d_new = sec_update
            r_sel = apply_mask[r_move]
            if r_sel.any():
                sec.rows[conn.net_chan[r_net[r_sel]],
                         conn.net_slot[r_net[r_sel]]] = new_cap[r_sel]
            g_sel = apply_mask[g_move]
            sec.d[g_chan[g_sel]] = d_new[g_sel]
        return int(apply_mask.sum())

    def refine(self) -> None:
        """The batched annealing refinement of an already-legal placement."""
        schedule = self.schedule
        conn = self.conn
        budget = schedule.move_budget(self.movable_ids.size)
        if not budget or conn.n_nets == 0 or self.movable_ids.size == 0:
            return
        total_moves = sum(budget)
        batch = max(1, min(int(schedule.batch_moves), self.movable_ids.size))

        sec_mult = 0.0
        if self.security is not None:
            sec_total = self.security.total()
            if sec_total > 0:
                sec_mult = (schedule.security_weight * self.wirelength()
                            / sec_total)

        if schedule.initial_temperature is not None:
            temperature = float(schedule.initial_temperature)
        else:
            probe = min(200, total_moves, self.movable_ids.size)
            a, ax, ay, b, bx, by = self._propose(probe, 0.2,
                                                 allow_swaps=False)
            delta, *_ = self._evaluate(a, ax, ay, b, bx, by, sec_mult)
            mean_delta = float(np.abs(delta).mean()) if delta.size else 1.0
            temperature = max(mean_delta, 1e-9) / max(
                1e-9, -np.log(max(schedule.initial_acceptance, 1e-6)))

        steps = len(budget)
        telemetry = current()
        with telemetry.span("anneal.refine", steps=steps,
                            cells=int(self.movable_ids.size)):
            for step, moves in enumerate(budget):
                fraction = 1.0 - step / max(steps - 1, 1)
                # Per-temperature-step batch stats.  The step span is built
                # only when recording — at thousands of steps per refine even
                # a no-op timing span is measurable on the placer gate.
                with (telemetry.span("anneal.step", step=step,
                                     temperature=float(temperature))
                      if telemetry.enabled else _NO_SPAN):
                    remaining = moves
                    while remaining > 0:
                        size = min(batch, remaining)
                        remaining -= size
                        self.moves_proposed += size
                        a, ax, ay, b, bx, by = self._propose(
                            size, fraction, allow_swaps=True)
                        delta, pair_move, pair_net, sec_update = \
                            self._evaluate(a, ax, ay, b, bx, by, sec_mult)
                        accept = (delta <= 0) | (
                            self.rng.random(size)
                            < np.exp(-np.maximum(delta, 0.0)
                                     / max(temperature, 1e-12)))
                        if telemetry.enabled:
                            telemetry.count("moves_proposed", size)
                            telemetry.count("moves_accepted",
                                            int(accept.sum()))
                        if pair_net.size == 0:
                            continue
                        committed = self._commit(
                            a, ax, ay, b, bx, by, accept, pair_move,
                            pair_net, sec_update)
                        self.moves_committed += committed
                        if telemetry.enabled:
                            telemetry.count("moves_committed", committed)
                            telemetry.count("moves_conflicted",
                                            int(accept.sum()) - committed)
                temperature *= schedule.cooling
