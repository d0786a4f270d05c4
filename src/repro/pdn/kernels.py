"""Precompiled per-chip solve kernels: the batched LTI fast path.

The reference solve path (:func:`~repro.pdn.superposition.assemble_voltage`)
interpolates one ramp-response table per *edge* — ``O(edges × samples)``
table lookups per node.  Because the PDN is LTI and its spectrum has a
clean gap between a handful of slow board/package modes and the fast
on-chip modes, the same superposition can be factored once per chip into
a :class:`CompiledChipKernel`.

Over a port's time-sorted edge train, each sample ``t`` reads three
contiguous edge-index ranges, cut by the float predicates ``t_e < t − H``
(``ks_h``), ``t_e < t − W`` (``ks_w``) and ``t_e < t`` (``ks_0``), so
every (sample, edge) pair lands in exactly one tier (``x = t − t_e``):

* **window** ``[ks_w, ks_0)`` (``0 < x ≤ W``): the fast modes are still
  alive, so the kernel linearly interpolates the *original* ramp table
  on its uniform fine prefix — the reference's own interpolation, so it
  matches to rounding.  The pairs form a CSR matrix (samples × value |
  slope knots) whose structure depends only on the grid and the edge
  instants; a port's deltas fill its data and one sparse product against
  the port's knot tables evaluates the tier.  ``W`` is chosen so the
  fastest analytically-carried mode has decayed by ``e^-16`` at ``W``.
* **slow** ``[ks_h, ks_w)`` (``W < x ≤ H``): only the slow modes remain;
  the closed-form ramp response ``y_ss + Re Σ_s m_s g_s e^{λ_s x}`` sums
  over all these edges at once through complex prefix sums of
  ``δ_e e^{−λ(t_e − a)}`` (``Δprefix``), times the phase ``e^{λ(t − a)}``
  for an anchor ``a`` (below).  Conjugate eigenvalue pairs are folded
  into half-spectrum lanes (weight 2), so only ``imag(λ) ≥ 0`` is carried.
* **dc** ``[0, ks_h)`` (``x > H``): the reference clamps to the table's
  DC gain; the kernel applies ``dc · Σ δ``.

``ks_h`` and ``ks_w`` are monotone in ``t``, so runs of samples sharing
them form *groups* (at most about edges + chunks).  Each group's features
— ``Σ δ`` over its slow and dc ranges and ``Δprefix`` per lane — are
gathered once, multiplied per sample by the phase row, and the dc,
steady-state and slow tiers become one real GEMM against per-port
coefficients fixed at compile time.  A port block thus costs one
``O(samples × lanes)`` GEMM plus one sparse product over the window pairs.

Compilation validates its own equivalence: the analytic slow tier is
checked against the ramp table on a log grid spanning ``(W, horizon]``
and compilation fails with :class:`~repro.errors.SolverError` if the
deviation exceeds the pinned budget — which is what lets the engine's
``auto`` backend fall back to the reference solver for a chip whose
spectrum does not factor cleanly.

The prefix factorization bounds its exponents by ``max|Re λ_slow| ·
span``, so the slow tier splits the sample grid into *anchored chunks*
whose span stays inside that budget, with decay factors computed only
over the edges a chunk reads.  Chunk 0 is anchored at ``t = 0``, so a
segment that fits one chunk — every segment of a fast sweep — evaluates
the global factorization; long low-frequency segments carry more chunks.

Kernels are memoized per chip fingerprint (a content digest of the
response library they compile) via :func:`compile_kernel`, so a warm
process — the serve tier, a pool worker — builds each chip's kernel
once.  Within a kernel, one port's contribution to the observed nodes
is a pure function of (sample grid, merged edge train, port), so those
blocks are cached by content digest and a synchronized sweep pays the
tiered evaluation once per distinct block.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from ..errors import SolverError
from .response import ResponseLibrary
from .superposition import EdgeTrain

__all__ = [
    "CompiledChipKernel",
    "SteppingSolver",
    "SampleGrid",
    "compile_kernel",
    "library_fingerprint",
    "clear_kernel_cache",
    "KERNEL_TOLERANCE_V",
    "COMPILE_TOLERANCE_V",
]

#: Pinned equivalence budget (volts) between a kernel-evaluated waveform
#: and the reference superposition, for full-run stimuli (the experiment
#: suite's edge magnitudes, up to ~150 edges of ~25 A per segment).  The
#: measured deviation is O(1e-8) V per ampere of a single edge; this
#: ceiling leaves two orders of magnitude of headroom for accumulation.
KERNEL_TOLERANCE_V = 5e-6

#: Per-unit-edge budget the compile-time self-check enforces on the
#: analytic slow tier vs the ramp table (V per A, max over ports, nodes
#: and a log grid of elapsed times spanning the slow tier).
COMPILE_TOLERANCE_V = 1e-7

#: The fastest analytically-carried mode must have decayed by this many
#: e-folds at the window edge (e^-16 ≈ 1.1e-7: at the compile budget,
#: per ampere; the compile-time self-check measures the true residual).
#: Smaller windows mean fewer (sample, edge) pairs in the interpolation
#: tier, which is the kernel's dominant per-run cost.
_FAST_EFOLDS = 16.0

#: Exponent magnitude budget of the prefix factorization (|e^±x| stays
#: around 7e217, far from the ~1.8e308 double overflow, with headroom
#: for the modal coefficient magnitudes).  It bounds the slow lanes
#: (``|Re λ| · horizon``) and the span of one anchored slow-tier chunk
#: (``_EXP_BUDGET / max|Re λ_slow|``, ~81 µs on the reference chip).
_EXP_BUDGET = 500.0

#: Capacity of the per-kernel segment caches (phase matrices and tier
#: bookkeeping, memoized by sample-grid/edge-train content).  A
#: synchronized sweep reuses a handful of grids across its whole run
#: set; the cap only bounds pathological unsynchronized churn.
_SEGMENT_CACHE_ENTRIES = 64

#: Capacity of the per-kernel contribution cache: fully evaluated
#: per-(sample grid, edge train, port) node-deviation blocks.  Entries
#: are ``samples × nodes`` float arrays (up to ~0.5 MB at experiment
#: sizes: a low-frequency Fig. 7a segment is 10125 samples × 6 nodes ×
#: 8 B), so the cap bounds resident memory at ~64 MB.
_CONTRIB_CACHE_ENTRIES = 128


def _digest(array: np.ndarray) -> bytes:
    """Content digest for result-cache keys.  The builtin ``hash`` is
    process-seeded and only 64 bits; since these keys gate *numerical
    results*, use a real digest so collisions are out of the picture.
    SHA-256 (truncated to 128 bits) hashes the array buffer in place and
    runs about twice as fast as BLAKE2b on CPUs with SHA extensions."""
    return hashlib.sha256(np.ascontiguousarray(array)).digest()[:16]


@dataclass
class SampleGrid:
    """A segment's sample instants plus the provenance the kernel uses
    to build phase matrices multiplicatively instead of exponentially.

    ``times`` is always valid on its own (sorted, unique); the optional
    provenance fields record that ``times`` was assembled as
    ``unique(concat([linspace(0, t_end, n_base), anchors ⊕ offsets]))``
    so ``e^{λ t}`` can be built from one exponential per anchor/offset
    and repeated complex multiplies (``exp`` is ~50× the cost of a
    multiply) — a pure optimization, bit-equivalent up to rounding.
    """

    times: np.ndarray
    t_end: float | None = None
    n_base: int = 0
    anchors: np.ndarray | None = None      # per-edge probe anchors (s)
    offsets: np.ndarray | None = None      # shared probe offsets (s)
    probe_mask: np.ndarray | None = None   # keep-mask over anchors⊗offsets
    first_index: np.ndarray | None = None  # unique() gather into concat

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)

    @property
    def has_provenance(self) -> bool:
        return (
            self.first_index is not None
            and self.t_end is not None
            and self.n_base >= 2
        )


def library_fingerprint(library: ResponseLibrary) -> str:
    """Content digest of a response library: the grid, every ramp
    table, the DC gains and the rise time — everything the compiled
    kernel's behavior depends on."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(library.grid).tobytes())
    digest.update(repr(float(library.rise_time)).encode())
    for port in library.ports:
        for node in library.nodes:
            digest.update(f"{port}->{node}".encode())
            table = library._ramp[(port, node)]
            digest.update(np.ascontiguousarray(table).tobytes())
            digest.update(repr(library.dc(port, node)).encode())
    return digest.hexdigest()


#: Process-wide kernel memo, keyed by chip/library fingerprint.
_KERNEL_CACHE: dict[str, "CompiledChipKernel"] = {}


def compile_kernel(
    library: ResponseLibrary, fingerprint: str | None = None
) -> "CompiledChipKernel":
    """Compile (or replay from the process memo) the kernel of one
    response library.  ``fingerprint`` defaults to a content digest of
    the library, so identical chips share one compiled kernel per
    process regardless of how many ``Chip`` instances exist."""
    key = fingerprint if fingerprint is not None else library_fingerprint(library)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = CompiledChipKernel(library, fingerprint=key)
        _KERNEL_CACHE[key] = kernel
    return kernel


def clear_kernel_cache() -> None:
    """Drop every memoized kernel (tests, memory pressure)."""
    _KERNEL_CACHE.clear()


class _SlowChunk(NamedTuple):
    """One anchored chunk of the slow tier: the sample groups
    ``[g_lo, g_hi)`` read the edges ``[e_lo, e_lo + len(decay))``."""

    g_lo: int
    g_hi: int
    e_lo: int
    decay: np.ndarray                # e^{−λ(t_e − anchor)} (E_c, S)


@dataclass
class _TierIndex:
    """Port-independent bookkeeping of one (sample grid, edge instants)
    pair (see the module docstring): the sample groups, the slow tier's
    anchored chunks and the window tier's CSR structure.  The deltas join
    at evaluation time, so one index serves every port, segment and run
    of a synchronized sweep that shares those instants."""

    group_kw: np.ndarray             # per group: ks_w
    group_kh: np.ndarray             # per group: ks_h
    group_len: np.ndarray            # per group: sample count
    chunks: list[_SlowChunk]         # slow tier, one per anchored chunk
    win_edge: np.ndarray             # per window pair: edge index
    win_frac: np.ndarray             # per window pair: x − knot·step
    win_indices: np.ndarray          # CSR column of each value|slope entry
    win_indptr: np.ndarray           # CSR row pointers (2 entries a pair)


def _geometric_powers(ratio: np.ndarray, count: int) -> np.ndarray:
    """``ratio**k`` for ``k = 0..count-1`` (rows), by repeated doubling
    of already-computed blocks — ``O(count)`` complex multiplies and
    zero exponentials."""
    out = np.empty((count, ratio.size), dtype=complex)
    out[0] = 1.0
    filled = 1
    power = ratio.copy()  # == ratio**filled, maintained by squaring
    while filled < count:
        step = min(filled, count - filled)
        np.multiply(out[:step], power[None, :], out=out[filled:filled + step])
        filled += step
        power = power * power
    return out


class CompiledChipKernel:
    """A chip's netlist compiled into a batched ramp-superposition
    evaluator (see the module docstring for the math).

    Parameters
    ----------
    library:
        The chip's precomputed :class:`ResponseLibrary`; the kernel
        reuses its modal decomposition, ramp tables and DC gains, so
        the *table* remains the single source of reference truth.
    fingerprint:
        Identity of the compiled artifact (content digest of the
        library when omitted) — the memoization key.

    Raises
    ------
    SolverError
        If the spectrum does not admit the window/slow split (no usable
        gap, window beyond the uniform fine grid, unpaired complex
        modes) or the compile-time self-check against the ramp tables
        exceeds :data:`COMPILE_TOLERANCE_V`.
    """

    def __init__(
        self, library: ResponseLibrary, fingerprint: str | None = None
    ):
        self.library = library
        self.fingerprint = (
            fingerprint if fingerprint is not None
            else library_fingerprint(library)
        )
        self.ports = list(library.ports)
        self.nodes = list(library.nodes)
        self._port_index = {port: i for i, port in enumerate(self.ports)}
        self._node_index = {node: i for i, node in enumerate(self.nodes)}

        grid = library.grid
        self.horizon = float(grid[-1])
        self._split_spectrum(library.modal.eigenvalues)
        self._build_window_tables(grid)
        self._build_modal_coefficients(library)
        self._self_check()
        self._phase_cache: dict[bytes, np.ndarray] = {}
        self._tier_cache: dict[tuple[bytes, bytes], _TierIndex] = {}
        self._contrib_cache: dict[tuple, np.ndarray] = {}

    # -- compilation ----------------------------------------------------
    def _split_spectrum(self, eigenvalues: np.ndarray) -> None:
        """Partition the spectrum into analytically-carried slow modes
        and window-absorbed fast modes, and fold conjugate pairs into
        half-spectrum lanes."""
        rates = -np.real(eigenvalues)
        slow = rates * self.horizon <= _EXP_BUDGET
        if not np.any(slow):
            raise SolverError(
                "kernel compile: no eigenvalue is slow enough to carry "
                "analytically over the response horizon"
            )
        self._slow_rate_max = float(rates[slow].max())
        fast_rates = rates[~slow]
        if fast_rates.size:
            self.window = _FAST_EFOLDS / float(fast_rates.min())
        else:
            # Everything is carried analytically; keep a small window so
            # the in-ramp region (x < rise_time) still reads the table.
            self.window = 4.0 * self.library.rise_time
        if self.window >= self.horizon:
            raise SolverError(
                "kernel compile: fast/slow spectral gap leaves no room "
                f"for the analytic tier (window {self.window:.3g}s >= "
                f"horizon {self.horizon:.3g}s)"
            )
        if self.window < self.library.rise_time:
            raise SolverError(
                "kernel compile: window shorter than the edge rise time"
            )
        lam = eigenvalues[slow]
        keep = lam.imag >= 0.0
        weights = np.where(lam[keep].imag > 0.0, 2.0, 1.0)
        if int(weights.sum()) != int(slow.sum()):
            raise SolverError(
                "kernel compile: slow eigenvalues do not form conjugate "
                "pairs (defective or truncated spectrum)"
            )
        self._lanes = lam[keep]                # (S,) imag >= 0
        self._lane_weights = weights           # (S,) 1 for real, 2 paired
        self._slow_index = np.flatnonzero(slow)[keep]

    def _build_window_tables(self, grid: np.ndarray) -> None:
        """Snapshot the uniform fine prefix of every ramp table (the
        window tier interpolates these with direct index arithmetic)."""
        step = float(grid[1] - grid[0])
        n_hi = int(np.searchsorted(grid, self.window, side="right"))
        n_knots = n_hi + 1
        if n_knots >= grid.size:
            raise SolverError("kernel compile: window reaches past the grid")
        knots = grid[:n_knots]
        uniform = np.arange(n_knots) * step
        if np.abs(knots - uniform).max() > 1e-6 * step:
            raise SolverError(
                "kernel compile: window extends beyond the uniform fine "
                "region of the response grid"
            )
        self._window_step = step
        self._n_knots = n_knots
        # Window-tier coefficients (ports, value|slope knots, nodes): the
        # CSR row of sample m holds δ_e at knot k and δ_e·frac at K + k.
        wtab = np.empty((len(self.ports), n_knots, len(self.nodes)))
        for p, port in enumerate(self.ports):
            for n, node in enumerate(self.nodes):
                wtab[p, :, n] = self.library._ramp[(port, node)][:n_knots]
        self._wcoef = np.concatenate(
            [wtab[:, :-1, :], np.diff(wtab, axis=1) / step], axis=1
        )

    def _build_modal_coefficients(self, library: ResponseLibrary) -> None:
        """Per-port closed-form ramp coefficients restricted to the slow
        lanes: ``ramp(x) = y_ss + Re Σ_s w_s (m g)_s e^{λ_s x}`` for
        ``x ≥ rise_time`` (exact; the window tier owns smaller x)."""
        modal = library.modal
        sysm = modal.system
        tau = library.rise_time
        rows = sysm.output_rows(self.nodes)
        lam = self._lanes
        # Ramp smoothing factor of each lane: (1 - e^{-λτ}) / (λτ).
        gain = (1.0 - np.exp(-lam * tau)) / (lam * tau)
        n_ports, n_lanes, n_nodes = len(self.ports), lam.size, len(self.nodes)
        mgw = np.empty((n_ports, n_lanes, n_nodes), dtype=complex)
        yss = np.empty((n_ports, n_nodes))
        dc = np.empty((n_ports, n_nodes))
        for p, port in enumerate(self.ports):
            j = sysm.input_column(port)
            x_ss = np.linalg.solve(sysm.a, -sysm.b[:, j])
            coeff = modal._left @ (-x_ss)
            modes = (sysm.pv[rows] @ modal._right) * coeff[None, :]
            yss[p] = sysm.pv[rows] @ x_ss + sysm.qv[rows, j]
            mgw[p] = (
                modes[:, self._slow_index].T
                * (self._lane_weights * gain)[:, None]
            )
            for n, node in enumerate(self.nodes):
                dc[p, n] = library.dc(port, node)
        self._mgw = mgw
        self._yss = yss
        # Real GEMM coefficients (ports, 2 + 2S, nodes) against a group
        # feature row viewed as floats: [Σδ slow, Σδ dc, Re z_s, Im z_s]
        # with Re(z m) = Re z Re m − Im z Im m.
        coef = np.empty((n_ports, 2 * n_lanes + 2, n_nodes))
        coef[:, 0], coef[:, 1] = yss, dc
        coef[:, 2::2], coef[:, 3::2] = mgw.real, -mgw.imag
        self._coef = coef

    def _self_check(self) -> None:
        """Compile-time equivalence proof: the analytic slow tier must
        match the ramp table across its whole domain, per unit edge."""
        probes = np.unique(np.concatenate([
            np.geomspace(self.window, self.horizon, 64),
            [self.window, self.horizon],
        ]))
        phases = np.exp(np.outer(probes, self._lanes))      # (X, S)
        worst = 0.0
        for p, port in enumerate(self.ports):
            analytic = self._yss[p][None, :] + np.real(
                phases @ self._mgw[p]
            )                                               # (X, nodes)
            for n, node in enumerate(self.nodes):
                reference = self.library.ramp(port, node, probes)
                worst = max(worst, float(
                    np.abs(analytic[:, n] - reference).max()
                ))
        self.compile_deviation_v = worst
        if worst > COMPILE_TOLERANCE_V:
            raise SolverError(
                f"kernel compile: analytic slow tier deviates "
                f"{worst:.3e} V/A from the ramp table (budget "
                f"{COMPILE_TOLERANCE_V:.0e}); falling back to the "
                f"reference solver is required"
            )

    # -- evaluation -----------------------------------------------------
    def _node_rows(self, nodes: list[str] | None) -> tuple[list[str], np.ndarray]:
        if nodes is None:
            nodes = self.nodes
        try:
            rows = np.array([self._node_index[n] for n in nodes], dtype=int)
        except KeyError as exc:
            raise SolverError(
                f"response for node {exc.args[0]!r} was not precomputed"
            ) from None
        return list(nodes), rows

    def _chunks(self, times: np.ndarray) -> tuple[list[int], list[float]]:
        """Split a sample grid into the slow tier's anchored chunks:
        ``(bounds, anchors)`` with chunk ``c`` covering samples
        ``[bounds[c], bounds[c + 1])`` at anchor ``anchors[c]``.  The
        first chunk is anchored at ``t = 0`` (none is, when the grid
        starts beyond one chunk span); every later chunk is anchored at
        its first sample.  A chunk holds the samples whose exponent
        ``max|Re λ_slow| · (t − anchor)`` stays within the budget."""
        rate = self._slow_rate_max
        fits = int(np.searchsorted(rate * times, _EXP_BUDGET, "right"))
        bounds, anchors = ([0, fits], [0.0]) if fits else ([0], [])
        while bounds[-1] < times.size:
            lo = bounds[-1]
            anchors.append(float(times[lo]))
            fits = np.searchsorted(
                rate * (times[lo:] - times[lo]), _EXP_BUDGET, "right"
            )
            bounds.append(lo + max(int(fits), 1))
        return bounds, anchors

    def _phase_matrix(self, grid: SampleGrid) -> np.ndarray:
        """``e^{λ_s (t_m − a_m)}`` (samples × lanes), ``a_m`` the anchor
        of sample ``m``'s chunk.  A single chunk anchored at 0 — every
        short segment — is built multiplicatively from the grid's
        provenance when available."""
        lam = self._lanes
        times = grid.times
        bounds, anchors = self._chunks(times)
        if len(anchors) > 1 or anchors[0] != 0.0:
            offset = times - np.repeat(anchors, np.diff(bounds))
            return np.exp(offset[:, None] * lam[None, :])
        if not grid.has_provenance:
            return np.exp(times[:, None] * lam[None, :])
        base_step = grid.t_end / (grid.n_base - 1)
        blocks = [_geometric_powers(np.exp(lam * base_step), grid.n_base)]
        if grid.anchors is not None and grid.anchors.size:
            anchor_e = np.exp(grid.anchors[:, None] * lam[None, :])
            offset_e = np.exp(grid.offsets[:, None] * lam[None, :])
            probe_e = (
                anchor_e[:, None, :] * offset_e[None, :, :]
            ).reshape(-1, lam.size)
            blocks.append(probe_e[grid.probe_mask])
        return np.concatenate(blocks)[grid.first_index]

    def _phases_for(self, grid: SampleGrid, key: bytes) -> np.ndarray:
        """Content-memoized phase matrix behind a column of ones, so one
        contiguous multiply also carries a group's two real Σδ features
        (multiplying the strided lane columns alone is ~2.7× slower).
        Synchronized sweeps reuse a handful of sample grids across
        thousands of (run, segment) pairs: the build cost amortizes."""
        phases = self._phase_cache.get(key)
        if phases is None:
            if len(self._phase_cache) >= _SEGMENT_CACHE_ENTRIES:
                self._phase_cache.clear()
            phases = np.ones((grid.times.size, self._lanes.size + 1), complex)
            phases[:, 1:] = self._phase_matrix(grid)
            self._phase_cache[key] = phases
        return phases

    def _tiers_for(
        self, times: np.ndarray, times_key: bytes, et: np.ndarray,
        et_key: bytes,
    ) -> "_TierIndex":
        """Content-memoized :class:`_TierIndex` of one (sample grid,
        edge train) pair.  Port-independent — every port whose train
        shares the same edge instants reuses it."""
        key = (times_key, et_key)
        tiers = self._tier_cache.get(key)
        if tiers is None:
            if len(self._tier_cache) >= _SEGMENT_CACHE_ENTRIES:
                self._tier_cache.clear()
            tiers = self._build_tiers(times, et)
            self._tier_cache[key] = tiers
        return tiers

    def _build_tiers(self, times: np.ndarray, et: np.ndarray) -> _TierIndex:
        """Compute one :class:`_TierIndex` (see its docstring).  The
        ranges come from the float predicates ``t_e < t − H`` (dc),
        ``t_e < t − W`` (dc or slow) and ``t_e < t`` (any), so every
        (sample, edge) pair lands in exactly one tier even at the
        seams, and an edge at or after a sample is never read."""
        # Edge e is counted in ks_h / ks_w / ks_0 from the first sample
        # with t_e < t − lag on: ``searchsorted(t − lag, t_e, "right")``.
        n = times.size
        enter_h, enter_w, enter_0 = (
            np.searchsorted(times - lag, et, side="right")
            for lag in (self.horizon, self.window, 0.0)
        )

        # Groups: a new group starts only where an edge enters the slow
        # or dc range, or where an anchored chunk begins.
        bounds, anchors = self._chunks(times)
        starts = np.union1d(np.concatenate([enter_h, enter_w]), bounds[:-1])
        starts = starts[:np.searchsorted(starts, n)]
        group_bounds = np.searchsorted(starts, bounds)
        e_lo = np.searchsorted(enter_h, bounds[:-1], side="right")
        e_hi = np.searchsorted(
            enter_w, np.subtract(bounds[1:], 1), side="right"
        )

        # Slow tier: per anchored chunk, the decay factors of exactly
        # the edges its samples read — edges past the grid or long
        # expired never enter an exponential.
        chunks = [
            _SlowChunk(
                int(group_bounds[c]), int(group_bounds[c + 1]), int(e_lo[c]),
                np.exp(np.outer(et[e_lo[c]:e_hi[c]] - anchor, -self._lanes)),
            )
            for c, anchor in enumerate(anchors)
        ]

        # Window tier: pairs in sample-major order, one CSR row each,
        # holding a value entry at its knot and a slope entry at K + knot.
        ks_w, ks_0 = (
            np.repeat(np.arange(et.size + 1), np.diff(e, prepend=0, append=n))
            for e in (enter_w, enter_0)
        )
        indptr = np.concatenate([[0], np.cumsum(ks_0 - ks_w)])
        pair_row = np.repeat(np.arange(n), ks_0 - ks_w)
        win_edge = np.arange(indptr[-1]) + (ks_w - indptr[:-1])[pair_row]
        x = times[pair_row] - et[win_edge]
        step = self._window_step
        knot = np.clip((x / step).astype(np.intp), 0, self._n_knots - 2)
        win_indices = np.empty((knot.size, 2), dtype=np.int32)
        win_indices[:, 0] = knot
        win_indices[:, 1] = knot + (self._n_knots - 1)
        return _TierIndex(
            group_kw=np.searchsorted(enter_w, starts, side="right"),
            group_kh=np.searchsorted(enter_h, starts, side="right"),
            group_len=np.diff(np.append(starts, n)),
            chunks=chunks,
            win_edge=win_edge, win_frac=x - knot * step,
            win_indices=win_indices.ravel(),
            win_indptr=(2 * indptr).astype(np.int32),
        )

    def solve_batch(
        self,
        stimuli: list[tuple[list[EdgeTrain], SampleGrid | np.ndarray]],
        nodes: list[str] | None = None,
    ) -> list[np.ndarray]:
        """Evaluate N stimuli — ``(edge trains, sample grid)`` pairs —
        as one stacked solve.

        Because the PDN is LTI, one port's contribution to the observed
        nodes is a pure function of (sample grid, merged edge train,
        port).  The kernel content-addresses those contribution blocks:
        a synchronized sweep — many runs sharing grids and edge
        instants, differing only in which ports carry which programs —
        evaluates each distinct block once and every further run is a
        handful of vector adds.  Miss-path evaluation itself is tiered
        (see the module docstring) and shares per-(grid, train) phase
        and tier bookkeeping across ports.

        Returns one ``(len(nodes), n_samples)`` deviation array per
        stimulus (``nodes`` defaults to every precomputed node).
        """
        nodes, rows = self._node_rows(nodes)
        rows_key = rows.tobytes()
        grids = [
            grid if isinstance(grid, SampleGrid) else SampleGrid(grid)
            for _, grid in stimuli
        ]
        counts = [grid.times.size for grid in grids]
        starts = np.concatenate([[0], np.cumsum(counts)])
        out = np.zeros((int(starts[-1]), rows.size))

        for (trains, _), grid, start in zip(stimuli, grids, starts):
            times = grid.times
            if times.size == 0:
                continue
            by_port: dict[str, list[EdgeTrain]] = {}
            for train in trains:
                if train.port not in self._port_index:
                    raise SolverError(
                        f"response for port {train.port!r} was not "
                        f"precomputed"
                    )
                by_port.setdefault(train.port, []).append(train)
            if not by_port:
                continue
            times_key = _digest(times)
            seg = out[start:start + times.size]

            for port, port_trains in by_port.items():
                p = self._port_index[port]
                if len(port_trains) == 1:
                    et = port_trains[0].times
                    deltas = port_trains[0].deltas
                else:
                    et = np.concatenate([t.times for t in port_trains])
                    deltas = np.concatenate([t.deltas for t in port_trains])
                order = np.argsort(et, kind="stable")
                et = np.ascontiguousarray(et[order], dtype=float)
                deltas = np.ascontiguousarray(deltas[order], dtype=float)
                key = (times_key, _digest(et), _digest(deltas), p, rows_key)
                contrib = self._contrib_cache.get(key)
                if contrib is None:
                    if len(self._contrib_cache) >= _CONTRIB_CACHE_ENTRIES:
                        self._contrib_cache.clear()
                    contrib = self._port_contribution(
                        grid, times, times_key, et, key[1], deltas, p, rows
                    )
                    contrib.flags.writeable = False
                    self._contrib_cache[key] = contrib
                seg += contrib

        return [
            np.ascontiguousarray(out[start:start + count].T)
            for start, count in zip(starts, counts)
        ]

    def evaluate(
        self,
        trains: list[EdgeTrain],
        times: SampleGrid | np.ndarray,
        nodes: list[str] | None = None,
    ) -> np.ndarray:
        """Single-stimulus convenience wrapper over :meth:`solve_batch`:
        the ``(len(nodes), len(times))`` deviation waveforms."""
        return self.solve_batch([(trains, times)], nodes=nodes)[0]

    # -- evaluation internals -------------------------------------------
    def _port_contribution(
        self,
        grid: SampleGrid,
        times: np.ndarray,
        times_key: bytes,
        et: np.ndarray,
        et_key: bytes,
        deltas: np.ndarray,
        p: int,
        rows: np.ndarray,
    ) -> np.ndarray:
        """One port's deviation block ``(samples × rows)`` for one
        merged edge train — the cacheable unit of the solve."""
        tiers = self._tiers_for(times, times_key, et, et_key)

        # Group features as complex columns: (Σδ slow + i Σδ dc, then
        # the slow lanes' prefix differences Δprefix, one per lane).
        d_prefix = np.concatenate([[0.0], np.cumsum(deltas)])
        feats = np.empty((tiers.group_len.size, self._lanes.size + 1), complex)
        flat = feats.view(float)
        flat[:, 1] = d_prefix[tiers.group_kh]
        flat[:, 0] = d_prefix[tiers.group_kw] - flat[:, 1]
        for g_lo, g_hi, e_lo, decay in tiers.chunks:
            p_prefix = np.zeros((decay.shape[0] + 1, decay.shape[1]), complex)
            np.cumsum(
                deltas[e_lo:e_lo + decay.shape[0], None] * decay, axis=0,
                out=p_prefix[1:],
            )
            feats[g_lo:g_hi, 1:] = (
                p_prefix[tiers.group_kw[g_lo:g_hi] - e_lo]
                - p_prefix[tiers.group_kh[g_lo:g_hi] - e_lo]
            )

        # dc, steady-state and slow tiers: z = phase · features per
        # sample, then one real GEMM against the port's coefficients.
        z = np.repeat(feats, tiers.group_len, axis=0)
        z *= self._phases_for(grid, times_key)
        contrib = z.view(float) @ self._coef[p][:, rows]

        # Window tier: the port's deltas fill the cached CSR structure,
        # then one sparse × (value|slope knots × rows) product.
        data = np.empty((tiers.win_edge.size, 2))
        np.take(deltas, tiers.win_edge, out=data[:, 0])
        np.multiply(data[:, 0], tiers.win_frac, out=data[:, 1])
        window = csr_array(
            (data.ravel(), tiers.win_indices, tiers.win_indptr),
            shape=(times.size, self._wcoef.shape[1]),
        )
        contrib += window @ self._wcoef[p][:, rows]
        return contrib

    def stepping_solver(
        self,
        grid: SampleGrid | np.ndarray,
        nodes: list[str] | None = None,
    ) -> "SteppingSolver":
        """A :class:`SteppingSolver` over this kernel: windowed,
        exactly-continuing evaluation of one segment's sample grid."""
        return SteppingSolver(self, grid, nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledChipKernel(ports={len(self.ports)}, "
            f"nodes={len(self.nodes)}, lanes={self._lanes.size}, "
            f"window={self.window:.3g}s, fp={self.fingerprint[:12]}…)"
        )


class SteppingSolver:
    """Windowed evaluation of one sample grid with exact continuation.

    A closed-loop controller advances the transient solve in windows:
    ``solve_window(trains, lo, hi)`` returns the node deviations over
    ``times[lo:hi]`` only, and consecutive windows continue each other
    *exactly* — stitching every window back together is bit-identical
    to one monolithic :meth:`CompiledChipKernel.evaluate` of the whole
    grid.

    Because the PDN is LTI, the sufficient state carried between
    windows is the edge-train history and the modal phase continuation
    ``e^{λ t}`` — and the kernel already factors exactly that state
    into content-addressed per-port contribution blocks over the full
    grid.  The solver therefore realizes continuation by carrying those
    full-horizon blocks (summed once per *train epoch*, i.e. per
    distinct edge-train content) and emitting row slices.  Per-sample
    rows of every kernel tier are independent, so the slice is the
    windowed solve — with the bit-identity guaranteed by construction
    instead of by floating-point analysis of sliced GEMMs.

    Actuation that rewrites **future** edges (a throttled core derates
    its upcoming ΔI) starts a new train epoch: the next
    ``solve_window`` re-sums the port blocks, and the kernel's
    contribution cache makes that incremental — only ports whose trains
    actually changed are re-evaluated, untouched ports replay their
    cached blocks.  Samples before the first rewritten edge are
    unaffected (a ramp response is exactly zero before its edge), so
    already-emitted windows remain the truth of the actuated history.
    """

    def __init__(
        self,
        kernel: CompiledChipKernel,
        grid: SampleGrid | np.ndarray,
        nodes: list[str] | None = None,
    ):
        self.kernel = kernel
        self.grid = grid if isinstance(grid, SampleGrid) else SampleGrid(grid)
        self.nodes, self._rows = kernel._node_rows(nodes)
        self._epoch_key: tuple | None = None
        self._block: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return int(self.grid.times.size)

    @staticmethod
    def _train_key(trains: list[EdgeTrain]) -> tuple:
        """Content identity of one train epoch (port + edge content,
        in train order — the same inputs :meth:`solve_batch` merges)."""
        return tuple(
            (train.port, _digest(train.times), _digest(train.deltas))
            for train in trains
        )

    def _block_for(self, trains: list[EdgeTrain]) -> np.ndarray:
        """The full-grid deviation block of the current train epoch —
        the carried LTI state.  Re-entered only when the train content
        changes; the kernel's contribution cache keeps the re-entry
        cost proportional to the ports actually rewritten."""
        key = self._train_key(trains)
        if self._epoch_key != key or self._block is None:
            self._block = self.kernel.evaluate(
                trains, self.grid, nodes=self.nodes
            )
            self._epoch_key = key
        return self._block

    def solve_window(
        self, trains: list[EdgeTrain], lo: int, hi: int
    ) -> np.ndarray:
        """Deviation waveforms over ``times[lo:hi]``: a
        ``(len(nodes), hi - lo)`` view of the epoch block."""
        if not 0 <= lo <= hi <= self.n_samples:
            raise SolverError(
                f"window [{lo}, {hi}) outside the sample grid "
                f"(0..{self.n_samples})"
            )
        return self._block_for(trains)[:, lo:hi]

    def invalidate(self) -> None:
        """Drop the carried epoch block (tests, memory pressure)."""
        self._epoch_key = None
        self._block = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SteppingSolver(nodes={len(self.nodes)}, "
            f"samples={self.n_samples}, kernel={self.kernel!r})"
        )
