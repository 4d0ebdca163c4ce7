"""Corner/mismatch PSD sweeps through one parameter-batched kernel.

A corner sweep evaluates one circuit family — an M-corner
:class:`~repro.circuits.corners.ParameterGrid` — over one frequency
grid.  Running it as M independent sweeps repeats all the work that is
*shared* across corners: corners that differ only in noise intensities
share every propagator, covariance basis, and eigendecomposition with
their dynamics root, and even across distinct solves the per-frequency
LU of ``I − e^{-jωT}M₀`` can serve many forcing rows at once.  This
module instead flattens the ``(corner, frequency)`` product into one
frequency-major axis (flat cell ``i`` = frequency ``i // M``, corner
``i % M``) and drives it through the ordinary
:class:`~repro.mft.executor.SweepExecutor` — chunking, thread/process
backends, retry/fault seams, and checkpointing all work unchanged —
with a :class:`CornerBatchAnalyzer` that evaluates each chunk through
:func:`repro.mft.spectral.solve_param_batched`.

The fallback lattice has three levels (DESIGN.md §12):

* **param** — a stacked multi-corner kernel call that raises is retried
  per corner through the single-parameter PR-4 spectral path;
* **group** — a segment group without a usable eigenbasis uses the
  per-frequency reference integrals inside the kernel (PR-4 semantics);
* **cell** — a ``(corner, frequency)`` cell whose batched solve is
  rejected (condition gate, singular fixed point, non-finite value) is
  rescued through that corner's per-frequency fallback chain
  (:mod:`repro.diagnostics.fallback`), exactly as a plain sweep would.

With ``M = 1`` the flat axis *is* the frequency axis, every chunk stack
holds one forcing row, and the kernel computes bit-for-bit what
``psd_sweep(solver="spectral-batch")`` computes — the parity battery in
``tests/test_corner_sweep.py`` pins this.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..circuits.corners import ParameterGrid
from ..diagnostics.fallback import FallbackExhausted, run_fallback_chain
from ..diagnostics.report import DiagnosticsReport, FrequencyFailure
from ..errors import ReproError
from ..noise.result import PsdResult
from ..resilience.faults import fire as _inject_fault
from ..results.protocol import deprecated_export_alias
from ..typing import FloatArray
from .context import SweepContext, sweep_context_for
from .engine import MftNoiseAnalyzer, _record_budget_failures
from .spectral import solve_param_batched

logger = logging.getLogger(__name__)

__all__ = ["CornerBatchAnalyzer", "CornerSweepResult", "corner_psd_sweep"]

#: Default frequencies per executor chunk of a corner sweep (the flat
#: chunk holds this many frequencies × all M corners, so chunks always
#: align with whole frequency slices and one chunk is one stacked
#: kernel call per dynamics group).
CORNER_CHUNK_FREQUENCIES = 64


def _system_of(model_or_system: Any) -> Any:
    """The LPTV system behind a builder result (model or bare system)."""
    system = getattr(model_or_system, "system", None)
    return system if system is not None else model_or_system


class CornerBatchAnalyzer:
    """Executor-compatible analyzer over the flattened (corner, freq) axis.

    Wraps one :class:`~repro.mft.engine.MftNoiseAnalyzer` per corner
    (the *members*, sharing dynamics work through their contexts) and
    exposes the sweep-callable surface the
    :class:`~repro.mft.executor.SweepExecutor` drives — ``warm_up``,
    ``_sweep_batched(freqs, …, start=)``, ``value_width``, checkpoint
    identity — so every executor feature applies to corner sweeps
    without executor changes.  The ``frequencies`` the executor passes
    are the flat grid ``np.repeat(freqs, M)``; ``start`` recovers which
    ``(corner, frequency)`` cells a chunk covers.

    Not constructed directly — :func:`corner_psd_sweep` builds the
    members, shares preflights across derived corners, and maps the
    flat result back to corner shape.
    """

    def __init__(self, members: Sequence[MftNoiseAnalyzer],
                 grid: ParameterGrid, recorder: Any = None,
                 budget: Any = None) -> None:
        member_list = list(members)
        if not member_list:
            raise ReproError("corner analyzer needs at least one member")
        if len(member_list) != len(grid):
            raise ReproError(
                f"{len(member_list)} member analyzers for a grid of "
                f"{len(grid)} corners")
        self.members = member_list
        self.grid = grid
        first = member_list[0]
        self.recorder = recorder if recorder is not None else first.recorder
        self.budget = budget
        self.system = first.system
        self.segments_per_phase = first.segments_per_phase
        self.output_row = first.output_row
        self._disc = first._disc
        merged = DiagnosticsReport(context="corner sweep preflight")
        seen: set[int] = set()
        for member in member_list:
            if id(member.preflight) in seen:
                continue
            seen.add(id(member.preflight))
            merged.merge(member.preflight)
        self.preflight = merged
        self._attribution = False
        self._source_labels: "list[str] | None" = None

    # -- executor duck-type surface -----------------------------------------

    @property
    def n_corners(self) -> int:
        return len(self.members)

    @property
    def context(self) -> SweepContext:
        """The first member's context (executor warm-up gate)."""
        context = self.members[0].context
        assert context is not None  # members are built cache-backed
        return context

    @property
    def cache_stats(self) -> Any:
        return self.members[0].cache_stats

    @property
    def family_hash(self) -> str:
        """Parameter-family hash salting the executor checkpoint key."""
        return self.grid.family_hash()

    @property
    def value_width(self) -> int:
        if not self._attribution:
            return 1
        context = self.members[0].context
        assert context is not None
        return 1 + context.n_sources

    def _output_name(self) -> str:
        return self.members[0]._output_name()

    def warm_up(self) -> "CornerBatchAnalyzer":
        """Warm every member (roots first — derivations draw on them)."""
        for member in self.members:
            member._attribution = self._attribution
            member._source_labels = self._source_labels
            member.warm_up()
            context = member.context
            if context is None:
                raise ReproError(
                    "corner sweep members must be cache-backed "
                    "(cache=True or an explicit context=)")
            context.spectral_bases
        return self

    # -- flat-axis geometry --------------------------------------------------

    def _cells(self, n_local: int, start: int
               ) -> "tuple[np.ndarray, np.ndarray]":
        """``(corner, freq)`` indices of a chunk's flat cells.

        Flat cell ``g`` (global) is frequency ``g // M``, corner
        ``g % M`` — frequency-major, so corner ``m``'s values are the
        stride-``M`` slice of the flat sweep values.
        """
        flat = start + np.arange(n_local)
        m = len(self.members)
        return flat % m, flat // m

    # -- sweep callables -----------------------------------------------------

    def _member_forcing(self, member: MftNoiseAnalyzer) -> FloatArray:
        """Forcing rows for one member: plain or attribution-stacked."""
        context = member.context
        assert context is not None
        forcing = context.forcing_pairs(member._l_row)
        if self.value_width == 1:
            return forcing
        return np.stack(
            [forcing]
            + [context.source_forcing_pairs(member._l_row, s)
               for s in range(self.value_width - 1)])

    def _sweep_raw(self, freqs: FloatArray, on_failure: str, budget: Any,
                   report: DiagnosticsReport, start: int = 0) -> Any:
        """Per-cell reference loop over a flat chunk (no batching).

        Kept for debugging and as the semantic reference of the batched
        path: each cell runs its corner's own fallback chain.
        """
        corners, _freq_idx = self._cells(len(freqs), start)
        width = self.value_width
        values = np.full(freqs.shape if width == 1
                         else (freqs.size, width), np.nan)
        failures: "list[FrequencyFailure]" = []
        attempts_log: "list[Any]" = []
        for local, (f, m) in enumerate(zip(freqs, corners)):
            reason = budget.exceeded()
            if reason is not None:
                _record_budget_failures(freqs, range(local, len(freqs)),
                                        reason, failures, report)
                break
            self._solve_cell(int(local), float(f), int(m), values,
                             failures, attempts_log, on_failure, budget,
                             report)
        failures.sort(key=lambda failure: failure.index)
        return values, failures, attempts_log

    def _solve_cell(self, local: int, f: float, m: int,
                    values: FloatArray,
                    failures: "list[FrequencyFailure]",
                    attempts_log: "list[Any]", on_failure: str,
                    budget: Any, report: DiagnosticsReport) -> None:
        """One cell through its corner's per-frequency fallback chain."""
        member = self.members[m]
        rec = self.recorder
        try:
            with rec.span("mft.solve", frequency=f,
                          corner=self.grid.names[m], rescued=True) as span:
                value, attempts = run_fallback_chain(
                    member._strategies(f, budget), f, report, recorder=rec)
            attempts_log.extend(attempts)
            values[local] = value
            if rec.enabled:
                rec.observe("mft.solve_seconds", span.duration)
        except FallbackExhausted as exc:
            attempts_log.extend(exc.attempts)
            failures.append(FrequencyFailure(
                frequency=f, index=local, stage="solve",
                error=type(exc).__name__, message=str(exc)))
            if on_failure == "raise":
                raise exc.attach_diagnostics(report)
            logger.warning("corner %s: recording NaN at %.6g Hz: %s",
                           self.grid.names[m], f, exc)

    def _sweep_batched(self, freqs: FloatArray, on_failure: str,
                       budget: Any, report: DiagnosticsReport,
                       start: int = 0) -> Any:
        """One flat chunk through the parameter-batched spectral kernel.

        Cells are partitioned by the dynamics group of their corner;
        each group solves its members' forcing rows against the union
        of the group's chunk frequencies in **one** stacked kernel call
        (``solve_param_batched`` degenerates to exactly the PR-4 call
        for a lone member).  Rejected cells are rescued per cell
        through their corner's fallback chain; failure records carry
        chunk-local flat indices that the executor offsets to global
        flat indices, which :func:`corner_psd_sweep` maps back to
        per-corner ``(frequency, corner)`` identities.
        """
        rec = self.recorder
        width = self.value_width
        values = np.full(freqs.shape if width == 1
                         else (freqs.size, width), np.nan)
        failures: "list[FrequencyFailure]" = []
        attempts_log: "list[Any]" = []
        reason = budget.exceeded()
        if reason is not None:
            _record_budget_failures(freqs, range(len(freqs)), reason,
                                    failures, report)
            return values, failures, attempts_log
        corners, _freq_idx = self._cells(len(freqs), start)
        finite_mask = np.isfinite(freqs)
        for idx in np.nonzero(~finite_mask)[0]:
            exc = ReproError(
                f"analysis frequency must be finite, got {freqs[idx]!r}")
            if on_failure == "raise":
                raise exc.attach_diagnostics(report)
            failures.append(FrequencyFailure(
                frequency=float(freqs[idx]), index=int(idx), stage="input",
                error=type(exc).__name__, message=str(exc)))
            report.error("non-finite-frequency", str(exc), index=int(idx))
        finite_idx = np.nonzero(finite_mask)[0]
        rescue: "list[tuple[int, float, int]]" = []
        if finite_idx.size:
            rec.count("sweep.frequencies", int(finite_idx.size))
            _inject_fault("mft.batch",
                          first_frequency=float(freqs[finite_idx[0]]),
                          n=int(finite_idx.size))
            rescue = self._solve_chunk_groups(freqs, corners, finite_idx,
                                              values, report)
        for local, f, m in rescue:
            self._solve_cell(local, f, m, values, failures, attempts_log,
                             on_failure, budget, report)
        failures.sort(key=lambda failure: failure.index)
        return values, failures, attempts_log

    def _solve_chunk_groups(self, freqs: FloatArray, corners: np.ndarray,
                            finite_idx: np.ndarray, values: FloatArray,
                            report: DiagnosticsReport
                            ) -> "list[tuple[int, float, int]]":
        """Stacked kernel calls per dynamics group; returns rescue cells.

        Returns ``(local_index, frequency, corner)`` triples for every
        cell the batched solve rejected.  ``values`` is filled in place
        for the accepted cells.
        """
        rec = self.recorder
        policy = self.members[0].fallback
        condition_limit = (policy.condition_limit
                           if policy is not None else None)
        width = self.value_width

        # Partition the chunk's finite cells by dynamics group, keeping
        # per-(group, corner) locals in chunk order.
        group_corners: "dict[int, list[int]]" = {}
        cell_lists: "dict[int, dict[int, list[int]]]" = {}
        for local in finite_idx:
            m = int(corners[local])
            context = self.members[m].context
            assert context is not None
            key = context.dynamics_key
            cells = cell_lists.setdefault(key, {})
            if m not in cells:
                group_corners.setdefault(key, []).append(m)
                cells[m] = []
            cells[m].append(int(local))

        rescue: "list[tuple[int, float, int]]" = []
        for key, members in group_corners.items():
            cells = cell_lists[key]
            # Union of the group's chunk frequencies, first-appearance
            # order (bit-parity with the plain sweep's chunk order for
            # M = 1, where the union is the chunk itself).
            union = list(dict.fromkeys(
                float(freqs[local]) for m in members
                for local in cells[m]))
            freq_pos = {f: i for i, f in enumerate(union)}
            omegas = 2.0 * np.pi * np.asarray(union)
            plans = self._row_plan(members)
            contexts = [context for context, _forcing, _owners in plans]
            forcings = [forcing for _context, forcing, _owners in plans]
            with rec.span("spectral.param-batch", n_params=len(members),
                          n_rows=len(plans), n=len(union)):
                batch = solve_param_batched(
                    contexts, omegas, forcings,
                    condition_limit=condition_limit, recorder=rec)
            if batch.fallback_params:
                report.warning(
                    "param-batch-fallback",
                    f"stacked solve over {len(plans)} kernel rows "
                    f"({len(members)} corners) failed; "
                    f"{len(batch.fallback_params)} rows recomputed "
                    "through the single-parameter path",
                    rows=list(batch.fallback_params))
            n_solved = 0
            for slot, (context, _forcing, owners) in enumerate(plans):
                result = batch.results[slot]
                period = context.disc.period
                if result.fallback_groups:
                    self._defective_basis_finding(report, context, result)
                for m, multiplier in owners:
                    member = self.members[m]
                    psd = (2.0 * np.real(result.integral @ member._l_row)
                           / period)
                    # Uniform intensity corners share their dynamics
                    # root's kernel row: S(αQ) = α·S(Q) exactly, so the
                    # solved row is rescaled per corner (α = 1.0 for
                    # the row owner — a bit-exact multiply).
                    psd = multiplier * psd
                    if width > 1:
                        # (R, F) -> (F, R) rows of [total, sources…].
                        psd = psd.T
                        ok = result.ok & np.all(np.isfinite(psd), axis=1)
                    else:
                        ok = result.ok & np.isfinite(psd)
                    for local in cells[m]:
                        fi = freq_pos[float(freqs[local])]
                        if ok[fi]:
                            values[local] = psd[fi]
                            n_solved += 1
                        else:
                            rescue.append((local, float(freqs[local]), m))
            report.info(
                "spectral-batch",
                f"param-batched kernel solved {n_solved} of "
                f"{sum(len(cells[m]) for m in members)} cells across "
                f"{len(members)} corners with {len(plans)} kernel rows "
                f"in {batch.stacked_calls} stacked calls",
                n_batched=n_solved,
                n_rescued=sum(len(cells[m]) for m in members) - n_solved,
                n_params=len(members), n_rows=len(plans))
        return rescue

    def _row_plan(self, members: "list[int]"
                  ) -> "list[tuple[SweepContext, FloatArray, list[tuple[int, float]]]]":
        """Kernel rows for one dynamics group: ``(context, forcing, owners)``.

        Corners whose context is a uniform intensity derivation of the
        same root *share one kernel row* — the root's forcing — and are
        recovered after the solve as ``α² · psd_root`` (noise PSDs are
        exactly linear in uniform source intensity).  This is where the
        corner batch beats per-corner sweeps: an all-uniform group of M
        corners costs one row of per-frequency kernel arithmetic, not
        M.  Per-source (non-uniform) scalings keep their own row, as
        does any context the sweep cannot prove is a derivation.
        ``owners`` lists ``(corner_index, multiplier)`` per row.
        """
        plans: "list[tuple[SweepContext, FloatArray, list[tuple[int, float]]]]" = []
        slot_of_root: "dict[int, int]" = {}
        for m in members:
            member = self.members[m]
            context = member.context
            assert context is not None
            root = getattr(context, "parent", None)
            uniform = getattr(context, "_uniform", None)
            if root is None and not hasattr(context, "_scales"):
                root, uniform = context, 1.0  # the dynamics root itself
            if root is None or uniform is None:
                plans.append((context, self._member_forcing(member),
                              [(m, 1.0)]))
                continue
            slot = slot_of_root.get(id(root))
            if slot is None:
                slot_of_root[id(root)] = len(plans)
                plans.append((root, self._root_forcing(root, member),
                              [(m, float(uniform))]))
            else:
                plans[slot][2].append((m, float(uniform)))
        return plans

    def _root_forcing(self, root: SweepContext,
                      member: MftNoiseAnalyzer) -> FloatArray:
        """A shared row's forcing: the dynamics root's own stack."""
        forcing = root.forcing_pairs(member._l_row)
        if self.value_width == 1:
            return forcing
        return np.stack(
            [forcing]
            + [root.source_forcing_pairs(member._l_row, s)
               for s in range(self.value_width - 1)])

    def _defective_basis_finding(self, report: DiagnosticsReport,
                                 context: SweepContext,
                                 result: Any) -> None:
        """Mirror the plain sweep's defective-eigenbasis warning."""
        bases = context.spectral_bases
        report.warning(
            "spectral-defective-basis",
            f"{len(result.fallback_groups)} of {len(bases)} segment "
            "groups lack a usable eigenbasis; those groups used the "
            "per-frequency reference integrals",
            groups=list(result.fallback_groups),
            conditions=[bases[g].condition
                        for g in result.fallback_groups],
            reasons=[bases[g].reason for g in result.fallback_groups])


@dataclass
class CornerSweepResult:
    """Corner-shaped view of one parameter-batched PSD sweep.

    ``values[m, k]`` is corner ``m``'s (clipped) PSD at
    ``frequencies[k]`` in V²/Hz; NaN where that cell failed.
    Per-corner failure records carry the corner's *own* frequency
    indices; ``diagnostics`` is the whole-sweep report and ``info``
    the executor metadata of the underlying flat sweep.
    """

    frequencies: FloatArray
    values: FloatArray
    corner_names: "list[str]"
    failures: "dict[str, list[FrequencyFailure]]"
    diagnostics: DiagnosticsReport
    info: "dict[str, Any]"
    budgets: "dict[str, Any] | None" = None
    method: str = "mft"
    solver: str = "param-batch"
    output: str = ""

    @property
    def n_corners(self) -> int:
        return self.values.shape[0]

    def corner(self, which: "int | str") -> PsdResult:
        """One corner's sweep as an ordinary :class:`PsdResult`."""
        if isinstance(which, str):
            try:
                index = self.corner_names.index(which)
            except ValueError:
                raise ReproError(
                    f"unknown corner {which!r}; names are "
                    f"{self.corner_names}") from None
        else:
            index = int(which)
            if not 0 <= index < self.n_corners:
                raise ReproError(
                    f"corner index {index} out of range for "
                    f"{self.n_corners} corners")
        name = self.corner_names[index]
        info: "dict[str, Any]" = {
            "corner": name,
            "failures": list(self.failures.get(name, [])),
            "diagnostics": self.diagnostics,
            "budget": (self.budgets or {}).get(name),
        }
        return PsdResult(frequencies=self.frequencies,
                         psd=np.array(self.values[index]),
                         method=self.method, output=self.output,
                         info=info)

    def worst_corners(self, frequency: "float | None" = None
                      ) -> "list[tuple[str, float]]":
        """Corners ranked worst-first by peak PSD (or PSD at one f).

        With ``frequency`` given the ranking key is the PSD at the
        nearest grid frequency; otherwise each corner's maximum over
        the grid.  NaN-only corners rank last with a NaN key.
        """
        if frequency is None:
            with np.errstate(all="ignore"):
                keys = np.nanmax(np.where(np.isfinite(self.values),
                                          self.values, -np.inf), axis=1)
            keys = np.where(np.isfinite(keys), keys, np.nan)
        else:
            k = int(np.argmin(np.abs(self.frequencies
                                     - float(frequency))))
            keys = self.values[:, k]
        order = np.argsort(-np.nan_to_num(keys, nan=-np.inf))
        return [(self.corner_names[i], float(keys[i])) for i in order]

    def to_table(self, frequency: "float | None" = None,
                 limit: "int | None" = None) -> str:
        """Ranked worst-corner table (the README quickstart's output).

        Values are double-sided PSDs in V²/Hz — peak over the grid, or
        at the grid frequency nearest ``frequency`` when given.
        """
        ranked = self.worst_corners(frequency)
        if limit is not None:
            ranked = ranked[:int(limit)]
        label = ("peak PSD [V^2/Hz]" if frequency is None
                 else f"PSD @ {frequency:g} Hz [V^2/Hz]")
        name_width = max([len("corner")]
                         + [len(name) for name, _v in ranked])
        lines = [f"{'corner'.ljust(name_width)}  {label}",
                 f"{'-' * name_width}  {'-' * len(label)}"]
        for name, value in ranked:
            lines.append(f"{name.ljust(name_width)}  {value:.6e}")
        return "\n".join(lines)

    table = deprecated_export_alias("table", "to_table")

    def to_json(self) -> "dict[str, Any]":
        """JSON-ready payload; inverse is
        :func:`repro.results.from_payload`."""
        from ..results import to_payload
        return to_payload(self)

    def to_csv(self, path: Any) -> Any:
        """Write the corner matrix as CSV; returns the path.

        One row per frequency: ``frequency_hz`` then one double-sided
        V²/Hz column per corner (NaN where that cell failed).
        """
        from ..io import write_csv
        headers = ["frequency_hz"] + list(self.corner_names)
        rows = list(zip(self.frequencies,
                        *(self.values[m] for m in range(self.n_corners))))
        return write_csv(path, headers, rows)

    def __repr__(self) -> str:
        return (f"CornerSweepResult({self.n_corners} corners x "
                f"{self.frequencies.size} frequencies, "
                f"output={self.output!r})")


def _build_members(model_or_system: Any, grid: ParameterGrid,
                   output_row: int, segments_per_phase: int,
                   recorder: Any, derive_intensity: bool
                   ) -> "list[MftNoiseAnalyzer]":
    """One cache-backed analyzer per corner, sharing dynamics work.

    Corners are grouped by dynamics overrides; each distinct dynamics
    point gets one *root* context (and one preflight, shared by every
    member on it).  Intensity-only variations on a root derive their
    context (``derive_intensity=True``) instead of rebuilding — the
    nearly-free path — or rebuild from a rescaled system when exact
    fresh numerics are wanted (``derive_intensity=False``).  All
    registry entries are salted with the grid's family hash.
    """
    from ..circuits.corners import scale_system_noise

    family = grid.family_hash()
    base_system = _system_of(model_or_system)
    noise_labels = getattr(model_or_system, "noise_labels", None)

    roots: "dict[tuple[tuple[str, str], ...], tuple[Any, SweepContext, MftNoiseAnalyzer | None]]" = {}
    members: "list[MftNoiseAnalyzer]" = []
    for index, corner in enumerate(grid.corners):
        dyn_key = corner.overrides_key()
        root = roots.get(dyn_key)
        if root is None:
            built = grid.build_model(index)
            system = base_system if built is None else _system_of(built)
            context = sweep_context_for(system, segments_per_phase,
                                        family=family)
            roots[dyn_key] = (system, context, None)
            root = roots[dyn_key]
        system, context, root_member = root

        scale = corner.uniform_scale
        trivial = scale is not None and scale == 1.0
        if trivial:
            member_system, member_context = system, context
        else:
            if corner.uniform_scale is None:
                scales = corner.resolved_scales(noise_labels,
                                                context.n_sources)
            else:
                scales = np.atleast_1d(np.asarray(
                    corner.uniform_scale, dtype=float))
            member_system = scale_system_noise(system, scales)
            if derive_intensity:
                member_context = sweep_context_for(
                    member_system, segments_per_phase, family=family,
                    build=lambda c=context, s=scales, ms=member_system:
                        c.derive_intensity_scaled(s, system=ms))
            else:
                member_context = sweep_context_for(
                    member_system, segments_per_phase, family=family)

        # One preflight per dynamics root, cached on the (registry
        # -cached) root context across sweeps: the first member on a
        # root validates; intensity siblings and later sweeps adopt
        # its report (intensity scaling cannot change stability,
        # schedule, or finiteness, and a cached context's
        # discretization is immutable).
        preflight: Any = (getattr(context, "_preflight_report", None)
                          if root_member is None
                          else root_member.preflight)
        if preflight is None:
            preflight = True
        member = MftNoiseAnalyzer(
            member_system, segments_per_phase=segments_per_phase,
            output_row=output_row, context=member_context,
            preflight=preflight, recorder=recorder)
        if root_member is None:
            setattr(context, "_preflight_report", member.preflight)
            roots[dyn_key] = (system, context, member)
        members.append(member)
    return members


def corner_psd_sweep(model_or_system: Any, grid: ParameterGrid,
                     frequencies: Any, *, output_row: int = 0,
                     segments_per_phase: int = 64,
                     parallel: "str | None" = None,
                     max_workers: "int | None" = None,
                     chunk_size: "int | None" = None,
                     budget: Any = None, on_failure: str = "record",
                     attribute_sources: Any = False,
                     derive_intensity: bool = True,
                     retry: Any = None, faults: Any = None,
                     checkpoint: Any = None,
                     recorder: Any = None) -> CornerSweepResult:
    """PSD of every corner of ``grid`` in one parameter-batched sweep.

    Values are the library's canonical **double-sided** PSD samples in
    V²/Hz (or A²/Hz for current outputs) — corner for corner the same
    quantity M independent ``psd_sweep`` calls would produce.

    ``model_or_system`` is the *base* circuit (a builder model or bare
    LPTV system) used for corners without dynamics overrides; corners
    with overrides build their own model through the grid's builder.
    Returns a :class:`CornerSweepResult` with values ``(M, K)`` plus
    per-corner failures and (optionally) attribution budgets.

    ``chunk_size`` counts **frequencies** per executor chunk (each flat
    chunk holds that many frequencies × all M corners); the default is
    ``min(K, 64)``.  ``derive_intensity=True`` (default) lets intensity
    -only corners derive their context from the dynamics root (shared
    propagators/bases, linear restack — the nearly-free path, ≤1e-12
    from a fresh build); ``False`` rebuilds each from its rescaled
    system.  ``parallel``/``max_workers``/``budget``/``on_failure``/
    ``retry``/``faults``/``checkpoint`` are the usual executor knobs on
    the flattened axis — a crashed or budget-skipped chunk NaNs exactly
    its ``(corner, frequency)`` cells.
    """
    from .executor import SweepExecutor

    if not isinstance(grid, ParameterGrid):
        raise ReproError(
            f"grid must be a ParameterGrid, got {type(grid).__name__}")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    n_corners = len(grid)
    members = _build_members(model_or_system, grid, output_row,
                             segments_per_phase, recorder,
                             derive_intensity)
    analyzer = CornerBatchAnalyzer(members, grid, recorder=recorder,
                                   budget=budget)

    if attribute_sources:
        context = members[0].context
        assert context is not None
        labels = members[0]._resolve_source_labels(attribute_sources)
        analyzer._attribution = True
        analyzer._source_labels = labels
        for member in members:
            member._attribution = True
            member._source_labels = labels
    try:
        per_corner_chunk = (min(int(freqs.size), CORNER_CHUNK_FREQUENCIES)
                            if chunk_size is None else int(chunk_size))
        executor = SweepExecutor(
            backend=parallel or "serial", max_workers=max_workers,
            chunk_size=max(1, per_corner_chunk) * n_corners,
            solver="param-batch", retry=retry, faults=faults)
        flat_freqs = np.repeat(freqs, n_corners)
        flat = executor.run(analyzer, flat_freqs, budget=budget,
                            on_failure=on_failure, checkpoint=checkpoint)
    finally:
        for member in members:
            member._attribution = False
            member._source_labels = None
        analyzer._attribution = False
        analyzer._source_labels = None

    # Reshape the flat result to corner shape: flat cell i is frequency
    # i // M, corner i % M, so corner m's sweep is the stride-M slice.
    values = np.asarray(flat.psd).reshape(freqs.size, n_corners).T.copy()
    names = grid.names
    failures: "dict[str, list[FrequencyFailure]]" = {}
    for failure in flat.info.get("failures", []):
        m = failure.index % n_corners
        k = failure.index // n_corners
        failures.setdefault(names[m], []).append(
            FrequencyFailure(frequency=failure.frequency, index=k,
                             stage=failure.stage, error=failure.error,
                             message=failure.message))
    budgets = _split_budgets(flat.info.get("budget"), freqs, names)
    info = dict(flat.info)
    info["n_params"] = n_corners
    info["family_hash"] = grid.family_hash()
    info["flat_result"] = flat
    return CornerSweepResult(
        frequencies=freqs, values=values, corner_names=list(names),
        failures=failures, diagnostics=flat.info["diagnostics"],
        info=info, budgets=budgets, output=flat.output)


def _split_budgets(flat_budget: Any, freqs: FloatArray,
                   names: "Sequence[str]"
                   ) -> "dict[str, Any] | None":
    """Slice a flattened attribution budget into per-corner budgets."""
    if flat_budget is None:
        return None
    from ..metrics import ContributionBudget
    n_corners = len(names)
    contributions = np.asarray(flat_budget.contributions)
    total = np.asarray(flat_budget.total)
    budgets: "dict[str, Any]" = {}
    for m, name in enumerate(names):
        budgets[name] = ContributionBudget(
            frequencies=freqs,
            labels=list(flat_budget.labels),
            contributions=np.ascontiguousarray(
                contributions[:, m::n_corners]),
            total=np.ascontiguousarray(total[m::n_corners]),
            output=flat_budget.output, method=flat_budget.method,
            solver="param-batch")
    return budgets
