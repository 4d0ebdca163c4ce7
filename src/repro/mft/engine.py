"""Two-tone MFT steady-state PSD engine.

For the output ``y = l^T x`` of the LPTV SDE, the cross-spectral vector
``K'(t) = E{x(t) Y(t,ω)^*}`` obeys ``dK'/dt = A K' + K(t) l e^{jωt}``
(companion draft eq. (13), generalised from one node to a linear output).
Substituting ``K' = q e^{jωt}`` removes the fast/slow two-tone structure
exactly::

    dq/dt = (A(t) − jωI) q + K(t) l

with everything on the right T-periodic. The averaged PSD is then

    S̄(ω) = (2/T) ∫_0^T Re( l^T q(t) ) dt

and the instantaneous PSD ``S(t, ω) = 2 Re(l^T q(t))``.

This module wires those three steps to the shared machinery:
:func:`repro.noise.covariance.periodic_covariance` for ``K``,
:func:`repro.lptv.periodic_solve.periodic_steady_state` for ``q``, and a
trapezoidal quadrature for the average. Runtime bookkeeping is kept so the
speedup benchmarks can compare against the brute-force engine.

Performance: by default the analyzer draws every frequency-independent
quantity — discretization, periodic covariance, forcing, monodromy,
suffix products — from a shared :class:`~repro.mft.context.SweepContext`
and solves each frequency through its batched fast path (``cache=False``
restores the uncached reference path; the two agree to rounding, see
``tests/test_sweep_equivalence.py``). :meth:`MftNoiseAnalyzer.psd_sweep`
additionally runs independent frequencies through a
:class:`~repro.mft.executor.SweepExecutor` (thread or process backends).

Robustness: the analyzer preflight-validates the discretization at
construction (Floquet margin, ``cond(I − M)``, schedule, NaN/Inf) and
:meth:`MftNoiseAnalyzer.psd` runs each frequency through the bounded
graceful-degradation chain of :mod:`repro.diagnostics.fallback` — direct
solve, refined grid, regularized least squares, brute-force transient —
recording every attempt in ``PsdResult.info["diagnostics"]``. A failed
frequency yields NaN plus a failure record instead of aborting the sweep.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from ..diagnostics.budget import as_budget
from ..diagnostics.fallback import (
    FallbackExhausted,
    FallbackPolicy,
    run_fallback_chain,
)
from ..diagnostics.preflight import preflight_report, require_preflight
from ..diagnostics.report import DiagnosticsReport, FrequencyFailure
from ..errors import ReproError
from ..lptv.periodic_solve import forcing_from_samples, periodic_steady_state
from ..noise.covariance import periodic_covariance
from ..noise.result import PsdResult, clip_negative_psd, worst_negative_psd
from ..noise.solvers import resolve_solver
from ..obs import NULL_RECORDER, format_trace, span_summary
from ..resilience.faults import fire as _inject_fault
from ..tolerances import FIXED_POINT_RIDGE
from .context import CacheStats, SweepContext, sweep_context_for

logger = logging.getLogger(__name__)

def fold_cache_delta(recorder, before, after):
    """Fold a cache-stats delta into a recorder's counters.

    Emits ``cache.<kind>`` aggregates plus ``cache.<kind>.<category>``
    per-category counters so serial and parallel sweeps over the same
    grid report identical metric counts.
    """
    delta = CacheStats.delta(before, after)
    for kind in ("hits", "misses", "evictions"):
        diffs = delta[kind]
        total = sum(diffs.values())
        if total:
            recorder.count(f"cache.{kind}", total)
        for category, n in diffs.items():
            recorder.count(f"cache.{kind}.{category}", n)


@dataclass
class InstantaneousPsd:
    """Instantaneous PSD ``S(t, f)`` over one period at one frequency."""

    times: np.ndarray
    values: np.ndarray
    frequency: float

    def average(self):
        period = self.times[-1] - self.times[0]
        return float(np.trapezoid(self.values, self.times) / period)


class MftNoiseAnalyzer:
    """Steady-state noise analysis of a switched (LPTV) system.

    Parameters
    ----------
    system:
        A :class:`~repro.lptv.system.PiecewiseLTISystem` or
        :class:`~repro.lptv.system.SampledLPTVSystem`.
    segments_per_phase:
        Discretization density; for piecewise-LTI systems this only
        affects the cross-spectral quadrature grid (the propagators are
        exact). For sampled systems it also controls propagator accuracy.
    output_row:
        Row of the system's output matrix to analyse.
    preflight:
        Validate the discretization at construction. ERROR-level findings
        raise immediately (:class:`~repro.errors.StabilityError` for an
        unstable system, with the multipliers attached); warnings are
        kept on :attr:`preflight` and attached to every sweep result.
    fallback:
        ``True``/``None`` enables the graceful-degradation chain with
        default :class:`~repro.diagnostics.fallback.FallbackPolicy`
        settings, ``False`` disables it, and a ``FallbackPolicy``
        instance tunes it.
    budget:
        Default :class:`~repro.diagnostics.budget.SweepBudget` (or
        wall-clock seconds) applied to every :meth:`psd` sweep.
    cache:
        ``True`` (default) draws the frequency-independent work from the
        shared :class:`~repro.mft.context.SweepContext` registry, and
        ``solver=None`` sweeps through the frequency-batched spectral
        kernel over it.  ``False`` recomputes everything locally through
        the reference solver: the analyzer has no sweep context, so it
        is the reference oracle and its ``solver=None`` resolves to the
        per-ω ``"mft"`` path (``"spectral-batch"`` is rejected).
    context:
        An explicit :class:`~repro.mft.context.SweepContext` to draw
        from (its ``segments_per_phase`` takes precedence). Lets several
        engines — MFT, brute force, Monte Carlo — share one set of
        propagators and one covariance solve.
    recorder:
        An :class:`~repro.obs.Recorder` collecting spans and metrics
        from every stage of the analysis (default: the shared no-op
        recorder — tracing off, one attribute check per stage).

    All parameters after ``system`` are strictly keyword-only
    (see DESIGN.md §9).
    """

    def __init__(self, system, *, segments_per_phase=64,
                 output_row=0, preflight=True, fallback=True,
                 budget=None, cache=True, context=None,
                 recorder=None):
        if not hasattr(system, "discretize") or not hasattr(
                system, "output_matrix"):
            raise ReproError(
                "system must be an LPTV system (discretize() and "
                f"output_matrix), got {type(system).__name__}")
        self.system = system
        self.output_row = output_row
        if recorder is None:
            recorder = NULL_RECORDER
        elif not (hasattr(recorder, "span") and hasattr(recorder, "count")):
            raise ReproError(
                "recorder must be a repro.obs.Recorder (or None), got "
                f"{type(recorder).__name__}")
        self.recorder = recorder
        self._l_row = np.asarray(system.output_matrix)[output_row].astype(
            float)
        if context is not None:
            if not isinstance(context, SweepContext):
                raise ReproError(
                    "context must be a SweepContext, got "
                    f"{type(context).__name__}")
            self._context = context
        elif cache:
            self._context = sweep_context_for(system, segments_per_phase)
        else:
            self._context = None
        if self._context is not None:
            self.segments_per_phase = self._context.segments_per_phase
            self._disc = self._context.disc
        else:
            self.segments_per_phase = segments_per_phase
            self._disc = system.discretize(segments_per_phase)
        self._covariance = None
        self._forcing = None
        self._refined = {}
        # Per-source attribution mode: set by psd()/psd_sweep() around a
        # sweep (attribute_sources=), consumed by the inner sweep loops
        # and the executor (value_width, checkpoint key).
        self._attribution = False
        self._source_labels = None
        if fallback is True or fallback is None:
            self.fallback = FallbackPolicy()
        elif fallback is False:
            self.fallback = None
        else:
            self.fallback = fallback
        self.budget = budget
        if isinstance(preflight, DiagnosticsReport):
            # An already-computed report (e.g. shared across the derived
            # intensity corners of one dynamics root in a corner sweep) —
            # adopt it instead of re-validating the same discretization.
            self.preflight = preflight
        elif preflight:
            with self.recorder.span("mft.preflight"):
                self.preflight = require_preflight(self._disc)
        else:
            self.preflight = DiagnosticsReport(context="preflight skipped")

    # -- cache plumbing ------------------------------------------------------

    @property
    def context(self):
        """The shared :class:`SweepContext`, or ``None`` when uncached."""
        return self._context

    @property
    def cache_stats(self):
        """Hit/miss counters of the shared context (``None`` uncached)."""
        if self._context is None:
            return None
        return self._context.stats

    def warm_up(self):
        """Materialise every frequency-independent cached quantity.

        Called by the sweep executor before parallel dispatch so thread
        workers never race on lazy initialisation and forked process
        workers inherit the precomputed work instead of redoing it.
        In attribution mode the per-source covariances and forcing
        pairs are included — they are frequency-independent too.
        """
        self._forcing_pairs()
        if self._context is not None:
            self._context.warm_up(self._l_row, sources=self._attribution)
        return self

    # -- per-source attribution ---------------------------------------------

    @property
    def value_width(self):
        """Columns per frequency the sweep loops produce (1 + n_sources).

        The executor reads this to size its merge buffer and key its
        checkpoints; outside attribution mode it is 1 and the sweep
        values stay plain 1-D arrays.
        """
        if not self._attribution:
            return 1
        return 1 + self._context.n_sources

    def _resolve_source_labels(self, attribute_sources):
        """Labels for the budget rows from ``attribute_sources``.

        ``True`` falls back to positional ``source<k>`` names; a
        sequence must name every noise column of the system.
        """
        n_src = self._context.n_sources
        if attribute_sources is True:
            return [f"source{k}" for k in range(n_src)]
        labels = [str(label) for label in attribute_sources]
        if len(labels) != n_src:
            raise ReproError(
                f"attribute_sources names {len(labels)} sources but the "
                f"system has {n_src} noise columns")
        return labels

    class _AttributionMode:
        """Arm/disarm the analyzer's attribution state around a sweep."""

        def __init__(self, analyzer, attribute_sources):
            self.analyzer = analyzer
            self.attribute_sources = attribute_sources

        def __enter__(self):
            analyzer = self.analyzer
            if not self.attribute_sources:
                return analyzer
            if analyzer._context is None:
                raise ReproError(
                    "attribute_sources= needs the shared sweep context "
                    "for the per-source covariances; construct the "
                    "analyzer with cache=True (the default) or an "
                    "explicit context=")
            analyzer._source_labels = analyzer._resolve_source_labels(
                self.attribute_sources)
            analyzer._attribution = True
            return analyzer

        def __exit__(self, *exc_info):
            self.analyzer._attribution = False
            self.analyzer._source_labels = None
            return False

    def _psd_vector_at(self, frequency, solver="direct",
                       ridge=FIXED_POINT_RIDGE, condition_limit=None):
        """``[total, source_0, …]`` PSD at one frequency (attribution).

        Every entry comes from the same solver settings at the same ω —
        the shifted step integrals are shared through the per-ω cache —
        so the per-source values sum to the total by linearity of the
        periodic solve in its forcing (to rounding).
        """
        context = self._context
        omega = 2.0 * np.pi * float(frequency)
        period = self._disc.period
        out = np.empty(1 + context.n_sources)
        solution = context.solve_shifted(
            omega, self._forcing_pairs(), solver=solver, ridge=ridge,
            condition_limit=condition_limit)
        # Same expression shape as _psd_at (2*x/T, not (2/T)*x) so the
        # total column is bit-identical to an unattributed sweep.
        out[0] = float(2.0 * np.real(
            self._l_row @ solution.integrate_dot()) / period)
        for s in range(context.n_sources):
            solution = context.solve_shifted(
                omega, context.source_forcing_pairs(self._l_row, s),
                solver=solver, ridge=ridge,
                condition_limit=condition_limit)
            out[1 + s] = float(2.0 * np.real(
                self._l_row @ solution.integrate_dot()) / period)
        return out

    # -- covariance ---------------------------------------------------------

    @property
    def covariance(self):
        """Periodic steady-state covariance (computed once, cached)."""
        if self._context is not None:
            return self._context.covariance
        if self._covariance is None:
            self._covariance = periodic_covariance(self._disc)
        return self._covariance

    def average_output_variance(self):
        """Period-averaged variance of the analysed output."""
        return self.covariance.average_output_variance(self._l_row)

    # -- PSD ----------------------------------------------------------------

    def _forcing_pairs(self):
        if self._context is not None:
            return self._context.forcing_pairs(self._l_row)
        if self._forcing is None:
            post, pre = self.covariance.forcing_samples(self._l_row)
            self._forcing = forcing_from_samples(self._disc, post, pre)
        return self._forcing

    def _solve(self, omega, solver="direct", ridge=FIXED_POINT_RIDGE,
               condition_limit=None):
        """Periodic steady state of the shifted dynamics at one ω."""
        if self._context is not None:
            return self._context.solve_shifted(
                omega, self._forcing_pairs(), solver=solver, ridge=ridge,
                condition_limit=condition_limit)
        return periodic_steady_state(
            self._disc, omega, self._forcing_pairs(), solver=solver,
            ridge=ridge, condition_limit=condition_limit)

    def _psd_at(self, frequency, solver="direct",
                ridge=FIXED_POINT_RIDGE, condition_limit=None):
        """Single-frequency solve with explicit solver controls."""
        omega = 2.0 * np.pi * float(frequency)
        solution = self._solve(omega, solver=solver, ridge=ridge,
                               condition_limit=condition_limit)
        integral = solution.integrate_dot()
        return float(2.0 * np.real(self._l_row @ integral)
                     / self._disc.period)

    def psd_at(self, frequency):
        """Averaged double-sided PSD (V²/Hz) at one frequency [Hz].

        This is the raw direct solve — it raises on failure. Sweeps that
        should survive per-frequency failures go through :meth:`psd`.
        """
        with self.recorder.span("mft.solve", frequency=float(frequency)):
            return self._psd_at(frequency)

    def _sweep_raw(self, freqs, on_failure, budget, report, start=0):
        """Inner sweep loop shared by :meth:`psd` and the executor.

        Mutates ``report`` with per-frequency findings and returns
        ``(values, failures, attempts)`` with *unclipped* values, so the
        caller decides where negative-PSD clipping is diagnosed (once
        per sweep, not once per chunk).  ``start`` is the chunk's offset
        into the full sweep grid — unused here (frequencies are
        self-describing), but part of the sweep-callable signature so
        flattened-axis analyzers can recover cell identities.
        """
        del start  # cell identity is not positional for this analyzer
        rec = self.recorder
        failures = []
        attempts_log = []
        width = self.value_width
        values = np.full(freqs.shape if width == 1
                         else (freqs.size, width), np.nan)
        for idx, f in enumerate(freqs):
            reason = budget.exceeded()
            if reason is not None:
                _record_budget_failures(freqs, range(idx, freqs.size),
                                        reason, failures, report)
                break
            if not np.isfinite(f):
                exc = ReproError(
                    f"analysis frequency must be finite, got {f!r}")
                if on_failure == "raise":
                    raise exc.attach_diagnostics(report)
                failures.append(FrequencyFailure(
                    frequency=float(f), index=idx, stage="input",
                    error=type(exc).__name__, message=str(exc)))
                report.error("non-finite-frequency", str(exc),
                             index=idx)
                logger.warning("recording NaN at index %d: %s", idx, exc)
                continue
            rec.count("sweep.frequencies")
            _inject_fault("mft.solve", frequency=float(f))
            try:
                with rec.span("mft.solve", frequency=float(f)) as span:
                    value, attempts = run_fallback_chain(
                        self._strategies(f, budget), f, report,
                        recorder=rec)
                attempts_log.extend(attempts)
                values[idx] = value
                if rec.enabled:
                    rec.observe("mft.solve_seconds", span.duration)
            except FallbackExhausted as exc:
                attempts_log.extend(exc.attempts)
                failures.append(FrequencyFailure(
                    frequency=float(f), index=idx, stage="solve",
                    error=type(exc).__name__, message=str(exc)))
                if on_failure == "raise":
                    raise exc.attach_diagnostics(report)
                logger.warning("recording NaN at %.6g Hz: %s", f, exc)
        return values, failures, attempts_log

    def _sweep_batched(self, freqs, on_failure, budget, report, start=0):
        """Frequency-batched sweep of one ω-block (``spectral-batch``).

        Drop-in for :meth:`_sweep_raw` over one executor chunk: same
        ``(values, failures, attempts)`` return, same per-frequency NaN
        and failure-record semantics.  All finite frequencies of the
        block are solved at once through
        :meth:`~repro.mft.context.SweepContext.solve_batched`; the ones
        the batched direct solve rejects (condition gate, singular
        fixed point) are rerun individually through the reference
        fallback chain, so their attempt records and failures are
        exactly the per-ω path's.  The budget gates the block as a
        whole (dispatch semantics, matching the executor's chunk gate)
        and then each per-ω rescue.
        ``start`` (the chunk offset) is accepted for sweep-callable
        signature compatibility and unused here.
        """
        del start
        if self._context is None:
            raise ReproError(
                "solver='spectral-batch' needs the shared sweep context; "
                "construct the analyzer with cache=True (the default) or "
                "an explicit context=")
        rec = self.recorder
        failures = []
        attempts_log = []
        width = self.value_width
        values = np.full(freqs.shape if width == 1
                         else (freqs.size, width), np.nan)
        reason = budget.exceeded()
        if reason is not None:
            _record_budget_failures(freqs, range(freqs.size), reason,
                                    failures, report)
            return values, failures, attempts_log
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
            logger.warning("recording NaN at index %d: %s", idx, exc)
        finite_idx = np.nonzero(finite_mask)[0]
        rescue_idx = []
        if finite_idx.size:
            rec.count("sweep.frequencies", int(finite_idx.size))
            _inject_fault("mft.batch",
                          first_frequency=float(freqs[finite_idx[0]]),
                          n=int(finite_idx.size))
            policy = self.fallback
            forcing = self._forcing_pairs()
            if width > 1:
                # Stacked solve: row 0 the total forcing, rows 1…n the
                # per-source forcings, sharing one LU per frequency.
                forcing = np.stack(
                    [forcing]
                    + [self._context.source_forcing_pairs(self._l_row, s)
                       for s in range(width - 1)])
            with rec.span("spectral.batch", n=int(finite_idx.size),
                          rows=int(width)):
                batch = self._context.solve_batched(
                    2.0 * np.pi * freqs[finite_idx], forcing,
                    condition_limit=(policy.condition_limit
                                     if policy is not None else None),
                    recorder=rec)
            psd = (2.0 * np.real(batch.integral @ self._l_row)
                   / self._disc.period)
            if width > 1:
                # (R, n_freq) → (n_freq, R) rows of [total, sources…].
                psd = psd.T
                ok = batch.ok & np.all(np.isfinite(psd), axis=1)
            else:
                ok = batch.ok & np.isfinite(psd)
            values[finite_idx[ok]] = psd[ok]
            rescue_idx = [int(i) for i in finite_idx[~ok]]
            if batch.fallback_groups:
                bases = self._context.spectral_bases
                report.warning(
                    "spectral-defective-basis",
                    f"{len(batch.fallback_groups)} of {len(bases)} segment "
                    "groups lack a usable eigenbasis; those groups used "
                    "the per-frequency reference integrals",
                    groups=list(batch.fallback_groups),
                    conditions=[bases[g].condition
                                for g in batch.fallback_groups],
                    reasons=[bases[g].reason
                             for g in batch.fallback_groups])
            report.info(
                "spectral-batch",
                f"spectral kernel solved {int(np.sum(ok))} of "
                f"{finite_idx.size} frequencies in one batch",
                n_batched=int(np.sum(ok)), n_rescued=len(rescue_idx))
        for pos, idx in enumerate(rescue_idx):
            # Rescues can be costly (refinement, brute force), so the
            # budget gates each one, as on the per-ω path.
            reason = budget.exceeded()
            if reason is not None:
                _record_budget_failures(freqs, rescue_idx[pos:], reason,
                                        failures, report)
                break
            f = freqs[idx]
            try:
                with rec.span("mft.solve", frequency=float(f),
                              rescued=True) as span:
                    value, attempts = run_fallback_chain(
                        self._strategies(f, budget), f, report,
                        recorder=rec)
                attempts_log.extend(attempts)
                values[idx] = value
                if rec.enabled:
                    rec.observe("mft.solve_seconds", span.duration)
            except FallbackExhausted as exc:
                attempts_log.extend(exc.attempts)
                failures.append(FrequencyFailure(
                    frequency=float(f), index=idx, stage="solve",
                    error=type(exc).__name__, message=str(exc)))
                if on_failure == "raise":
                    raise exc.attach_diagnostics(report)
                logger.warning("recording NaN at %.6g Hz: %s", f, exc)
        failures.sort(key=lambda failure: failure.index)
        return values, failures, attempts_log

    def psd(self, frequencies, on_failure="record", budget=None,
            solver=None, attribute_sources=False, **solver_options):
        """Averaged double-sided PSD (V²/Hz) over a frequency grid.

        Returns a :class:`~repro.noise.result.PsdResult`.

        ``attribute_sources`` — ``True`` or a sequence of per-source
        labels — additionally decomposes the PSD per noise-source
        column: the result carries a
        :class:`~repro.metrics.ContributionBudget` in
        ``result.info["budget"]`` (also via ``result.budget``) whose
        per-source rows sum to the total PSD at every frequency (NaN
        where the total is NaN — never dropped from one side only).
        Attribution reuses the shared sweep context, so the extra cost
        is bounded by the shared matrix work, not ``n_sources×``;
        supported for the ``mft``, ``spectral-batch``, and
        ``brute-force`` solvers.

        Each frequency runs through the graceful-degradation chain (when
        :attr:`fallback` is enabled). With ``on_failure="record"`` (the
        default) a frequency whose every strategy fails contributes NaN
        and a :class:`~repro.diagnostics.report.FrequencyFailure` in
        ``info["failures"]`` — the sweep itself always completes;
        ``on_failure="raise"`` aborts on the first exhausted chain. A
        ``budget`` (or the analyzer default) bounds the sweep wall
        clock: once spent, remaining frequencies are recorded as
        ``budget``-stage failures.

        ``solver`` picks the engine by name — one of
        :data:`repro.noise.solvers.SOLVERS`: ``"spectral-batch"`` the
        frequency-batched kernel and the default (``None``), solving the
        whole grid as one ω-block; ``"mft"`` the per-ω reference, and
        what ``None`` means for an analyzer built with ``cache=False``;
        ``"brute-force"`` and ``"monte-carlo"`` the baselines, with
        extra ``solver_options`` forwarded to the delegate. The
        Monte-Carlo solver defines its own Welch frequency grid, so it
        requires ``frequencies=None``.
        """
        if on_failure not in ("record", "raise"):
            raise ReproError(
                f"on_failure must be 'record' or 'raise', "
                f"got {on_failure!r}")
        solver = resolve_solver(solver, cached=self._context is not None)
        if solver in ("brute-force", "monte-carlo"):
            return self._delegate_solver(solver, frequencies,
                                         budget=budget,
                                         on_failure=on_failure,
                                         attribute_sources=attribute_sources,
                                         **solver_options)
        if solver_options:
            raise ReproError(
                f"solver {solver!r} accepts no extra solver options, "
                f"got {sorted(solver_options)}")
        freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
        budget = as_budget(budget if budget is not None else self.budget)
        budget.start()
        report = DiagnosticsReport(context="mft sweep")
        report.merge(self.preflight)
        rec = self.recorder
        mark = rec.mark()
        stats = self.cache_stats
        stats_before = stats.snapshot() if (rec.enabled
                                            and stats is not None) else None
        sweep = (self._sweep_batched if solver == "spectral-batch"
                 else self._sweep_raw)
        t0 = time.perf_counter()
        with self._AttributionMode(self, attribute_sources):
            with rec.span("mft.sweep", solver=solver, n=int(freqs.size),
                          backend="inline"):
                values, failures, attempts_log = sweep(
                    freqs, on_failure, budget, report)
                raw_total, clipped, contribution = finalize_sweep_values(
                    self, freqs, values, report, solver=solver)
        runtime = time.perf_counter() - t0
        if rec.enabled:
            if stats_before is not None:
                fold_cache_delta(rec, stats_before, stats.snapshot())
            report.timeline = span_summary(rec, since=mark)
        n_fallback = sum(1 for a in attempts_log
                         if a.success and a.trigger != "primary")
        if n_fallback:
            logger.info("mft sweep finished: %d/%d frequencies needed "
                        "fallbacks, %d failed", n_fallback, freqs.size,
                        len(failures))
        return PsdResult(
            frequencies=freqs, psd=clipped, method="mft",
            output=self._output_name(),
            info={
                "runtime_seconds": runtime,
                "solver": solver,
                "segments": len(self._disc.segments),
                "negative_clipped": int(np.sum(
                    np.isfinite(raw_total) & (raw_total < 0.0))),
                "worst_negative_psd": worst_negative_psd(raw_total),
                "diagnostics": report,
                "failures": failures,
                "fallback_attempts": attempts_log,
                "budget": contribution,
                "cache_stats": (self.cache_stats.to_dict()
                                if self.cache_stats is not None else None),
            })

    def psd_sweep(self, frequencies, parallel=None, max_workers=None,
                  chunk_size=None, budget=None, on_failure="record",
                  solver=None, attribute_sources=False, retry=None,
                  faults=None, checkpoint=None, pool=None,
                  **solver_options):
        """Averaged double-sided PSD (V²/Hz) via a :class:`SweepExecutor`.

        ``parallel`` is ``None``/``"serial"`` for in-process execution,
        ``"thread"`` or ``"process"`` for concurrent chunks of
        independent frequencies. Per-frequency values, NaN semantics,
        failure records, and diagnostics match :meth:`psd`; the sweep
        ``budget`` gates the *dispatch* of new chunks (in-flight work is
        never killed). See :mod:`repro.mft.executor`.

        ``solver`` is the unified engine selector
        (:data:`repro.noise.solvers.SOLVERS`):

        * ``"spectral-batch"`` (the default, ``None``) — each chunk
          becomes one ω-block through the frequency-batched spectral
          kernel (:mod:`repro.mft.spectral`): eigenbases once per
          segment group, all frequencies of the block at once.  Values
          agree with the per-ω path to ≤ 1e-9 relative with identical
          NaN masks and failure records; requires the shared sweep
          context (``cache=True`` or an explicit ``context=``);
        * ``"mft"`` — the per-frequency fallback-chain sweep, the per-ω
          reference; ``None`` resolves to it on an analyzer built with
          ``cache=False``;
        * ``"brute-force"`` / ``"monte-carlo"`` — delegate to the
          baseline engines (serial only; extra ``solver_options`` are
          forwarded).

        ``attribute_sources`` decomposes the PSD per noise source
        exactly as in :meth:`psd`; the executor ships the widened
        per-chunk values through the same retry/fault/checkpoint
        machinery, so a NaN'd chunk is NaN in both the total and every
        budget row.

        Resilience (DESIGN.md §10): ``retry`` is a chunk-level
        :class:`~repro.resilience.retry.RetryPolicy` (or ``True`` /
        ``False``) governing requeues after worker crashes, timeouts,
        and unexpected chunk errors; ``faults`` arms a deterministic
        :class:`~repro.resilience.faults.FaultPlan` for chaos testing;
        ``checkpoint`` is a directory (or
        :class:`~repro.resilience.checkpoint.SweepCheckpoint`) that
        persists each completed chunk so an interrupted sweep resumes
        bit-identically.  All three are executor features and are
        rejected for the delegated baseline solvers.

        ``pool`` injects a shared pool provider (e.g.
        :class:`repro.service.WorkerPool`) so successive sweeps reuse
        warm workers instead of spawning a pool per call; requires a
        concurrent ``parallel=`` backend.
        """
        solver = resolve_solver(solver, cached=self._context is not None)
        if solver in ("brute-force", "monte-carlo"):
            if parallel not in (None, "serial"):
                raise ReproError(
                    f"solver {solver!r} runs serially; parallel="
                    f"{parallel!r} is not supported — drop parallel= or "
                    "use solver='mft'/'spectral-batch'")
            if (retry is not None or faults is not None
                    or checkpoint is not None or pool is not None):
                raise ReproError(
                    f"retry=, faults=, checkpoint=, and pool= are sweep-"
                    f"executor features; solver {solver!r} delegates to "
                    "a baseline engine that does not support them")
            return self._delegate_solver(solver, frequencies,
                                         budget=budget,
                                         on_failure=on_failure,
                                         attribute_sources=attribute_sources,
                                         **solver_options)
        if solver_options:
            raise ReproError(
                f"solver {solver!r} accepts no extra solver options, "
                f"got {sorted(solver_options)}")
        from .executor import SweepExecutor
        executor = SweepExecutor(backend=parallel or "serial",
                                 max_workers=max_workers,
                                 chunk_size=chunk_size, solver=solver,
                                 retry=retry, faults=faults, pool=pool)
        with self._AttributionMode(self, attribute_sources):
            return executor.run(self, frequencies, budget=budget,
                                on_failure=on_failure,
                                checkpoint=checkpoint)

    def _delegate_solver(self, solver, frequencies, budget=None,
                         on_failure="record", attribute_sources=False,
                         **solver_options):
        """Route ``solver="brute-force"|"monte-carlo"`` to the baselines.

        The delegation forwards the analyzer's own output row, shared
        sweep context, recorder, and (resolved) budget, so
        ``psd(..., solver="brute-force")`` computes exactly what the
        free function :func:`repro.noise.brute_force.brute_force_psd`
        does with the same inputs.
        """
        budget = budget if budget is not None else self.budget
        if solver == "brute-force":
            from ..noise.brute_force import brute_force_psd
            kwargs = dict(solver_options)
            if self._context is not None:
                kwargs.setdefault("context", self._context)
            else:
                kwargs.setdefault("segments_per_phase",
                                  self.segments_per_phase)
            result = brute_force_psd(self.system, frequencies,
                                     output_row=self.output_row,
                                     on_failure=on_failure, budget=budget,
                                     recorder=self.recorder, **kwargs)
            if attribute_sources:
                self._attribute_brute_force(result, attribute_sources,
                                            kwargs, on_failure, budget)
            else:
                result.info.setdefault("budget", None)
            return result
        if attribute_sources:
            raise ReproError(
                "attribute_sources= is not supported for "
                "solver='monte-carlo' (a sampled estimator cannot "
                "guarantee the conservation contract); use 'mft', "
                "'spectral-batch', or 'brute-force'")
        from ..baselines.montecarlo import monte_carlo_psd
        if frequencies is not None:
            raise ReproError(
                "solver='monte-carlo' estimates the PSD on its own Welch "
                "frequency grid (f_clk / segment_periods resolution); "
                "pass frequencies=None and read result.frequencies")
        # The engine's context is NOT forwarded by default: Monte-Carlo
        # spectral estimation needs a *uniform* sampling grid, which the
        # boundary-layer-graded deterministic discretization usually is
        # not. Pass context= in solver_options to share one explicitly.
        mc = monte_carlo_psd(self.system, output_row=self.output_row,
                             budget=budget, recorder=self.recorder,
                             **solver_options)
        result = mc.psd
        result.info["standard_error"] = mc.standard_error
        result.info["n_periods"] = mc.n_periods
        return result

    def _attribute_brute_force(self, result, attribute_sources, kwargs,
                               on_failure, budget):
        """Per-source transient replays onto a brute-force total sweep.

        The total run's converged horizon (periods per frequency) is
        replayed once per noise source with that source's single-column
        Gramians; the integrated covariance/cross-spectrum/ESD ODEs are
        linear in the Gramians, so the replays sum to the total exactly.
        Frequencies where the total failed are NaN in every replay, and
        a replay failure NaNs the total back (the NaN-union contract).
        Mutates ``result`` in place: attaches ``info["budget"]``.
        """
        from ..noise.brute_force import brute_force_psd
        with self._AttributionMode(self, attribute_sources):
            context = self._context
            rec = self.recorder
            freqs = result.frequencies
            details = result.info["details"]
            periods = np.full(freqs.shape, np.nan)
            for idx, detail in enumerate(details):
                if detail is not None:
                    periods[idx] = detail.periods
            kwargs = dict(kwargs)
            kwargs.pop("context", None)
            kwargs.pop("segments_per_phase", None)
            n_sources = context.n_sources
            contributions = np.empty((n_sources, freqs.size))
            with rec.span("attribution.replay", n_sources=int(n_sources),
                          n=int(freqs.size)):
                for s in range(n_sources):
                    source = brute_force_psd(
                        self.system, freqs, output_row=self.output_row,
                        on_failure=on_failure, budget=budget,
                        recorder=rec, disc=context.source_disc(s),
                        fixed_periods=periods, **kwargs)
                    contributions[s] = source.psd
            # NaN union both ways: a frequency that failed anywhere is
            # NaN in the total AND in every budget row.
            nan_mask = ~np.isfinite(result.psd)
            nan_mask |= np.any(~np.isfinite(contributions), axis=0)
            result.psd[nan_mask] = np.nan
            contributions[:, nan_mask] = np.nan
            with rec.span("attribution.budget", n_sources=int(n_sources)):
                from ..metrics import ContributionBudget
                result.info["budget"] = ContributionBudget(
                    frequencies=freqs,
                    labels=list(self._source_labels),
                    contributions=contributions,
                    total=np.array(result.psd, dtype=float),
                    output=result.output, method=result.method,
                    solver="brute-force")
            rec.count("attribution.sources", n_sources)
            rec.count("attribution.sweeps")

    # -- tracing --------------------------------------------------------------

    def trace_report(self, title="mft trace"):
        """Tree-formatted table of every span the recorder holds.

        Needs an enabled :class:`~repro.obs.Recorder` passed at
        construction; with the default no-op recorder the report says
        so instead of raising.
        """
        if not self.recorder.enabled:
            return (f"{title}\n(tracing disabled — construct the "
                    "analyzer with recorder=Recorder() to collect spans)")
        return format_trace(self.recorder, title=title)

    def trace_export(self):
        """JSON-friendly dump of the recorder's spans and metrics."""
        return self.recorder.export()

    # -- fallback machinery -------------------------------------------------

    def _strategies(self, frequency, budget):
        """Ordered (name, thunk) solve strategies for one frequency.

        In attribution mode every strategy returns the
        ``[total, source…]`` vector instead of a scalar — the whole
        vector comes from one strategy at one discretization, so a
        fallback never mixes solver settings between the total and the
        budget rows (which would break conservation).
        """
        solve_at = (self._psd_vector_at if self._attribution
                    else self._psd_at)
        policy = self.fallback
        if policy is None:
            return [("mft-direct", lambda: solve_at(frequency))]
        strategies = [("mft-direct", lambda: solve_at(
            frequency, condition_limit=policy.condition_limit))]
        if policy.enable_refinement and np.isscalar(
                self.segments_per_phase):
            previous = int(self.segments_per_phase)
            for k in range(1, policy.max_refinements + 1):
                refined = min(int(self.segments_per_phase) * 2 ** k,
                              policy.segments_cap)
                if refined <= previous:
                    break
                previous = refined
                strategies.append((
                    f"mft-refine-{refined}",
                    lambda r=refined: self._refined_solve(
                        r, frequency, policy)))
        if policy.enable_regularized:
            strategies.append(("mft-regularized", lambda: solve_at(
                frequency, solver="lstsq",
                ridge=policy.regularization)))
        if policy.enable_brute_force:
            strategies.append(("brute-force", lambda: self._brute_force_at(
                frequency, policy, budget)))
        return strategies

    def _refined_solve(self, segments, frequency, policy):
        """One refined-grid strategy call (scalar or attribution vector)."""
        refined = self._refined_analyzer(segments)
        if not self._attribution:
            return refined._psd_at(frequency,
                                   condition_limit=policy.condition_limit)
        if refined._context is None:
            raise ReproError(
                "refined attribution solve needs a cached sibling "
                "analyzer (cache=True)")
        return refined._psd_vector_at(
            frequency, condition_limit=policy.condition_limit)

    def _refined_analyzer(self, segments):
        """A sibling analyzer on a denser grid (built once, cached)."""
        analyzer = self._refined.get(segments)
        if analyzer is None:
            logger.info("building refined discretization: %d segments "
                        "per phase", segments)
            analyzer = MftNoiseAnalyzer(
                self.system, segments_per_phase=segments,
                output_row=self.output_row, preflight=False,
                fallback=False, cache=self._context is not None,
                recorder=self.recorder)
            self._refined[segments] = analyzer
        return analyzer

    def _brute_force_at(self, frequency, policy, budget):
        """Terminal fallback: the transient engine at one frequency.

        In attribution mode the total run's convergence horizon is
        replayed per source at fixed period count, so the per-source
        transients sum to the total one by linearity of the integrated
        ODEs (see :func:`repro.noise.brute_force.brute_force_psd`).
        """
        from ..noise.brute_force import brute_force_psd
        kwargs = dict(policy.brute_force_kwargs)
        kwargs.setdefault("segments_per_phase",
                          self.segments_per_phase
                          if np.isscalar(self.segments_per_phase) else 64)
        if (self._context is not None and "context" not in kwargs
                and kwargs["segments_per_phase"]
                == self._context.segments_per_phase):
            kwargs["context"] = self._context
        result = brute_force_psd(self.system, [frequency],
                                 output_row=self.output_row,
                                 budget=budget, recorder=self.recorder,
                                 **kwargs)
        if not self._attribution:
            return float(result.psd[0])
        context = self._context
        periods = result.info["details"][0].periods
        out = np.empty(1 + context.n_sources)
        out[0] = float(result.psd[0])
        kwargs.pop("context", None)
        for s in range(context.n_sources):
            source = brute_force_psd(
                self.system, [frequency], output_row=self.output_row,
                budget=budget, recorder=self.recorder,
                disc=context.source_disc(s), fixed_periods=periods,
                **kwargs)
            out[1 + s] = float(source.psd[0])
        return out

    # -- other observables --------------------------------------------------

    def instantaneous_psd(self, frequency):
        """``S(t, f)`` over one steady-state period at one frequency.

        Double-sided instantaneous PSD samples in V²/Hz."""
        omega = 2.0 * np.pi * float(frequency)
        solution = self._solve(omega)
        values = 2.0 * np.real(solution.post @ self._l_row)
        return InstantaneousPsd(times=solution.grid.copy(), values=values,
                                frequency=float(frequency))

    def cross_spectral_contributions(self, frequency):
        """Period-averaged ``2 Re(q_i)`` per state at one frequency.

        The draft highlights that the method exposes "the relative
        contributions of various portions of the circuit": the i-th entry
        is the cross-spectral density between state ``i`` and the output.
        The entries weighted by ``l`` sum to the output PSD.
        """
        omega = 2.0 * np.pi * float(frequency)
        solution = self._solve(omega)
        integral = solution.integrate_dot()
        return 2.0 * np.real(integral) / self._disc.period

    def _output_name(self):
        names = getattr(self.system, "output_names", None)
        if names:
            return names[self.output_row]
        return f"row{self.output_row}"


def finalize_sweep_values(analyzer, freqs, values, report, solver=None):
    """Clip the total PSD and split off the attribution budget.

    Shared tail of the inline (:meth:`MftNoiseAnalyzer.psd`) and
    executor sweeps.  ``values`` is the raw sweep output: 1-D outside
    attribution mode, ``(n_freq, 1 + n_sources)`` inside it (column 0
    the total, columns 1… the per-source rows).  Returns
    ``(raw_total, clipped_total, budget_or_none)``; the budget rows are
    deliberately **unclipped** so they sum to the unclipped total
    exactly, and a frequency that is NaN in the total is NaN in every
    budget row (whole rows fail together — the NaN-union contract).
    """
    rec = analyzer.recorder
    if values.ndim == 1:
        with rec.span("mft.clip"):
            clipped = clip_negative_psd(freqs, values, report,
                                        logger=logger)
        return values, clipped, None
    raw_total = np.ascontiguousarray(values[:, 0])
    contributions = np.ascontiguousarray(values[:, 1:].T)
    with rec.span("mft.clip"):
        clipped = clip_negative_psd(freqs, raw_total, report,
                                    logger=logger)
    n_sources = contributions.shape[0]
    with rec.span("attribution.budget", n_sources=int(n_sources)):
        from ..metrics import ContributionBudget
        contribution = ContributionBudget(
            frequencies=freqs, labels=list(analyzer._source_labels),
            contributions=contributions, total=raw_total,
            output=analyzer._output_name(), method="mft",
            solver=solver)
    rec.count("attribution.sources", n_sources)
    rec.count("attribution.sweeps")
    return raw_total, clipped, contribution


def _record_budget_failures(freqs, indices, reason, failures, report):
    """Mark the frequencies at ``indices`` as budget-failed."""
    indices = [int(k) for k in indices]
    # scn: ignore[SCN008] - this loop IS the budget-exhaustion
    # bookkeeping: it only records the already-made budget decision
    for k in indices:
        failures.append(FrequencyFailure(
            frequency=float(freqs[k]), index=k, stage="budget",
            error="BudgetExceededError", message=reason))
    report.error(
        "budget-exhausted",
        f"sweep budget spent before {len(indices)} of "
        f"{freqs.size} frequencies: {reason}",
        skipped=len(indices), reason=reason)
    logger.warning("sweep budget spent: skipping %d frequencies (%s)",
                   len(indices), reason)


def mft_psd(system, frequencies, segments_per_phase=64, output_row=0,
            **kwargs):
    """One-call convenience wrapper around :class:`MftNoiseAnalyzer`.

    Returns the averaged double-sided PSD in V²/Hz.

    Keyword arguments (``preflight``, ``fallback``, ``budget``,
    ``cache``, ``context``, ``recorder``) are forwarded to the analyzer
    constructor.
    """
    analyzer = MftNoiseAnalyzer(system,
                                segments_per_phase=segments_per_phase,
                                output_row=output_row, **kwargs)
    return analyzer.psd(frequencies)


# re-exported for backwards compatibility with earlier imports
__all__ = ["InstantaneousPsd", "MftNoiseAnalyzer", "mft_psd",
           "preflight_report"]
