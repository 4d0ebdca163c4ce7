"""The unified solver registry for noise PSD computation.

Every PSD entry point — ``NoiseAnalysis.psd``/``psd_sweep``,
``MftNoiseAnalyzer.psd``/``psd_sweep``, ``SweepExecutor`` and the
service's ``JobSpec`` — accepts one ``solver=`` keyword naming the
engine:

``"spectral-batch"``
    The frequency-batched spectral kernel (eigenbasis per group, scalar
    φ-integrals, one batched ``(I − e^{-jωT}M₀)`` solve per ω-block),
    with per-frequency rescue through the fallback chain. The default
    wherever a shared sweep context exists.
``"mft"``
    Per-frequency mixed-frequency-time solve with the full fallback
    chain — the per-ω reference the batched kernel is checked against.
    It is what ``None`` means for an analyzer built with ``cache=False``,
    which has no sweep context to batch over.
``"brute-force"``
    Long-transient time-domain reference (delegates to
    :func:`repro.noise.brute_force.brute_force_psd`).
``"monte-carlo"``
    Stochastic trajectory-ensemble estimate (delegates to
    :func:`repro.baselines.montecarlo.monte_carlo_psd`). Defines its own
    Welch frequency grid, so it rejects an explicit frequency list.

This module deliberately imports no engine code — the registry is the
shared vocabulary, dispatch lives with the analyzers — so it sits below
``repro.mft``/``repro.analysis`` without import cycles.
"""

from __future__ import annotations

from ..errors import ReproError

__all__ = ["DEFAULT_SOLVER", "SOLVERS", "resolve_solver"]

#: The blessed solver names, in documentation order.
SOLVERS: tuple[str, ...] = (
    "mft", "spectral-batch", "brute-force", "monte-carlo")

#: What ``solver=None`` resolves to wherever a sweep context exists.
DEFAULT_SOLVER = "spectral-batch"


def resolve_solver(solver: str | None, cached: bool = True) -> str:
    """Normalise a ``solver=`` value to one canonical registry name.

    ``None`` means "the default engine": :data:`DEFAULT_SOLVER` when the
    caller has a shared sweep context (``cached=True``), and the per-ω
    ``"mft"`` reference when it has none (an analyzer built with
    ``cache=False``).  Anything not in :data:`SOLVERS` raises
    :class:`ReproError` listing the valid choices.
    """
    if solver is None:
        return DEFAULT_SOLVER if cached else "mft"
    if not isinstance(solver, str):
        raise ReproError(
            f"solver must be a string or None, got {type(solver).__name__}; "
            f"valid choices: {', '.join(SOLVERS)}")
    name = solver.strip().lower()
    if name not in SOLVERS:
        raise ReproError(
            f"unknown solver {solver!r}; valid choices: "
            f"{', '.join(SOLVERS)}")
    return name
