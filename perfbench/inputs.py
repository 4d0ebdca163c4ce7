"""Seeded input generators for the three benchmark workloads.

Everything the program under test receives — netlist text, component
values, frequency grids and request order — is produced here from the
workload name and the ``--seed`` argument, with :class:`random.Random`
only (no numpy, no clock), so one seed always yields byte-identical
inputs (see :func:`encode`).  The *structure* of each workload (how many
requests of which class, grid sizes, ladder sizes) is fixed; the seed
only draws component values, grid end points and order.  That keeps the
amount of work per round the same for every seed, which is what makes
runs with different seeds comparable.

Why each workload exists, and which layer it loads or bypasses, is
written next to its generator and in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("design-sweep", "service-stream", "ladder-scale")

#: Noise-intensity corners shared by every corner family: temperature
#: scaling T/300 K for 250 K and 340 K, plus a 25 % worst-case budget.
INTENSITIES = {"cold": 250.0 / 300.0, "nom": 1.0, "hot": 340.0 / 300.0,
               "wc": 1.25}

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{int(seed)}")


def linear_grid(f_lo: float, f_hi: float, n: int) -> "list[float]":
    """``n`` evenly spaced frequencies from ``f_lo`` to ``f_hi`` [Hz]."""
    step = (f_hi - f_lo) / (n - 1)
    return [f_lo + step * k for k in range(n)]


# -- design-sweep -----------------------------------------------------------
#
# A designer's kernel-heavy session on the paper's three circuits.  One
# request characterises one circuit: a fresh context, one dense nominal
# sweep at the default solver, then 16-corner families (4 dynamics roots
# x 4 noise intensities) over every 8th point of that grid.  The
# low-pass, the paper's headline circuit, gets a second family: the
# fixed process cross C1 -/+10 %, C2 +10 %.  The three requests cost
# about the same, so the latency percentiles fall inside one mode
# rather than on the edge between a fast and a slow request type.  The
# grids are fixed, so the worst discretization error (sampled on a peak
# near 2 f_clk) does not depend on where the seed puts grid points; the
# seed draws the mismatch roots and the request order.  No
# parsing, queue or store: this is the no-change control for service
# and results changes, and the workload where kernel changes show first.

DESIGN_POINTS = 256
DESIGN_CORNER_STRIDE = 8

#: Relative sigma of the seeded mismatch draws (matched capacitors and
#: switches are within about 1 % of each other).
MISMATCH_SIGMA = 0.01

#: name -> (builder, params class, mismatch fields, nominal band [Hz]).
DESIGN_CIRCUITS = {
    "switched-rc": ("switched_rc_system", "SwitchedRcParams",
                    ("resistance", "capacitance"), (100.0, 40e3)),
    "sc-lowpass": ("sc_lowpass_system", "ScLowpassParams",
                   ("c1", "c2", "c3"), (100.0, 12e3)),
    "sc-bandpass": ("sc_bandpass_system", "ScBandpassParams",
                    ("c_integrate", "ron"), (1e3, 50e3)),
}

#: The fixed low-pass process cross (factors on the nominal values).
LOWPASS_PROCESS_CROSS = {"c1lo": {"c1": 0.9}, "c1hi": {"c1": 1.1},
                         "c2hi": {"c2": 1.1}}


def design_sweep(seed: int) -> "dict":
    rng = _rng("design-sweep", seed)
    requests = []
    for name, (builder, params, fields, (lo, hi)) in DESIGN_CIRCUITS.items():
        grid = linear_grid(lo, hi, DESIGN_POINTS)
        mismatch = {"nom": {}}
        for k in range(3):
            mismatch[f"mc{k}"] = {
                field: 1.0 + MISMATCH_SIGMA * rng.gauss(0.0, 1.0)
                for field in fields}
        families = {"mismatch": mismatch}
        if name == "sc-lowpass":
            families["process"] = dict({"nom": {}}, **LOWPASS_PROCESS_CROSS)
        requests.append({"circuit": name, "builder": builder,
                         "params": params, "grid": grid,
                         "corner_grid": grid[::DESIGN_CORNER_STRIDE],
                         "families": families,
                         "intensities": dict(INTENSITIES)})
    rng.shuffle(requests)
    return {"workload": "design-sweep", "seed": int(seed),
            "requests": requests}


# -- service-stream ---------------------------------------------------------
#
# Netlist-text requests through parse -> JobSpec -> serial JobQueue over
# a sqlite store -> JSON encode/decode.  Per round: 15 circuits (5 each
# of switched RC, SC low-pass and SC gain stage, seeded values) and 45
# requests, one of each class per circuit, so every class has a share of
# 1/3, well away from 10 % and 50 %: cold (new circuit), new-grid (same
# circuit, new grid: registry hit, store miss) and exact repeat of one of
# the two (store hit).  Each family's 10 computed jobs use the same
# spread of grid sizes (16..64 points), assigned in seeded order; every
# other size of that spread is the one a repeat copies, so the repeats
# of every seed add up to the same number of points.  Loads
# repro.circuit, repro.service and repro.results, which design-sweep
# bypasses.

SERVICE_FAMILIES = ("switched-rc", "sc-lowpass", "sc-gain")
SERVICE_PER_FAMILY = 5
SERVICE_MIN_POINTS = 16
SERVICE_MAX_POINTS = 64

SWITCHED_RC_TEXT = """* switched RC track/hold
Vin  in   0    0
S1   in   a    phi1  ron={ron:.6g}
R1   a    out  {r:.6g}
C1   out  0    {c:.6g}
.clock f={f:.6g} phases=phi1,phi2 duty={duty:.6g}
.output out
.end
"""

SC_LOWPASS_TEXT = """* damped SC integrator low-pass
Vin  vin   0     0
C1   a     0     {c1:.6g}
S1   vin   a     phi1  ron={ron:.6g}
S4   a     vsum  phi2  ron={ron:.6g}
C3   c     0     {c3:.6g}
S5   c     vout  phi1  ron={ron:.6g}
S6   c     vsum  phi2  ron={ron:.6g}
C2   vsum  vout  {c2:.6g}
OPAMP_SF op 0 vsum vout wu={wu:.6g} noise=7.08e-7
.clock f={f:.6g} phases=phi1,phi2 duty=0.5
.output vout
.end
"""

SC_GAIN_TEXT = """* SC gain stage with damping branch
Vin  in    0    0
S1   in    a    phi1  ron={ron:.6g}
Cs   a     0    {cs:.6g}
S2   a     vg   phi2  ron={ron:.6g}
Cf   vg    out  {cf:.6g}
S3   b     out  phi1  ron={ron:.6g}
S4   b     vg   phi2  ron={ron:.6g}
Cd   b     0    {cd:.6g}
OPAMP_SF op1 0 vg out wu={wu:.6g} noise=4.0e-16
.clock f={f:.6g} phases=phi1,phi2 duty=0.5
.output out
.end
"""


def _spread(rng: random.Random, nominal: float, rel: float = 0.02) -> float:
    return nominal * rng.uniform(1.0 - rel, 1.0 + rel)


def _service_circuit(rng: random.Random, family: str,
                     stratum: float) -> "dict":
    """One circuit: netlist text plus the clock its grids are scaled to.

    ``stratum`` (0.9 .. 1.1, one per circuit of a family) scales the
    value that sets the circuit's bandwidth; the seed jitters the other
    values by 2 %, so every seed gets the same spread of circuits.
    """
    if family == "switched-rc":
        f = _spread(rng, 10e3)
        text = SWITCHED_RC_TEXT.format(
            ron=_spread(rng, 200.0), r=_spread(rng, 10e3),
            c=10e-9 * stratum, f=f, duty=_spread(rng, 0.5))
    elif family == "sc-lowpass":
        f = _spread(rng, 4e3)
        text = SC_LOWPASS_TEXT.format(
            c1=_spread(rng, 300e-12), c2=100e-12 * stratum,
            c3=_spread(rng, 100e-12), ron=_spread(rng, 80.0),
            wu=_spread(rng, 28.3e6), f=f)
    else:
        f = _spread(rng, 100e3)
        text = SC_GAIN_TEXT.format(
            ron=_spread(rng, 200.0), cs=_spread(rng, 400e-12),
            cf=100e-12 * stratum, cd=_spread(rng, 20e-12),
            wu=_spread(rng, 62.8e6), f=f)
    return {"family": family, "text": text, "f_clock": f}


def _service_grid(rng: random.Random, f_clock: float, n: int) -> "list[float]":
    return linear_grid(f_clock * rng.uniform(0.02, 0.04),
                       f_clock * rng.uniform(2.15, 2.3), n)


def service_stream(seed: int) -> "dict":
    rng = _rng("service-stream", seed)
    strata = [0.9 + 0.2 * k / (SERVICE_PER_FAMILY - 1)
              for k in range(SERVICE_PER_FAMILY)]
    circuits = [_service_circuit(rng, family, stratum)
                for family in SERVICE_FAMILIES for stratum in strata]
    rng.shuffle(circuits)
    n_jobs = 2 * SERVICE_PER_FAMILY
    spread = [SERVICE_MIN_POINTS + round(
        (SERVICE_MAX_POINTS - SERVICE_MIN_POINTS) * k / (n_jobs - 1))
        for k in range(n_jobs)]
    # Per family: the sizes of the jobs that will be repeated, and of the
    # others, each in seeded order.
    sizes = {}
    for family in SERVICE_FAMILIES:
        repeated, other = spread[0::2], spread[1::2]
        rng.shuffle(repeated)
        rng.shuffle(other)
        sizes[family] = (repeated, other)
    # Each circuit appears three times; its first request is cold, its
    # second a new grid, its third a repeat of one of the two (seeded).
    plans = {}
    for index, circuit in enumerate(circuits):
        repeated, other = sizes[circuit["family"]]
        sizes_of = [repeated.pop(), other.pop()]
        source = rng.randrange(2)  # repeat the cold (0) or new-grid job
        if source:
            sizes_of.reverse()
        plans[index] = (sizes_of, source)
    order = [index for index in range(len(circuits)) for _ in range(3)]
    rng.shuffle(order)
    requests: "list[dict]" = []
    jobs: "dict[int, list[dict]]" = {}
    for index in order:
        done = jobs.setdefault(index, [])
        if len(done) == 2:
            requests.append({"class": "repeat", "circuit": index,
                             "grid": done[plans[index][1]]["grid"]})
            continue
        circuit = circuits[index]
        request = {"class": "grid" if done else "cold", "circuit": index,
                   "grid": _service_grid(rng, circuit["f_clock"],
                                         plans[index][0][len(done)])}
        done.append(request)
        requests.append(request)
    return {"workload": "service-stream", "seed": int(seed),
            "circuits": circuits, "requests": requests}


# -- ladder-scale -----------------------------------------------------------
#
# Seeded passive switched-RC ladders (switch + leak resistor + capacitor
# per section) with 16..32 states at the default solver.  The paper's
# circuits have <= 8 states, where Python overhead dominates; here dense
# MNA, Van Loan blocks, eigenbases and (n_freq, n, n) stacks dominate, so
# a kernel change that wins at small n but costs at large n shows.  The
# five (states, points) strata are fixed; smaller ladders get more points
# so every job costs about the same.  Every round empties the context
# registry, so each job builds its context from scratch.

LADDER_STRATA = ((16, 128), (20, 112), (24, 96), (28, 80), (32, 64))


def ladder_text(rng: random.Random, n_sections: int, f_clock: float) -> str:
    lines = [f"* passive switched-RC ladder, {n_sections} sections",
             "Vin  in  0  0",
             f"R0   in  n1  {_spread(rng, 10e3):.6g}"]
    for k in range(1, n_sections + 1):
        lines.append(f"C{k}  n{k}  0  {rng.uniform(0.5e-12, 5e-12):.6g}")
        lines.append(f"RL{k} n{k}  0  {rng.uniform(200e3, 1e6):.6g}")
        if k < n_sections:
            phase = "phi1" if k % 2 else "phi2"
            lines.append(f"S{k}  n{k}  n{k + 1}  {phase}  "
                         f"ron={rng.uniform(1e3, 5e3):.6g}")
    lines.append(f".clock f={f_clock:.6g} phases=phi1,phi2 duty=0.5")
    lines.append(f".output n{n_sections}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def ladder_scale(seed: int) -> "dict":
    rng = _rng("ladder-scale", seed)
    requests = []
    for n_sections, n_points in LADDER_STRATA:
        f_clock = _spread(rng, 1e6)
        requests.append({
            "states": n_sections,
            "text": ladder_text(rng, n_sections, f_clock),
            "grid": linear_grid(f_clock * rng.uniform(1e-3, 1e-2),
                                f_clock * rng.uniform(1.2, 2.0), n_points),
        })
    rng.shuffle(requests)
    return {"workload": "ladder-scale", "seed": int(seed),
            "requests": requests}


GENERATORS = {"design-sweep": design_sweep,
              "service-stream": service_stream,
              "ladder-scale": ladder_scale}


def generate(workload: str, seed: int) -> "dict":
    """The seeded inputs of one workload (JSON-ready)."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: "
                         f"{list(GENERATORS)}")
    return GENERATORS[workload](seed)


def encode(inputs: "dict") -> bytes:
    """Canonical bytes of generated inputs (floats in repr form)."""
    return json.dumps(inputs, sort_keys=True).encode()
