"""Seeded SPICE deck generators for the three benchmark workloads.

Each generator returns the deck text; the simulator only ever sees that
text.  The topologies mirror the repository's circuit generators
(`circuits::MakePowerGrid`, `MakeInverterChain`, `MakeRingOscillator`), so a
deck elaborates to the same unknown count as its generator counterpart.

The seed moves load currents, clock timing or the kick time, within narrow
ranges.  The amount of simulation work stays the same from seed to seed, and
so does each configuration's error, which in some inputs jumps with any
change to the circuit (see `powergrid`).
"""

import math
import random

# Generic ~1um CMOS models, the same values as circuits::DefaultNmos/Pmos.
MODELS = (
    ".model nch NMOS (vto=0.7 kp=120u gamma=0.45 phi=0.65 lambda=0.04 "
    "tox=10n cgso=0.3n cgdo=0.3n)\n"
    ".model pch PMOS (vto=-0.8 kp=40u gamma=0.5 phi=0.65 lambda=0.05 "
    "tox=10n cgso=0.3n cgdo=0.3n)\n"
)

VDD = 2.5
KP_N, VTO_N = 120e-6, 0.7


def _stage_delay(cload):
    """Rough inverter delay C*Vdd/Idsat, as the C++ generators compute it."""
    idsat = 0.5 * KP_N * 2.0 * (VDD - VTO_N) ** 2
    return (cload + 15e-15) * VDD / idsat


def _inverter(lines, tag, inp, out):
    lines.append(f"mp{tag} {out} {inp} vdd vdd pch W=4u L=1u")
    lines.append(f"mn{tag} {out} {inp} 0 0 nch W=2u L=1u")


def powergrid(seed, rows=64, cols=64, loads=16, groups=2, peak=2e-3, tstop=6e-9):
    """RC power-delivery mesh (1 ohm fabric, 1 pF decap per node) fed at one
    corner, with `loads` switching current loads at the centres of the cells
    of a square lattice.  The loads switch in `groups` groups on a fixed
    schedule.  The seed sets each load's peak current within 0.01% of
    `peak`.

    The placement is fixed on purpose: with loads placed at random, the
    combined scheme's error moved between 0.09 and 0.9 of swing from one
    placement to the next, far more than any bound on it could allow."""
    rng = random.Random(seed)
    lines = [f"powergrid{rows}x{cols} seed {seed}"]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                lines.append(f"rh{r}_{c} g{r}_{c} g{r}_{c + 1} 1")
            if r + 1 < rows:
                lines.append(f"rv{r}_{c} g{r}_{c} g{r + 1}_{c} 1")
            lines.append(f"cg{r}_{c} g{r}_{c} 0 1p")
    lines.append("vdd vddpin 0 DC 1.8")
    lines.append("rspread vddpin g0_0 0.1")
    side = math.isqrt(loads)
    slot = tstop / (groups + 2)
    for k in range(loads):
        cell_r, cell_c = divmod(k, side)
        r = (2 * cell_r + 1) * rows // (2 * side)
        c = (2 * cell_c + 1) * cols // (2 * side)
        amp = peak * rng.uniform(0.9999, 1.0001)
        delay = (k % groups + 1) * slot
        lines.append(f"iload{k} g{r}_{c} 0 DC 0 PULSE(0 {amp:.9g} {delay:.6g} {slot / 8:.6g} "
                     f"{slot / 8:.6g} {slot:.6g} {tstop:.6g})")
    probes = [(rows - 1, cols - 1), (rows // 2, cols // 2), (rows - 1, 0), (0, cols - 1)]
    lines.append(f".tran {tstop / 200:.6g} {tstop:.6g}")
    lines.append(".print " + " ".join(f"v(g{r}_{c})" for r, c in probes))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def invchain(seed, stages=400, cload=10e-15, periods=1.0):
    """CMOS inverter chain driven by a PULSE clock; the seed jitters the
    clock's delay, edge time and width by up to 0.05% (at 10%, serial's own
    error moved by 20% between seeds).  Probes every quarter of the chain."""
    rng = random.Random(seed)
    delay = _stage_delay(cload)
    period = max(40.0 * delay, 4.0 * stages * delay)
    td = period * 0.1 * rng.uniform(0.9995, 1.0005)
    edge = period / 100 * rng.uniform(0.9995, 1.0005)
    width = period * 0.4 * rng.uniform(0.9995, 1.0005)
    lines = [f"invchain{stages} seed {seed}", MODELS.rstrip("\n")]
    lines.append(f"vdd vdd 0 DC {VDD}")
    lines.append(f"vin in 0 DC 0 PULSE(0 {VDD} {td:.6g} {edge:.6g} {edge:.6g} "
                 f"{width:.6g} {period:.6g})")
    prev = "in"
    for i in range(stages):
        _inverter(lines, i, prev, f"x{i}")
        lines.append(f"cl{i} x{i} 0 {cload:.6g}")
        prev = f"x{i}"
    lines.append(f".tran {period / 100:.6g} {periods * period:.6g}")
    taps = sorted({stages * k // 4 - 1 for k in range(1, 5)} - {-1})
    lines.append(".print " + " ".join(f"v(x{i})" for i in taps))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def ringosc(seed, stages=51, cload=5e-15, periods=15):
    """Odd CMOS ring oscillator started by a kick current pulse on stage 0;
    the seed sets the kick time.  Runs `periods` nominal periods."""
    rng = random.Random(seed)
    delay = _stage_delay(cload)
    period = 2.0 * stages * delay
    kick = rng.uniform(5e-12, 50e-12)
    lines = [f"ringosc{stages} seed {seed}", MODELS.rstrip("\n")]
    lines.append(f"vdd vdd 0 DC {VDD}")
    for i in range(stages):
        out = f"s{(i + 1) % stages}"
        _inverter(lines, i, f"s{i}", out)
        lines.append(f"cl{i} {out} 0 {cload:.6g}")
    lines.append(f"ikick 0 s0 PULSE(0 200u {kick:.6g} 5p 5p 100p 1)")
    lines.append(f".tran {period / 40:.6g} {periods * period:.6g}")
    lines.append(".print v(s0)")
    lines.append(".end")
    return "\n".join(lines) + "\n"


WORKLOADS = {"powergrid": powergrid, "invchain": invchain, "ringosc": ringosc}

# Reduced sizes for the smoke mode of the self-test: every workload and
# configuration end to end in seconds.
SMOKE = {
    "powergrid": dict(rows=8, cols=8, loads=4, groups=2),
    "invchain": dict(stages=12),
    "ringosc": dict(stages=5, periods=4),
}


def generate(workload, seed, smoke=False):
    kwargs = SMOKE[workload] if smoke else {}
    return WORKLOADS[workload](seed, **kwargs)
