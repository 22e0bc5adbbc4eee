// Parameterized benchmark-circuit generators.
//
// These stand in for the proprietary netlists of the paper's evaluation (see
// DESIGN.md, "Environment substitutions"): the same circuit classes —
// linear interconnect grids, digital gate chains, oscillators, rectifiers,
// analog amplifier stages — with sizes as knobs so experiments sweep them.
// Every generator returns a finalized circuit plus the transient window it
// is meant to be simulated over.
#pragma once

#include <memory>
#include <string>

#include "devices/mosfet.hpp"
#include "engine/circuit.hpp"
#include "engine/transient.hpp"

namespace wavepipe::circuits {

struct GeneratedCircuit {
  std::unique_ptr<engine::Circuit> circuit;
  std::string name;
  std::string kind;  ///< "linear", "digital", "analog", or "mixed"
  engine::TransientSpec spec;
};

/// Generic ~1um CMOS models used by all MOS-based generators.
devices::MosfetModel DefaultNmos();
devices::MosfetModel DefaultPmos();

/// Series RC ladder (`stages` sections) driven by a PULSE voltage source:
/// the canonical linear transmission-line stand-in.
GeneratedCircuit MakeRcLadder(int stages, double r_ohm = 100.0, double c_farad = 1e-12);

/// rows x cols RC mesh: resistive grid, capacitor to ground at every node,
/// a VDD source at the corner and PULSE current loads sprinkled across the
/// grid (seeded) — a small power-delivery network.
GeneratedCircuit MakeRcMesh(int rows, int cols, unsigned seed = 1,
                            double r_ohm = 10.0, double c_farad = 0.5e-12,
                            int num_loads = -1);

/// Power-delivery grid: an RC mesh with a tighter resistive fabric (1 ohm
/// segments), 1 pF decap per node and one switching load per ~256 nodes.
/// Same topology as MakeRcMesh, renamed and re-tuned so large linear-grid
/// experiments (the measured benchmark's 64x64 powergrid) do not disturb
/// the rcmesh benchmark points.
GeneratedCircuit MakePowerGrid(int rows, int cols, unsigned seed = 1);

/// N-stage (odd) CMOS ring oscillator with explicit load capacitors and a
/// startup kick current pulse on stage 0.
GeneratedCircuit MakeRingOscillator(int stages, double vdd = 2.5, double cload = 5e-15);

/// CMOS inverter chain driven by a PULSE clock, load capacitor per stage —
/// the "digital gate chain" workload.
GeneratedCircuit MakeInverterChain(int stages, double vdd = 2.5, double cload = 10e-15);

/// CMOS inverter chain whose stage-to-stage wires are parasitic RC ladders
/// (`taps` R/C sections per wire): the linear-subnetwork-reduction workload.
/// Every ladder interior node touches only resistors and capacitors, so
/// --reduce eliminates taps-1 nodes per wire while the MOSFET-anchored stage
/// nodes survive as ports.  The probe set includes a mid-ladder interior node
/// to exercise back-substituted interior expansion.
GeneratedCircuit MakeParasiticLadder(int stages, int taps, double vdd = 2.5,
                                     double r_ohm = 50.0, double c_farad = 2e-15);

/// Full-wave diode bridge rectifier with RC smoothing, driven by a SIN
/// source; optionally `ladder_sections` of RC filtering after the bridge.
GeneratedCircuit MakeDiodeRectifier(int ladder_sections = 4, double freq = 1e6);

/// Chain of common-source MOS amplifier stages, RC-coupled, SIN input —
/// the "analog" workload.
GeneratedCircuit MakeMosAmplifierChain(int stages, double freq = 10e6);

/// Binary clock H-tree of depth `levels`: RC wire segments with a CMOS
/// buffer (two cascaded inverters) at every branch point, PULSE clock root,
/// leaf load capacitors.  Mixed digital/interconnect workload.
GeneratedCircuit MakeClockTree(int levels, double vdd = 2.5);

/// All paper-scale benchmark circuits (Table 1 set), by reconstruction.
std::vector<GeneratedCircuit> MakeBenchmarkSuite();

}  // namespace wavepipe::circuits
