// Reduction parity, the tentpole acceptance matrix: for every benchmark
// circuit class and every engine (serial / fine-grained / pipeline), the
// reduced run's waveform — ports AND back-substituted
// interior probes — must match the serial unreduced baseline within the same
// LTE-scale tolerance the cross-scheme equivalence suite uses.  The reduced
// system takes a DIFFERENT accepted-step sequence (eliminated unknowns leave
// the LTE-controlled vector), so parity is time-interpolated deviation, not
// row-wise equality.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "circuits/generators.hpp"
#include "engine/transient.hpp"
#include "parallel/fine_grained.hpp"
#include "reduce/reduce.hpp"
#include "wavepipe/wavepipe.hpp"

namespace wavepipe::reduce {
namespace {

enum class EngineKind { kSerial, kFineGrained, kPipeline };

const char* EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSerial: return "serial";
    case EngineKind::kFineGrained: return "finegrained";
    case EngineKind::kPipeline: return "pipeline";
  }
  return "?";
}

struct ParityCase {
  const char* circuit;
  EngineKind engine;
  double max_deviation;  ///< absolute volts, every probe
};

circuits::GeneratedCircuit MakeByName(const std::string& name) {
  if (name == "rcladder") return circuits::MakeRcLadder(16);
  if (name == "rcmesh") return circuits::MakeRcMesh(5, 5);
  if (name == "powergrid") return circuits::MakePowerGrid(8, 8);
  if (name == "parladder") return circuits::MakeParasiticLadder(3, 6);
  throw std::logic_error("unknown circuit " + name);
}

engine::Trace RunReducedTrace(const std::string& name, EngineKind kind,
                              ReductionStats* stats_out) {
  auto gen = MakeByName(name);
  auto result = Reduce(std::move(gen.circuit));
  RemapSpec(result, gen.spec);
  if (stats_out) *stats_out = result.stats;

  const engine::MnaStructure mna(*result.circuit);
  switch (kind) {
    case EngineKind::kSerial: {
      auto run = engine::RunTransientSerial(*result.circuit, mna, gen.spec, {});
      EXPECT_TRUE(run.completed) << run.abort_reason;
      return run.trace;
    }
    case EngineKind::kFineGrained: {
      parallel::FineGrainedOptions options;
      options.threads = 3;
      auto run = parallel::RunTransientFineGrained(*result.circuit, mna, gen.spec, options);
      EXPECT_TRUE(run.completed) << run.abort_reason;
      return run.trace;
    }
    case EngineKind::kPipeline: {
      pipeline::WavePipeOptions options;
      options.scheme = pipeline::Scheme::kCombined;
      options.threads = 3;
      auto run = pipeline::RunWavePipe(*result.circuit, mna, gen.spec, options);
      EXPECT_TRUE(run.completed) << run.abort_reason;
      return run.trace;
    }
  }
  throw std::logic_error("unreachable");
}

class ReduceParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ReduceParityTest, ReducedWaveformMatchesUnreducedSerial) {
  const ParityCase& param = GetParam();

  // Baseline: serial, UNREDUCED.
  const auto base_gen = MakeByName(param.circuit);
  const engine::MnaStructure base_mna(*base_gen.circuit);
  const auto baseline =
      engine::RunTransientSerial(*base_gen.circuit, base_mna, base_gen.spec, {});
  ASSERT_TRUE(baseline.completed) << baseline.abort_reason;

  ReductionStats stats;
  const engine::Trace reduced =
      RunReducedTrace(param.circuit, param.engine, &stats);
  ASSERT_GT(stats.nodes_eliminated, 0u)
      << param.circuit << " must actually engage the reduction pass";
  ASSERT_EQ(reduced.probes().size(), baseline.trace.probes().size());

  for (std::size_t p = 0; p < reduced.probes().size(); ++p) {
    EXPECT_LT(engine::Trace::MaxDeviation(baseline.trace, reduced, p),
              param.max_deviation)
        << param.circuit << " " << EngineName(param.engine) << " probe "
        << baseline.trace.probes().names[p];
  }
}

// Every benchmark probe set includes at least one node the pass eliminates
// (rcladder's far end, parladder's mid-wire tap, ...), so each row below also
// exercises back-substituted interior waveforms through that engine.
//
// Tolerances follow the equivalence suite: 0.02 V for the linear classes;
// the MOS parasitic ladder under the speculative pipeline gets the same
// 0.15 V bar as the inverter chain there.
INSTANTIATE_TEST_SUITE_P(
    AllEngines, ReduceParityTest,
    ::testing::Values(
        ParityCase{"rcladder", EngineKind::kSerial, 0.02},
        ParityCase{"rcladder", EngineKind::kFineGrained, 0.02},
        ParityCase{"rcladder", EngineKind::kPipeline, 0.02},
        ParityCase{"rcmesh", EngineKind::kSerial, 0.02},
        ParityCase{"rcmesh", EngineKind::kFineGrained, 0.02},
        ParityCase{"rcmesh", EngineKind::kPipeline, 0.02},
        ParityCase{"powergrid", EngineKind::kSerial, 0.02},
        ParityCase{"powergrid", EngineKind::kFineGrained, 0.02},
        ParityCase{"powergrid", EngineKind::kPipeline, 0.02},
        ParityCase{"parladder", EngineKind::kSerial, 0.05},
        ParityCase{"parladder", EngineKind::kFineGrained, 0.05},
        ParityCase{"parladder", EngineKind::kPipeline, 0.15}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(info.param.circuit) + "_" + EngineName(info.param.engine) +
             "_p0";
    });

// Same engine, same circuit, --reduce twice: traces must be bit-identical.
// (Reduction is deterministic; any nondeterminism here would also break
// checkpoint/resume of reduced runs.)
TEST(ReduceDeterminism, ReducedRunsAreBitIdentical) {
  for (const char* name : {"rcladder", "parladder"}) {
    ReductionStats s1, s2;
    const auto t1 = RunReducedTrace(name, EngineKind::kSerial, &s1);
    const auto t2 = RunReducedTrace(name, EngineKind::kSerial, &s2);
    EXPECT_EQ(s1.nodes_eliminated, s2.nodes_eliminated) << name;
    ASSERT_EQ(t1.num_samples(), t2.num_samples()) << name;
    for (std::size_t i = 0; i < t1.num_samples(); ++i) {
      ASSERT_EQ(t1.time(i), t2.time(i)) << name << " sample " << i;
      for (std::size_t p = 0; p < t1.probes().size(); ++p) {
        ASSERT_EQ(t1.value(i, p), t2.value(i, p)) << name << " sample " << i;
      }
    }
  }
}

}  // namespace
}  // namespace wavepipe::reduce
