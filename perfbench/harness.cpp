// wpbench: the measuring half of the WavePipe benchmark (run.py drives it).
//
// The harness calls only the simulator's public functions.  Every per-layer
// number is taken from outside: spans around those calls, plus the counters
// the calls return.  Nothing inside src/ is instrumented for it.
//
//   wpbench reference <deck> <out.wave>
//       The accuracy oracle's reference: the serial engine with reltol,
//       vntol and abstol divided by 100 and hmax = span/2000.
//   wpbench measure <seconds> <out-dir> <deck>
//       Untraced timing: rounds of setup repeats, serial, bwp and combined
//       until <seconds> have elapsed, at least two rounds.
//   wpbench layers <seconds> <out-dir> <deck>
//       Traced run: spans around each public call, per-layer samples and
//       counters, and the span log written to <out-dir>/spans.json.
//   wpbench unknowns <deck> <workload>
//       Unknown counts of the deck and of its circuits::Make* counterpart
//       at the benchmark size (the deck generator's self-test).
//
// Output is one JSON object per line on stdout; run.py turns the raw
// samples into fastest times, medians, errors and failure counts.  Waveforms
// go to <out-dir>/<config>-<hash>.wave, once per distinct waveform hash.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "batch/runner.hpp"
#include "circuits/generators.hpp"
#include "engine/dcop.hpp"
#include "engine/mna.hpp"
#include "engine/newton.hpp"
#include "engine/transient.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/parser.hpp"
#include "reduce/reduce.hpp"
#include "sparse/lu.hpp"
#include "sparse/ordering.hpp"
#include "wavepipe/virtual_pipeline.hpp"
#include "wavepipe/wavepipe.hpp"

using namespace wavepipe;

namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpu() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- span recorder -----------------------------------------------------------

struct Span {
  std::string layer;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span log.  Spans nest; a layer's self time is the time of its
/// spans minus the time of their direct children.
class Recorder {
 public:
  bool enabled = false;

  int Open(const char* layer, const char* name) {
    if (!enabled) return -1;
    spans_.push_back({layer, name, Now(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void Close(int id) {
    if (id < 0) return;
    spans_[id].end = Now();
    open_ = spans_[id].parent;
  }

  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

  void WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   i ? "," : "", s.name.c_str(), s.layer.c_str(), (s.start - t0) * 1e6,
                   (s.end - s.start) * 1e6);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

Recorder g_recorder;

class Scoped {
 public:
  Scoped(const char* layer, const char* name) : id_(g_recorder.Open(layer, name)) {}
  ~Scoped() { g_recorder.Close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int id_;
};

/// Times `fn` under a span; returns wall seconds.
template <typename Fn>
double Timed(const char* layer, const char* name, Fn&& fn) {
  Scoped span(layer, name);
  const double t0 = Now();
  fn();
  return Now() - t0;
}

// ---- output helpers ------------------------------------------------------------

std::string Samples(const std::vector<double>& v) {
  std::string s = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

/// Wave file: "WPW1", uint32 samples, uint32 probes, times, then values
/// (sample-major), all little-endian doubles.
bool WriteWave(const engine::Trace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::uint32_t n = static_cast<std::uint32_t>(trace.num_samples());
  const std::uint32_t p = static_cast<std::uint32_t>(trace.probes().size());
  std::fwrite("WPW1", 1, 4, f);
  std::fwrite(&n, sizeof n, 1, f);
  std::fwrite(&p, sizeof p, 1, f);
  for (std::uint32_t i = 0; i < n; ++i) {
    const double t = trace.time(i);
    std::fwrite(&t, sizeof t, 1, f);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t k = 0; k < p; ++k) {
      const double v = trace.value(i, k);
      std::fwrite(&v, sizeof v, 1, f);
    }
  }
  return std::fclose(f) == 0;
}

// ---- configurations ----------------------------------------------------------

struct Loaded {
  netlist::ElaboratedCircuit elab;
  std::unique_ptr<engine::MnaStructure> mna;
};

Loaded Load(const std::string& deck) {
  Loaded l;
  l.elab = netlist::LoadDeckFile(deck);
  l.mna = std::make_unique<engine::MnaStructure>(*l.elab.circuit);
  return l;
}

const char* const kConfigs[] = {"serial", "bwp", "combined"};
constexpr int kMinRounds = 2;  ///< the determinism check needs a repeat

pipeline::WavePipeOptions PipeOptions(const std::string& config, const engine::SimOptions& sim) {
  pipeline::WavePipeOptions o;
  o.sim = sim;
  if (config == "bwp") {
    o.scheme = pipeline::Scheme::kBackward;
    o.threads = 2;
  } else {
    o.scheme = pipeline::Scheme::kCombined;
    o.threads = 4;
    o.spec_policy.mode = pipeline::SpecPolicyMode::kAdaptive;
  }
  return o;
}

/// Everything one timed run reports.
struct RunRecord {
  std::string config;
  double wall = 0.0;
  double cpu = 0.0;
  bool completed = false;
  std::string abort_reason;
  std::uint64_t hash = 0;
  engine::TransientStats stats;
  pipeline::PipelineSchedStats sched;
  double modeled_makespan_iters = 0.0;  ///< replayed on the config's threads
  engine::Trace trace;
};

RunRecord RunConfig(const Loaded& l, const std::string& config, bool replay) {
  RunRecord r;
  r.config = config;
  const engine::Circuit& circuit = *l.elab.circuit;
  if (config == "serial") {
    Scoped span("engine", "RunTransientSerial");
    const double c0 = ProcessCpu();
    const double t0 = Now();
    engine::TransientResult res =
        engine::RunTransientSerial(circuit, *l.mna, l.elab.spec, l.elab.sim_options);
    r.wall = Now() - t0;
    r.cpu = ProcessCpu() - c0;
    r.completed = res.completed;
    r.abort_reason = res.abort_reason;
    r.stats = res.stats;
    r.trace = std::move(res.trace);
  } else {
    const pipeline::WavePipeOptions options = PipeOptions(config, l.elab.sim_options);
    pipeline::WavePipeResult res;
    {
      Scoped span("wavepipe", "RunWavePipe");
      const double c0 = ProcessCpu();
      const double t0 = Now();
      res = pipeline::RunWavePipe(circuit, *l.mna, l.elab.spec, options);
      r.wall = Now() - t0;
      r.cpu = ProcessCpu() - c0;
    }
    r.completed = res.completed;
    r.abort_reason = res.abort_reason;
    r.stats = res.stats;
    r.sched = res.sched;
    if (replay) {
      Scoped span("wavepipe", "ReplayOnWorkers");
      r.modeled_makespan_iters =
          pipeline::ReplayOnWorkers(res.ledger, options.threads,
                                    pipeline::ReplayCost::kNewtonIterations)
              .makespan_seconds;
    }
    r.trace = std::move(res.trace);
  }
  r.hash = batch::HashTrace(r.trace);
  return r;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Prints the run record; writes its waveform when the hash is new for the
/// configuration.
void EmitRun(RunRecord& r, const std::string& out_dir, std::set<std::string>& seen,
             bool traced) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(r.hash));
  std::string wave;
  if (seen.insert(r.config + hash).second) {
    wave = out_dir + "/" + r.config + "-" + hash + ".wave";
    if (!WriteWave(r.trace, wave)) wave.clear();
  }
  const engine::TransientStats& s = r.stats;
  const pipeline::PipelineSchedStats& q = r.sched;
  std::printf(
      "{\"kind\":\"run\",\"config\":\"%s\",\"traced\":%s,\"wall_s\":%.9g,\"cpu_s\":%.9g,"
      "\"completed\":%s,\"abort_reason\":\"%s\",\"hash\":\"%s\",\"wave\":\"%s\","
      "\"steps\":%zu,\"rejected_lte\":%zu,\"rejected_newton\":%zu,\"newton_iters\":%llu,"
      "\"lu_full_factors\":%llu,\"lu_refactors\":%llu,\"rounds\":%zu,"
      "\"spec_solves\":%zu,\"spec_accepted\":%zu,\"spec_discarded\":%zu,"
      "\"repair_solves\":%zu,\"modeled_makespan_iters\":%.9g}\n",
      r.config.c_str(), traced ? "true" : "false", r.wall, r.cpu,
      r.completed ? "true" : "false", JsonEscape(r.abort_reason).c_str(), hash, wave.c_str(),
      s.steps_accepted, s.steps_rejected_lte, s.steps_rejected_newton,
      static_cast<unsigned long long>(s.newton_iterations),
      static_cast<unsigned long long>(s.lu_full_factors),
      static_cast<unsigned long long>(s.lu_refactors), q.rounds, q.speculative_solves,
      q.speculative_accepted, q.speculative_discarded, q.repair_solves,
      r.modeled_makespan_iters);
  std::fflush(stdout);
  r.trace = engine::Trace();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- modes -------------------------------------------------------------------

int Reference(const std::string& deck, const std::string& out) {
  Loaded l = Load(deck);
  engine::SimOptions options = l.elab.sim_options;
  options.reltol /= 100.0;
  options.vntol /= 100.0;
  options.abstol /= 100.0;
  options.hmax = (l.elab.spec.tstop - l.elab.spec.tstart) / 2000.0;
  const double t0 = Now();
  engine::TransientResult res =
      engine::RunTransientSerial(*l.elab.circuit, *l.mna, l.elab.spec, options);
  const double wall = Now() - t0;
  if (!res.completed || !WriteWave(res.trace, out)) {
    std::fprintf(stderr, "reference run failed: %s\n", res.abort_reason.c_str());
    return 1;
  }
  std::printf("{\"kind\":\"reference\",\"wall_s\":%.6g,\"steps\":%zu,\"samples\":%zu}\n", wall,
              res.stats.steps_accepted, res.trace.num_samples());
  return 0;
}

/// Deck to ready-to-simulate, the `setup_s` metric: repeated for
/// kSetupSliceS before every round, so that its samples spread over the
/// whole run as the transient timings do.  run.py takes the fastest.
constexpr double kSetupSliceS = 0.15;

void SetupSlice(const std::string& deck, std::vector<double>& samples) {
  const double start = Now();
  do {
    const double t0 = Now();
    const Loaded l = Load(deck);
    samples.push_back(Now() - t0);
  } while (Now() - start < kSetupSliceS);
}

int Measure(double seconds, const std::string& out_dir, const std::string& deck) {
  const Loaded l = Load(deck);
  std::vector<double> setup;
  std::set<std::string> seen;
  const double start = Now();
  for (int round = 0; round < kMinRounds || Now() - start < seconds; ++round) {
    SetupSlice(deck, setup);
    for (const char* config : kConfigs) {
      RunRecord r = RunConfig(l, config, /*replay=*/false);
      EmitRun(r, out_dir, seen, /*traced=*/false);
    }
  }
  std::printf("{\"kind\":\"setup\",\"seconds\":%s}\n", Samples(setup).c_str());
  std::printf("{\"kind\":\"rss\",\"peak_rss_mb\":%.6f}\n", PeakRssMb());
  return 0;
}

/// Repeats `fn` (each call under its own span) until `budget` seconds or
/// `max_reps` calls; returns the per-call wall seconds.
template <typename Fn>
std::vector<double> Repeat(const char* layer, const char* name, double budget, int max_reps,
                           Fn&& fn) {
  std::vector<double> samples;
  const double start = Now();
  while (static_cast<int>(samples.size()) < max_reps &&
         (samples.size() < 3 || Now() - start < budget)) {
    samples.push_back(Timed(layer, name, fn));
  }
  return samples;
}

int Layers(double seconds, const std::string& out_dir, const std::string& deck) {
  g_recorder.enabled = true;
  const double start = Now();
  std::map<std::string, std::vector<double>> samples;

  // netlist: parse and elaborate separately.
  netlist::ParsedNetlist parsed;
  samples["netlist.parse_s"] = Repeat("netlist", "ParseNetlistFile", 0.5, 7,
                                      [&] { parsed = netlist::ParseNetlistFile(deck); });
  samples["netlist.elaborate_s"] = Repeat("netlist", "Elaborate", 0.5, 7,
                                          [&] { (void)netlist::Elaborate(parsed); });
  Loaded l;
  l.elab = netlist::Elaborate(parsed);
  const engine::Circuit& circuit = *l.elab.circuit;
  samples["engine.mna_s"] = Repeat("engine", "MnaStructure", 0.5, 7, [&] {
    l.mna = std::make_unique<engine::MnaStructure>(circuit);
  });

  // engine: DC operating point, each time on a fresh context (built outside
  // the span).
  const engine::SimOptions& sim = l.elab.sim_options;
  std::unique_ptr<engine::SolveContext> ctx;
  for (int i = 0; i < 5; ++i) {
    ctx = std::make_unique<engine::SolveContext>(circuit, *l.mna);
    samples["engine.dcop_s"].push_back(Timed("engine", "SolveDcOperatingPoint", [&] {
      engine::SolveDcOperatingPoint(*ctx, sim, l.elab.spec.initial_conditions);
    }));
  }

  // devices: one evaluation pass at the operating point.
  engine::NewtonInputs inputs;
  inputs.gmin = sim.gmin;
  samples["devices.eval_s"] = Repeat("devices", "EvalDevices", 0.3, 2000, [&] {
    engine::EvalDevices(*ctx, inputs, /*limit_valid=*/true, /*first_iteration=*/false);
  });

  // sparse: the workload's own Jacobian at the operating point.
  const sparse::CscMatrix jacobian = ctx->matrix;
  samples["sparse.order_s"] = Repeat("sparse", "MinimumDegreeOrder", 0.3, 20,
                                     [&] { (void)sparse::MinimumDegreeOrder(jacobian); });
  samples["sparse.factor_s"] = Repeat("sparse", "SparseLu::Factor", 0.3, 20, [&] {
    sparse::SparseLu fresh;
    fresh.Factor(jacobian);
  });
  sparse::SparseLu lu;
  lu.Factor(jacobian);
  const sparse::SparseLu::Stats before = lu.stats();
  lu.Refactor(jacobian);
  const std::uint64_t refactor_flops = lu.stats().factor_flops - before.factor_flops;
  samples["sparse.refactor_s"] = Repeat("sparse", "SparseLu::Refactor", 0.3, 2000,
                                        [&] { lu.Refactor(jacobian); });
  std::vector<double> work;
  std::vector<double> b;
  samples["sparse.solve_s"] = Repeat("sparse", "SparseLu::Solve", 0.3, 5000, [&] {
    b = ctx->rhs;
    lu.Solve(b, work);
  });
  const sparse::SparseLu::Stats lu_stats = lu.stats();

  // reduce (diagnostic): consumes a freshly elaborated circuit each time.
  const int unknowns = circuit.num_unknowns();
  int kept = unknowns;
  std::vector<double> reduce_s;
  for (int i = 0; i < 3; ++i) {
    netlist::ElaboratedCircuit fresh = netlist::Elaborate(parsed);
    std::unique_ptr<engine::Circuit> input = std::move(fresh.circuit);
    reduce::ReductionResult reduced;
    reduce_s.push_back(
        Timed("reduce", "Reduce", [&] { reduced = reduce::Reduce(std::move(input)); }));
    kept = reduced.circuit->num_unknowns();
  }
  samples["reduce.s"] = reduce_s;

  std::printf("{\"kind\":\"layer_counts\",\"unknowns\":%d,\"sparse.nnz_lu\":%zu,"
              "\"sparse.refactor_flops\":%llu,\"reduce.kept_frac\":%.9g}\n",
              unknowns, lu_stats.nnz_l + lu_stats.nnz_u,
              static_cast<unsigned long long>(refactor_flops),
              static_cast<double>(kept) / static_cast<double>(unknowns));
  for (const auto& [name, v] : samples) {
    std::printf("{\"kind\":\"layer_samples\",\"name\":\"%s\",\"seconds\":%s}\n", name.c_str(),
                Samples(v).c_str());
  }
  std::fflush(stdout);

  // Transient runs: an untraced serial run beside every traced round gives
  // the recorder's own overhead.
  std::set<std::string> seen;
  do {
    g_recorder.enabled = false;
    RunRecord untraced = RunConfig(l, "serial", false);
    EmitRun(untraced, out_dir, seen, /*traced=*/false);
    g_recorder.enabled = true;
    for (const char* config : kConfigs) {
      RunRecord r = RunConfig(l, config, /*replay=*/true);
      EmitRun(r, out_dir, seen, /*traced=*/true);
    }
  } while (Now() - start < seconds);

  std::printf("{\"kind\":\"self\",\"spans\":%zu", g_recorder.size());
  for (const auto& [layer, s] : g_recorder.SelfSeconds()) {
    std::printf(",\"%s\":%.9g", layer.c_str(), s);
  }
  std::printf("}\n");
  g_recorder.WriteChromeTrace(out_dir + "/spans.json");
  std::printf("{\"kind\":\"rss\",\"peak_rss_mb\":%.6f}\n", PeakRssMb());
  return 0;
}

int Usage();

int Unknowns(const std::string& deck, const std::string& workload) {
  circuits::GeneratedCircuit gen;
  if (workload == "powergrid") {
    gen = circuits::MakePowerGrid(64, 64, 1);
  } else if (workload == "invchain") {
    gen = circuits::MakeInverterChain(400);
  } else if (workload == "ringosc") {
    gen = circuits::MakeRingOscillator(51);
  } else {
    return Usage();
  }
  const netlist::ElaboratedCircuit elab = netlist::LoadDeckFile(deck);
  std::printf("{\"kind\":\"unknowns\",\"deck\":%d,\"generator\":%d}\n",
              elab.circuit->num_unknowns(), gen.circuit->num_unknowns());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: wpbench reference <deck> <out.wave>\n"
               "       wpbench measure <seconds> <out-dir> <deck>\n"
               "       wpbench layers <seconds> <out-dir> <deck>\n"
               "       wpbench unknowns <deck> <workload>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string mode = argv[1];
  try {
    if (mode == "reference" && argc == 4) return Reference(argv[2], argv[3]);
    if (mode == "measure" && argc == 5) return Measure(std::stod(argv[2]), argv[3], argv[4]);
    if (mode == "layers" && argc == 5) return Layers(std::stod(argv[2]), argv[3], argv[4]);
    if (mode == "unknowns" && argc == 4) return Unknowns(argv[2], argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wpbench: %s\n", e.what());
    return 1;
  }
  return Usage();
}
