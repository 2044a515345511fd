// Shared pieces of the host-cost benchmark: run arguments, the result
// sheet every workload fills, the span tracer, and the input builders
// that reproduce the experiment harness from public calls.
//
// Nothing here instruments src/: every span is recorded around a call
// the benchmark itself makes into a layer's public function.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/experiment.h"
#include "engine/job_runner.h"
#include "workload/dataset.h"
#include "workload/query_mix.h"

namespace bohr::perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< trace mode: where the span table goes
};

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seed of the k-th sub-workload a run pools: several independently
/// generated inputs per run keep one input's quirks out of the medians.
/// Sub-workload 0 is the run's own seed.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t k);

/// Median and the highest percentile with at least ten samples beyond
/// it (capped at p95). `label` names that percentile, e.g. "p95".
struct TimingSummary {
  double median = 0.0;
  double tail = 0.0;
  std::string label;
  std::size_t count = 0;
};
TimingSummary summarize_timings(std::vector<double> samples);
double median_of(std::vector<double> samples);

/// What one workload run reports: metrics by name with their unit,
/// correctness checks, and the attempted/failed query counts.
class ResultSheet {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// An output printed for the reader but not part of the metric set.
  void output(const std::string& name, double value, const std::string& unit);
  void note(const std::string& text);
  /// A failed check counts once into `failed`.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void queries(std::size_t attempted, std::size_t failed);

  bool correct() const { return failed_checks_ == 0 && failed_queries_ == 0; }
  /// Prints every line, then the JSON result object as the last line.
  void print(const std::string& workload) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> outputs_;
  std::vector<std::string> lines_;
  std::size_t attempted_ = 0;
  std::size_t failed_queries_ = 0;
  std::size_t failed_checks_ = 0;
};

/// In-memory span recorder. Spans nest through RAII scopes; a disabled
/// tracer never reads the clock, so untimed paths pay nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }
  Scope span(const char* name, std::uint64_t query = 0) {
    return Scope(this, name, query);
  }
  void count(const std::string& name, double value);
  void set_max(const std::string& name, double value);

  /// Summed duration of every span called `name`.
  double total_seconds(const std::string& name) const;
  double counter(const std::string& name) const;
  /// Writes one span per line: id, parent, query, name, start, end.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t parent = -1;
    std::uint64_t query = 0;
    double start = 0.0;
    double end = 0.0;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counters_;
};

/// The bench/ default scale (10-site paper topology, BigData, 40 GB per
/// site split across the datasets) at `n_datasets`, seeded by `seed`.
core::ExperimentConfig bench_config(std::size_t n_datasets,
                                    std::uint64_t seed);

/// Generated bundles and query mixes, shared by every scheme.
struct Inputs {
  std::vector<workload::DatasetBundle> bundles;
  std::vector<workload::DatasetQueryMix> mixes;
};
/// The experiment harness's input generation, from public calls.
Inputs generate_inputs(const core::ExperimentConfig& config, Tracer& tracer);
std::vector<core::DatasetState> build_states(const Inputs& inputs,
                                             bool with_cubes, Tracer& tracer);
/// The options the experiment harness gives a scheme's controller.
core::ControllerOptions controller_options(const core::ExperimentConfig& config,
                                           core::Strategy strategy);

/// The controller's staged prepare(), one span per step, with the
/// preparation layers' counters recorded on the tracer.
const core::PrepareReport& prepare_with_spans(core::Controller& controller,
                                              Tracer& tracer);

/// The query spec and per-dataset job config a cube + RDD-similarity
/// scheme (Bohr) runs a query with, as the controller derives them.
engine::QuerySpec query_spec(const core::DatasetState& dataset, std::size_t t,
                             double physical_record_bytes);
engine::JobConfig bohr_job(const engine::JobConfig& base,
                           const core::DatasetState& dataset,
                           double physical_record_bytes);

/// Per-site results of the decomposed query replay.
struct ReplayResult {
  std::vector<double> map_finish;
  std::vector<std::size_t> shuffle_records;
  std::vector<double> shuffle_finish;
};

/// Replays engine::run_job's map, partition, combine and shuffle stages
/// through their public calls, one span per call, consuming `rng`
/// exactly as run_job does. `fractions` are the reduce fractions in
/// force (bucket-map fractions when a bucket map is set).
ReplayResult replay_job(const net::WanTopology& topo,
                        const std::vector<engine::RecordStream>& inputs,
                        const std::vector<double>& fractions,
                        const engine::QuerySpec& spec,
                        const engine::JobConfig& job, Rng& rng,
                        Tracer& tracer, std::uint64_t query);

/// True when the replay reproduced the job's per-site map finish times,
/// shuffle record counts and shuffle finish times bit for bit.
bool replay_matches(const ReplayResult& replay, const engine::JobResult& job);

/// Host-speed probe: a fixed kernel that uses none of the repository's
/// code: dependent loads over an 8 MB cycle, hash aggregation, a sort,
/// faulting in 4 MB of fresh pages, integer hashing.
/// A shared host drifts in speed by tens of percent over minutes; the
/// probe's median over a run measures how fast the host ran while the
/// workload did, and the reported timings are scaled to the probe's
/// speed on the reference host.
class HostProbe {
 public:
  /// The probe's median on the reference host (4-vCPU Intel Xeon VM).
  static constexpr double kReferenceSeconds = 0.012;

  HostProbe();
  /// Runs the kernel once and records its time.
  void sample();
  double median_seconds() const { return median_of(samples_); }
  /// kReferenceSeconds / median sample: below 1 when the host ran slow.
  double speed() const;

 private:
  std::vector<std::uint32_t> chain_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
};

/// Reports a host-time metric scaled to the reference host speed (a
/// time multiplies by probe.speed(), a rate in q/s divides by it), and
/// its raw value as an output.
void report_timing(ResultSheet& sheet, const HostProbe& probe,
                   const std::string& name, double raw,
                   const std::string& unit);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// The per-layer metric names every traced run reports (0 where the
/// workload does not exercise the layer), with units.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();
/// Reports every layer metric from the tracer's spans and counters.
void report_layers(const Tracer& tracer, ResultSheet& sheet);

}  // namespace bohr::perfbench
