#include "common.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "common/hash.h"
#include "core/strategy.h"
#include "net/transfer.h"

namespace bohr::perfbench {

std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : hash_combine(seed, k);
}

// ---- timing summaries -----------------------------------------------------

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

TimingSummary summarize_timings(std::vector<double> samples) {
  TimingSummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.median = median_of(samples);
  // Highest percentile (at most 95) that leaves ten samples above it.
  const double n = static_cast<double>(samples.size());
  const double q = std::clamp(1.0 - 10.0 / n, 0.5, 0.95);
  const auto idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  out.tail = samples[std::min(idx, samples.size() - 1)];
  char label[16];
  std::snprintf(label, sizeof label, "p%.0f", std::floor(q * 100.0));
  out.label = label;
  return out;
}

// ---- result sheet ---------------------------------------------------------

void ResultSheet::metric(const std::string& name, double value,
                         const std::string& unit) {
  if (!std::isfinite(value)) check(name + " is finite", false);
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void ResultSheet::output(const std::string& name, double value,
                         const std::string& unit) {
  outputs_.push_back({name, value, unit});
}

void ResultSheet::note(const std::string& text) { lines_.push_back(text); }

void ResultSheet::check(const std::string& name, bool ok,
                        const std::string& detail) {
  if (!ok) ++failed_checks_;
  lines_.push_back("check " + name + ": " + (ok ? "ok" : "FAILED") +
                   (detail.empty() ? "" : " (" + detail + ")"));
}

void ResultSheet::queries(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_queries_ += failed;
}

void ResultSheet::print(const std::string& workload) const {
  for (const auto& line : lines_) {
    std::printf("[%s] %s\n", workload.c_str(), line.c_str());
  }
  for (const auto& o : outputs_) {
    std::printf("[%s] output %-22s %.6g %s\n", workload.c_str(),
                o.name.c_str(), o.value, o.unit.c_str());
  }
  for (const auto& m : metrics_) {
    std::printf("[%s] metric %-22s %.6g %s\n", workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::size_t failed = failed_queries_ + failed_checks_;
  std::printf("[%s] queries attempted %zu, failed %zu, failed_share %.6g\n",
              workload.c_str(), attempted_, failed,
              attempted_ > 0 ? static_cast<double>(failed) /
                                   static_cast<double>(attempted_)
                             : 0.0);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              std::max<std::size_t>(attempted_, 1), failed);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- tracer ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t query)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = tracer_->open_.empty()
                 ? -1
                 : static_cast<std::int64_t>(tracer_->open_.back());
  s.query = query;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(s);
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].start = now_seconds();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end = now_seconds();
  tracer_->open_.pop_back();
}

void Tracer::count(const std::string& name, double value) {
  if (enabled_) counters_[name] += value;
}

void Tracer::set_max(const std::string& name, double value) {
  if (enabled_) counters_[name] = std::max(counters_[name], value);
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (name == s.name) total += s.end - s.start;
  }
  return total;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "hostbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "id\tparent\tquery\tname\tstart_us\tend_us\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line, "%zu\t%lld\t%llu\t%s\t%.3f\t%.3f\n", i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.query), s.name,
                  (s.start - t0) * 1e6, (s.end - t0) * 1e6);
    out << line;
  }
}

// ---- inputs ---------------------------------------------------------------

core::ExperimentConfig bench_config(std::size_t n_datasets,
                                    std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.workload = workload::WorkloadKind::BigData;
  cfg.n_datasets = n_datasets;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 480;
  cfg.generator.gb_per_site = 40.0 / static_cast<double>(n_datasets);
  cfg.generator.placement = workload::InitialPlacement::Random;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.probe_k = 30;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = seed;
  return cfg;
}

Inputs generate_inputs(const core::ExperimentConfig& config, Tracer& tracer) {
  const auto span = tracer.span("workload.generate");
  Inputs inputs;
  Rng mix_rng(hash_combine(config.seed, 0xA11CE));
  workload::GeneratorConfig gen = config.generator;
  gen.seed = hash_combine(config.seed, gen.seed);
  for (std::size_t a = 0; a < config.n_datasets; ++a) {
    inputs.bundles.push_back(
        workload::generate_dataset(config.workload, a, gen));
    inputs.mixes.push_back(
        workload::sample_query_mix(inputs.bundles.back(), mix_rng));
  }
  return inputs;
}

std::vector<core::DatasetState> build_states(const Inputs& inputs,
                                             bool with_cubes, Tracer& tracer) {
  const auto span = tracer.span("olap.cube_build");
  std::vector<core::DatasetState> states;
  states.reserve(inputs.bundles.size());
  for (std::size_t a = 0; a < inputs.bundles.size(); ++a) {
    states.emplace_back(inputs.bundles[a], inputs.mixes[a], with_cubes);
  }
  return states;
}

core::ControllerOptions controller_options(const core::ExperimentConfig& config,
                                           core::Strategy strategy) {
  core::ControllerOptions options;
  options.strategy = strategy;
  options.similarity.probe_k = config.probe_k;
  options.similarity.random_probe_records = config.random_probe_records;
  options.lag_seconds = config.lag_seconds;
  options.job = config.job;
  options.physical_record_bytes = config.physical_record_bytes;
  options.seed = hash_combine(config.seed, static_cast<int>(strategy));
  options.faults = config.faults;
  options.enforce_lag_deadline = config.enforce_lag_deadline;
  return options;
}

const core::PrepareReport& prepare_with_spans(core::Controller& controller,
                                              Tracer& tracer) {
  core::PrepareProgress progress = controller.start_prepare();
  {
    const auto span = tracer.span("similarity.check");
    controller.step_similarity(progress);
  }
  {
    const bool joint = core::traits_of(controller.options().strategy).joint_lp;
    const auto span =
        tracer.span(joint ? "placement.joint_lp" : "placement.iridium");
    controller.step_placement(progress);
  }
  {
    const auto span = tracer.span("movement.plan");
    controller.step_plan_movement(progress);
  }
  {
    const auto span = tracer.span("movement.apply");
    controller.step_execute_movement(progress);
  }
  const core::PrepareReport& report =
      controller.finish_prepare(std::move(progress));
  tracer.count("similarity.probe_bytes", report.probe_bytes);
  tracer.count("lp.iterations",
               static_cast<double>(report.decision.lp_iterations));
  tracer.set_max("lp.peak_bytes",
                 static_cast<double>(report.decision.lp_peak_bytes));
  tracer.count("movement.rows_moved", static_cast<double>(report.rows_moved));
  return report;
}

engine::QuerySpec query_spec(const core::DatasetState& dataset, std::size_t t,
                             double physical_record_bytes) {
  engine::QuerySpec spec =
      engine::default_spec_for(dataset.bundle().query_types[t].kind);
  spec.dataset = dataset.dataset_id();
  spec.query_type = dataset.cube_query_type(t);
  spec.intermediate_bytes_per_record *=
      dataset.bundle().bytes_per_row / physical_record_bytes;
  return spec;
}

engine::JobConfig bohr_job(const engine::JobConfig& base,
                           const core::DatasetState& dataset,
                           double physical_record_bytes) {
  engine::JobConfig job = base;
  job.partition_policy = engine::PartitionPolicy::CubeSorted;
  job.executor_assignment = engine::ExecutorAssignment::SimilarityKMeans;
  job.controller_overhead_seconds = 0.0;
  job.machine.record_scale =
      std::max(1.0, dataset.bundle().bytes_per_row / physical_record_bytes);
  return job;
}

// ---- decomposed query replay ----------------------------------------------

ReplayResult replay_job(const net::WanTopology& topo,
                        const std::vector<engine::RecordStream>& inputs,
                        const std::vector<double>& fractions,
                        const engine::QuerySpec& spec,
                        const engine::JobConfig& job, Rng& rng,
                        Tracer& tracer, std::uint64_t query) {
  const std::size_t n = topo.site_count();
  ReplayResult out;
  out.map_finish.resize(n);
  out.shuffle_records.resize(n);
  std::vector<double> shuffle_bytes(n, 0.0);
  for (net::SiteId i = 0; i < n; ++i) {
    std::vector<engine::RecordStream> partitions;
    {
      const auto span = tracer.span("engine.partition", query);
      partitions = engine::make_partitions(inputs[i], job.partition_records,
                                           job.partition_policy);
    }
    tracer.count("engine.partitions", static_cast<double>(partitions.size()));
    engine::LocalStageResult local;
    {
      const auto span = tracer.span("engine.local_stage", query);
      local = engine::run_local_stage(partitions, job.machine,
                                      job.executor_assignment, spec.op,
                                      spec.compute_multiplier, job.dimsum, rng);
    }
    out.map_finish[i] = local.stage_seconds;
    out.shuffle_records[i] = local.shuffle_input.size();
    shuffle_bytes[i] = static_cast<double>(local.shuffle_input.size()) *
                       spec.intermediate_bytes_per_record;
    tracer.count("engine.shuffle_records",
                 static_cast<double>(local.shuffle_input.size()));
  }

  std::vector<net::Flow> flows;
  flows.reserve(n * n);
  for (net::SiteId i = 0; i < n; ++i) {
    for (net::SiteId j = 0; j < n; ++j) {
      if (i == j) continue;
      const double bytes = shuffle_bytes[i] * fractions[j];
      if (bytes <= 0.0) continue;
      flows.push_back(net::Flow{i, j, bytes, out.map_finish[i]});
    }
  }
  tracer.count("net.flows", static_cast<double>(flows.size()));
  std::vector<net::FlowResult> finished;
  {
    const auto span = tracer.span("net.flows", query);
    finished = net::simulate_flows(topo, flows);
  }
  out.shuffle_finish.assign(n, 0.0);
  for (net::SiteId j = 0; j < n; ++j) {
    if (fractions[j] > 0.0) out.shuffle_finish[j] = out.map_finish[j];
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    out.shuffle_finish[flows[f].dst] =
        std::max(out.shuffle_finish[flows[f].dst], finished[f].finish_time);
  }
  return out;
}

bool replay_matches(const ReplayResult& replay, const engine::JobResult& job) {
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  if (job.sites.size() != replay.map_finish.size()) return false;
  for (std::size_t i = 0; i < job.sites.size(); ++i) {
    const engine::SiteJobMetrics& s = job.sites[i];
    if (!same_bits(s.map_finish_seconds, replay.map_finish[i]) ||
        s.shuffle_records != replay.shuffle_records[i] ||
        !same_bits(s.shuffle_finish_seconds, replay.shuffle_finish[i])) {
      return false;
    }
  }
  return true;
}

// ---- host-speed probe -----------------------------------------------------

HostProbe::HostProbe() : chain_(std::size_t{1} << 21) {
  // Sattolo's shuffle: one random cycle through the array, so every step
  // is a dependent load to an unpredictable cache line.
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    chain_[i] = static_cast<std::uint32_t>(i);
  }
  Rng rng(0x9E37);
  for (std::size_t i = chain_.size() - 1; i > 0; --i) {
    std::swap(chain_[i], chain_[rng() % i]);
  }
}

void HostProbe::sample() {
  const double t0 = now_seconds();
  std::uint32_t at = 0;
  for (int step = 0; step < 40000; ++step) at = chain_[at];
  std::vector<std::uint64_t> keys(std::size_t{1} << 15);
  std::uint64_t x = 0x243F6A8885A308D3ULL ^ at;
  for (auto& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  // Node-allocating hash aggregation, like the engine's combiners.
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (const std::uint64_t k : keys) ++counts[k % 8192];
  std::sort(keys.begin(), keys.end());
  // Fresh pages, as a growing working set faults them in.
  constexpr std::size_t kFreshBytes = std::size_t{4} << 20;
  void* fresh = mmap(nullptr, kFreshBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (fresh != MAP_FAILED) {
    auto* bytes = static_cast<unsigned char*>(fresh);
    for (std::size_t off = 0; off < kFreshBytes; off += 4096) {
      bytes[off] = static_cast<unsigned char>(off >> 12);
    }
    munmap(fresh, kFreshBytes);
  }
  std::uint64_t h = keys[keys.size() / 2] + counts.size();
  for (int i = 0; i < 300000; ++i) h = hash_combine(h, i);
  sink_ += h;
  samples_.push_back(now_seconds() - t0);
}

double HostProbe::speed() const {
  return samples_.empty() ? 1.0 : kReferenceSeconds / median_seconds();
}

void report_timing(ResultSheet& sheet, const HostProbe& probe,
                   const std::string& name, double raw,
                   const std::string& unit) {
  const double scale = unit == "q/s" ? 1.0 / probe.speed() : probe.speed();
  sheet.output("raw." + name, raw, unit);
  sheet.metric(name, raw * scale, unit);
}

// ---- process and layer reporting -----------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kLayers{
      {"workload.generate_s", "s"},   {"olap.cube_build_s", "s"},
      {"similarity.check_s", "s"},    {"similarity.probe_bytes", "B"},
      {"placement.iridium_s", "s"},   {"placement.joint_lp_s", "s"},
      {"lp.iterations", "count"},     {"lp.peak_bytes", "B"},
      {"movement.plan_s", "s"},       {"movement.apply_s", "s"},
      {"movement.rows_moved", "count"}, {"core.map_rows_s", "s"},
      {"core.map_rows_calls", "count"}, {"core.mapped_records", "count"},
      {"engine.partition_s", "s"},    {"engine.partitions", "count"},
      {"engine.local_stage_s", "s"},  {"engine.shuffle_records", "count"},
      {"engine.combine_ratio", "ratio"}, {"net.flows_s", "s"},
      {"net.flows", "count"},         {"engine.job_other_s", "s"},
      {"serve.arrivals_s", "s"},      {"serve.repeat_share", "ratio"},
      {"olap.append_s", "s"},         {"olap.rows_appended", "count"},
      {"olap.flush_s", "s"},          {"trace.overhead_pct", "%"},
  };
  return kLayers;
}

void report_layers(const Tracer& tracer, ResultSheet& sheet) {
  const double mapped = tracer.counter("core.mapped_records");
  for (const auto& [name, unit] : layer_metrics()) {
    double value = 0.0;
    if (name == "engine.combine_ratio") {
      value = mapped > 0.0 ? tracer.counter("engine.shuffle_records") / mapped
                           : 0.0;
    } else if (unit == "s" && name != "engine.job_other_s") {
      // Span name = metric name without its "_s" suffix.
      value = tracer.total_seconds(name.substr(0, name.size() - 2));
    } else {
      value = tracer.counter(name);
    }
    sheet.metric(name, value, unit);
  }
}

}  // namespace bohr::perfbench
