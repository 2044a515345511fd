// ingest-mixed: the §8.6 dynamic-dataset loop, driven through the same
// public calls core::run_dynamic_experiment makes.
//
// A quarter of every dataset is loaded up front; each cycle appends one
// batch, flushes the queried cube, runs two queries round-robin over
// (dataset, type) and lets the other cubes catch up. Every 10th cycle
// re-plans: similarity check, joint LP and movement. Writes land beside
// reads, so the query layers run on data that changes every cycle.
#include <cmath>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "common/parallel.h"
#include "core/movement.h"
#include "core/placement.h"
#include "core/similarity_service.h"
#include "workload/dynamic.h"
#include "workloads.h"

namespace bohr::perfbench {
namespace {

constexpr std::size_t kDatasets = 12;
constexpr std::size_t kRowsPerSite = 960;
constexpr double kInitialFraction = 0.25;
constexpr std::size_t kCycles = 50;
constexpr std::size_t kReplanEvery = 10;
constexpr std::size_t kQueriesPerCycle = 2;
constexpr std::size_t kThreads = 1;
/// Independently generated inputs pooled per run (see sub_seed).
constexpr std::size_t kSubWorkloads = 16;
/// Set-ups timed per run (each pass sets up once more); the median is
/// setup_s.
constexpr std::size_t kExtraSetups = 8;

/// What one pass (set-up plus kCycles cycles) measured.
struct PassResult {
  double setup_seconds = 0.0;
  std::vector<double> cycle_ms;
  std::vector<double> replan_seconds;
  double query_seconds = 0.0;
  std::size_t queries = 0;
  std::size_t failed = 0;
  std::size_t replay_mismatches = 0;
  bool rows_conserved = true;
  std::size_t sub_workload = 0;
  std::uint64_t qct_hash = 0;  ///< identical passes hash identically
};

class IngestPass {
 public:
  /// `probe` (nullable) samples the host speed between timed sections.
  IngestPass(const core::ExperimentConfig& config, Tracer& tracer,
             HostProbe* probe)
      : config_(config),
        topo_(config.make_topology()),
        options_(controller_options(config, core::Strategy::Bohr)),
        rng_(options_.seed),
        tracer_(tracer),
        probe_(probe) {
    job_ = config.job;
    job_.partition_policy = engine::PartitionPolicy::CubeSorted;
    job_.executor_assignment = engine::ExecutorAssignment::SimilarityKMeans;
    job_.machine.record_scale = std::max(
        1.0, (config.generator.gb_per_site * 1e9 /
              static_cast<double>(config.generator.rows_per_site)) /
                 config.physical_record_bytes);
  }

  /// Generation, state/cube build and the initial plan; returns seconds.
  double set_up() {
    const double s0 = now_seconds();
    inputs_ = generate_inputs(config_, tracer_);
    std::vector<workload::DatasetBundle> initial;
    for (const auto& bundle : inputs_.bundles) {
      feeds_.push_back(
          workload::split_dynamic(bundle, kInitialFraction, kCycles));
      initial.push_back(bundle);
      initial.back().site_rows = feeds_.back().initial;
    }
    {
      const auto span = tracer_.span("olap.cube_build");
      for (std::size_t a = 0; a < initial.size(); ++a) {
        states_.emplace_back(std::move(initial[a]), inputs_.mixes[a],
                             /*with_cubes=*/true);
      }
    }
    for (const auto& d : states_) {
      std::size_t rows = 0;
      for (std::size_t i = 0; i < d.site_count(); ++i) {
        rows += d.rows_at(i).size();
      }
      initial_rows_.push_back(rows);
      appended_rows_.push_back(0);
    }
    for (std::size_t a = 0; a < states_.size(); ++a) {
      for (std::size_t t = 0; t < states_[a].bundle().query_types.size();
           ++t) {
        if (states_[a].mix().counts[t] > 0) pairs_.emplace_back(a, t);
      }
    }
    plan_and_move();
    return now_seconds() - s0;
  }

  PassResult run() {
    PassResult out;
    out.setup_seconds = set_up();
    if (probe_ != nullptr) probe_->sample();

    std::size_t next_query = 0;
    for (std::size_t c = 0; c < kCycles; ++c) {
      const double c0 = now_seconds();
      append_batch(c);
      for (std::size_t k = 0; k < kQueriesPerCycle; ++k) {
        run_query(pairs_[next_query++ % pairs_.size()], out);
      }
      {
        const auto span = tracer_.span("olap.flush");
        for (auto& d : states_) {
          for (std::size_t i = 0; i < d.site_count(); ++i) {
            d.cubes_at(i).flush_background();
          }
        }
      }
      if ((c + 1) % kReplanEvery == 0) {
        const double r0 = now_seconds();
        plan_and_move();
        out.replan_seconds.push_back(now_seconds() - r0);
      }
      out.cycle_ms.push_back(1e3 * (now_seconds() - c0));
      if (probe_ != nullptr && (c + 1) % kReplanEvery == 0) probe_->sample();
    }

    for (std::size_t a = 0; a < states_.size(); ++a) {
      std::size_t rows = 0;
      for (std::size_t i = 0; i < states_[a].site_count(); ++i) {
        rows += states_[a].rows_at(i).size();
      }
      out.rows_conserved = out.rows_conserved &&
                           rows == initial_rows_[a] + appended_rows_[a] &&
                           rows == inputs_.bundles[a].total_rows();
    }
    out.qct_hash = qct_hash_;
    return out;
  }

 private:
  void append_batch(std::size_t c) {
    const auto span = tracer_.span("olap.append");
    for (std::size_t a = 0; a < states_.size(); ++a) {
      for (std::size_t i = 0; i < states_[a].site_count(); ++i) {
        std::vector<olap::Row> rows = feeds_[a].batches[c][i];
        appended_rows_[a] += rows.size();
        tracer_.count("olap.rows_appended", static_cast<double>(rows.size()));
        states_[a].append_rows(i, std::move(rows), /*buffer_only=*/true);
      }
    }
  }

  void run_query(std::pair<std::size_t, std::size_t> pair, PassResult& out) {
    const auto [a, t] = pair;
    core::DatasetState& d = states_[a];
    {
      const auto span = tracer_.span("olap.flush");
      for (std::size_t i = 0; i < d.site_count(); ++i) {
        d.cubes_at(i).flush_for(d.cube_query_type(t));
      }
    }
    const engine::QuerySpec spec =
        query_spec(d, t, config_.physical_record_bytes);
    const std::uint64_t salt =
        hash_combine(d.dataset_id(), hash_combine(t, 0xABCD));
    const std::uint64_t query = out.queries;

    const double q0 = now_seconds();
    std::vector<engine::RecordStream> inputs(d.site_count());
    for (std::size_t i = 0; i < d.site_count(); ++i) {
      const auto span = tracer_.span("core.map_rows", query);
      inputs[i] = d.map_rows(i, t, spec.selectivity, salt);
    }
    const Rng before = rng_;
    engine::JobResult result;
    {
      const auto span = tracer_.span("engine.run_job", query);
      result = engine::run_job(topo_, inputs, decision_.reduce_fractions, spec,
                               job_, rng_);
    }
    out.query_seconds += now_seconds() - q0;
    ++out.queries;
    if (!std::isfinite(result.qct_seconds) || result.qct_seconds <= 0.0 ||
        result.shuffle_flows_failed > 0 || result.reduce_partial) {
      ++out.failed;
    }
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof result.qct_seconds);
    std::memcpy(&bits, &result.qct_seconds, sizeof bits);
    qct_hash_ = hash_combine(qct_hash_, bits);

    if (!tracer_.enabled()) return;
    // Traced run: replay the job through its decomposed calls from the
    // same generator state and require identical per-site results.
    for (const auto& in : inputs) {
      tracer_.count("core.map_rows_calls", 1.0);
      tracer_.count("core.mapped_records", static_cast<double>(in.size()));
    }
    Rng replay_rng = before;
    ReplayResult replay;
    {
      const auto root = tracer_.span("ingest.replay", query);
      replay = replay_job(topo_, inputs, decision_.reduce_fractions, spec,
                          job_, replay_rng, tracer_, query);
    }
    if (!replay_matches(replay, result)) ++out.replay_mismatches;
  }

  /// Similarity check + joint LP + movement over every dataset, as the
  /// dynamic experiment re-plans.
  void plan_and_move() {
    core::PlacementProblem problem;
    problem.topology = topo_;
    problem.lag_seconds = config_.lag_seconds;
    std::vector<core::DatasetSimilarity> sims;
    for (auto& d : states_) {
      {
        const auto span = tracer_.span("similarity.check");
        sims.push_back(core::check_similarity(
            d, core::SimilarityOptions{config_.probe_k}));
      }
      tracer_.count("similarity.probe_bytes", sims.back().probe_bytes);
      core::DatasetPlacementInput input;
      input.dataset_id = d.dataset_id();
      input.query_count = d.mix().total_queries();
      input.self_similarity = sims.back().self;
      input.pair_similarity = sims.back().pair;
      input.input_bytes.resize(d.site_count());
      for (std::size_t i = 0; i < d.site_count(); ++i) {
        input.input_bytes[i] = d.input_bytes_at(i);
      }
      double r = 0.0;
      const auto weights = d.mix().weights();
      for (std::size_t t = 0; t < d.bundle().query_types.size(); ++t) {
        const auto spec =
            engine::default_spec_for(d.bundle().query_types[t].kind);
        r += weights[t] * spec.selectivity *
             spec.intermediate_bytes_per_record /
             config_.physical_record_bytes;
      }
      input.reduction_ratio = r;
      problem.datasets.push_back(std::move(input));
    }
    {
      const auto span = tracer_.span("placement.joint_lp");
      decision_ = core::joint_lp_placement(problem);
    }
    tracer_.count("lp.iterations",
                  static_cast<double>(decision_.lp_iterations));
    tracer_.set_max("lp.peak_bytes",
                    static_cast<double>(decision_.lp_peak_bytes));
    for (std::size_t a = 0; a < states_.size(); ++a) {
      core::MovementReport moved;
      {
        const auto span = tracer_.span("movement.apply");
        moved = core::apply_movement(states_[a], decision_.move_bytes[a],
                                     &sims[a], /*similarity_aware=*/true, topo_,
                                     config_.lag_seconds, rng_);
      }
      tracer_.count("movement.rows_moved",
                    static_cast<double>(moved.rows_moved));
    }
  }

  core::ExperimentConfig config_;
  net::WanTopology topo_;
  core::ControllerOptions options_;
  engine::JobConfig job_;
  Rng rng_;
  Tracer& tracer_;
  HostProbe* probe_;
  Inputs inputs_;
  std::vector<workload::DynamicFeed> feeds_;
  std::vector<core::DatasetState> states_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
  std::vector<std::size_t> initial_rows_;
  std::vector<std::size_t> appended_rows_;
  core::PlacementDecision decision_;
  std::uint64_t qct_hash_ = 0;
};

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

void run_ingest_mixed(const RunArgs& args, Tracer& tracer, ResultSheet& sheet) {
  set_thread_count(kThreads);
  const std::size_t subs = args.trace ? 1 : kSubWorkloads;
  std::vector<core::ExperimentConfig> configs;
  for (std::size_t k = 0; k < subs; ++k) {
    configs.push_back(bench_config(kDatasets, sub_seed(args.seed, k)));
    configs.back().generator.rows_per_site = kRowsPerSite;
  }
  sheet.note("config: BigData, 10-site paper topology, 12 datasets x 960 "
             "rows/site, 25% loaded up front, 50 cycles of append + 2 "
             "queries + background flush per pass, re-plan every 10, "
             "threads=1, seed=" + std::to_string(args.seed) + ", " +
             std::to_string(subs) + " sub-workload(s)");

  HostProbe probe;
  HostProbe* sampler = args.trace ? nullptr : &probe;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < (args.trace ? 0 : kExtraSetups); ++i) {
    setup_s.push_back(IngestPass(configs[i % subs], tracer, sampler).set_up());
    probe.sample();
  }
  // Rounds run one pass per sub-workload; another round starts only if
  // it fits in the measured time.
  std::vector<PassResult> passes;
  const double m0 = now_seconds();
  for (;;) {
    const double r0 = now_seconds();
    for (std::size_t k = 0; k < subs; ++k) {
      passes.push_back(IngestPass(configs[k], tracer, sampler).run());
      passes.back().sub_workload = k;
    }
    const double now = now_seconds();
    if (args.trace || now - m0 + (now - r0) > args.seconds) break;
  }

  std::vector<double> cycle_ms;
  std::vector<double> replan_s;
  double query_seconds = 0.0;
  std::size_t queries = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  bool conserved = true;
  bool identical = true;
  for (const PassResult& p : passes) {
    setup_s.push_back(p.setup_seconds);
    cycle_ms.insert(cycle_ms.end(), p.cycle_ms.begin(), p.cycle_ms.end());
    replan_s.insert(replan_s.end(), p.replan_seconds.begin(),
                    p.replan_seconds.end());
    query_seconds += p.query_seconds;
    queries += p.queries;
    failed += p.failed;
    mismatches += p.replay_mismatches;
    conserved = conserved && p.rows_conserved;
    identical = identical && p.qct_hash == passes[p.sub_workload].qct_hash;
  }
  sheet.queries(queries, failed);
  sheet.check("rows conserved: initial + appended = rows across sites",
              conserved);
  sheet.check("every pass of a sub-workload computes the same QCT stream",
              identical);
  const TimingSummary cycles = summarize_timings(cycle_ms);
  sheet.output("cycle_ms_" + cycles.label, cycles.tail, "ms");
  sheet.note("cycle timings: " + std::to_string(cycles.count) +
             " cycles over " + std::to_string(passes.size()) + " passes; " +
             cycles.label + " is the highest percentile with ten samples "
             "beyond it");

  if (args.trace) {
    sheet.check("replay reproduces run_job bit for bit", mismatches == 0,
                std::to_string(queries) + " queries, " +
                    std::to_string(mismatches) + " mismatched");
    const double parts = tracer.total_seconds("engine.partition") +
                         tracer.total_seconds("engine.local_stage") +
                         tracer.total_seconds("net.flows");
    const double jobs = tracer.total_seconds("engine.run_job");
    tracer.count("engine.job_other_s", jobs - parts);
    tracer.count("trace.overhead_pct",
                 100.0 * (tracer.total_seconds("ingest.replay") - jobs) / jobs);
    report_layers(tracer, sheet);
    return;
  }
  sheet.output("probe_ms", 1e3 * probe.median_seconds(), "ms");
  report_timing(sheet, probe, "setup_s", median_of(setup_s), "s");
  report_timing(sheet, probe, "prepare_s", mean_of(replan_s), "s");
  report_timing(sheet, probe, "queries_per_s",
                static_cast<double>(queries) / query_seconds, "q/s");
  report_timing(sheet, probe, "cycle_ms_p50", cycles.median, "ms");
  sheet.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace bohr::perfbench
