// serve-zipf: Bohr prepared at bench scale serving a 16-tenant open-loop
// stream with Zipf dataset/type skew and bounded-Pareto work sizes.
//
// A few dozen (dataset, type) pairs repeat thousands of times, so this is
// where per-query reuse and parallelism changes show. Arrivals are
// generated on the modeled clock before execution: there is no
// generator to fall behind.
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/parallel.h"
#include "core/migration.h"
#include "serve/server.h"
#include "workloads.h"

namespace bohr::perfbench {
namespace {

constexpr std::size_t kDatasets = 12;
constexpr std::size_t kThreads = 4;
/// Independently generated inputs pooled per run (see sub_seed).
constexpr std::size_t kSubWorkloads = 8;
/// Set-ups timed per run; the median is setup_s.
constexpr std::size_t kMinSetups = 32;

serve::ServeOptions serve_options(std::uint64_t seed) {
  serve::ServeOptions opts;
  opts.arrivals.tenants = 16;
  opts.arrivals.arrival_rate_qps = 0.05;
  opts.arrivals.duration_seconds = 1800.0;
  opts.arrivals.seed = seed;
  opts.batching.max_batch = 8;
  opts.batching.max_delay_seconds = 0.25;
  opts.slots = 4;
  opts.migration_period_seconds = 30.0;
  return opts;
}

struct Prepared {
  core::Controller controller;
  double setup_seconds = 0.0;
  double prepare_seconds = 0.0;
};

Prepared set_up(const core::ExperimentConfig& config, Tracer& tracer) {
  const double t0 = now_seconds();
  const Inputs inputs = generate_inputs(config, tracer);
  core::Controller controller(config.make_topology(),
                              build_states(inputs, /*with_cubes=*/true, tracer),
                              controller_options(config, core::Strategy::Bohr));
  const double t1 = now_seconds();
  prepare_with_spans(controller, tracer);
  const double t2 = now_seconds();
  return Prepared{std::move(controller), t2 - t0, t2 - t1};
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

/// Checks one serving report's sample accounting.
void check_report(const serve::ServeReport& r, ResultSheet& sheet,
                  const std::string& label) {
  std::size_t tenant_total = 0;
  for (const LatencySummary& t : r.tenant_summary) tenant_total += t.count;
  sheet.check(label + ": one latency sample per arrival",
              r.qct.count() == r.queries && r.queries > 0,
              std::to_string(r.qct.count()) + " samples, " +
                  std::to_string(r.queries) + " arrivals");
  sheet.check(label + ": per-tenant counts sum to the arrivals",
              tenant_total == r.queries);
}

/// Traced run: thread invariance, then every served arrival replayed
/// serially through the decomposed public calls.
void trace_replay(const core::Controller& controller,
                  const serve::ServeOptions& opts, Tracer& tracer,
                  ResultSheet& sheet) {
  set_thread_count(kThreads);
  const serve::ServeReport wide = serve::run_serving(controller, opts);
  set_thread_count(1);
  const serve::ServeReport serial = serve::run_serving(controller, opts);
  check_report(serial, sheet, "1 thread");
  sheet.check("latency digest identical at 1 and 4 threads",
              wide.qct.digest() == serial.qct.digest(),
              hex32(serial.qct.digest()) + " vs " + hex32(wide.qct.digest()));

  std::vector<serve::QueryArrival> arrivals;
  std::vector<serve::QueryBatch> batches;
  {
    const auto span = tracer.span("serve.arrivals");
    std::vector<std::size_t> types;
    for (const auto& d : controller.datasets()) {
      types.push_back(d.bundle().query_types.size());
    }
    arrivals = serve::generate_arrivals(opts.arrivals,
                                        controller.datasets().size(), types);
    batches = serve::form_batches(arrivals, opts.arrivals.tenants,
                                  opts.batching);
  }
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::size_t repeats = 0;
  for (const serve::QueryArrival& q : arrivals) {
    if (!seen.emplace(q.dataset, q.type_spec).second) ++repeats;
  }
  tracer.count("serve.repeat_share", static_cast<double>(repeats) /
                                         static_cast<double>(arrivals.size()));

  // The bucket map of each migration epoch, as run_serving derives it.
  const double period = opts.migration_period_seconds;
  const auto epochs = static_cast<std::size_t>(
                          std::floor(batches.back().close_time / period)) +
                      1;
  core::MigrationController migctl(
      controller.topology(),
      controller.prepare_report().decision.reduce_fractions, opts.migration);
  std::vector<engine::ReduceBucketMap> epoch_buckets;
  for (std::size_t e = 0; e < epochs; ++e) {
    migctl.step(opts.faults, static_cast<double>(e) * period);
    epoch_buckets.push_back(migctl.buckets());
  }

  const double phys = controller.options().physical_record_bytes;
  double untraced = 0.0;
  double traced = 0.0;
  std::size_t mismatches = 0;
  for (const serve::QueryBatch& batch : batches) {
    const auto epoch = std::min(
        static_cast<std::size_t>(std::floor(batch.close_time / period)),
        epoch_buckets.size() - 1);
    const engine::ReduceBucketMap& buckets = epoch_buckets[epoch];
    const std::vector<double> fractions = buckets.to_fractions();
    for (const std::size_t qi : batch.queries) {
      const serve::QueryArrival& q = arrivals[qi];
      const std::uint64_t stream =
          hash_combine(opts.arrivals.seed, hash_combine(q.seq, 0x5E12E));
      Rng rng(stream);
      const double t0 = now_seconds();
      const engine::JobResult job =
          controller.run_single_query(q.dataset, q.type_spec, &buckets, rng);
      const double t1 = now_seconds();
      untraced += t1 - t0;

      Rng replay_rng(stream);
      const core::DatasetState& d = controller.datasets()[q.dataset];
      ReplayResult replay;
      {
        const auto root = tracer.span("serve.replay", q.seq);
        const engine::QuerySpec spec = query_spec(d, q.type_spec, phys);
        const std::uint64_t salt =
            hash_combine(d.dataset_id(), hash_combine(q.type_spec, 0xABCD));
        std::vector<engine::RecordStream> inputs(d.site_count());
        for (std::size_t i = 0; i < d.site_count(); ++i) {
          const auto span = tracer.span("core.map_rows", q.seq);
          inputs[i] = d.map_rows(i, q.type_spec, spec.selectivity, salt);
        }
        for (const auto& in : inputs) {
          tracer.count("core.map_rows_calls", 1.0);
          tracer.count("core.mapped_records", static_cast<double>(in.size()));
        }
        replay = replay_job(controller.topology(), inputs, fractions, spec,
                            bohr_job(controller.options().job, d, phys),
                            replay_rng, tracer, q.seq);
      }
      traced += now_seconds() - t1;
      if (!replay_matches(replay, job)) ++mismatches;
    }
  }
  sheet.check("replay reproduces run_single_query bit for bit",
              mismatches == 0,
              std::to_string(arrivals.size()) + " queries, " +
                  std::to_string(mismatches) + " mismatched");
  sheet.queries(arrivals.size(), 0);

  const double parts =
      tracer.total_seconds("core.map_rows") +
      tracer.total_seconds("engine.partition") +
      tracer.total_seconds("engine.local_stage") +
      tracer.total_seconds("net.flows");
  tracer.count("engine.job_other_s", untraced - parts);
  tracer.count("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
  sheet.output("modeled_p50_s", serial.summary.p50_seconds, "s");
  sheet.output("modeled_p99_s", serial.summary.p99_seconds, "s");
  sheet.note("latency digest " + hex32(serial.qct.digest()));
}

}  // namespace

void run_serve_zipf(const RunArgs& args, Tracer& tracer, ResultSheet& sheet) {
  set_thread_count(kThreads);
  sheet.note("config: BigData, 10-site paper topology, 12 datasets, Bohr, "
             "16 tenants x 0.05 q/s open loop over 1800 s, batches of 8 or "
             "0.25 s, 4 slots, migration every 30 s, threads=4, seed=" +
             std::to_string(args.seed) + ", " +
             std::to_string(args.trace ? 1 : kSubWorkloads) +
             " sub-workload(s)");
  sheet.note("arrivals are generated on the modeled clock before execution, "
             "so there is no generator lag to report");

  // Set-ups cycle through the sub-workloads; the last one of each stays.
  const std::size_t subs = args.trace ? 1 : kSubWorkloads;
  HostProbe probe;
  std::vector<double> setup_s;
  std::vector<double> prepare_s;
  std::vector<std::optional<Prepared>> prepared(subs);
  for (std::size_t i = 0; i < (args.trace ? 1 : kMinSetups); ++i) {
    const std::size_t k = i % subs;
    prepared[k].reset();
    prepared[k].emplace(set_up(
        bench_config(kDatasets, sub_seed(args.seed, k)), tracer));
    setup_s.push_back(prepared[k]->setup_seconds);
    prepare_s.push_back(prepared[k]->prepare_seconds);
    if (!args.trace) probe.sample();
  }

  if (args.trace) {
    trace_replay(prepared[0]->controller, serve_options(args.seed), tracer,
                 sheet);
    report_layers(tracer, sheet);
    return;
  }

  // Rounds serve one pass per sub-workload; another round starts only
  // if it fits in the measured time.
  std::vector<std::vector<double>> pass_s(subs);
  std::size_t queries = 0;
  std::vector<std::uint32_t> digest(subs, 0);
  bool same_digest = true;
  std::vector<serve::ServeReport> last(subs);
  const double m0 = now_seconds();
  for (std::size_t round = 0;; ++round) {
    const double r0 = now_seconds();
    for (std::size_t k = 0; k < subs; ++k) {
      const double t0 = now_seconds();
      serve::ServeReport report = serve::run_serving(
          prepared[k]->controller, serve_options(sub_seed(args.seed, k)));
      const double dt = now_seconds() - t0;
      pass_s[k].push_back(dt);
      queries += report.queries;
      if (round == 0) digest[k] = report.qct.digest();
      same_digest = same_digest && report.qct.digest() == digest[k];
      last[k] = std::move(report);
      probe.sample();
    }
    const double now = now_seconds();
    if (now - m0 + (now - r0) > args.seconds) break;
  }
  // Per sub-workload: the median pass, robust to a noisy moment; then
  // the sub-workloads weigh in equally.
  double typical_pass_s = 0.0;
  double pass_queries = 0.0;
  std::string digests;
  for (std::size_t k = 0; k < subs; ++k) {
    typical_pass_s += median_of(pass_s[k]) / static_cast<double>(subs);
    pass_queries += static_cast<double>(last[k].queries);
    check_report(last[k], sheet, "sub-workload " + std::to_string(k));
    if (k > 0) digests += ' ';
    digests += hex32(digest[k]);
  }
  sheet.check("every pass of a sub-workload yields the same latency digest",
              same_digest);
  sheet.queries(queries, 0);
  sheet.output("modeled_p50_s", last[0].summary.p50_seconds, "s");
  sheet.output("modeled_p99_s", last[0].summary.p99_seconds, "s");
  sheet.note("latency digests " + digests + "; " +
             std::to_string(last[0].queries) + " queries in " +
             std::to_string(last[0].batches) + " batches per pass of "
             "sub-workload 0; " + std::to_string(pass_s[0].size()) +
             " passes per sub-workload");

  sheet.output("probe_ms", 1e3 * probe.median_seconds(), "ms");
  report_timing(sheet, probe, "setup_s", median_of(setup_s), "s");
  report_timing(sheet, probe, "prepare_s", median_of(prepare_s), "s");
  report_timing(sheet, probe, "queries_per_s",
                pass_queries / (typical_pass_s * static_cast<double>(subs)),
                "q/s");
  report_timing(sheet, probe, "cycle_ms_p50", 1e3 * typical_pass_s, "ms");
  sheet.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace bohr::perfbench
