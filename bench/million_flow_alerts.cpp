// Million-flow shard-identity driver.
//
// The BM_MillionFlow variants in record_pipeline.cpp measure ingest
// throughput on the TLB-stress preset; this driver proves the CORRECTNESS
// half of the acceptance bar: on the same million-flow scenario (reduced
// distinct-client count so the run stays CI-sized), the sharded overlapped
// pipeline emits BIT-IDENTICAL alerts to the serial record -> process ->
// clear loop at 1/2/4/8 shards. The serial loop records per op through each
// sketch's update(); the shards record through record_ops and update_batch,
// so the comparison also pins batch against per-op recording. Emits one JSON
// object on stdout (mirroring detection_epoch.cpp); run_record_pipeline.py
// folds it into BENCH_throughput.json's million_flow section. Exit status is
// 0 only if every comparison matched and the scenario actually alerted.
//
// Usage: million_flow_alerts [distinct_clients_per_interval]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "detect/overlapped.hpp"

namespace hifind::bench {
namespace {

/// Serial reference: one bank, record -> process -> clear per interval.
std::vector<IntervalResult> replay_serial(const Scenario& scenario,
                                          const PipelineConfig& pc) {
  SketchBank bank(pc.bank);
  HifindDetector detector(pc.detector);
  IntervalClock clock(pc.detector.interval_seconds);
  std::vector<IntervalResult> results;
  std::uint64_t current = 0;
  bool any = false;
  auto close_interval = [&] {
    results.push_back(detector.process(bank, current));
    bank.clear();
  };
  for (const auto& p : scenario.trace.packets()) {
    const std::uint64_t iv = clock.interval_of(p.ts);
    if (!any) {
      current = iv;
      any = true;
    }
    while (current < iv) {
      close_interval();
      ++current;
    }
    bank.record(p);
  }
  close_interval();
  return results;
}

/// Sharded overlapped pipeline at `shards` record threads.
std::vector<IntervalResult> replay_sharded(const Scenario& scenario,
                                           const PipelineConfig& pc,
                                           unsigned shards) {
  OverlappedPipelineConfig cfg;
  cfg.bank = pc.bank;
  cfg.detector = pc.detector;
  cfg.record_threads = shards;
  OverlappedPipeline pipe(cfg);
  IntervalClock clock(pc.detector.interval_seconds);
  std::uint64_t current = 0;
  bool any = false;
  for (const auto& p : scenario.trace.packets()) {
    const std::uint64_t iv = clock.interval_of(p.ts);
    if (!any) {
      current = iv;
      any = true;
    }
    while (current < iv) {
      pipe.close_interval();
      ++current;
    }
    pipe.offer(p);
  }
  pipe.close_interval();
  pipe.wait_epoch_idle();
  return pipe.take_results();
}

/// Bit-identity across every phase list (same fields the determinism tests
/// compare; `refined` collapses to `final` in both drivers since no exact-
/// flow evidence exists before the first flagged interval's successor).
bool identical(const std::vector<IntervalResult>& a,
               const std::vector<IntervalResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].interval != b[i].interval || a[i].raw != b[i].raw ||
        a[i].after_2d != b[i].after_2d || a[i].final != b[i].final ||
        !(a[i].epoch == b[i].epoch)) {
      return false;
    }
  }
  return true;
}

int run(std::size_t distinct) {
  const PipelineConfig pc = default_pipeline_config();
  const Scenario scenario = build_scenario(million_flow_config(7, distinct));

  const std::vector<IntervalResult> serial = replay_serial(scenario, pc);
  std::size_t raw_alerts = 0, final_alerts = 0;
  for (const auto& r : serial) {
    raw_alerts += r.raw.size();
    final_alerts += r.final.size();
  }

  constexpr unsigned kShardCounts[] = {1, 2, 4, 8};
  bool shard_match[std::size(kShardCounts)];
  bool all_shards_match = true;
  for (std::size_t i = 0; i < std::size(kShardCounts); ++i) {
    shard_match[i] =
        identical(serial, replay_sharded(scenario, pc, kShardCounts[i]));
    all_shards_match = all_shards_match && shard_match[i];
  }

  // The floods land in the last interval, so raw alerts MUST fire there;
  // final may legitimately be empty (min_persist_intervals needs two).
  const bool non_vacuous = raw_alerts > 0;
  const bool ok = non_vacuous && all_shards_match;

  std::printf("{\n");
  std::printf("  \"scenario\": \"million_flow\",\n");
  std::printf("  \"distinct_clients_per_interval\": %zu,\n", distinct);
  std::printf("  \"packets\": %zu,\n", scenario.trace.packets().size());
  std::printf("  \"intervals\": %zu,\n", serial.size());
  std::printf("  \"raw_alerts\": %zu,\n", raw_alerts);
  std::printf("  \"final_alerts\": %zu,\n", final_alerts);
  std::printf("  \"shard_alerts_match\": {");
  for (std::size_t i = 0; i < std::size(kShardCounts); ++i) {
    std::printf("%s\"%u\": %s", i ? ", " : "", kShardCounts[i],
                shard_match[i] ? "true" : "false");
  }
  std::printf("},\n");
  std::printf("  \"all_match\": %s\n", ok ? "true" : "false");
  std::printf("}\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hifind::bench

int main(int argc, char** argv) {
  std::size_t distinct = 1u << 17;  // reduced default: CI-sized, ~2.2M pkts
  if (argc > 1) distinct = static_cast<std::size_t>(std::atoll(argv[1]));
  return hifind::bench::run(distinct);
}
