// The double-buffered overlapped pipeline must be a pure scheduling change:
// for the same packet stream it must emit BIT-IDENTICAL alerts to the serial
// record -> drain -> process -> clear loop, at any recording thread count,
// epoch thread count, or ring size — including the lifetime SYN/ACK history,
// which lives in the merged bank rather than in the per-interval shards.
// Runs under TSan in CI (the suite name is in the TSan filter) to check the
// rebind, shard-merge and epoch-mailbox handoffs for races.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "../../perfbench/digest.hpp"
#include "../testing/synthetic.hpp"
#include "detect/hifind.hpp"
#include "detect/load_shedder.hpp"
#include "detect/overlapped.hpp"
#include "detect/sharded_recorder.hpp"
#include "sketch/sketch_backend.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;
using testing::feed_hscan;
using testing::feed_vscan;

SketchBankConfig bank_cfg() {
  SketchBankConfig c;
  c.seed = 42;
  c.twod.x_buckets = 1u << 10;
  return c;
}

HifindDetectorConfig det_cfg(std::size_t epoch_threads,
                             const EpochBudget& budget = {}) {
  HifindDetectorConfig c;
  c.interval_seconds = 60;
  c.syn_rate_threshold = 1.0;
  c.min_persist_intervals = 2;
  c.epoch_threads = epoch_threads;
  c.budget = budget;
  return c;
}

/// A budget tight enough to truncate the mixed-attack scenario (same pinning
/// rationale as budget_determinism_test): the sharded pipeline must degrade
/// IDENTICALLY to the serial one when both run budgeted.
EpochBudget tight_budget() {
  EpochBudget b;
  b.deadline_ms = 1.0;
  b.work_units_per_ms = 600.0;
  b.max_heavy_per_stage = 4;
  return b;
}

/// Feeds the fixed 10-interval mixed-attack scenario into `sink`, calling
/// `close(interval)` at each interval boundary. The same generator drives
/// both pipelines so the packet streams are literally identical.
template <class Sink, class Close>
void run_scenario(Sink& sink, Close&& close) {
  Pcg32 rng(7, 11);
  const IPv4 victim(129, 105, 1, 1);
  const IPv4 victim2(129, 105, 2, 2);
  for (std::uint64_t interval = 0; interval < 10; ++interval) {
    feed_completed(sink, IPv4(100, 1, 1, 1), victim, 80, 30);
    feed_completed(sink, IPv4(100, 1, 1, 2), victim2, 443, 30);
    feed_completed(sink, IPv4(100, 1, 1, 3), IPv4(129, 105, 1, 3), 22, 20);
    if (interval >= 2) {
      feed_flood(sink, victim, 80, 400, /*spoofed=*/true, rng);
    }
    if (interval >= 3 && interval <= 7) {
      feed_flood(sink, victim2, 443, 300, /*spoofed=*/false, rng,
                 IPv4(6, 6, 6, 6));
    }
    if (interval >= 4) {
      feed_hscan(sink, IPv4(7, 7, 7, 7), 445, 250);
      feed_vscan(sink, IPv4(8, 8, 8, 8), IPv4(129, 105, 9, 9), 250);
    }
    close(interval);
  }
}

std::vector<IntervalResult> replay_serial(std::size_t epoch_threads,
                                          const EpochBudget& budget = {}) {
  SketchBank bank(bank_cfg());
  HifindDetector detector(det_cfg(epoch_threads, budget));
  std::vector<IntervalResult> results;
  run_scenario(bank, [&](std::uint64_t interval) {
    results.push_back(detector.process(bank, interval));
    bank.clear();
  });
  return results;
}

std::vector<IntervalResult> replay_overlapped(
    unsigned record_threads, std::size_t epoch_threads,
    std::size_t ring_capacity = ShardedRecorder::kDefaultRingCapacity,
    const EpochBudget& budget = {}) {
  OverlappedPipelineConfig cfg;
  cfg.bank = bank_cfg();
  cfg.detector = det_cfg(epoch_threads, budget);
  cfg.record_threads = record_threads;
  cfg.ring_capacity = ring_capacity;
  OverlappedPipeline pipe(cfg);
  run_scenario(pipe, [&](std::uint64_t) { pipe.close_interval(); });
  pipe.wait_epoch_idle();
  return pipe.take_results();
}

void expect_identical(const std::vector<IntervalResult>& a,
                      const std::vector<IntervalResult>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].interval, b[i].interval) << what << " interval " << i;
    EXPECT_EQ(a[i].raw, b[i].raw) << what << " raw, interval " << i;
    EXPECT_EQ(a[i].after_2d, b[i].after_2d)
        << what << " after_2d, interval " << i;
    EXPECT_EQ(a[i].final, b[i].final) << what << " final, interval " << i;
    EXPECT_EQ(a[i].epoch, b[i].epoch) << what << " epoch, interval " << i;
  }
}

TEST(OverlapDeterminism, ScenarioProducesAlerts) {
  // Guard against vacuous equality: the scenario must actually alert, and
  // phase 3 must actually exercise the lifetime SYN/ACK history.
  const auto serial = replay_serial(1);
  std::size_t raw = 0, fin = 0;
  for (const auto& r : serial) {
    raw += r.raw.size();
    fin += r.final.size();
  }
  EXPECT_GT(raw, 0u);
  EXPECT_GT(fin, 0u);
}

TEST(OverlapDeterminism, ShardedBitIdenticalToSerial) {
  // The tentpole guarantee: shared-nothing replicas merged by linearity at
  // seal are a pure scheduling change — same alerts as the serial loop at
  // every shard count, including the cumulative SYN/ACK history that lives
  // in the merged bank while each shard holds one interval.
  const auto serial = replay_serial(/*epoch_threads=*/1);
  expect_identical(serial, replay_overlapped(1, 1), "1 shard");
  expect_identical(serial, replay_overlapped(2, 1), "2 shards");
  expect_identical(serial, replay_overlapped(4, 4),
                   "4 shards, 4 epoch threads");
  expect_identical(serial, replay_overlapped(8, 2), "8 shards");
}

TEST(OverlapDeterminism, OverlappedBitIdenticalToSerial) {
  // The seal merge runs on the detector's epoch pool, right before
  // process() on the same pool: at the production 2 record threads, no pool
  // size (0 = auto, hardware-sized) may change a single alert.
  const auto serial = replay_serial(/*epoch_threads=*/1);
  expect_identical(serial, replay_overlapped(2, 1), "serial epoch");
  expect_identical(serial, replay_overlapped(2, 2), "2 epoch threads");
  expect_identical(serial, replay_overlapped(2, 4), "4 epoch threads");
  expect_identical(serial, replay_overlapped(2, 0), "auto epoch pool");
}

TEST(OverlapDeterminism, TinyRingsDoNotChangeAlerts) {
  // Tiny rings force constant wrap-around/backpressure in the recorder while
  // the epoch runs concurrently — the most adversarial interleaving.
  const auto serial = replay_serial(/*epoch_threads=*/1);
  expect_identical(serial, replay_overlapped(3, 2, /*ring_capacity=*/8),
                   "ring 8");
}

TEST(OverlapDeterminism, ShardedBudgetedDegradesIdentically) {
  // Budgeted + sharded: the latency budget's deterministic-truncation
  // contract must hold over the merged bank exactly as over a serial one —
  // same truncated alert set, same EpochReport degradation fields.
  const EpochBudget budget = tight_budget();
  const auto serial = replay_serial(/*epoch_threads=*/1, budget);
  bool any_truncated = false;
  for (const auto& r : serial) any_truncated |= r.epoch.truncated;
  EXPECT_TRUE(any_truncated) << "budget never tripped — vacuous test";
  expect_identical(serial,
                   replay_overlapped(4, 2,
                                     ShardedRecorder::kDefaultRingCapacity,
                                     budget),
                   "sharded budgeted");
}

TEST(OverlapDeterminism, ShardedReportsMergeTelemetry) {
  const auto sharded = replay_overlapped(4, 1);
  ASSERT_EQ(sharded.size(), 10u);
  bool any_all_busy = false;
  for (const auto& r : sharded) {
    EXPECT_EQ(r.epoch.shards, 4u);
    // Normalized occupancy brackets 1.0 (= perfectly balanced). Quiet
    // intervals can fit in fewer producer batches than there are shards, so
    // min may be 0 there; the attack-heavy intervals must load every shard.
    EXPECT_GE(r.epoch.shard_occupancy_min, 0.0);
    EXPECT_LE(r.epoch.shard_occupancy_min, 1.0 + 1e-9);
    EXPECT_GE(r.epoch.shard_occupancy_max, 1.0 - 1e-9);
    any_all_busy |= r.epoch.shard_occupancy_min > 0.0;
  }
  EXPECT_TRUE(any_all_busy) << "no interval ever loaded all shards";
}

TEST(OverlapDeterminism, ResultsArriveInIntervalOrder) {
  const auto results = replay_overlapped(2, 2);
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].interval, i);
  }
}

TEST(OverlapDeterminism, RebindSealsExactly) {
  // The pipeline's generation ping-pong at recorder level: seal A -> B,
  // merge and reset A, seal B -> A again. Each seal is a bare rebind (no
  // drain by the caller), and every sealed generation's merge must equal a
  // serial bank fed only that interval — including the reused generation A,
  // which must carry nothing over from its first interval.
  const SketchBankConfig cfg = bank_cfg();
  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> gen_a, gen_b;
  for (unsigned i = 0; i < 6; ++i) {
    banks.push_back(std::make_unique<SketchBank>(cfg));
    (i < 3 ? gen_a : gen_b).push_back(banks.back().get());
  }
  auto merge = [&](std::vector<SketchBank*>& gen) {
    auto merged = std::make_unique<SketchBank>(cfg);
    merged->merge_shards(
        std::span<const SketchBank* const>(gen.data(), gen.size()));
    for (SketchBank* s : gen) s->reset_all();
    return merged;
  };
  auto expect_same = [](const SketchBank& a, const SketchBank& b,
                        const char* what) {
    EXPECT_EQ(a.packets_recorded(), b.packets_recorded()) << what;
    EXPECT_TRUE(std::ranges::equal(a.os_dip_dport().counters(),
                                   b.os_dip_dport().counters()))
        << what;
    EXPECT_TRUE(std::ranges::equal(a.rs_sip_dport().counters(),
                                   b.rs_sip_dport().counters()))
        << what;
    EXPECT_TRUE(std::ranges::equal(a.twod_sipdip_dport().cells(),
                                   b.twod_sipdip_dport().cells()))
        << what;
  };

  Pcg32 serial_rng(3, 5), rec_rng(3, 5);
  SketchBank serial1(cfg), serial2(cfg), serial3(cfg);
  feed_completed(serial1, IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 80, 200);
  feed_hscan(serial2, IPv4(7, 7, 7, 7), 445, 200);
  feed_flood(serial3, IPv4(10, 0, 0, 2), 80, 300, /*spoofed=*/true,
             serial_rng);

  ShardedRecorder rec(gen_a, /*ring_capacity=*/16);
  feed_completed(rec, IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 80, 200);
  rec.rebind(gen_b);
  expect_same(*merge(gen_a), serial1, "interval 1 (generation A)");
  feed_hscan(rec, IPv4(7, 7, 7, 7), 445, 200);
  rec.rebind(gen_a);
  expect_same(*merge(gen_b), serial2, "interval 2 (generation B)");
  feed_flood(rec, IPv4(10, 0, 0, 2), 80, 300, /*spoofed=*/true, rec_rng);
  rec.drain();
  expect_same(*merge(gen_a), serial3, "interval 3 (generation A reused)");
}

// ---------------------------------------------------------------------------
// Behaviour lock: the scenario's per-interval perfbench digests, pinned.
//
// The equality tests above compare two live implementations; this one
// compares every run against checked-in constants, so a refactor that
// changes the serial loop and the pipeline the same way still fails here.
// Covers both sketch backends (HIFIND_TEST_BACKEND restricts to one), with
// load shedding off and on (the overload_determinism_test budget), through
// the serial loop and through OverlappedPipeline at 1, 2 and 4 record
// threads. The pipeline rows differ from the serial ones only where its
// exact-flow refinement stamps IntervalResult::refined.

SketchBankConfig pinned_bank_cfg(SketchBackendKind backend) {
  SketchBankConfig c = bank_cfg();
  c.backend = backend;
  if (backend == SketchBackendKind::kCompact) {
    c.ci48.bucket_bits = 10;
    c.ci64.bucket_bits = 10;
  }
  return c;
}

LoadShedderConfig pinned_shed_cfg(bool shed) {
  LoadShedderConfig c;
  if (shed) c.budget_ops_per_interval = 512;
  return c;
}

using Digests = std::array<std::uint64_t, 10>;

Digests digests_of(const std::vector<IntervalResult>& results) {
  Digests out{};
  EXPECT_EQ(results.size(), out.size());
  for (std::size_t i = 0; i < results.size() && i < out.size(); ++i) {
    out[i] = perfbench::digest_of(results[i]);
  }
  return out;
}

/// Serial record -> process -> clear, with the shedder applied inline
/// exactly as overload_determinism_test's reference loop does.
Digests pinned_serial(SketchBackendKind backend, bool shed) {
  SketchBank bank(pinned_bank_cfg(backend));
  HifindDetector detector(det_cfg(1));
  LoadShedder shedder(pinned_shed_cfg(shed));
  std::vector<IntervalResult> results;
  auto sink = [&](const PacketRecord& p) {
    RecordOp op{};
    if (!make_record_op(p, 1.0, op)) return;
    const double w = shedder.enabled() ? shedder.admit(op) : 1.0;
    if (w != 0.0) bank.record(p, w);
  };
  run_scenario(sink, [&](std::uint64_t interval) {
    results.push_back(detector.process(bank, interval));
    shedder.seal_interval();
    bank.clear();
  });
  return digests_of(results);
}

Digests pinned_pipeline(SketchBackendKind backend, bool shed,
                        unsigned record_threads) {
  OverlappedPipelineConfig cfg;
  cfg.bank = pinned_bank_cfg(backend);
  cfg.detector = det_cfg(2);
  cfg.record_threads = record_threads;
  cfg.shed = pinned_shed_cfg(shed);
  OverlappedPipeline pipe(cfg);
  run_scenario(pipe, [&](std::uint64_t) { pipe.close_interval(); });
  pipe.wait_epoch_idle();
  return digests_of(pipe.take_results());
}

std::string format_digests(const Digests& d) {
  std::string out = "{";
  char buf[32];
  for (std::size_t i = 0; i < d.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s0x%016llxull", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(d[i]));
    out += buf;
  }
  return out + "}";
}

struct PinnedRow {
  SketchBackendKind backend;
  bool shed;
  bool pipeline;
  Digests digests;
};

constexpr PinnedRow kPinned[] = {
    {SketchBackendKind::kReversible, false, false,
     {0x0b8a3c53d68d604eull, 0xb97281a0671b145eull,
      0x0f59aa6bbd976574ull, 0xa27ca81538e9100dull,
      0x95ec36145d1a3b19ull, 0xe59b29b995a2343cull,
      0x16bf50cbc0191529ull, 0x9153a992298b4f82ull,
      0x149546d10c63767cull, 0x038584c586a6dc55ull}},
    {SketchBackendKind::kReversible, false, true,
     {0x54f70c2786ac045eull, 0xf7992c21fe561b03ull,
      0xb05e08dd4905842aull, 0xb1864830d3ea2109ull,
      0x4cfd8266dc3ab6c2ull, 0xd5aba335d614e5fdull,
      0x1da6417beb1b3431ull, 0x651515afabd0603bull,
      0x87c12c4df62deb19ull, 0x294c6e2343ec954bull}},
    {SketchBackendKind::kReversible, true, false,
     {0x0b8a3c53d68d604eull, 0xb97281a0671b145eull,
      0xc1d776e97be88f9aull, 0x77b31a19cd35e1caull,
      0xaee4ee476989fb38ull, 0xf872406b8c509423ull,
      0x6e69ff35f9289cdeull, 0x9153a992298b4f82ull,
      0x149546d10c63767cull, 0x038584c586a6dc55ull}},
    {SketchBackendKind::kReversible, true, true,
     {0x54f70c2786ac045eull, 0xf7992c21fe561b03ull,
      0xac43aaaccc37001cull, 0xa472372ee4ca1512ull,
      0xff7ffdfbafd0dab4ull, 0xedb83f5041bbcf65ull,
      0xe29670f1e9453e52ull, 0x57f23a1856420c78ull,
      0x8ff74db80363ef09ull, 0x6eac4ac101e9ed20ull}},
    {SketchBackendKind::kCompact, false, false,
     {0x0b8a3c53d68d604eull, 0xb97281a0671b145eull,
      0x5061865721b63ae2ull, 0x818685b2f6a6a5c4ull,
      0xac10a04fb9d77496ull, 0x58aa7386cccc9d9bull,
      0xf1f1b7acc87d0646ull, 0x9153a992298b4f82ull,
      0x149546d10c63767cull, 0x038584c586a6dc55ull}},
    {SketchBackendKind::kCompact, false, true,
     {0x54f70c2786ac045eull, 0xf7992c21fe561b03ull,
      0x9196c59959873473ull, 0x79fa703eb09db573ull,
      0x156d75d0a384ec53ull, 0xe8c4df3d227a3ea1ull,
      0x0a6e0db079687df5ull, 0x651515afabd0603bull,
      0x87c12c4df62deb19ull, 0x294c6e2343ec954bull}},
    {SketchBackendKind::kCompact, true, false,
     {0x0b8a3c53d68d604eull, 0xb97281a0671b145eull,
      0x89accbeeb4685c41ull, 0xe2be5e0ed8e96070ull,
      0xc1da073f4ac8c218ull, 0xaac743592bc77a18ull,
      0xf68dd5a959c0eab4ull, 0x9153a992298b4f82ull,
      0x149546d10c63767cull, 0x038584c586a6dc55ull}},
    {SketchBackendKind::kCompact, true, true,
     {0x54f70c2786ac045eull, 0xf7992c21fe561b03ull,
      0xd737e9a2ebb5f379ull, 0x3a35f4c4747a93d3ull,
      0xa44cec9bc7775b2cull, 0x128266a3ff9f0bf0ull,
      0xe108a3eaf448c371ull, 0x57f23a1856420c78ull,
      0x8ff74db80363ef09ull, 0x6eac4ac101e9ed20ull}},
};

TEST(OverlapDeterminism, PinnedDigests) {
  const char* only = std::getenv("HIFIND_TEST_BACKEND");
  std::size_t rows_run = 0;
  for (const PinnedRow& row : kPinned) {
    if (only != nullptr && sketch_backend_name(row.backend) != only) continue;
    ++rows_run;
    const std::string what = std::string(sketch_backend_name(row.backend)) +
                             (row.shed ? ", shed" : ", no shed");
    if (!row.pipeline) {
      const Digests got = pinned_serial(row.backend, row.shed);
      EXPECT_EQ(got, row.digests)
          << what << ", serial: " << format_digests(got);
      continue;
    }
    for (unsigned threads : {1u, 2u, 4u}) {
      const Digests got = pinned_pipeline(row.backend, row.shed, threads);
      EXPECT_EQ(got, row.digests) << what << ", pipeline " << threads
                                  << " record threads: "
                                  << format_digests(got);
    }
  }
  EXPECT_GT(rows_run, 0u) << "HIFIND_TEST_BACKEND=" << only
                          << " names no backend";
}

}  // namespace
}  // namespace hifind
