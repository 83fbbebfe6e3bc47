// Tentpole property: shared-nothing shard replicas reduced by COMBINE
// linearity must be BIT-IDENTICAL (==, not ULP-tolerant) to serial record()
// of the same stream — at every shard count, under attack-heavy randomized
// traffic, with the merge run inline or fanned out on a TaskPool. Runs under
// TSan in CI (the suite names are in the TSan filter) to check the per-shard
// rings, rebind, and merge handoff for races.
#include "detect/sharded_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "../testing/synthetic.hpp"
#include "common/task_pool.hpp"
#include "detect/sketch_bank.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_hscan;
using testing::syn_packet;
using testing::synack_packet;

SketchBankConfig cfg() {
  SketchBankConfig c;
  c.seed = 42;
  c.rs48.bucket_bits = 12;
  c.verification.num_buckets = 1u << 12;
  c.original.num_buckets = 1u << 12;
  c.twod.x_buckets = 1u << 10;
  return c;
}

/// Attack-heavy randomized traffic: the regime sharding exists for. Mostly
/// one-sided SYNs (spoofed floods at a handful of victims, horizontal and
/// vertical scan probes) with a background of completed flows, all orders
/// interleaved by the RNG.
std::vector<PacketRecord> attack_heavy_stream(int n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<PacketRecord> out;
  out.reserve(static_cast<std::size_t>(n) * 2);
  const IPv4 victims[3] = {IPv4(129, 105, 1, 1), IPv4(129, 105, 2, 2),
                           IPv4(129, 105, 3, 3)};
  for (int i = 0; i < n; ++i) {
    const std::uint32_t roll = rng.bounded(10);
    if (roll < 3) {
      // Benign completed flow.
      const IPv4 server{0x81690000u | (rng.next() & 0xffu)};
      const IPv4 client{rng.next()};
      const auto sport = static_cast<std::uint16_t>(1024 + rng.bounded(60000));
      out.push_back(syn_packet(i, client, server, 443, sport));
      out.push_back(synack_packet(i, server, 443, client, sport));
    } else if (roll < 7) {
      // Spoofed SYN flood: random sources, few victims, no responses.
      out.push_back(syn_packet(i, IPv4{rng.next()}, victims[rng.bounded(3)],
                               80,
                               static_cast<std::uint16_t>(rng.bounded(60000))));
    } else if (roll < 9) {
      // Horizontal scan: one source probing one port across many hosts.
      out.push_back(syn_packet(i, IPv4(7, 7, 7, 7),
                               IPv4{0x81690000u | (rng.next() & 0xffffu)},
                               445));
    } else {
      // Vertical scan: one source walking ports on one host.
      out.push_back(syn_packet(i, IPv4(8, 8, 8, 8), victims[0],
                               static_cast<std::uint16_t>(rng.bounded(1024))));
    }
  }
  return out;
}

/// Background-heavy traffic: 40% completed handshakes to a /24 of servers,
/// the rest one-sided SYNs scattered over a /16 — the quiet-interval mix.
std::vector<PacketRecord> mixed_stream(int n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<PacketRecord> out;
  out.reserve(static_cast<std::size_t>(n) * 2);
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.4)) {
      const IPv4 server{0x81690000u | (rng.next() & 0xffu)};
      const IPv4 client{rng.next()};
      const auto sport = static_cast<std::uint16_t>(1024 + rng.bounded(60000));
      out.push_back(syn_packet(i, client, server, 443, sport));
      out.push_back(synack_packet(i, server, 443, client, sport));
    } else {
      out.push_back(syn_packet(i, IPv4{rng.next()},
                               IPv4{0x81690000u | (rng.next() & 0xffffu)},
                               static_cast<std::uint16_t>(rng.bounded(1024))));
    }
  }
  return out;
}

/// Owns `n` shard banks and exposes them as the pointer list the recorder
/// and merge_shards take.
struct ShardSet {
  explicit ShardSet(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      banks.push_back(std::make_unique<SketchBank>(cfg()));
      ptrs.push_back(banks.back().get());
    }
  }
  std::span<const SketchBank* const> view() const {
    return {ptrs.data(), ptrs.size()};
  }
  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> ptrs;
};

void expect_bank_bit_identical(const SketchBank& a, const SketchBank& b) {
  EXPECT_EQ(a.packets_recorded(), b.packets_recorded());
  auto same = [](std::span<const double> x, std::span<const double> y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], y[i]) << "counter " << i;
    }
  };
  same(a.rs_sip_dport().counters(), b.rs_sip_dport().counters());
  same(a.rs_dip_dport().counters(), b.rs_dip_dport().counters());
  same(a.rs_sip_dip().counters(), b.rs_sip_dip().counters());
  same(a.verif_sip_dport().counters(), b.verif_sip_dport().counters());
  same(a.verif_dip_dport().counters(), b.verif_dip_dport().counters());
  same(a.verif_sip_dip().counters(), b.verif_sip_dip().counters());
  same(a.os_dip_dport().counters(), b.os_dip_dport().counters());
  same(a.twod_sipdip_dport().cells(), b.twod_sipdip_dport().cells());
  same(a.twod_sipdport_dip().cells(), b.twod_sipdport_dip().cells());
  same(a.synack_history().counters(), b.synack_history().counters());
}

struct ShardedCase {
  unsigned shards;
  std::size_t ring_capacity;
};

class ShardedDeterminism : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(ShardedDeterminism, MergedShardsBitIdenticalToSerial) {
  const auto [num_shards, ring_capacity] = GetParam();
  Pcg32 stream_rng(0xacedULL * num_shards + ring_capacity);
  const auto stream =
      attack_heavy_stream(12000 + static_cast<int>(stream_rng.bounded(5000)),
                         stream_rng.next64());

  SketchBank serial(cfg());
  for (const auto& p : stream) serial.record(p);

  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> shards;
  for (unsigned i = 0; i < num_shards; ++i) {
    banks.push_back(std::make_unique<SketchBank>(cfg()));
    shards.push_back(banks.back().get());
  }
  {
    ShardedRecorder rec(shards, ring_capacity);
    // Mid-stream drains at random points exercise partial producer batches
    // (the round-robin deal-out includes short flushed tails).
    std::size_t next_drain = 1 + stream_rng.bounded(4096);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      rec.offer(stream[i]);
      if (i == next_drain) {
        rec.drain();
        next_drain += 1 + stream_rng.bounded(4096);
      }
    }
    rec.drain();
  }

  SketchBank merged(cfg());
  merged.merge_shards(
      std::span<const SketchBank* const>(shards.data(), shards.size()));
  expect_bank_bit_identical(merged, serial);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndRings, ShardedDeterminism,
    ::testing::Values(ShardedCase{1, 64}, ShardedCase{2, 8},
                      ShardedCase{4, 16}, ShardedCase{8, 64},
                      ShardedCase{8, ShardedRecorder::kDefaultRingCapacity}),
    [](const auto& info) {
      return "s" + std::to_string(info.param.shards) + "_ring" +
             std::to_string(info.param.ring_capacity);
    });

class ParallelRecorderThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelRecorderThreads, MatchesSerialRecordingExactly) {
  // Background-heavy traffic, one drain, up to 16 shards (more than the
  // attack-heavy cases above use).
  const unsigned threads = GetParam();
  const auto stream = mixed_stream(20000, 7);

  SketchBank serial(cfg());
  for (const auto& p : stream) serial.record(p);

  ShardSet shards(threads);
  {
    ShardedRecorder rec(shards.ptrs);
    for (const auto& p : stream) rec.offer(p);
    rec.drain();
  }
  SketchBank merged(cfg());
  merged.merge_shards(shards.view());
  expect_bank_bit_identical(merged, serial);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelRecorderThreads,
                         ::testing::Values(1u, 2u, 4u, 7u, 16u));

// The double-buffered pipeline's use of the recorder: seals (rebinds to the
// spare generation) land at random points of the stream, each sealed
// generation is merged and reset while the other records, and every merged
// interval must be bit-identical to a serial bank over the same packets —
// for rings far smaller than the producer's publish batch too, which force
// wrap-around and backpressure on every flush.
struct PipelineCase {
  unsigned threads;
  std::size_t ring_capacity;
};

class PipelineDeterminism : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineDeterminism, BitIdenticalToSerialUnderAdversarialBatching) {
  const auto [threads, ring_capacity] = GetParam();
  Pcg32 stream_rng(0xfeedULL * threads + ring_capacity);
  const auto stream =
      mixed_stream(12000 + static_cast<int>(stream_rng.bounded(5000)),
                   stream_rng.next64());

  ShardSet gens[2] = {ShardSet(threads), ShardSet(threads)};
  unsigned live = 0;
  SketchBank serial(cfg()), merged(cfg());
  ShardedRecorder rec(gens[live].ptrs, ring_capacity);
  auto seal = [&] {
    rec.rebind(gens[live ^ 1].ptrs);
    merged.merge_shards(gens[live].view());
    for (SketchBank* s : gens[live].ptrs) s->reset_all();
    live ^= 1;
    expect_bank_bit_identical(merged, serial);
    serial.clear();  // keeps the SYN/ACK history, as the merged bank does
  };
  std::size_t next_seal = 1 + stream_rng.bounded(4096);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rec.offer(stream[i]);
    serial.record(stream[i]);
    if (i == next_seal) {
      seal();
      next_seal += 1 + stream_rng.bounded(4096);
    }
  }
  seal();
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndRings, PipelineDeterminism,
    ::testing::Values(PipelineCase{1, 8}, PipelineCase{2, 8},
                      PipelineCase{4, 16}, PipelineCase{7, 8},
                      PipelineCase{2, 64}, PipelineCase{4, 1024},
                      PipelineCase{7, ShardedRecorder::kDefaultRingCapacity}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.threads) + "_ring" +
             std::to_string(info.param.ring_capacity);
    });

TEST(ShardedDeterminismTest, PoolAndInlineMergeBitIdentical) {
  // The per-sketch task fan-out must not change the arithmetic: merging on
  // a pool and merging inline produce the same bank, bit for bit.
  const auto stream = attack_heavy_stream(8000, 17);
  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> shards;
  for (unsigned i = 0; i < 4; ++i) {
    banks.push_back(std::make_unique<SketchBank>(cfg()));
    shards.push_back(banks.back().get());
  }
  {
    ShardedRecorder rec(shards);
    for (const auto& p : stream) rec.offer(p);
    rec.drain();
  }
  const std::span<const SketchBank* const> view(shards.data(), shards.size());
  SketchBank inline_merged(cfg()), pooled(cfg());
  inline_merged.merge_shards(view, nullptr);
  TaskPool pool(4);
  pooled.merge_shards(view, &pool);
  expect_bank_bit_identical(pooled, inline_merged);
}

TEST(ShardedDeterminismTest, HistoryAccumulatesAcrossMergedIntervals) {
  // Multi-interval equivalence: shards are per-interval accumulators (reset
  // after each merge) while the merged bank retains the cumulative SYN/ACK
  // service history — exactly the state a serially reused bank carries
  // through record -> process -> clear cycles.
  const auto interval1 = attack_heavy_stream(6000, 23);
  const auto interval2 = attack_heavy_stream(6000, 29);

  SketchBank serial(cfg());
  for (const auto& p : interval1) serial.record(p);
  serial.clear();  // keeps the SYN/ACK history, as the serial pipeline does
  for (const auto& p : interval2) serial.record(p);

  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> shards;
  for (unsigned i = 0; i < 4; ++i) {
    banks.push_back(std::make_unique<SketchBank>(cfg()));
    shards.push_back(banks.back().get());
  }
  const std::span<const SketchBank* const> view(shards.data(), shards.size());
  SketchBank merged(cfg());
  ShardedRecorder rec(shards);
  for (const auto& p : interval1) rec.offer(p);
  rec.drain();
  merged.merge_shards(view);
  for (SketchBank* s : shards) s->reset_all();
  for (const auto& p : interval2) rec.offer(p);
  rec.drain();
  merged.merge_shards(view);
  expect_bank_bit_identical(merged, serial);
}

TEST(ShardedDeterminismTest, WeightedOffersMatchWeightedSerialRecord) {
  // Sampling weights 2^-k keep every partial sum exactly representable, so
  // weighted offers merged across shards equal a weighted serial record()
  // bit for bit (the inline compensation the load shedder relies on).
  const auto stream = attack_heavy_stream(6000, 21);
  Pcg32 rng(33);
  std::vector<double> weights(stream.size());
  for (auto& w : weights) w = 1.0 / static_cast<double>(1u << rng.bounded(5));

  SketchBank serial(cfg());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    serial.record(stream[i], weights[i]);
  }
  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> shards;
  for (unsigned i = 0; i < 4; ++i) {
    banks.push_back(std::make_unique<SketchBank>(cfg()));
    shards.push_back(banks.back().get());
  }
  {
    ShardedRecorder rec(shards, /*ring_capacity=*/32);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      rec.offer(stream[i], weights[i]);
    }
    rec.drain();
  }
  SketchBank merged(cfg());
  merged.merge_shards(
      std::span<const SketchBank* const>(shards.data(), shards.size()));
  expect_bank_bit_identical(merged, serial);
}

TEST(ParallelRecorderTest, DrainIsReusableAcrossIntervals) {
  // The same recorder drains interval after interval: once its shards are
  // reset, a second pass over the stream records exactly what the first did.
  ShardSet shards(3);
  SketchBank first(cfg()), second(cfg());
  ShardedRecorder rec(shards.ptrs);
  const auto stream = mixed_stream(3000, 9);
  for (const auto& p : stream) rec.offer(p);
  rec.drain();
  first.merge_shards(shards.view());
  EXPECT_GT(first.packets_recorded(), 0u);
  for (SketchBank* s : shards.ptrs) s->reset_all();
  for (const auto& p : stream) rec.offer(p);
  rec.drain();
  second.merge_shards(shards.view());
  expect_bank_bit_identical(second, first);
}

TEST(ParallelRecorderTest, DrainOnEmptyIsImmediate) {
  SketchBank a(cfg()), b(cfg());
  std::vector<SketchBank*> shards{&a, &b};
  ShardedRecorder rec(shards);
  rec.drain();
  rec.drain();
  EXPECT_EQ(rec.drain_spin_yields(), 0u);
  EXPECT_EQ(a.packets_recorded() + b.packets_recorded(), 0u);
}

TEST(ParallelRecorderTest, DrainYieldsInsteadOfSpinningOnLongBacklogs) {
  // One shard, a deep ring, and a burst far larger than the spin budget:
  // drain() must fall back from pause-spinning to yielding/sleeping while
  // the worker chews through the backlog, and account for it.
  SketchBank bank(cfg());
  std::vector<SketchBank*> shards{&bank};
  ShardedRecorder rec(shards, /*ring_capacity=*/4096);
  EXPECT_EQ(rec.drain_spin_yields(), 0u);
  const auto stream = attack_heavy_stream(30000, 13);
  for (const auto& p : stream) rec.offer(p);
  rec.drain();
  const auto yields = rec.drain_spin_yields();
  EXPECT_GT(yields, 0u)
      << "a multi-ms backlog drained inside the pure-spin budget?";
  // Counter is cumulative and an empty drain adds nothing.
  rec.drain();
  EXPECT_EQ(rec.drain_spin_yields(), yields);
  EXPECT_GT(bank.packets_recorded(), 0u);
}

TEST(ShardedRecorderTest, RebindSealsGenerationsExactly) {
  // Packets offered before rebind() land in the old shard generation,
  // packets after in the new one: each generation's merge matches a serial
  // bank fed only that side of the seal.
  const SketchBankConfig c = cfg();
  SketchBank serial_a(c), serial_b(c);
  feed_completed(serial_a, IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 80, 300);
  feed_hscan(serial_b, IPv4(7, 7, 7, 7), 445, 300);

  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> gen_a, gen_b;
  for (unsigned i = 0; i < 6; ++i) {
    banks.push_back(std::make_unique<SketchBank>(c));
    (i < 3 ? gen_a : gen_b).push_back(banks.back().get());
  }
  ShardedRecorder rec(gen_a, /*ring_capacity=*/16);
  feed_completed(rec, IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 80, 300);
  rec.rebind(gen_b);
  feed_hscan(rec, IPv4(7, 7, 7, 7), 445, 300);
  rec.drain();

  SketchBank merged_a(c), merged_b(c);
  merged_a.merge_shards(
      std::span<const SketchBank* const>(gen_a.data(), gen_a.size()));
  merged_b.merge_shards(
      std::span<const SketchBank* const>(gen_b.data(), gen_b.size()));
  expect_bank_bit_identical(merged_a, serial_a);
  expect_bank_bit_identical(merged_b, serial_b);
}

TEST(ShardedRecorderTest, TakeShardOpsAccountsEveryOpOnce) {
  const auto stream = attack_heavy_stream(5000, 31);
  std::vector<std::unique_ptr<SketchBank>> banks;
  std::vector<SketchBank*> shards;
  for (unsigned i = 0; i < 4; ++i) {
    banks.push_back(std::make_unique<SketchBank>(cfg()));
    shards.push_back(banks.back().get());
  }
  ShardedRecorder rec(shards);
  for (const auto& p : stream) rec.offer(p);
  rec.drain();
  const auto ops = rec.take_shard_ops();
  ASSERT_EQ(ops.size(), 4u);
  std::uint64_t total = 0, per_shard_sum = 0;
  for (std::uint64_t o : ops) total += o;
  for (const SketchBank* s : shards) per_shard_sum += s->packets_recorded();
  // Each op is dealt to exactly one shard; every stream packet is a SYN or
  // SYN-ACK so none are skipped at extraction.
  EXPECT_EQ(total, stream.size());
  EXPECT_EQ(per_shard_sum, stream.size());
  // The counter is a delta: a second take with no new traffic reads zero.
  for (std::uint64_t o : rec.take_shard_ops()) EXPECT_EQ(o, 0u);
}

TEST(ShardedRecorderTest, RejectsInvalidShardSets) {
  // Each bank gets its own worker writing it with plain stores: a null bank
  // would crash that worker and a repeated bank would be a data race.
  SketchBank a(cfg()), b(cfg());
  std::vector<SketchBank*> none;
  EXPECT_THROW(ShardedRecorder{none}, std::invalid_argument);
  std::vector<SketchBank*> with_null{&a, nullptr};
  EXPECT_THROW(ShardedRecorder{with_null}, std::invalid_argument);
  std::vector<SketchBank*> repeated{&a, &a};
  EXPECT_THROW(ShardedRecorder{repeated}, std::invalid_argument);

  std::vector<SketchBank*> two{&a, &b};
  ShardedRecorder rec(two);
  std::vector<SketchBank*> one{&a};
  EXPECT_THROW(rec.rebind(one), std::invalid_argument);
  EXPECT_THROW(rec.rebind(with_null), std::invalid_argument);
  EXPECT_THROW(rec.rebind(repeated), std::invalid_argument);
  // A rejected rebind leaves the recorder bound to its old generation.
  feed_completed(rec, IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2), 80, 300);
  rec.drain();
  EXPECT_EQ(a.packets_recorded() + b.packets_recorded(), 600u);
}

TEST(ShardMergeTest, RejectsAliasedAndMismatchedInputs) {
  SketchBank merged(cfg()), shard(cfg());
  // Destination aliasing a shard would read overwritten state.
  {
    std::vector<const SketchBank*> terms{&merged};
    EXPECT_THROW(merged.merge_shards(std::span<const SketchBank* const>(
                     terms.data(), terms.size())),
                 std::invalid_argument);
  }
  // Config mismatch (different seed => different hash rows) is not linear.
  SketchBankConfig other = cfg();
  other.seed = 43;
  SketchBank mismatched(other);
  {
    std::vector<const SketchBank*> terms{&mismatched};
    EXPECT_THROW(merged.merge_shards(std::span<const SketchBank* const>(
                     terms.data(), terms.size())),
                 std::invalid_argument);
  }
  // Empty shard set has no defined sum.
  EXPECT_THROW(
      merged.merge_shards(std::span<const SketchBank* const>()),
      std::invalid_argument);
  // A valid single-shard merge still works after the failed attempts.
  std::vector<const SketchBank*> ok{&shard};
  merged.merge_shards(
      std::span<const SketchBank* const>(ok.data(), ok.size()));
  EXPECT_EQ(merged.packets_recorded(), 0u);
}

}  // namespace
}  // namespace hifind
