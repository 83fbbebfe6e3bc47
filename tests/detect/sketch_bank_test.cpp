#include "detect/sketch_bank.hpp"

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "../testing/hfb1.hpp"
#include "../testing/synthetic.hpp"
#include "detect/sketch_wire.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;
using testing::syn_packet;
using testing::synack_packet;

SketchBankConfig small_bank(std::uint64_t seed = 42) {
  SketchBankConfig c;
  c.seed = seed;
  // Shrink shapes for test speed; ratios match the paper layout.
  c.rs48.bucket_bits = 12;
  c.rs64.bucket_bits = 16;
  c.verification.num_buckets = 1u << 12;
  c.original.num_buckets = 1u << 12;
  c.twod.x_buckets = 1u << 10;
  return c;
}

TEST(SketchBankTest, CompletedHandshakeNetsToZero) {
  SketchBank bank(small_bank());
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 50);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 1, 1), 443);
  EXPECT_NEAR(bank.rs_dip_dport().estimate(key), 0.0, 1.0);
  EXPECT_NEAR(bank.verif_dip_dport().estimate(key), 0.0, 1.0);
}

TEST(SketchBankTest, UnansweredSynsAccumulate) {
  SketchBank bank(small_bank());
  Pcg32 rng(1);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 300, /*spoofed=*/true, rng);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 9, 9), 80);
  EXPECT_NEAR(bank.rs_dip_dport().estimate(key), 300.0, 20.0);
}

TEST(SketchBankTest, OsRecordsSynOnly) {
  SketchBank bank(small_bank());
  // 100 completed handshakes: RS nets 0 but OS counts 100 SYNs.
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 100);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 1, 1), 443);
  EXPECT_NEAR(bank.os_dip_dport().estimate(key), 100.0, 5.0);
}

TEST(SketchBankTest, SynackHistorySurvivesClear) {
  SketchBank bank(small_bank());
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 40);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 1, 1), 443);
  EXPECT_GE(bank.synack_history().estimate(key), 30.0);
  bank.clear();
  EXPECT_GE(bank.synack_history().estimate(key), 30.0)
      << "lifetime history must survive interval clears";
  EXPECT_NEAR(bank.rs_dip_dport().estimate(key), 0.0, 1e-9);
  bank.reset_all();
  EXPECT_NEAR(bank.synack_history().estimate(key), 0.0, 1.0);
}

TEST(SketchBankTest, NonSynPacketsAreIgnored) {
  SketchBank bank(small_bank());
  PacketRecord ack = syn_packet(0, IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2), 80);
  ack.flags = kAck;
  bank.record(ack);
  PacketRecord udp = syn_packet(0, IPv4(1, 1, 1, 1), IPv4(2, 2, 2, 2), 53);
  udp.proto = Protocol::kUdp;
  bank.record(udp);
  EXPECT_EQ(bank.packets_recorded(), 0u);
}

TEST(SketchBankTest, TwoDSketchesSeeCorrectDimensions) {
  SketchBank bank(small_bank());
  const IPv4 attacker(6, 6, 6, 6);
  const IPv4 target(129, 105, 3, 3);
  // Vertical scan: 200 ports on one target.
  for (int port = 1; port <= 200; ++port) {
    bank.record(syn_packet(port, attacker, target,
                           static_cast<std::uint16_t>(port)));
  }
  const std::uint64_t sipdip = pack_ip_ip(attacker, target);
  EXPECT_EQ(bank.twod_sipdip_dport().classify(sipdip),
            ColumnShape::kSpread);

  // Non-spoofed flood from another source: one port, one target.
  const IPv4 flooder(7, 7, 7, 7);
  for (int i = 0; i < 200; ++i) {
    bank.record(syn_packet(1000 + i, flooder, target, 80));
  }
  EXPECT_EQ(bank.twod_sipdip_dport().classify(pack_ip_ip(flooder, target)),
            ColumnShape::kConcentrated);
}

TEST(SketchBankTest, CombineEqualsSingleBank) {
  const SketchBankConfig cfg = small_bank(9);
  SketchBank a(cfg), b(cfg), whole(cfg);
  Pcg32 rng(2);
  for (int i = 0; i < 2000; ++i) {
    PacketRecord p = syn_packet(
        i, IPv4{rng.next()}, IPv4{0x81690000u | (rng.next() & 0xffff)},
        static_cast<std::uint16_t>(rng.bounded(1024)));
    if (rng.chance(0.4)) p.flags = kSyn | kAck;
    (rng.chance(0.5) ? a : b).record(p);
    whole.record(p);
  }
  std::vector<std::pair<double, const SketchBank*>> terms{{1.0, &a},
                                                          {1.0, &b}};
  const SketchBank combined = SketchBank::combine(terms);
  const auto cw = whole.rs_dip_dport().counters();
  const auto cc = combined.rs_dip_dport().counters();
  for (std::size_t i = 0; i < cw.size(); ++i) {
    ASSERT_DOUBLE_EQ(cw[i], cc[i]);
  }
  EXPECT_EQ(combined.packets_recorded(), whole.packets_recorded());
}

TEST(SketchBankTest, CombineRejectsDifferentSeeds) {
  SketchBank a(small_bank(1)), b(small_bank(2));
  EXPECT_THROW(a.accumulate(b), std::invalid_argument);
}

TEST(SketchBankTest, EqualityIsExactOverConfigCountersAndPacketCount) {
  SketchBank bank(small_bank(5));
  Pcg32 rng(4);
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 30);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 150, /*spoofed=*/true, rng);

  EXPECT_TRUE(deserialize_bank(serialize_bank(bank)) == bank);

  // One counter differs: flip the top byte of the last counter of the last
  // array (the SYN/ACK history), just before the trailing packet count.
  auto frame = testing::hfb1_frame(bank);
  frame[frame.size() - 9] ^= 0x5a;
  const SketchBank one_off = deserialize_bank(frame);
  EXPECT_EQ(one_off.packets_recorded(), bank.packets_recorded());
  EXPECT_FALSE(one_off == bank);

  // Same (all-zero) counters and packet count, different config.
  EXPECT_FALSE(SketchBank(small_bank(1)) == SketchBank(small_bank(2)));
  EXPECT_TRUE(SketchBank(small_bank(1)) == SketchBank(small_bank(1)));
}

TEST(SketchBankTest, WeightedRecordScalesEveryMetric) {
  // Sampled deployment: 1/4 of packets recorded at weight 4 must estimate
  // the same totals (in expectation; here deterministically, by recording
  // every 4th packet of a uniform stream).
  SketchBank full(small_bank(3)), sampled(small_bank(3));
  const IPv4 victim(129, 105, 9, 9);
  Pcg32 rng(5);
  int i = 0;
  for (int n = 0; n < 400; ++n, ++i) {
    const auto p = syn_packet(n, IPv4{rng.next()}, victim, 80,
                              static_cast<std::uint16_t>(1024 + n));
    full.record(p);
    if (i % 4 == 0) sampled.record(p, 4.0);
  }
  const std::uint64_t key = pack_ip_port(victim, 80);
  EXPECT_NEAR(sampled.rs_dip_dport().estimate(key),
              full.rs_dip_dport().estimate(key), 30.0);
  EXPECT_NEAR(sampled.os_dip_dport().estimate(key),
              full.os_dip_dport().estimate(key), 30.0);
}

TEST(SketchBankTest, PaperShapeMemoryIsAbout13MB) {
  // Full paper configuration: 13.2MB with 32-bit counters (Sec. 5.5.1).
  SketchBankConfig paper;
  SketchBank bank(paper);
  const double mb = static_cast<double>(bank.memory_bytes_hw()) / 1e6;
  EXPECT_GT(mb, 8.0);
  EXPECT_LT(mb, 18.0);
}

TEST(SketchBankTest, AccessesPerPacketIsSmallAndFixed) {
  SketchBank bank(small_bank());
  // 3 RS x 6 + 3 verif x 6 + OS x 6 + 2 x 2D x 5 = 52. (A SYN updates the
  // OS, a SYN/ACK the history sketch — also 6 stages — so the per-packet
  // total is 52 either way.)
  EXPECT_EQ(bank.accesses_per_packet(), 52u);
}

void expect_same_1d(const auto& a, const auto& b, std::size_t stages,
                    const char* what) {
  ASSERT_EQ(a.counters().size(), b.counters().size()) << what;
  for (std::size_t i = 0; i < a.counters().size(); ++i) {
    ASSERT_EQ(a.counters()[i], b.counters()[i]) << what << " counter " << i;
  }
  for (std::size_t h = 0; h < stages; ++h) {
    ASSERT_EQ(a.stage_sum(h), b.stage_sum(h)) << what << " stage " << h;
  }
}

void expect_same_2d(const TwoDSketch& a, const TwoDSketch& b,
                    const char* what) {
  ASSERT_EQ(a.cells().size(), b.cells().size()) << what;
  for (std::size_t i = 0; i < a.cells().size(); ++i) {
    ASSERT_EQ(a.cells()[i], b.cells()[i]) << what << " cell " << i;
  }
}

TEST(SketchBankTest, RecordOpsMatchesPerOpRecord) {
  // record_ops (sketch-major, 256-op staged chunks, update_batch) must leave
  // every sketch bit-identical to record_op per op in order. Span lengths
  // straddle the chunk size; the all-SYN span is longer than a chunk, so the
  // OS sketch's direction-filtered feed flushes mid-span while the history
  // sketch sees nothing.
  Pcg32 rng(13);
  auto make_ops = [&](std::size_t n, bool all_syn) {
    std::vector<RecordOp> ops;
    while (ops.size() < n) {
      PacketRecord p = syn_packet(
          static_cast<Timestamp>(ops.size()), IPv4{rng.next()},
          IPv4{0x81690000u | (rng.next() & 0xffff)},
          static_cast<std::uint16_t>(rng.bounded(1024)));
      if (!all_syn && rng.chance(0.4)) p.flags = kSyn | kAck;
      const double weight = static_cast<double>(1u << rng.bounded(4)) / 2.0;
      RecordOp op;
      if (make_record_op(p, weight, op)) ops.push_back(op);
    }
    return ops;
  };
  const SketchBankConfig cfg = small_bank();
  SketchBank batched(cfg), per_op(cfg);
  for (const auto& [n, all_syn] :
       {std::pair{0u, false}, std::pair{1u, false}, std::pair{255u, false},
        std::pair{256u, false}, std::pair{257u, false},
        std::pair{1000u, false}, std::pair{600u, true}}) {
    SCOPED_TRACE(::testing::Message() << "span " << n << " all_syn "
                                      << all_syn);
    const std::vector<RecordOp> ops = make_ops(n, all_syn);
    batched.record_ops(ops, SketchBank::kGroupAll);
    for (const RecordOp& op : ops) per_op.record_op(op, SketchBank::kGroupAll);
    EXPECT_EQ(batched.packets_recorded(), per_op.packets_recorded());
    const std::size_t rs48 = cfg.rs48.num_stages;
    const std::size_t rs64 = cfg.rs64.num_stages;
    const std::size_t kary = cfg.verification.num_stages;
    const std::size_t os = cfg.original.num_stages;
    expect_same_1d(batched.rs_sip_dport(), per_op.rs_sip_dport(), rs48,
                   "rs_sd");
    expect_same_1d(batched.rs_dip_dport(), per_op.rs_dip_dport(), rs48,
                   "rs_dd");
    expect_same_1d(batched.rs_sip_dip(), per_op.rs_sip_dip(), rs64, "rs_si");
    expect_same_1d(batched.verif_sip_dport(), per_op.verif_sip_dport(), kary,
                   "verif_sd");
    expect_same_1d(batched.verif_dip_dport(), per_op.verif_dip_dport(), kary,
                   "verif_dd");
    expect_same_1d(batched.verif_sip_dip(), per_op.verif_sip_dip(), kary,
                   "verif_si");
    expect_same_1d(batched.os_dip_dport(), per_op.os_dip_dport(), os, "os");
    expect_same_1d(batched.synack_history(), per_op.synack_history(), kary,
                   "history");
    expect_same_2d(batched.twod_sipdip_dport(), per_op.twod_sipdip_dport(),
                   "2d_sidip_dport");
    expect_same_2d(batched.twod_sipdport_dip(), per_op.twod_sipdport_dip(),
                   "2d_sdport_dip");
  }
}

TEST(RecordMaskedTest, GroupsPartitionTheBank) {
  // Applying each group exactly once must equal one full record(): every
  // sketch sees the same stream in the same order, so state is identical.
  std::vector<PacketRecord> stream;
  Pcg32 rng(11);
  for (int i = 0; i < 2000; ++i) {
    PacketRecord p = syn_packet(
        i, IPv4{rng.next()}, IPv4{0x81690000u | (rng.next() & 0xffff)},
        static_cast<std::uint16_t>(rng.bounded(1024)));
    if (rng.chance(0.4)) p.flags = kSyn | kAck;
    stream.push_back(p);
  }
  SketchBank full(small_bank()), by_groups(small_bank());
  for (const auto& p : stream) full.record(p);
  for (unsigned g = 0; g < SketchBank::kNumSketchGroups; ++g) {
    for (const auto& p : stream) by_groups.record_masked(p, 1u << g);
  }
  EXPECT_EQ(by_groups.packets_recorded(), full.packets_recorded());
  auto same = [](std::span<const double> a, std::span<const double> b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  };
  same(full.rs_dip_dport().counters(), by_groups.rs_dip_dport().counters());
  same(full.os_dip_dport().counters(), by_groups.os_dip_dport().counters());
  same(full.synack_history().counters(),
       by_groups.synack_history().counters());
}

}  // namespace
}  // namespace hifind
