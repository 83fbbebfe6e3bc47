#include "detect/sketch_wire.hpp"

#include <gtest/gtest.h>

#include "../testing/hfb1.hpp"
#include "../testing/synthetic.hpp"

namespace hifind {
namespace {

using testing::feed_completed;
using testing::feed_flood;
using testing::hfb1_frame;

SketchBankConfig small_cfg() {
  SketchBankConfig c;
  c.seed = 77;
  c.rs48.bucket_bits = 12;
  c.verification.num_buckets = 1u << 12;
  c.original.num_buckets = 1u << 12;
  c.twod.x_buckets = 1u << 10;
  return c;
}

TEST(SketchWireTest, RoundTripPreservesEveryCounter) {
  SketchBank bank(small_cfg());
  Pcg32 rng(3);
  feed_completed(bank, IPv4(100, 1, 1, 1), IPv4(129, 105, 1, 1), 443, 50);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 200, true, rng);

  const auto bytes = serialize_bank(bank);
  const SketchBank back = deserialize_bank(bytes);

  ASSERT_TRUE(back.combinable_with(bank));
  EXPECT_EQ(back.packets_recorded(), bank.packets_recorded());
  const auto a = bank.rs_dip_dport().counters();
  const auto b = back.rs_dip_dport().counters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
  // Estimates — which also exercise the recomputed stage sums — agree.
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 9, 9), 80);
  EXPECT_DOUBLE_EQ(back.rs_dip_dport().estimate(key),
                   bank.rs_dip_dport().estimate(key));
  EXPECT_DOUBLE_EQ(back.synack_history().estimate(
                       pack_ip_port(IPv4(129, 105, 1, 1), 443)),
                   bank.synack_history().estimate(
                       pack_ip_port(IPv4(129, 105, 1, 1), 443)));
}

TEST(SketchWireTest, DeserializedBankCombinesWithLiveBank) {
  // The point of the wire format: a shipped bank must be COMBINE-compatible
  // with banks built locally from the same config.
  SketchBank remote(small_cfg()), local(small_cfg());
  Pcg32 rng(5);
  feed_flood(remote, IPv4(129, 105, 9, 9), 80, 100, true, rng);
  feed_flood(local, IPv4(129, 105, 9, 9), 80, 150, true, rng);

  SketchBank shipped = deserialize_bank(serialize_bank(remote));
  shipped.accumulate(local);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 9, 9), 80);
  EXPECT_NEAR(shipped.rs_dip_dport().estimate(key), 250.0, 15.0);
}

TEST(SketchWireTest, RejectsCorruptedInput) {
  SketchBank bank(small_cfg());
  auto bytes = serialize_bank(bank);
  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_THROW(deserialize_bank(bad), std::runtime_error);
  // Truncated body.
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_bank(bytes), std::runtime_error);
}

// --- Versioned frames (HFB1 legacy + HFB2 checksummed) ------------------

std::vector<double> counters_of(const SketchBank& b) {
  const auto span = b.rs_dip_dport().counters();
  return {span.begin(), span.end()};
}

TEST(SketchWireTest, LegacyHfb1RoundTrips) {
  // Banks serialized before HFB2 existed must still load: deserialize_bank
  // dispatches on the magic.
  SketchBank bank(small_cfg());
  Pcg32 rng(9);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 120, true, rng);

  const auto v1 = hfb1_frame(bank);
  ASSERT_EQ(v1[0], 'H');
  ASSERT_EQ(v1[3], '1');
  const SketchBank back = deserialize_bank(v1);
  EXPECT_TRUE(back.combinable_with(bank));
  EXPECT_EQ(back.packets_recorded(), bank.packets_recorded());
  EXPECT_EQ(counters_of(back), counters_of(bank));

  const BankFrame frame = deserialize_frame(v1);
  EXPECT_EQ(frame.version, 1);
  EXPECT_EQ(frame.router_id, 0u);
  EXPECT_EQ(frame.interval, 0u);
}

TEST(SketchWireTest, Hfb2RoundTripsWithHeader) {
  SketchBank bank(small_cfg());
  Pcg32 rng(10);
  feed_flood(bank, IPv4(129, 105, 9, 9), 80, 120, true, rng);

  const auto v2 = serialize_frame(bank, /*router_id=*/6, /*interval=*/41);
  ASSERT_EQ(v2[3], '2');
  const BankFrame frame = deserialize_frame(v2);
  EXPECT_EQ(frame.version, 2);
  EXPECT_EQ(frame.router_id, 6u);
  EXPECT_EQ(frame.interval, 41u);
  EXPECT_EQ(frame.bank.packets_recorded(), bank.packets_recorded());
  EXPECT_EQ(counters_of(frame.bank), counters_of(bank));
}

TEST(SketchWireTest, TypedFaultsNameTheRejection) {
  SketchBank bank(small_cfg());
  const auto bytes = serialize_frame(bank, 1, 2);

  auto expect_fault = [](const std::vector<std::uint8_t>& frame,
                         WireFault want) {
    try {
      deserialize_bank(frame);
      FAIL() << "expected WireError " << wire_fault_name(want);
    } catch (const WireError& e) {
      EXPECT_EQ(e.fault(), want) << e.what();
    }
  };

  auto bad = bytes;
  bad[0] ^= 0xff;
  expect_fault(bad, WireFault::kBadMagic);

  bad = bytes;
  bad.resize(10);  // inside the HFB2 header
  expect_fault(bad, WireFault::kTruncated);

  bad = bytes;
  bad.resize(bytes.size() - 5);  // payload shorter than declared
  expect_fault(bad, WireFault::kTruncated);

  bad = bytes;
  bad.push_back(0);  // payload longer than declared
  expect_fault(bad, WireFault::kBadLength);

  bad = bytes;
  bad.back() ^= 0x40;  // flip payload content
  expect_fault(bad, WireFault::kChecksumMismatch);

  bad = bytes;
  bad[24] ^= 0x01;  // flip the stored CRC field itself (header offset 24)
  expect_fault(bad, WireFault::kChecksumMismatch);
}

TEST(SketchWireTest, Hfb1TrailingBytesRejected) {
  SketchBank bank(small_cfg());
  auto v1 = hfb1_frame(bank);
  v1.push_back(0xaa);
  try {
    deserialize_bank(v1);
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.fault(), WireFault::kTrailingBytes);
  }
}

TEST(SketchWireTest, WireSizeMatchesCounterFootprint) {
  SketchBank bank(small_cfg());
  const auto bytes = serialize_bank(bank);
  // Counters dominate; config/header overhead is tiny.
  EXPECT_GT(bytes.size(), bank.memory_bytes());
  EXPECT_LT(bytes.size(), bank.memory_bytes() + 4096);
}

}  // namespace
}  // namespace hifind
