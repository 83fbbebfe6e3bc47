// Table-driven corruption sweep over the bank wire format: flip every byte
// of a small serialized bank, one at a time, and assert deserialize_bank
// either throws WireError or yields a bank equal to the original —
// never crashes, never silently hands back different counters that would
// mis-combine at the central site.
//
// For HFB2 the CRC-32C makes the contract strict: any payload flip must be
// rejected; only flips confined to the non-checksummed header provenance
// fields (router id, interval) may decode, and those leave the bank itself
// untouched. Legacy HFB1 has no checksum, so counter flips decode to a
// DIFFERENT bank — the sweep documents that gap (it is why HFB2 exists) by
// requiring every decoded-but-unequal case to be impossible under HFB2.
#include <gtest/gtest.h>

#include <vector>

#include "../testing/hfb1.hpp"
#include "detect/sketch_wire.hpp"

namespace hifind {
namespace {

/// Tiny bank so the sweep (bytes x flips) stays fast: ~8 KB serialized.
SketchBankConfig tiny_cfg() {
  SketchBankConfig c;
  c.seed = 99;
  c.rs48.num_stages = 2;
  c.rs48.bucket_bits = 6;
  c.rs64.num_stages = 2;
  c.rs64.bucket_bits = 8;
  c.verification.num_stages = 2;
  c.verification.num_buckets = 16;
  c.original.num_stages = 2;
  c.original.num_buckets = 16;
  c.twod.num_stages = 1;
  c.twod.x_buckets = 16;
  c.twod.y_buckets = 4;
  return c;
}

SketchBank populated_bank() {
  SketchBank bank(tiny_cfg());
  PacketRecord p;
  p.sip = IPv4(10, 0, 0, 1);
  p.dip = IPv4(129, 105, 1, 1);
  p.sport = 12345;
  p.dport = 443;
  p.flags = kSyn;
  for (int i = 0; i < 200; ++i) {
    p.sip = IPv4{0x0a000000u + static_cast<std::uint32_t>(i)};
    bank.record(p);
  }
  return bank;
}

TEST(WireCorruptionTest, EveryHfb2ByteFlipRejectedOrHarmless) {
  const SketchBank bank = populated_bank();
  const auto clean = serialize_frame(bank, /*router_id=*/3, /*interval=*/7);
  ASSERT_LT(clean.size(), 64u * 1024) << "sweep config grew too big";

  std::size_t rejected = 0, decoded_harmless = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto corrupt = clean;
    corrupt[i] ^= 0x5a;
    try {
      const SketchBank back = deserialize_bank(corrupt);
      // Decoding succeeded: only header provenance flips (router id,
      // interval — bytes 4..15) can get here, and the bank must be intact.
      EXPECT_GE(i, 4u) << "magic flip decoded";
      EXPECT_LT(i, 16u) << "checksummed byte " << i << " flip decoded";
      EXPECT_TRUE(back == bank)
          << "byte " << i << ": decoded bank differs (silent mis-combine)";
      ++decoded_harmless;
    } catch (const WireError&) {
      ++rejected;  // typed rejection is the expected outcome
    }
    // Anything else (std::bad_alloc, segfault, untyped error) fails the
    // test by escaping the catch.
  }
  // Exactly the 12 provenance-header bytes may decode; everything else —
  // magic, length, CRC, payload — must be rejected.
  EXPECT_EQ(decoded_harmless, 12u);
  EXPECT_EQ(rejected, clean.size() - 12u);
}

TEST(WireCorruptionTest, EveryHfb1ByteFlipRejectedOrDecodes) {
  // Legacy frames have no checksum: the sweep asserts the weaker "never
  // crashes" contract — every flip either throws WireError or decodes.
  const SketchBank bank = populated_bank();
  const auto clean = testing::hfb1_frame(bank);

  std::size_t rejected = 0, decoded = 0, silently_different = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto corrupt = clean;
    corrupt[i] ^= 0x5a;
    try {
      const SketchBank back = deserialize_bank(corrupt);
      ++decoded;
      if (!(back == bank)) ++silently_different;
    } catch (const WireError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected + decoded, clean.size());
  // Counter flips DO decode to a different bank under HFB1 — the gap that
  // motivated HFB2's CRC. Document it: the sweep must see such cases.
  EXPECT_GT(silently_different, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(WireCorruptionTest, TruncationAtEveryLengthRejected) {
  const SketchBank bank = populated_bank();
  const auto clean = serialize_frame(bank, 1, 1);
  // Every proper prefix must be rejected (step 7 keeps the sweep fast while
  // still hitting every header byte and every field-boundary class).
  for (std::size_t len = 0; len < clean.size();
       len += (len < 32 ? 1 : 7)) {
    const std::vector<std::uint8_t> prefix(clean.begin(),
                                           clean.begin() + len);
    EXPECT_THROW(deserialize_bank(prefix), WireError) << "length " << len;
  }
}

}  // namespace
}  // namespace hifind
