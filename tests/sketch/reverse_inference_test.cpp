#include "sketch/reverse_inference.hpp"

#include "sketch/kary_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace hifind {
namespace {

ReversibleSketchConfig rs48(std::uint64_t seed = 1) {
  return ReversibleSketchConfig{.key_bits = 48, .num_stages = 6,
                                .bucket_bits = 12, .seed = seed};
}

ReversibleSketchConfig rs64(std::uint64_t seed = 1) {
  return ReversibleSketchConfig{.key_bits = 64, .num_stages = 6,
                                .bucket_bits = 16, .seed = seed};
}

bool contains_key(const InferenceResult& r, std::uint64_t key) {
  return std::any_of(r.keys.begin(), r.keys.end(),
                     [key](const HeavyKey& h) { return h.key == key; });
}

TEST(ReverseInferenceTest, EmptySketchYieldsNothing) {
  ReversibleSketch s(rs48());
  const InferenceResult r = infer_heavy_keys(s, 10.0);
  EXPECT_TRUE(r.keys.empty());
  EXPECT_FALSE(r.truncated);
}

TEST(ReverseInferenceTest, RecoversSingleHeavyKeyWithStrictIntersection) {
  // With stage_slack = 0 a candidate must hit the heavy bucket in EVERY
  // stage; near-collision keys (differing in one mangled word) survive only
  // with probability (1/4)^6, so recovery is essentially exact.
  ReversibleSketch s(rs48());
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 44, 7), 1433);
  s.update(key, 500.0);
  InferenceOptions strict;
  strict.stage_slack = 0;
  const InferenceResult r = infer_heavy_keys(s, 100.0, strict);
  ASSERT_EQ(r.keys.size(), 1u);
  EXPECT_EQ(r.keys[0].key, key);
  EXPECT_NEAR(r.keys[0].estimate, 500.0, 1e-6);
}

TEST(ReverseInferenceTest, SlackAdmitsNearCollisionsThatVerificationRemoves) {
  // With stage_slack = 1 (the production default, tolerant of one corrupted
  // stage) a handful of keys sharing 5 of 6 stage buckets with the true key
  // are also emitted. This is the documented contract: bare inference is a
  // small superset, and the paired verification sketch — an independent
  // full-key hash — screens it down to the true key.
  ReversibleSketch s(rs48());
  KarySketch verif(KarySketchConfig{.num_stages = 6,
                                    .num_buckets = 1u << 14,
                                    .seed = 99});
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 44, 7), 1433);
  s.update(key, 500.0);
  verif.update(key, 500.0);
  const InferenceResult r = infer_heavy_keys(s, 100.0);
  ASSERT_GE(r.keys.size(), 1u);
  std::vector<HeavyKey> screened;
  for (const HeavyKey& k : r.keys) {
    if (verif.estimate(k.key) >= 100.0) screened.push_back(k);
  }
  ASSERT_EQ(screened.size(), 1u);
  EXPECT_EQ(screened[0].key, key);
}

TEST(ReverseInferenceTest, RecoversHeavyKeysUnderBackgroundNoise) {
  ReversibleSketch s(rs48(3));
  Pcg32 rng(29);
  for (int i = 0; i < 30000; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
  }
  std::set<std::uint64_t> heavy;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t key =
        pack_ip_port(IPv4(200, 1, 1, static_cast<std::uint8_t>(i)), 80);
    heavy.insert(key);
    s.update(key, 400.0 + 50.0 * i);
  }
  const InferenceResult r = infer_heavy_keys(s, 200.0);
  for (const std::uint64_t key : heavy) {
    EXPECT_TRUE(contains_key(r, key)) << format_key(KeyKind::DipDport, key);
  }
}

TEST(ReverseInferenceTest, VerificationScreensToExactlyThePlantedKeys) {
  ReversibleSketch s(rs48(5));
  KarySketch verif(KarySketchConfig{.num_stages = 6,
                                    .num_buckets = 1u << 14,
                                    .seed = 101});
  std::set<std::uint64_t> heavy;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t key = pack_ip_port(IPv4(10, 0, 3, i), 22);
    heavy.insert(key);
    s.update(key, 1000.0);
    verif.update(key, 1000.0);
  }
  const InferenceResult r = infer_heavy_keys(s, 500.0);
  std::set<std::uint64_t> screened;
  for (const HeavyKey& h : r.keys) {
    EXPECT_GE(h.estimate, 500.0);
    if (verif.estimate(h.key) >= 500.0) screened.insert(h.key);
  }
  EXPECT_EQ(screened, heavy);
}

TEST(ReverseInferenceTest, Works64Bit) {
  ReversibleSketch s(rs64(7));
  Pcg32 rng(41);
  for (int i = 0; i < 30000; ++i) s.update(rng.next64(), 1.0);
  const std::uint64_t key = pack_ip_ip(IPv4(98, 198, 251, 168),
                                       IPv4(129, 105, 9, 10));
  s.update(key, 900.0);
  const InferenceResult r = infer_heavy_keys(s, 400.0);
  EXPECT_TRUE(contains_key(r, key));
}

TEST(ReverseInferenceTest, NegativeMassIsInvisible) {
  ReversibleSketch s(rs48());
  s.update(1234, -5000.0);  // e.g. SYN/ACK surplus
  const InferenceResult r = infer_heavy_keys(s, 100.0);
  EXPECT_TRUE(r.keys.empty());
}

TEST(ReverseInferenceTest, StageSlackRecoversKeyWithOneCorruptedStage) {
  // Corrupt the heavy key's bucket in ONE stage by brute-forcing a key that
  // collides with it there, and loading that collider with negative mass
  // (e.g. a benign service completing handshakes). Strict intersection
  // (r = 0) loses the key; slack r = 1 — the production default — recovers
  // it. This is the failure mode stage_slack exists for.
  ReversibleSketch s(rs48(11));
  const std::uint64_t key = pack_ip_port(IPv4(44, 55, 66, 77), 445);
  s.update(key, 800.0);

  std::uint64_t collider = 0;
  for (std::uint64_t k = 0;; ++k) {
    if (k != key && s.bucket_of(0, k) == s.bucket_of(0, key) &&
        s.bucket_of(1, k) != s.bucket_of(1, key)) {
      collider = k;
      break;
    }
  }
  s.update(collider, -900.0);  // drags the stage-0 bucket below threshold

  InferenceOptions strict;
  strict.stage_slack = 0;
  InferenceOptions slack1;
  slack1.stage_slack = 1;
  EXPECT_FALSE(contains_key(infer_heavy_keys(s, 400.0, strict), key))
      << "strict intersection must lose the corrupted-stage key";
  EXPECT_TRUE(contains_key(infer_heavy_keys(s, 400.0, slack1), key))
      << "slack 1 must tolerate one corrupted stage";
}

TEST(ReverseInferenceTest, TruncationCapsAdversarialOutput) {
  ReversibleSketch s(rs48(13));
  // Plant many heavy keys to force a large candidate set.
  for (std::uint32_t i = 0; i < 600; ++i) {
    s.update(pack_ip_port(IPv4{0x0a000000u + i}, 80), 1000.0);
  }
  InferenceOptions opts;
  opts.max_candidates = 100;
  const InferenceResult r = infer_heavy_keys(s, 300.0, opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.keys.size(), 100u);
}

TEST(ReverseInferenceTest, HeavyBucketsMatchInferenceInputs) {
  ReversibleSketch s(rs48(17));
  const std::uint64_t key = pack_ip_port(IPv4(1, 2, 3, 4), 8080);
  s.update(key, 700.0);
  const auto hb = heavy_buckets(s, 300.0);
  ASSERT_EQ(hb.size(), 6u);
  for (std::size_t h = 0; h < hb.size(); ++h) {
    ASSERT_EQ(hb[h].size(), 1u) << "stage " << h;
    EXPECT_EQ(hb[h][0], s.bucket_of(h, key));
  }
}

TEST(ReverseInferenceTest, RecoversKeySplitAcrossCombinedSketches) {
  // The multi-router property at sketch level: a key sub-threshold at every
  // vantage point becomes recoverable from the COMBINEd sketch.
  const auto cfg = rs48(21);
  ReversibleSketch a(cfg), b(cfg), c(cfg);
  const std::uint64_t key = pack_ip_port(IPv4(129, 105, 7, 7), 443);
  a.update(key, 150.0);
  b.update(key, 180.0);
  c.update(key, 170.0);
  for (ReversibleSketch* part : {&a, &b, &c}) {
    EXPECT_TRUE(infer_heavy_keys(*part, 400.0).keys.empty())
        << "each share is below threshold";
  }
  std::vector<std::pair<double, const ReversibleSketch*>> terms{
      {1.0, &a}, {1.0, &b}, {1.0, &c}};
  const ReversibleSketch combined = ReversibleSketch::combine(terms);
  EXPECT_TRUE(contains_key(infer_heavy_keys(combined, 400.0), key));
}

TEST(ReverseInferenceTest, ForecastErrorSketchInferenceFindsOnlyTheChange) {
  // End-to-end sketch-space change detection: steady keys cancel out in the
  // error sketch; only the NEW heavy key is recovered.
  const auto cfg = rs48(23);
  ReversibleSketch yesterday(cfg), today(cfg);
  const std::uint64_t steady = pack_ip_port(IPv4(1, 1, 1, 1), 80);
  const std::uint64_t burst = pack_ip_port(IPv4(2, 2, 2, 2), 1433);
  yesterday.update(steady, 900.0);
  today.update(steady, 905.0);  // stable within noise
  today.update(burst, 500.0);   // the anomaly
  std::vector<std::pair<double, const ReversibleSketch*>> diff{
      {1.0, &today}, {-1.0, &yesterday}};
  const ReversibleSketch error = ReversibleSketch::combine(diff);
  const InferenceResult r = infer_heavy_keys(error, 100.0);
  EXPECT_TRUE(contains_key(r, burst));
  for (const HeavyKey& k : r.keys) {
    EXPECT_NE(k.key, steady) << "steady traffic must cancel";
  }
}

// Property sweep: inference recall across heavy-key populations.
class InferenceRecall : public ::testing::TestWithParam<int> {};

TEST_P(InferenceRecall, FindsAllPlantedKeys) {
  const int num_heavy = GetParam();
  ReversibleSketch s(rs48(100 + num_heavy));
  Pcg32 rng(num_heavy);
  for (int i = 0; i < 10000; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
  }
  std::set<std::uint64_t> heavy;
  while (static_cast<int>(heavy.size()) < num_heavy) {
    heavy.insert(rng.next64() & ((1ULL << 48) - 1));
  }
  for (const std::uint64_t k : heavy) s.update(k, 500.0);
  const InferenceResult r = infer_heavy_keys(s, 250.0);
  std::size_t found = 0;
  for (const std::uint64_t k : heavy) found += contains_key(r, k) ? 1 : 0;
  EXPECT_EQ(found, heavy.size());
}

INSTANTIATE_TEST_SUITE_P(Populations, InferenceRecall,
                         ::testing::Values(1, 2, 5, 10, 25));

TEST(ReverseInferenceTest, DenseAnomalySetNeedsInSearchVerification) {
  // At ~50 concurrent anomalies in a 2^12-bucket sketch the slack-1 search
  // admits hundreds of thousands of cross-product candidates; an in-search
  // verifier keeps the output exact AND complete.
  const int num_heavy = 50;
  ReversibleSketch s(rs48(7777));
  KarySketch verif(KarySketchConfig{.num_stages = 6,
                                    .num_buckets = 1u << 14,
                                    .seed = 4242});
  Pcg32 rng(num_heavy);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = rng.next64() & ((1ULL << 48) - 1);
    s.update(k, 1.0);
    verif.update(k, 1.0);
  }
  std::set<std::uint64_t> heavy;
  while (static_cast<int>(heavy.size()) < num_heavy) {
    heavy.insert(rng.next64() & ((1ULL << 48) - 1));
  }
  for (const std::uint64_t k : heavy) {
    s.update(k, 500.0);
    verif.update(k, 500.0);
  }
  InferenceOptions opts;
  opts.verifier = [&verif](std::uint64_t key, double) {
    return verif.estimate(key) >= 250.0;
  };
  const InferenceResult r = infer_heavy_keys(s, 250.0, opts);
  EXPECT_FALSE(r.truncated);
  std::size_t found = 0;
  for (const std::uint64_t k : heavy) found += contains_key(r, k) ? 1 : 0;
  EXPECT_EQ(found, heavy.size());
  EXPECT_LE(r.keys.size(), heavy.size() + 5)
      << "verifier must remove nearly all cross-product artifacts";
}

TEST(ReverseInferenceTest, PrecollectedBucketsMatchInternalScan) {
  // The detection epoch hands in the heavy-bucket lists its fused forecaster
  // pass collected; the result must equal the classic scan-inside path.
  ReversibleSketch s(rs48(31));
  Pcg32 rng(31);
  for (int i = 0; i < 5000; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    s.update(pack_ip_port(IPv4{0x0a0a0000u + i}, 80), 600.0);
  }
  const double t = 250.0;
  const InferenceResult internal = infer_heavy_keys(s, t);
  const InferenceResult precollected =
      infer_heavy_keys(s, t, InferenceOptions{}, heavy_buckets(s, t));
  EXPECT_EQ(internal.keys.size(), precollected.keys.size());
  for (std::size_t i = 0; i < internal.keys.size(); ++i) {
    EXPECT_EQ(internal.keys[i].key, precollected.keys[i].key) << i;
  }
}

TEST(ReverseInferenceTest, TopNTruncationDeterministicUnderTies) {
  // Regression: max_heavy_per_stage keeps the N largest buckets via a
  // partial sort. With EQUAL-valued buckets (the common case — many flood
  // victims at the same packet rate) the old value-only comparator left the
  // kept set dependent on input order; the tie-break on bucket index makes
  // truncation a pure function of the sketch. Feed the same heavy-bucket
  // lists in ascending and descending order: results must match exactly.
  ReversibleSketch s(rs48(37));
  // 20 keys, all with IDENTICAL mass => equal-valued heavy buckets.
  for (std::uint32_t i = 0; i < 20; ++i) {
    s.update(pack_ip_port(IPv4{0xc0a80000u + i * 7}, 443), 500.0);
  }
  const double t = 250.0;
  InferenceOptions opts;
  opts.max_heavy_per_stage = 6;  // forces truncation among equal values
  const auto ascending = heavy_buckets(s, t);
  auto descending = ascending;
  for (auto& stage : descending) std::reverse(stage.begin(), stage.end());

  const InferenceResult ra = infer_heavy_keys(s, t, opts, ascending);
  const InferenceResult rd = infer_heavy_keys(s, t, opts, descending);
  ASSERT_FALSE(ra.keys.empty());
  ASSERT_EQ(ra.keys.size(), rd.keys.size());
  for (std::size_t i = 0; i < ra.keys.size(); ++i) {
    EXPECT_EQ(ra.keys[i].key, rd.keys[i].key) << i;
  }

  // And repeated runs through the public path are stable.
  const InferenceResult r1 = infer_heavy_keys(s, t, opts);
  const InferenceResult r2 = infer_heavy_keys(s, t, opts);
  ASSERT_EQ(r1.keys.size(), r2.keys.size());
  for (std::size_t i = 0; i < r1.keys.size(); ++i) {
    EXPECT_EQ(r1.keys[i].key, r2.keys[i].key) << i;
  }
}

/// Builds a noisy sketch with `num_heavy` planted keys — enough search work
/// for chunking and work budgets to have something to bite into.
ReversibleSketch dense_sketch(int num_heavy, std::uint64_t seed) {
  ReversibleSketch s(rs48(seed));
  Pcg32 rng(seed);
  for (int i = 0; i < 8000; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 1.0);
  }
  for (int i = 0; i < num_heavy; ++i) {
    s.update(rng.next64() & ((1ULL << 48) - 1), 500.0);
  }
  return s;
}

InferenceResult run_streaming(const ReversibleSketch& s, double t,
                              const InferenceOptions& opts,
                              std::size_t quantum) {
  StreamingInference search;
  search.begin(s, t, opts);
  while (!search.run_chunk(quantum)) {
  }
  return search.take_result();
}

void expect_same_result(const InferenceResult& a, const InferenceResult& b,
                        const char* what) {
  ASSERT_EQ(a.keys.size(), b.keys.size()) << what;
  for (std::size_t i = 0; i < a.keys.size(); ++i) {
    EXPECT_EQ(a.keys[i].key, b.keys[i].key) << what << " key " << i;
    EXPECT_EQ(a.keys[i].estimate, b.keys[i].estimate) << what << " est " << i;
  }
  EXPECT_EQ(a.truncated, b.truncated) << what;
  EXPECT_EQ(a.work_exhausted, b.work_exhausted) << what;
  EXPECT_EQ(a.heavy_buckets_dropped, b.heavy_buckets_dropped) << what;
  EXPECT_EQ(a.work_used, b.work_used) << what;
}

TEST(StreamingInferenceTest, ChunkSizeNeverChangesTheResult) {
  // The resumable search must be a pure scheduling construct: any chunk
  // quantum — including pathological quantum=1, one search step per chunk —
  // yields the same keys, in the same order, with the same work accounting.
  const ReversibleSketch s = dense_sketch(20, 91);
  const double t = 250.0;
  const InferenceResult whole = infer_heavy_keys(s, t);
  ASSERT_FALSE(whole.keys.empty());
  for (const std::size_t quantum : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{4096}}) {
    expect_same_result(whole, run_streaming(s, t, InferenceOptions{}, quantum),
                       "quantum");
  }
}

TEST(StreamingInferenceTest, WorkBudgetTruncationIndependentOfChunkSize) {
  // The work meter — not the chunk boundary — decides where a budgeted
  // search stops, so the truncated key set is identical at every quantum.
  const ReversibleSketch s = dense_sketch(30, 92);
  const double t = 250.0;
  InferenceOptions opts;
  opts.max_work = 200;  // far less than the full search needs
  const InferenceResult ref = run_streaming(s, t, opts, ~std::size_t{0});
  EXPECT_TRUE(ref.work_exhausted);
  // The meter is checked before each step and a step charges its full cost
  // (1 + buckets regrouped at a node, 2 at a leaf), so the final tally may
  // overshoot the cap by at most ONE step — bounded by the per-stage heavy
  // bucket count, never by a chunk.
  EXPECT_GE(ref.work_used, opts.max_work);
  EXPECT_LT(ref.work_used, 2 * opts.max_work);
  for (const std::size_t quantum :
       {std::size_t{1}, std::size_t{13}, std::size_t{512}}) {
    expect_same_result(ref, run_streaming(s, t, opts, quantum), "quantum");
  }
}

TEST(StreamingInferenceTest, BudgetedOutputIsPrefixOfUnbudgeted) {
  // Truncation degrades by CUTTING THE SEARCH SHORT, never by reordering:
  // a budgeted run's keys are a prefix of the unbudgeted run's keys.
  const ReversibleSketch s = dense_sketch(30, 93);
  const double t = 250.0;
  const InferenceResult whole = infer_heavy_keys(s, t);
  InferenceOptions opts;
  opts.max_work = 300;
  const InferenceResult cut = run_streaming(s, t, opts, 64);
  ASSERT_TRUE(cut.work_exhausted);
  ASSERT_LT(cut.keys.size(), whole.keys.size());
  for (std::size_t i = 0; i < cut.keys.size(); ++i) {
    EXPECT_EQ(cut.keys[i].key, whole.keys[i].key) << i;
  }
  EXPECT_TRUE(cut.degraded());
  EXPECT_FALSE(whole.degraded());
}

TEST(StreamingInferenceTest, EngineIsReusableAcrossSearches) {
  // The detector keeps three long-lived engines; a second begin() must
  // fully reset state left by the first search (including a truncated one).
  const ReversibleSketch s = dense_sketch(20, 94);
  const double t = 250.0;
  StreamingInference engine;
  InferenceOptions tight;
  tight.max_work = 100;
  engine.begin(s, t, tight);
  while (!engine.run_chunk(32)) {
  }
  (void)engine.take_result();  // truncated run, discarded

  engine.begin(s, t, InferenceOptions{});
  while (!engine.run_chunk(128)) {
  }
  expect_same_result(infer_heavy_keys(s, t), engine.take_result(), "reuse");
}

// Behaviour lock. Each row pins one seeded search: every counter of its
// InferenceResult, plus a hash of the emitted keys and estimates in output
// order. A change to the search's internals must leave every row unchanged;
// the work meter, and with it every budget truncation point, is part of the
// contract.
struct LockedSearch {
  const char* name;
  ReversibleSketchConfig shape;
  int num_heavy;
  std::size_t stage_slack;
  std::size_t max_heavy_per_stage;
  std::size_t max_work;
  std::size_t max_candidates;
  // Pinned outcome.
  std::size_t work_used;
  std::size_t heavy_bucket_total;
  std::size_t heavy_buckets_dropped;
  bool truncated;
  bool work_exhausted;
  std::size_t num_keys;
  std::uint64_t key_hash;
};

/// FNV-1a over (key, estimate bits) in output order.
std::uint64_t hash_keys(const std::vector<HeavyKey>& keys) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const HeavyKey& k : keys) {
    mix(k.key);
    mix(std::bit_cast<std::uint64_t>(k.estimate));
  }
  return h;
}

/// 8000 unit-weight noise keys plus `num_heavy` keys of weight 500, drawn
/// from the shape's seed. Searched at threshold 250.
ReversibleSketch locked_sketch(const ReversibleSketchConfig& shape,
                               int num_heavy) {
  ReversibleSketch s(shape);
  Pcg32 rng(shape.seed);
  const std::uint64_t mask =
      shape.key_bits == 64 ? ~0ULL : (1ULL << shape.key_bits) - 1;
  for (int i = 0; i < 8000; ++i) s.update(rng.next64() & mask, 1.0);
  for (int i = 0; i < num_heavy; ++i) s.update(rng.next64() & mask, 500.0);
  return s;
}

constexpr ReversibleSketchConfig kRs48{48, 6, 12, 201};
constexpr ReversibleSketchConfig kRs64{64, 6, 16, 202};
constexpr ReversibleSketchConfig kRs48OneBit{48, 6, 6, 203};
constexpr ReversibleSketchConfig kRs64OneBit{64, 6, 8, 204};
constexpr ReversibleSketchConfig kThreeBitWords{32, 6, 12, 205};

const LockedSearch kLockedSearches[] = {
    // name, shape, heavy, slack, top-N, max_work, max_candidates,
    // work_used, heavy total, dropped, truncated, exhausted, keys, hash
    {"rs48_slack0", kRs48, 20, 0, 0, 0, 100000,
     215298, 120, 0, false, false, 32, 0xf73a4e50afb20cbaULL},
    {"rs48_slack1", kRs48, 20, 1, 0, 0, 100000,
     1760565, 120, 0, false, false, 6072, 0xd54c5d000a14331aULL},
    {"rs48_slack2", kRs48, 20, 2, 0, 0, 100000,
     1219687, 120, 0, true, false, 100000, 0xf810cf7d1849e17fULL},
    {"rs64_slack0", kRs64, 20, 0, 0, 0, 100000,
     151996, 120, 0, false, false, 29, 0xc0e23a23c90931caULL},
    {"rs64_slack1", kRs64, 20, 1, 0, 0, 100000,
     1615093, 120, 0, false, false, 753, 0x459fe1f9b33531e9ULL},
    {"rs64_slack2", kRs64, 20, 2, 0, 0, 100000,
     2330916, 120, 0, true, false, 100000, 0x09546b346eaade75ULL},
    {"rs48_1bit_slack0", kRs48OneBit, 1, 0, 0, 0, 100000,
     111492, 6, 0, false, false, 30000, 0x1e6da588f144fb44ULL},
    {"rs48_1bit_slack1", kRs48OneBit, 3, 1, 0, 0, 100000,
     291052, 18, 0, true, false, 100000, 0x7ed1dacb4699c435ULL},
    {"rs64_1bit_slack0", kRs64OneBit, 1, 0, 0, 0, 100000,
     407748, 6, 0, true, false, 100000, 0xad5c2df8a4fd5b6dULL},
    {"rs64_1bit_slack1", kRs64OneBit, 3, 1, 0, 0, 100000,
     376318, 18, 0, true, false, 100000, 0x35fa112e9b81caf7ULL},
    {"3bit_slack0", kThreeBitWords, 20, 0, 0, 0, 100000,
     3335, 120, 0, false, false, 20, 0x4d0553eeaa70018dULL},
    {"3bit_slack1", kThreeBitWords, 20, 1, 0, 0, 100000,
     8085, 120, 0, false, false, 24, 0x0c7d4f6dfe978fbfULL},
    {"3bit_slack2", kThreeBitWords, 20, 2, 0, 0, 100000,
     28206, 120, 0, false, false, 146, 0x058cc794848d520eULL},
    {"rs48_top_n", kRs48, 40, 1, 8, 0, 100000,
     25981, 48, 192, false, false, 16, 0x9866da1de4cd4c15ULL},
    {"rs64_max_work", kRs64, 20, 1, 0, 5000, 100000,
     5003, 120, 0, false, true, 2, 0xca7df38b4fc03d93ULL},
    {"rs48_max_candidates", kRs48, 40, 1, 0, 0, 25,
     3134, 240, 0, true, false, 25, 0xc1fed1ae68eac01fULL},
};

TEST(ReverseInferenceLockTest, SearchOutcomesArePinned) {
  for (const LockedSearch& row : kLockedSearches) {
    SCOPED_TRACE(row.name);
    const ReversibleSketch s = locked_sketch(row.shape, row.num_heavy);
    InferenceOptions opts;
    opts.stage_slack = row.stage_slack;
    opts.max_heavy_per_stage = row.max_heavy_per_stage;
    opts.max_work = row.max_work;
    opts.max_candidates = row.max_candidates;
    const InferenceResult r = infer_heavy_keys(s, 250.0, opts);
    EXPECT_EQ(r.work_used, row.work_used);
    EXPECT_EQ(r.heavy_bucket_total, row.heavy_bucket_total);
    EXPECT_EQ(r.heavy_buckets_dropped, row.heavy_buckets_dropped);
    EXPECT_EQ(r.truncated, row.truncated);
    EXPECT_EQ(r.work_exhausted, row.work_exhausted);
    EXPECT_EQ(r.keys.size(), row.num_keys);
    EXPECT_EQ(hash_keys(r.keys), row.key_hash);
    expect_same_result(r, run_streaming(s, 250.0, opts, 61), "chunked");
  }
}

}  // namespace
}  // namespace hifind
