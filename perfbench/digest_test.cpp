// Self-test of the interval digest (digest.hpp) on synthetic results:
// deterministic content moves the digest, telemetry does not.
#include <cstdio>
#include <cmath>

#include "digest.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

hifind::IntervalResult sample() {
  using namespace hifind;
  IntervalResult r;
  r.interval = 7;
  r.raw = {Alert{AttackType::kSynFlooding, 7, KeyKind::DipDport, 0x0a000001'0050, 812.0},
           Alert{AttackType::kHorizontalScan, 7, KeyKind::SipDport, 0xc0a80001'01bd, 95.5}};
  r.after_2d = r.raw;
  r.final = {r.raw[0]};
  r.refined = r.final;
  r.refinement.active = true;
  r.refinement.tracked = 3;
  r.refinement.confirmed = 1;
  r.epoch.budgeted = true;
  r.epoch.inference_work = 1234;
  r.epoch.work_budget = 5000;
  return r;
}

}  // namespace

int main() {
  using hifind::perfbench::digest_of;
  const hifind::IntervalResult base = sample();
  const std::uint64_t d = digest_of(base);
  expect(d == digest_of(sample()), "equal results digest equally");

  auto differs = [&](auto mutate, const char* what) {
    hifind::IntervalResult r = sample();
    mutate(r);
    expect(digest_of(r) != d, what);
  };
  auto same = [&](auto mutate, const char* what) {
    hifind::IntervalResult r = sample();
    mutate(r);
    expect(digest_of(r) == d, what);
  };

  differs([](auto& r) { r.interval = 8; }, "interval index");
  differs([](auto& r) { r.raw[1].magnitude = std::nextafter(95.5, 96.0); },
          "one-ulp magnitude change");
  differs([](auto& r) { std::swap(r.raw[0], r.raw[1]); }, "alert order");
  differs([](auto& r) { r.raw[0].key ^= 1; }, "alert key");
  differs([](auto& r) { r.after_2d.pop_back(); r.final.push_back(r.raw[1]); },
          "alert moved between phase lists");
  differs([](auto& r) { r.refined.clear(); }, "refined list");
  differs([](auto& r) { r.refinement.killed = 1; }, "refinement report");
  differs([](auto& r) { r.epoch.truncated = true; }, "epoch truncation");
  differs([](auto& r) { r.epoch.heavy_buckets_dropped = 2; },
          "heavy buckets dropped");

  same([](auto& r) { r.epoch.merge_us = 999; }, "merge time is telemetry");
  same([](auto& r) { r.epoch.ring_full_spins = 5; }, "ring spins are telemetry");
  same([](auto& r) { r.epoch.shard_occupancy_max = 1.7; },
       "occupancy is telemetry");
  same([](auto& r) { r.coverage.ops_offered = 42; }, "coverage is not hashed");

  if (failures == 0) std::printf("digest_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
