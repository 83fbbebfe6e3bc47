// 64-bit digest of the deterministic content of an IntervalResult.
//
// Covers what the determinism contracts compare: the four alert lists (raw,
// after_2d, final, refined — every field, magnitudes bit for bit), the
// RefinementReport, and the EpochReport fields its operator== compares.
// Wall-clock and topology telemetry (merge_us, ring spins, occupancy,
// coverage) is left out on purpose, so two runs that detect the same thing
// digest the same however they were scheduled.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "detect/alerts.hpp"

namespace hifind::perfbench {

class Digest {
 public:
  /// Order-sensitive fold: mix64 is a bijection, so feeding the same words
  /// in another order gives another digest.
  void add(std::uint64_t word) { h_ = mix64(h_ ^ word) + 0x9e3779b97f4a7c15ull; }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }

  void add(const Alert& a) {
    add(std::uint64_t{static_cast<std::uint8_t>(a.type)});
    add(a.interval);
    add(std::uint64_t{static_cast<std::uint8_t>(a.key_kind)});
    add(a.key);
    add(a.magnitude);
  }

  /// Length-prefixed, so an alert moving from one list to the next changes
  /// the digest.
  void add(const std::vector<Alert>& alerts) {
    add(std::uint64_t{alerts.size()});
    for (const Alert& a : alerts) add(a);
  }

  void add(const IntervalResult& r) {
    add(r.interval);
    add(r.raw);
    add(r.after_2d);
    add(r.final);
    add(r.refined);
    add(r.refinement.active);
    add(std::uint64_t{r.refinement.tracked});
    add(std::uint64_t{r.refinement.confirmed});
    add(std::uint64_t{r.refinement.killed});
    add(std::uint64_t{r.refinement.unverified});
    add(r.epoch.budgeted);
    add(r.epoch.truncated);
    add(std::uint64_t{r.epoch.inference_work});
    add(std::uint64_t{r.epoch.work_budget});
    add(std::uint64_t{r.epoch.heavy_buckets_dropped});
    add(r.epoch.candidates_truncated);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0x6a09e667f3bcc909ull};
};

inline std::uint64_t digest_of(const IntervalResult& r) {
  Digest d;
  d.add(r);
  return d.value();
}

}  // namespace hifind::perfbench
