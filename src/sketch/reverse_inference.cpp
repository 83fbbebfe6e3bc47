#include "sketch/reverse_inference.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace hifind {
namespace {

/// A 256-bit set of byte values held in one vector (GCC/Clang vector
/// extension), so a node's mask algebra compiles to whole-register ops.
using ByteMask = std::uint64_t __attribute__((vector_size(32)));

void load(ByteMask& out, const std::array<std::uint64_t, 4>& mask) {
  std::memcpy(&out, mask.data(), sizeof out);
}

/// Pops (and returns) the lowest set bit of a 256-bit mask, or -1 when the
/// mask is empty. Ascending byte order keeps the DFS traversal — and with it
/// every truncation decision — deterministic.
int pop_lowest_byte(std::array<std::uint64_t, 4>& mask) {
  for (int i = 0; i < 4; ++i) {
    if (mask[i] != 0) {
      const int bit = std::countr_zero(mask[i]);
      mask[i] &= mask[i] - 1;
      return i * 64 + bit;
    }
  }
  return -1;
}

/// Top-N-anomalies mode: keep each stage's largest buckets only. Ties on
/// bucket value break toward the lower bucket index, so the kept set is a
/// deterministic function of the sketch (partial_sort alone leaves
/// equal-valued buckets in unspecified order). Returns the number of heavy
/// buckets dropped across all stages.
std::size_t apply_top_n(const ReversibleSketch& sketch,
                        const InferenceOptions& options,
                        std::vector<std::vector<std::uint32_t>>& buckets) {
  if (options.max_heavy_per_stage == 0) return 0;
  std::size_t dropped = 0;
  for (std::size_t h = 0; h < buckets.size(); ++h) {
    auto& stage = buckets[h];
    if (stage.size() <= options.max_heavy_per_stage) continue;
    std::partial_sort(
        stage.begin(),
        stage.begin() +
            static_cast<std::ptrdiff_t>(options.max_heavy_per_stage),
        stage.end(), [&](std::uint32_t a, std::uint32_t b) {
          const double va = sketch.bucket_value(h, a);
          const double vb = sketch.bucket_value(h, b);
          return va > vb || (va == vb && a < b);
        });
    dropped += stage.size() - options.max_heavy_per_stage;
    stage.resize(options.max_heavy_per_stage);
    std::sort(stage.begin(), stage.end());
  }
  return dropped;
}

}  // namespace

std::vector<std::vector<std::uint32_t>> heavy_buckets(
    const ReversibleSketch& sketch, double threshold) {
  const auto& cfg = sketch.config();
  const double k = static_cast<double>(cfg.num_buckets());
  std::vector<std::vector<std::uint32_t>> out(cfg.num_stages);
  for (std::size_t h = 0; h < cfg.num_stages; ++h) {
    // estimate >= t  <=>  bucket >= t*(1 - 1/K) + sum/K
    const double cut = threshold * (1.0 - 1.0 / k) + sketch.stage_sum(h) / k;
    for (std::size_t b = 0; b < cfg.num_buckets(); ++b) {
      if (sketch.bucket_value(h, b) >= cut) {
        out[h].push_back(static_cast<std::uint32_t>(b));
      }
    }
  }
  return out;
}

void StreamingInference::begin(const ReversibleSketch& sketch,
                               double threshold,
                               const InferenceOptions& options,
                               std::vector<std::vector<std::uint32_t>>
                                   stage_buckets) {
  sketch_ = &sketch;
  threshold_ = threshold;
  options_ = options;
  const auto& cfg = sketch.config();
  num_stages_ = cfg.num_stages;
  num_words_ = cfg.num_words();
  bits_per_word_ = cfg.bits_per_word();
  sub_range_ = std::size_t{1} << bits_per_word_;
  // Quorum of at least one stage.
  effective_slack_ = std::min(options.stage_slack, num_stages_ - 1);
  result_ = InferenceResult{};
  depth_ = -1;
  done_ = true;

  result_.heavy_buckets_dropped = apply_top_n(sketch, options_, stage_buckets);
  std::size_t alive = 0;
  for (const auto& b : stage_buckets) {
    result_.heavy_bucket_total += b.size();
    alive += b.empty() ? 0 : 1;
  }
  // A key must be heavy in >= H - r stages; if fewer stages have any heavy
  // bucket at all, nothing can qualify.
  if (alive + effective_slack_ < num_stages_) return;  // done_, empty result

  // Once per search: the heavy-bucket bitmap, its rank table and, for
  // narrow words, the alive-mask table. Storage is reused across begin()
  // calls, so the steady state is allocation-free on stable shapes.
  words_per_stage_ = (cfg.num_buckets() + 63) / 64;
  heavy_bits_.assign(num_stages_ * words_per_stage_, 0);
  heavy_rank_.resize(num_stages_ * (words_per_stage_ + 1));
  for (std::size_t h = 0; h < num_stages_; ++h) {
    std::uint64_t* bits = &heavy_bits_[h * words_per_stage_];
    for (const std::uint32_t b : stage_buckets[h]) {
      bits[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
    std::uint32_t* rank = &heavy_rank_[h * (words_per_stage_ + 1)];
    rank[0] = 0;
    for (std::size_t i = 0; i < words_per_stage_; ++i) {
      rank[i + 1] =
          rank[i] + static_cast<std::uint32_t>(std::popcount(bits[i]));
    }
  }
  alive_masks_.clear();
  if (sub_range_ <= 4) {
    const std::size_t sets = std::size_t{1} << sub_range_;
    alive_masks_.resize(num_stages_ * static_cast<std::size_t>(num_words_) *
                        sets);
    for (std::size_t h = 0; h < num_stages_; ++h) {
      for (int w = 0; w < num_words_; ++w) {
        const WordHash& wh = sketch.word_hash(h, w);
        auto* table = &alive_masks_[(h * num_words_ + w) * sets];
        table[0] = {};
        for (std::size_t set = 1; set < sets; ++set) {
          const auto& m = wh.preimage_mask(
              static_cast<std::uint8_t>(std::countr_zero(set)));
          for (int i = 0; i < 4; ++i) {
            table[set][i] = table[set & (set - 1)][i] | m[i];
          }
        }
      }
    }
  }

  levels_.resize(static_cast<std::size_t>(num_words_));
  levels_[0].stage_prefix.fill(0);
  levels_[0].prefix = 0;
  enter_level(0);
  depth_ = 0;
  done_ = false;
}

void StreamingInference::begin(const ReversibleSketch& sketch,
                               double threshold,
                               const InferenceOptions& options) {
  begin(sketch, threshold, options, heavy_buckets(sketch, threshold));
}

std::size_t StreamingInference::count_heavy(std::size_t h, std::uint64_t lo,
                                            std::uint64_t n) const {
  if (n >= 64) {  // whole words: a rank difference
    const std::uint32_t* rank = &heavy_rank_[h * (words_per_stage_ + 1)];
    return rank[(lo + n) >> 6] - rank[lo >> 6];
  }
  // Inside one word, because lo is a multiple of n.
  const std::uint64_t word = heavy_bits_[h * words_per_stage_ + (lo >> 6)];
  return static_cast<std::size_t>(
      std::popcount((word >> (lo & 63)) & (~std::uint64_t{0} >> (64 - n))));
}

void StreamingInference::enter_level(int w) {
  Level& lvl = levels_[static_cast<std::size_t>(w)];

  // Stage h's consistent heavy buckets fill the 2^free_bits indices that
  // start with stage_prefix[h]; the sub-index at word w splits them into
  // sub_range_ parts of sub_len indices each.
  const int free_bits = bits_per_word_ * (num_words_ - w);
  const std::uint64_t sub_len = std::uint64_t{1}
                                << (free_bits - bits_per_word_);

  // Viable bytes via 256-bit masks: a byte keeps stage h alive iff its
  // word-hash value selects a non-empty part, i.e. iff it is in the union
  // of those values' preimage masks. missed[k] holds the bytes that at
  // least k stages have missed so far, so the bytes outside
  // missed[stage_slack + 1] are viable: a few whole-mask ops per stage
  // instead of a 256 x H loop.
  const std::size_t planes = effective_slack_ + 1;
  std::array<ByteMask, ReversibleSketch::kMaxStages + 1> missed;
  for (std::size_t k = 1; k <= planes; ++k) missed[k] = ByteMask{};
  std::size_t consistent = 0;
  for (std::size_t h = 0; h < num_stages_; ++h) {
    const std::uint64_t lo = std::uint64_t{lvl.stage_prefix[h]} << free_bits;
    ByteMask alive{};
    if (alive_masks_.empty()) {  // wide words: OR the occupied parts' masks
      const WordHash& wh = sketch_->word_hash(h, w);
      for (std::size_t v = 0; v < sub_range_; ++v) {
        const std::size_t n = count_heavy(h, lo + v * sub_len, sub_len);
        if (n == 0) continue;
        consistent += n;
        ByteMask m;
        load(m, wh.preimage_mask(static_cast<std::uint8_t>(v)));
        alive |= m;
      }
    } else {
      // Narrow words (bits_per_word <= 2): either the whole range lies in
      // one bitmap word, or every part spans whole words.
      std::size_t occupied = 0;  // bit v: part v holds a heavy bucket
      if (free_bits <= 6) {
        const std::uint64_t range =
            (heavy_bits_[h * words_per_stage_ + (lo >> 6)] >> (lo & 63)) &
            (~std::uint64_t{0} >> (64 - (sub_len << bits_per_word_)));
        consistent += static_cast<std::size_t>(std::popcount(range));
        const std::uint64_t part_mask = ~std::uint64_t{0} >> (64 - sub_len);
        for (std::size_t v = 0; v < sub_range_; ++v) {
          occupied |= std::size_t{((range >> (v * sub_len)) & part_mask) != 0}
                      << v;
        }
      } else {
        const std::uint32_t* rank =
            &heavy_rank_[h * (words_per_stage_ + 1) + (lo >> 6)];
        const std::uint64_t words_per_part = sub_len >> 6;
        for (std::size_t v = 0; v < sub_range_; ++v) {
          occupied |= std::size_t{rank[(v + 1) * words_per_part] !=
                                  rank[v * words_per_part]}
                      << v;
        }
        consistent += rank[sub_range_ * words_per_part] - rank[0];
      }
      load(alive,
           alive_masks_[((h * num_words_ + w) << sub_range_) | occupied]);
    }
    const ByteMask miss = ~alive;
    for (std::size_t k = planes; k > 1; --k) missed[k] |= missed[k - 1] & miss;
    missed[1] |= miss;
  }
  const ByteMask viable = ~missed[planes];
  std::memcpy(lvl.viable.data(), &viable, sizeof viable);

  // Work meter: one unit for the node plus one per consistent heavy bucket.
  // Deterministic — a pure function of the search state, never of timing.
  result_.work_used += 1 + consistent;
}

void StreamingInference::emit(std::uint64_t mangled) {
  result_.work_used += 2;  // estimate + screen
  const std::uint64_t key = sketch_->mangler().unmangle(mangled);
  const double est = sketch_->estimate(key);
  if (est < threshold_) return;  // median across ALL stages must agree
  if (options_.verifier && !options_.verifier(key, est)) return;
  if (result_.keys.size() >= options_.max_candidates) {
    result_.truncated = true;
    done_ = true;
    return;
  }
  result_.keys.push_back(HeavyKey{key, est});
}

bool StreamingInference::run_chunk(std::size_t quantum) {
  if (done_) return true;
  const std::size_t chunk_start = result_.work_used;
  while (result_.work_used - chunk_start < quantum) {
    if (depth_ < 0) {  // every subtree explored
      done_ = true;
      break;
    }
    if (options_.max_work != 0 && result_.work_used >= options_.max_work) {
      result_.work_exhausted = true;
      done_ = true;
      break;
    }
    Level& lvl = levels_[static_cast<std::size_t>(depth_)];
    const int byte = pop_lowest_byte(lvl.viable);
    if (byte < 0) {  // level exhausted: backtrack
      --depth_;
      continue;
    }
    const std::uint64_t prefix =
        (lvl.prefix << 8) | static_cast<std::uint64_t>(byte);
    if (depth_ + 1 == num_words_) {
      emit(prefix);
      if (done_) break;  // candidate cap aborts the whole search
      continue;
    }
    Level& child = levels_[static_cast<std::size_t>(depth_ + 1)];
    for (std::size_t h = 0; h < num_stages_; ++h) {
      const std::uint8_t v = sketch_->word_hash(h, depth_)
                                 .map(static_cast<std::uint8_t>(byte));
      child.stage_prefix[h] = (lvl.stage_prefix[h] << bits_per_word_) | v;
    }
    child.prefix = prefix;
    ++depth_;
    enter_level(depth_);
  }
  return done_;
}

InferenceResult StreamingInference::take_result() {
  InferenceResult out = std::move(result_);
  result_ = InferenceResult{};
  options_ = InferenceOptions{};  // drop any captured verifier
  sketch_ = nullptr;
  depth_ = -1;
  done_ = true;
  return out;
}

InferenceResult infer_heavy_keys(const ReversibleSketch& sketch,
                                 double threshold,
                                 const InferenceOptions& options) {
  return infer_heavy_keys(sketch, threshold, options,
                          heavy_buckets(sketch, threshold));
}

InferenceResult infer_heavy_keys(
    const ReversibleSketch& sketch, double threshold,
    const InferenceOptions& options,
    std::vector<std::vector<std::uint32_t>> stage_buckets) {
  StreamingInference search;
  search.begin(sketch, threshold, options, std::move(stage_buckets));
  while (!search.run_chunk(~std::size_t{0})) {
  }
  return search.take_result();
}

}  // namespace hifind
