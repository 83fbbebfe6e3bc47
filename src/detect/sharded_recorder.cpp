#include "detect/sharded_recorder.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

namespace hifind {
namespace {

/// CPU spin-wait hint; a no-op where the architecture has none.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Pause-spin checks a waiter makes before it parks: long enough to cover
/// the "other side is about to make progress" window (a worker mid-batch, a
/// producer mid-flush) without a syscall, short enough that an idle wait
/// leaves the core to the epoch threads.
constexpr unsigned kSpinBudget = 256;

/// A worker per bank writes it with plain stores, so a null bank would
/// crash a worker and a bank listed twice would be a data race.
void check_shard_set(std::span<SketchBank* const> shards, const char* who) {
  if (shards.empty() || shards.size() > SketchBank::kMaxShards) {
    throw std::invalid_argument(std::string(who) +
                                ": shard count must be in [1, kMaxShards]");
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i] == nullptr) {
      throw std::invalid_argument(std::string(who) + ": null shard bank");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (shards[j] == shards[i]) {
        throw std::invalid_argument(std::string(who) +
                                    ": shard bank listed twice");
      }
    }
  }
}

}  // namespace

ShardedRecorder::ShardedRecorder(std::span<SketchBank* const> shards,
                                 std::size_t ring_capacity)
    : capacity_(std::bit_ceil(std::max<std::size_t>(ring_capacity, 2))) {
  check_shard_set(shards, "ShardedRecorder");
  shards_.reserve(shards.size());
  for (SketchBank* bank : shards) {
    auto shard = std::make_unique<Shard>(capacity_);
    shard->bank.store(bank, std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
  }
  shard_ops_snapshot_.assign(shards_.size(), 0);
  ring_full_.assign(shards_.size(), 0);
  ring_full_snapshot_.assign(shards_.size(), 0);
  for (auto& s : shards_) {
    s->thread = std::thread([this, shard = s.get()] { run_worker(*shard); });
  }
  pending_.reserve(kProducerBatch);
}

template <class Ready>
bool ShardedRecorder::Doorbell::wait_until(Ready ready) {
  for (unsigned i = 0; i < kSpinBudget; ++i) {
    if (ready()) return false;
    cpu_relax();
  }
  for (;;) {
    // Read the ring count BEFORE announcing the park: any ring() that sees
    // the announcement bumps the count past `seen`, so wait() cannot sleep
    // through it.
    const std::uint32_t seen = rings.load(std::memory_order_acquire);
    parked.store(true, std::memory_order_seq_cst);
    if (ready()) break;
    rings.wait(seen, std::memory_order_acquire);
  }
  parked.store(false, std::memory_order_relaxed);
  return true;
}

void ShardedRecorder::Doorbell::ring() {
  if (!parked.load(std::memory_order_seq_cst)) return;
  rings.fetch_add(1, std::memory_order_release);
  rings.notify_one();
}

ShardedRecorder::~ShardedRecorder() {
  drain();
  for (auto& s : shards_) {
    s->stop.store(true, std::memory_order_seq_cst);
    s->ops_bell.ring();
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

void ShardedRecorder::offer(const PacketRecord& p, double weight) {
  RecordOp op;
  if (!make_record_op(p, weight, op)) return;  // shared extraction, done once
  offer_op(op);
}

void ShardedRecorder::offer_op(const RecordOp& op) {
  pending_.push_back(op);
  if (pending_.size() >= kProducerBatch) flush_pending();
}

void ShardedRecorder::flush_pending() {
  if (pending_.empty()) return;
  // Whole batch to ONE shard, shards dealt round-robin: each op is copied
  // exactly once, and batch granularity keeps the consumer on the prefetched
  // record_ops path. The deal-out is a pure function of the offer/drain
  // sequence, so shard contents are reproducible run to run.
  publish(*shards_[next_shard_], next_shard_, pending_.data(),
          pending_.size());
  next_shard_ = (next_shard_ + 1) % shards_.size();
  pending_.clear();
}

void ShardedRecorder::publish(Shard& s, std::size_t idx, const RecordOp* ops,
                              std::size_t n) {
  const std::size_t mask = capacity_ - 1;
  std::size_t tail = s.tail.load(std::memory_order_relaxed);  // we own tail
  std::size_t pushed = 0;
  while (pushed < n) {
    const std::size_t head = s.head.load(std::memory_order_acquire);
    const std::size_t space = capacity_ - (tail - head);
    if (space == 0) {
      ++ring_full_[idx];  // one count per full-ring episode
      s.head_bell.wait_until(
          [&] { return s.head.load(std::memory_order_seq_cst) != head; });
      continue;
    }
    const std::size_t take = std::min(space, n - pushed);
    for (std::size_t i = 0; i < take; ++i) {
      s.slots[(tail + i) & mask] = ops[pushed + i];
    }
    tail += take;
    pushed += take;
    s.tail.store(tail, std::memory_order_seq_cst);
    s.ops_bell.ring();
  }
}

void ShardedRecorder::drain() {
  flush_pending();
  for (auto& s : shards_) {
    // head == tail means every published op has been APPLIED to the shard's
    // private bank (the worker advances head only after record_ops).
    const std::size_t tail = s->tail.load(std::memory_order_relaxed);
    if (s->head_bell.wait_until([&] {
          return s->head.load(std::memory_order_seq_cst) == tail;
        })) {
      drain_spin_yields_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ShardedRecorder::rebind(std::span<SketchBank* const> shards) {
  check_shard_set(shards, "ShardedRecorder::rebind");
  if (shards.size() != shards_.size()) {
    throw std::invalid_argument(
        "ShardedRecorder::rebind: shard count must match construction");
  }
  drain();  // every op already offered lands in the OLD generation
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->bank.store(shards[i], std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> ShardedRecorder::take_ring_full_spins() {
  std::vector<std::uint64_t> out(ring_full_.size());
  for (std::size_t i = 0; i < ring_full_.size(); ++i) {
    out[i] = ring_full_[i] - ring_full_snapshot_[i];
    ring_full_snapshot_[i] = ring_full_[i];
  }
  return out;
}

double ShardedRecorder::producer_backlog() const {
  std::size_t worst = 0;
  for (const auto& s : shards_) {
    const std::size_t tail = s->tail.load(std::memory_order_relaxed);
    const std::size_t head = s->head.load(std::memory_order_acquire);
    worst = std::max(worst, tail - head);
  }
  return static_cast<double>(worst) / static_cast<double>(capacity_);
}

std::vector<std::uint64_t> ShardedRecorder::take_shard_ops() {
  std::vector<std::uint64_t> out(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t applied =
        shards_[i]->ops_applied.load(std::memory_order_relaxed);
    out[i] = applied - shard_ops_snapshot_[i];
    shard_ops_snapshot_[i] = applied;
  }
  return out;
}

void ShardedRecorder::run_worker(Shard& s) {
  const std::size_t mask = capacity_ - 1;
  std::size_t head = s.head.load(std::memory_order_relaxed);  // we own head
  for (;;) {
    const std::size_t tail = s.tail.load(std::memory_order_acquire);
    if (head == tail) {
      if (s.stop.load(std::memory_order_acquire) &&
          s.tail.load(std::memory_order_acquire) == head) {
        return;
      }
      s.ops_bell.wait_until([&] {
        return s.tail.load(std::memory_order_seq_cst) != head ||
               s.stop.load(std::memory_order_seq_cst);
      });
      continue;
    }
    // The tail acquire publishes any rebind() that preceded these ops (the
    // rebind store happens on the producer thread before the next
    // publish()'s tail release).
    SketchBank* bank = s.bank.load(std::memory_order_relaxed);
    while (head != tail) {
      const std::size_t i = head & mask;
      const std::size_t run = std::min(tail - head, capacity_ - i);
      // Full-bank update, plain stores: this bank belongs to this worker
      // alone until the seal's drain/rebind barrier hands it to the merge.
      bank->record_ops(std::span<const RecordOp>(&s.slots[i], run),
                       SketchBank::kGroupAll);
      s.ops_applied.fetch_add(run, std::memory_order_relaxed);
      head += run;
      s.head.store(head, std::memory_order_seq_cst);
      s.head_bell.ring();
    }
  }
}

}  // namespace hifind
