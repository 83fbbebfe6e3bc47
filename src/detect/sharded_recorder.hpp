// Shared-nothing sharded recording (paper Sec. 5.5.3: "we can also use
// multi-processors to record multiple sketches simultaneously in software",
// made exact by the COMBINE linearity of Sec. 3.1): every worker owns a FULL
// private SketchBank replica and records a partition of the op stream into
// it with plain non-atomic stores through the prefetched batch-update path
// — no shared counter, no atomic RMW, anywhere on the hot path. The
// producer classifies/extracts each packet ONCE into a RecordOp (SYN => +w,
// SYN-ACK => −w, other => skipped) and deals op batches round-robin across
// the shards' fixed-capacity lock-free SPSC rings, so each op is copied
// once.
//
// At interval seal the shard replicas are reduced with the static COMBINE
// linearity APIs (SketchBank::merge_shards -> combine_into -> the SIMD
// accumulate kernels): the merged bank equals a serial record() of the
// whole stream — exactly, and BIT-identically whenever all op weights are
// unit or power-of-two (all partial sums exactly representable; arbitrary
// fractional sampling weights are exact up to FP associativity in the
// merge order). The recorder does not merge by itself: the caller owns the
// shard banks and the merge (see detect/overlapped.hpp, which runs the
// merge as the first stage of the background epoch so seal cost never
// stalls ingest).
//
// Usage (serial close):
//   std::vector<SketchBank*> shards = ...;      // N private replicas
//   ShardedRecorder rec(shards);
//   for (packet : interval) rec.offer(packet);
//   rec.drain();                                // all ops applied
//   merged.merge_shards(shards, pool);          // exact, off hot path
//   for (SketchBank* s : shards) s->reset_all();// shards are per-interval
//
// Under the double-buffered pipeline the recorder instead rebind()s to the
// spare shard generation at each interval seal, so recording resumes
// immediately while the sealed generation is merged and detected on in the
// background.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "detect/sketch_bank.hpp"

namespace hifind {

class ShardedRecorder {
 public:
  /// Default per-shard ring capacity (RecordOps; 4096 * 48 B = 192 KiB).
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 12;

  /// @param shards         one private bank per worker (1..kMaxShards),
  ///                       non-null and pairwise distinct; caller retains
  ///                       ownership. Banks must all be combinable (same
  ///                       config) for the seal merge.
  /// @param ring_capacity  per-shard SPSC ring capacity, rounded up to a
  ///                       power of two (>= 2). Small values force frequent
  ///                       wrap-around/backpressure; tests use them to
  ///                       exercise those paths.
  /// Throws std::invalid_argument on a bad shard set.
  explicit ShardedRecorder(std::span<SketchBank* const> shards,
                           std::size_t ring_capacity = kDefaultRingCapacity);

  /// Stops workers (draining first). Shard banks remain valid.
  ~ShardedRecorder();

  ShardedRecorder(const ShardedRecorder&) = delete;
  ShardedRecorder& operator=(const ShardedRecorder&) = delete;

  /// Enqueues one packet; it will be recorded into exactly one shard.
  /// `weight` is the sampling weight, as in SketchBank::record().
  void offer(const PacketRecord& p, double weight = 1.0);

  /// Enqueues an already-extracted op (the offer() fast path after
  /// make_record_op). Lets callers that must see the op BEFORE recording —
  /// the load shedder's admit test, the active-flow table — classify once
  /// and still use the batched ring path.
  void offer_op(const RecordOp& op);

  /// Blocks until every offered packet has been applied to its shard.
  ///
  /// Per shard it pause-spins briefly (the common case — the worker is about
  /// to catch up), then parks on the shard's head doorbell until the worker
  /// reports a head advance. drain() is a correctness barrier, so it still
  /// blocks behind a wedged or descheduled worker, but it sleeps in the
  /// kernel while it does, never burning a core.
  void drain();

  /// Atomically retargets every worker at a new shard-bank generation (same
  /// count as construction, same validity rules). Drains first, so the seal
  /// is exact: packets offered before land in the old generation, packets
  /// after in the new one. Caller-thread only (same thread as offer()/
  /// drain()); workers pick up the new target through the ring's existing
  /// release/acquire edge. The old generation is safe to read — and merge —
  /// the moment rebind() returns.
  void rebind(std::span<SketchBank* const> shards);

  /// Per-shard ops applied since the last call (producer thread, after
  /// drain()): the per-shard occupancy signal the pipeline surfaces in
  /// EpochReport. Deterministic given the offer/drain sequence — batch
  /// deal-out is round-robin and drain() flushes the partial batch.
  std::vector<std::uint64_t> take_shard_ops();

  /// Shard drains that outlasted the pause spin and had to park (one count
  /// per shard per drain() call, lifetime). Stays 0 when workers keep up; a
  /// growing value under steady load means the consumer side is the
  /// bottleneck (or a worker is wedged).
  std::uint64_t drain_spin_yields() const {
    return drain_spin_yields_.load(std::memory_order_relaxed);
  }

  /// Per-shard counts, since the last call, of the times publish() found
  /// a shard's ring FULL and had to wait for room (one count per episode):
  /// the EpochReport per-shard backpressure telemetry. Nonzero means ingest
  /// stalled on a consumer. Producer thread only.
  std::vector<std::uint64_t> take_ring_full_spins();

  /// Occupancy fraction of the FULLEST shard ring right now, in [0, 1] —
  /// the producer's cheap overload probe (relaxed tail + acquire head; a
  /// slightly stale answer is fine for a pressure signal). Producer thread
  /// only.
  double producer_backlog() const;

 private:
  /// Where one thread sleeps until the other side makes progress: the idle
  /// worker waits for ops, drain() and a full-ring publish() wait for the
  /// worker's head to advance. The waiter pause-spins briefly, then sets
  /// `parked`, re-checks its condition and sleeps on `rings` (a futex on
  /// Linux; 32 bits so std::atomic::wait uses the word itself rather than
  /// libstdc++'s process-wide proxy). The other side stores its progress,
  /// then reads `parked`; all four accesses are seq_cst, so either the
  /// waiter sees the progress or the ringer sees the flag (Dekker). ring()
  /// therefore costs one load and no syscall while nobody is parked, which
  /// keeps wake-ups off the per-batch hot path.
  struct Doorbell {
    std::atomic<std::uint32_t> rings{0};
    std::atomic<bool> parked{false};

    /// Waits until `ready()` holds; `ready` must read with seq_cst loads the
    /// state the ringer stores with seq_cst before ring(). Returns whether
    /// the wait outlasted the pause spin and parked.
    template <class Ready>
    bool wait_until(Ready ready);
    /// Wakes the waiter if it is parked. Call after the seq_cst store of
    /// the state its `ready()` reads.
    void ring();
  };

  /// One shard: a worker, its SPSC ring, and its private bank.
  ///
  /// False-sharing audit (the hot-path layout contract):
  ///   - `head`/`tail` are monotonically increasing cursors (slot = cursor
  ///     & (capacity−1)); the worker owns `head`, the producer owns `tail`,
  ///     and each sits alone on its own 64-byte line (alignas on each atomic
  ///     pads the previous field out to a line) so cursor publication never
  ///     invalidates the other side's line.
  ///   - `stop` is also isolated: it is written once at shutdown, and
  ///     sharing a line with `tail` would otherwise ping-pong the
  ///     producer's line on every worker idle check.
  ///   - `ops_applied` is written by the worker every batch while the
  ///     producer polls `head`, so it gets its own line too.
  ///   - `ops_bell` (the worker's doorbell) and `head_bell` (the producer's)
  ///     each get a line: the ringer reads `parked` after every cursor
  ///     store, and a bell's line changes hands only when its waiter parks
  ///     or is rung, never on the other bell's episodes.
  ///   - The cold fields (slots, bank pointer, thread handle) stay
  ///     packed at the front; they are read-mostly, so sharing a line among
  ///     THEM is free — only mutating fields need isolation.
  /// The worker advances `head` only AFTER applying the ops, so head ==
  /// tail means "fully applied", which is what drain() waits on.
  struct Shard {
    explicit Shard(std::size_t capacity) : slots(capacity) {}

    std::vector<RecordOp> slots;
    /// Worker-side target bank. Relaxed atomics suffice: rebind() stores it
    /// on the producer thread after drain() (rings empty), and the worker
    /// loads it only after acquiring a tail advance that was released after
    /// the store, so the pointer is never read concurrently with its update.
    std::atomic<SketchBank*> bank{nullptr};
    std::thread thread;
    alignas(64) std::atomic<std::size_t> head{0};  ///< consumer cursor
    alignas(64) std::atomic<std::size_t> tail{0};  ///< producer cursor
    alignas(64) std::atomic<bool> stop{false};
    alignas(64) std::atomic<std::uint64_t> ops_applied{0};
    /// Rung by the producer after each tail advance and at shutdown; the
    /// idle worker parks on it.
    alignas(64) Doorbell ops_bell;
    /// Rung by the worker after each head advance; drain() and a full-ring
    /// publish() park on it.
    alignas(64) Doorbell head_bell;
  };

  void run_worker(Shard& s);
  /// Copies `n` ops into shard `idx`'s ring. Publishes the whole span with
  /// one tail store when the ring has room, or in as many chunks as
  /// backpressure dictates; a FULL ring bumps ring_full_[idx] and parks on
  /// the shard's head doorbell, so a wedged consumer costs a counter and a
  /// sleeping producer, never a spinning core.
  void publish(Shard& s, std::size_t idx, const RecordOp* ops,
               std::size_t n);
  void flush_pending();

  std::size_t capacity_;  ///< ring capacity, power of two
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RecordOp> pending_;  ///< producer-side op batch
  std::size_t next_shard_{0};      ///< round-robin batch deal-out cursor
  std::vector<std::uint64_t> shard_ops_snapshot_;  ///< take_shard_ops base
  /// Per-shard full-ring episode counts + take baseline (producer-thread
  /// plain state, like pending_).
  std::vector<std::uint64_t> ring_full_;
  std::vector<std::uint64_t> ring_full_snapshot_;
  /// Shared stat the producer bumps while a worker polls its cursors: give
  /// it its own line so accounting never dirties a ring line.
  alignas(64) std::atomic<std::uint64_t> drain_spin_yields_{0};
  static constexpr std::size_t kProducerBatch = 256;
};

}  // namespace hifind
