// End-to-end benchmark driver: packets in -> alerts out.
//
// One run, for one workload and seed:
//   setup   build the gen/ scenario, write it through the in-tree pcap or
//           NetFlow v5 writer, construct the pipeline — three times, so the
//           set-up time is a median and the writer's output is checked to be
//           byte-identical across rebuilds;
//   passes  until --seconds have elapsed (and the workload's minimum
//           interval count is reached): decode the file, replay it through
//           a fresh OverlappedPipeline in a closed loop, score the alerts;
//   trace   (--trace 1 only) one more pass in which this file calls each
//           layer's public functions itself, in pipeline order, timing each
//           one, plus a shadow pass that splits the detection epoch.
//
// The closed loop has one replayer: an interval's packets are offer()ed
// back to back, close_interval() seals it, and wait_epoch_idle() waits for
// its result before the next interval starts — the live case, in which
// each epoch finishes inside its 60 s interval.
//
// Raw per-interval samples, counters and digests are written as JSON to
// --out; perfbench/run.py derives the metrics from them. The program exits
// non-zero if any two passes, or the traced pass, disagree on an interval's
// digest.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "detect/flow_refinery.hpp"
#include "detect/hifind.hpp"
#include "detect/load_shedder.hpp"
#include "detect/overlapped.hpp"
#include "detect/sketch_bank.hpp"
#include "digest.hpp"
#include "forecast/forecaster.hpp"
#include "gen/scenario.hpp"
#include "packet/netflow_v5.hpp"
#include "packet/pcap.hpp"
#include "sketch/simd_ops.hpp"
#include "workloads.hpp"

namespace hifind::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user+sys CPU seconds (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Digest d;
  std::array<char, 1 << 16> buf{};
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::size_t n = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, buf.data() + i, 8);
      d.add(word);
    }
    for (std::size_t i = n - n % 8; i < n; ++i) {
      d.add(std::uint64_t{static_cast<unsigned char>(buf[i])});
    }
  }
  return d.value();
}

Trace decode(const Workload& w, const Scenario& sc, const std::string& path,
             std::size_t* skipped) {
  if (w.format == Format::kPcap) {
    PcapReadStats st;
    Trace t = read_pcap(
        path, [&sc](IPv4 ip) { return sc.network.is_internal(ip); }, &st,
        /*rebase=*/false);
    *skipped = st.non_ip + st.non_tcp_udp + st.truncated;
    return t;
  }
  NetflowV5ReadStats st;
  Trace t = read_netflow_v5(path, &st);
  *skipped = st.flagless;
  return t;
}

/// Index ranges of each interval's packets in a time-sorted trace.
std::vector<std::size_t> interval_bounds(const Trace& trace,
                                         const IntervalClock& clock,
                                         std::uint32_t duration_seconds) {
  const auto pk = trace.packets();
  std::uint64_t n = static_cast<std::uint64_t>(duration_seconds /
                                               clock.width_seconds());
  if (!pk.empty()) n = std::max(n, clock.interval_of(pk.back().ts) + 1);
  std::vector<std::size_t> bounds{0};
  std::size_t idx = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Timestamp end = clock.interval_start(i + 1);
    while (idx < pk.size() && pk[idx].ts < end) ++idx;
    bounds.push_back(idx);
  }
  return bounds;
}

struct IntervalRow {
  double ingest_s{0}, seal_s{0}, latency_s{0};
  double epoch_cpu_s{0};  ///< process CPU from seal start to result
  bool scored{false}, truncated{false};
  std::uint64_t ops_offered{0}, ops_shed{0};
  std::uint64_t ring_full_spins{0}, drain_spin_yields{0};
  double occupancy_max{1.0};
  std::uint64_t digest{0};
};

struct Score {
  double recall{0}, precision{0};
  std::vector<double> onset_s;  ///< per detected attack
};

/// Scores the refined alerts against the ledger; onset uses each interval's
/// measured alert latency.
Score score(const std::vector<IntervalResult>& results,
            const std::vector<IntervalRow>& rows, const Scenario& sc,
            const IntervalClock& clock) {
  Score s;
  std::vector<IntervalResult> refined = results;
  for (IntervalResult& r : refined) r.final = r.refined;
  const EvaluationSummary ev = evaluate(refined, sc.truth, clock);
  s.recall = ev.event_recall();
  s.precision = ev.precision();
  const auto& events = sc.truth.events();
  std::vector<std::optional<std::uint64_t>> first(events.size());
  for (const IntervalResult& r : results) {
    for (const Alert& a : r.refined) {
      const auto idx = match_alert_index(a, sc.truth, clock);
      if (idx && is_attack(events[*idx].kind) && !first[*idx]) {
        first[*idx] = r.interval;
      }
    }
  }
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (!first[e]) continue;
    const double trace_s =
        static_cast<double>(clock.interval_start(*first[e] + 1) -
                            events[e].start) /
        kMicrosPerSecond;
    s.onset_s.push_back(trace_s + rows[*first[e]].latency_s);
  }
  return s;
}

struct PassOut {
  std::size_t packets{0}, skipped{0};
  double decode_s{0}, wall_s{0}, cpu_s{0};
  std::vector<IntervalRow> rows;
  Score score;
};

PassOut pipeline_pass(const Workload& w, const Scenario& sc,
                      const std::string& path) {
  PassOut out;
  OverlappedPipeline pipe(w.pipe);
  const IntervalClock clock(w.pipe.detector.interval_seconds);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const Trace trace = decode(w, sc, path, &out.skipped);
  out.decode_s = seconds_between(t0, Clock::now());
  out.packets = trace.size();
  const auto pk = trace.packets();
  const std::vector<std::size_t> bounds =
      interval_bounds(trace, clock, w.duration_s);
  std::vector<IntervalResult> results;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    IntervalRow row;
    const Clock::time_point a = Clock::now();
    for (std::size_t k = bounds[i]; k < bounds[i + 1]; ++k) pipe.offer(pk[k]);
    const Clock::time_point b = Clock::now();
    const double cpu_b = cpu_seconds();
    pipe.close_interval();
    const Clock::time_point c = Clock::now();
    pipe.wait_epoch_idle();
    std::vector<IntervalResult> r = pipe.take_results();
    const Clock::time_point d = Clock::now();
    row.epoch_cpu_s = cpu_seconds() - cpu_b;
    if (r.size() != 1 || r[0].interval != i) {
      throw std::runtime_error("pipeline returned no result for an interval");
    }
    row.ingest_s = seconds_between(a, b);
    row.seal_s = seconds_between(b, c);
    row.latency_s = seconds_between(b, d);
    const IntervalResult& res = r[0];
    row.scored = i >= 1;  // interval 0 only primes the forecasters
    row.truncated = res.epoch.truncated;
    row.ops_offered = res.coverage.ops_offered;
    row.ops_shed = res.coverage.ops_shed;
    row.ring_full_spins = res.epoch.ring_full_spins;
    row.drain_spin_yields = res.epoch.drain_spin_yields;
    row.occupancy_max = res.epoch.shard_occupancy_max;
    row.digest = digest_of(res);
    out.rows.push_back(row);
    results.push_back(std::move(r[0]));
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.cpu_s = cpu_seconds() - cpu0;
  out.score = score(results, out.rows, sc, clock);
  return out;
}

// ---- Traced pass ---------------------------------------------------------

/// Summed spans and counts of the traced pass. The layer names match the
/// per-layer metrics run.py emits.
struct TraceOut {
  double wall_s{0};  ///< decode start to last result, shadow pass excluded
  double decode_s{0}, classify_s{0}, observe_s{0}, shed_s{0}, record_s{0};
  double seal_s{0}, merge_s{0}, epoch_s{0}, refine_s{0}, handoff_s{0};
  double shadow_roll_s{0};
  std::array<double, 3> shadow_reverse_s{};  ///< dip_dport, sip_dip, sip_dport
  std::vector<double> merge_ms, epoch_ms, roll_ms, reverse_ms;
  std::size_t packets{0}, skipped{0}, ops{0}, ops_offered{0}, ops_shed{0};
  std::size_t ops_recorded{0};
  std::uint32_t shed_level_max{0};
  std::size_t heavy_buckets{0}, heavy_buckets_dropped{0};
  std::size_t work_units{0}, keys{0};
  std::size_t raw_alerts{0}, after_2d_alerts{0}, final_alerts{0};
  std::size_t tracked{0}, confirmed{0}, killed{0};
  std::vector<std::uint64_t> digests;
};

/// Re-derives the epoch's forecast roll and three reversals on the same
/// merged banks, with forecasters of its own, so each can be timed alone —
/// the detector runs them inside process(). Mirrors the detector's option
/// set-up (budget work split, top-N stage cap) and the reversal ablation in
/// bench/detection_epoch.cpp.
class ShadowEpoch {
 public:
  explicit ShadowEpoch(const HifindDetectorConfig& dc) : dc_(dc) {
    for (auto& f : rs_) f = make_rs();
    for (auto& f : kary_) f = make_kary();
  }

  struct Step {
    bool warmup{true};
    double roll_s{0};
    std::array<double, 3> reverse_s{};
    std::size_t heavy_buckets{0}, dropped{0}, work{0}, keys{0};
  };

  Step run(const SketchBank& bank) {
    Step s;
    const double t = dc_.interval_threshold();
    std::array<StageBuckets, 3> hb;
    const Clock::time_point a = Clock::now();
    // Slot order of the detector's stage B: dip_dport, sip_dip, sip_dport.
    const InvertibleSketch* e[3] = {
        rs_[0]->step_collect(bank.rs_dip_dport(), t, hb[0]),
        rs_[1]->step_collect(bank.rs_sip_dip(), t, hb[1]),
        rs_[2]->step_collect(bank.rs_sip_dport(), t, hb[2])};
    const KarySketch* v[3] = {kary_[0]->step_inplace(bank.verif_dip_dport()),
                              kary_[1]->step_inplace(bank.verif_sip_dip()),
                              kary_[2]->step_inplace(bank.verif_sip_dport())};
    kary_[3]->step_inplace(bank.os_dip_dport());
    s.roll_s = seconds_between(a, Clock::now());
    if (!e[0] || !e[1] || !e[2] || !v[0] || !v[1] || !v[2]) return s;
    s.warmup = false;
    InferenceOptions opts = dc_.inference;
    if (dc_.budget.enabled()) {
      opts.max_work = dc_.budget.work_budget() / 3;
      if (dc_.budget.max_heavy_per_stage != 0) {
        opts.max_heavy_per_stage =
            opts.max_heavy_per_stage == 0
                ? dc_.budget.max_heavy_per_stage
                : std::min(opts.max_heavy_per_stage,
                           dc_.budget.max_heavy_per_stage);
      }
    }
    for (std::size_t i = 0; i < 3; ++i) {
      for (const auto& stage : hb[i]) s.heavy_buckets += stage.size();
      InferenceOptions o = opts;
      const KarySketch* verif = v[i];
      o.verifier = [verif, t](std::uint64_t key, double) {
        return verif->estimate(key) >= t;
      };
      const Clock::time_point r0 = Clock::now();
      engine_.begin(*e[i], t, o, std::move(hb[i]));
      while (!engine_.run_chunk(~std::size_t{0})) {
      }
      const InferenceResult res = engine_.take_result();
      s.reverse_s[i] = seconds_between(r0, Clock::now());
      s.work += res.work_used;
      s.dropped += res.heavy_buckets_dropped;
      s.keys += res.keys.size();
    }
    return s;
  }

 private:
  std::unique_ptr<Forecaster<InvertibleSketch>> make_rs() const {
    return make_forecaster<InvertibleSketch>(dc_.forecast_model, dc_.ewma_alpha,
                                             dc_.holt_beta, dc_.ma_window);
  }
  std::unique_ptr<Forecaster<KarySketch>> make_kary() const {
    return make_forecaster<KarySketch>(dc_.forecast_model, dc_.ewma_alpha,
                                       dc_.holt_beta, dc_.ma_window);
  }

  HifindDetectorConfig dc_;
  std::array<std::unique_ptr<Forecaster<InvertibleSketch>>, 3> rs_;
  std::array<std::unique_ptr<Forecaster<KarySketch>>, 4> kary_;
  ReverseEngine engine_;
};

/// Layer-by-layer replay of OverlappedPipeline's work on one thread:
/// make_record_op -> ActiveFlowTable::observe -> LoadShedder::admit ->
/// SketchBank::record_ops on each shard replica -> seal -> merge_shards ->
/// HifindDetector::process -> refine_alerts, with the same hand-offs the
/// pipeline makes between them. Each stage runs over a whole interval's
/// packets before the next starts, so one clock pair times it; that is
/// equivalent because observe() and admit() never read each other's state
/// and the shard merge is bit-exact for any deal-out of the op stream.
TraceOut traced_pass(const Workload& w, const Scenario& sc,
                     const std::string& path) {
  TraceOut out;
  HifindDetectorConfig dc = w.pipe.detector;
  dc.epoch_threads = 1;  // serial epoch: its span is roll + reverse + phases
  HifindDetector detector(dc);
  ShadowEpoch shadow(w.pipe.detector);
  LoadShedder shedder(w.pipe.shed);
  ActiveFlowTable table(w.pipe.refinery);
  const std::size_t n_shards = w.pipe.record_threads;
  std::vector<std::unique_ptr<SketchBank>> shard_banks;
  std::vector<const SketchBank*> shards;
  for (std::size_t i = 0; i < n_shards; ++i) {
    shard_banks.push_back(std::make_unique<SketchBank>(w.pipe.bank));
    shards.push_back(shard_banks.back().get());
  }
  SketchBank merged(w.pipe.bank);
  const IntervalClock clock(dc.interval_seconds);
  constexpr std::size_t kDealBatch = 256;
  std::vector<RecordOp> ops, admitted;
  std::vector<FlowCandidate> candidates;
  double shadow_s = 0;

  const Clock::time_point t0 = Clock::now();
  const Trace trace = decode(w, sc, path, &out.skipped);
  out.decode_s = seconds_between(t0, Clock::now());
  out.packets = trace.size();
  const auto pk = trace.packets();
  const std::vector<std::size_t> bounds =
      interval_bounds(trace, clock, w.duration_s);
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    Clock::time_point a = Clock::now();
    // Adds the time since the previous lap to `acc` and returns it.
    auto lap = [&a](double& acc) {
      const Clock::time_point b = Clock::now();
      const double s = seconds_between(a, b);
      acc += s;
      a = b;
      return s;
    };
    ops.clear();
    for (std::size_t k = bounds[i]; k < bounds[i + 1]; ++k) {
      RecordOp op;
      if (make_record_op(pk[k], 1.0, op)) ops.push_back(op);
    }
    lap(out.classify_s);
    if (!table.empty()) {
      for (const RecordOp& op : ops) table.observe(op);
    }
    lap(out.observe_s);
    admitted.clear();
    for (RecordOp op : ops) {
      const double wgt = shedder.admit(op);
      if (wgt == 0.0) continue;
      if (wgt != 1.0) {
        op.delta *= wgt;
        op.weight *= wgt;
      }
      admitted.push_back(op);
    }
    lap(out.shed_s);
    for (std::size_t k = 0; k < admitted.size(); k += kDealBatch) {
      const std::size_t n = std::min(kDealBatch, admitted.size() - k);
      shard_banks[(k / kDealBatch) % n_shards]->record_ops(
          std::span<const RecordOp>(admitted.data() + k, n),
          SketchBank::kGroupAll);
    }
    lap(out.record_s);
    out.ops += ops.size();
    out.ops_recorded += admitted.size();

    FlowEvidence evidence = table.seal(i);
    table.install(candidates, i);
    const ShedReport shed = shedder.seal_interval();
    lap(out.seal_s);
    out.ops_offered += shed.ops_offered;
    out.ops_shed += shed.ops_shed;
    out.shed_level_max = std::max(out.shed_level_max, shed.level_max);

    merged.merge_shards(std::span<const SketchBank* const>(shards), nullptr);
    for (auto& s : shard_banks) s->reset_all();
    out.merge_ms.push_back(lap(out.merge_s) * 1e3);

    IntervalResult result = detector.process(merged, i);
    out.epoch_ms.push_back(lap(out.epoch_s) * 1e3);
    // Shadow pass, after the epoch so that the epoch meets the caches the
    // merge left, as in the pipeline; off the books for the wall time.
    const ShadowEpoch::Step step = shadow.run(merged);
    // Warm-up intervals compare 0 == 0: the detector returns a default
    // EpochReport before its reversals.
    if (step.work != result.epoch.inference_work ||
        step.dropped != result.epoch.heavy_buckets_dropped) {
      throw std::runtime_error(
          "shadow reversal does not reproduce the detector's epoch");
    }
    out.shadow_roll_s += step.roll_s;
    out.roll_ms.push_back(step.roll_s * 1e3);
    if (!step.warmup) {
      double rev = 0;
      for (std::size_t k = 0; k < 3; ++k) {
        out.shadow_reverse_s[k] += step.reverse_s[k];
        rev += step.reverse_s[k];
      }
      out.reverse_ms.push_back(rev * 1e3);
      out.heavy_buckets += step.heavy_buckets;
      out.heavy_buckets_dropped += step.dropped;
      out.work_units += step.work;
      out.keys += step.keys;
    }
    lap(shadow_s);

    RefinementOutcome refined = refine_alerts(
        result.final, evidence, dc.interval_threshold(), w.pipe.refinery);
    result.refined = std::move(refined.refined);
    result.refinement = refined.report;
    lap(out.refine_s);

    // The pipeline's epoch -> ingest hand-off: the final alerts' keys,
    // sorted and de-duplicated, install at the next seal.
    candidates.clear();
    if (w.pipe.refinery.enabled) {
      for (const Alert& al : result.final) {
        candidates.push_back(FlowCandidate{al.key_kind, al.key});
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const FlowCandidate& x, const FlowCandidate& y) {
                  return x.kind != y.kind ? x.kind < y.kind : x.key < y.key;
                });
      candidates.erase(
          std::unique(candidates.begin(), candidates.end(),
                      [](const FlowCandidate& x, const FlowCandidate& y) {
                        return x.kind == y.kind && x.key == y.key;
                      }),
          candidates.end());
    }
    lap(out.handoff_s);

    out.raw_alerts += result.raw.size();
    out.after_2d_alerts += result.after_2d.size();
    out.final_alerts += result.final.size();
    out.tracked += result.refinement.tracked;
    out.confirmed += result.refinement.confirmed;
    out.killed += result.refinement.killed;
    out.digests.push_back(digest_of(result));
  }
  out.wall_s = seconds_between(t0, Clock::now()) - shadow_s;
  return out;
}

// ---- Output --------------------------------------------------------------

class Json {
 public:
  explicit Json(std::FILE* f) : f_(f) {}
  void key(const char* k) {
    std::fprintf(f_, "%s\"%s\": ", sep_ ? ", " : "", k);
    sep_ = true;
  }
  void num(const char* k, double v) {
    key(k);
    std::fprintf(f_, "%.17g", v);
  }
  void num(const char* k, std::uint64_t v) {
    key(k);
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }
  void str(const char* k, const std::string& v) {
    key(k);
    std::fprintf(f_, "\"%s\"", v.c_str());
  }
  template <class T, class F>
  void list(const char* k, const std::vector<T>& xs, F value) {
    key(k);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i) std::fputs(", ", f_);
      std::fprintf(f_, "%.17g", static_cast<double>(value(xs[i])));
    }
    std::fputc(']', f_);
  }
  void hex_list(const char* k, const std::vector<std::uint64_t>& xs) {
    key(k);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::fprintf(f_, "%s\"%016llx\"", i ? ", " : "",
                   static_cast<unsigned long long>(xs[i]));
    }
    std::fputc(']', f_);
  }
  void open(const char* k) {
    if (k) key(k);
    std::fputc('{', f_);
    sep_ = false;
  }
  void close() {
    std::fputc('}', f_);
    sep_ = true;
  }

 private:
  std::FILE* f_;
  bool sep_{false};
};

void emit_pass(Json& j, const PassOut& p) {
  j.open(nullptr);
  j.num("packets", std::uint64_t{p.packets});
  j.num("skipped", std::uint64_t{p.skipped});
  j.num("decode_s", p.decode_s);
  j.num("wall_s", p.wall_s);
  j.num("cpu_s", p.cpu_s);
  const auto& r = p.rows;
  j.list("ingest_s", r, [](const IntervalRow& x) { return x.ingest_s; });
  j.list("seal_s", r, [](const IntervalRow& x) { return x.seal_s; });
  j.list("latency_s", r, [](const IntervalRow& x) { return x.latency_s; });
  j.list("epoch_cpu_s", r, [](const IntervalRow& x) { return x.epoch_cpu_s; });
  j.list("scored", r, [](const IntervalRow& x) { return x.scored ? 1 : 0; });
  j.list("truncated", r,
         [](const IntervalRow& x) { return x.truncated ? 1 : 0; });
  j.list("ops_offered", r, [](const IntervalRow& x) { return x.ops_offered; });
  j.list("ops_shed", r, [](const IntervalRow& x) { return x.ops_shed; });
  j.list("ring_full_spins", r,
         [](const IntervalRow& x) { return x.ring_full_spins; });
  j.list("drain_spin_yields", r,
         [](const IntervalRow& x) { return x.drain_spin_yields; });
  j.list("occupancy_max", r,
         [](const IntervalRow& x) { return x.occupancy_max; });
  std::vector<std::uint64_t> digests;
  for (const IntervalRow& x : r) digests.push_back(x.digest);
  j.hex_list("digests", digests);
  j.num("recall", p.score.recall);
  j.num("precision", p.score.precision);
  j.list("onset_s", p.score.onset_s, [](double x) { return x; });
  j.close();
}

void emit_trace(Json& j, const TraceOut& t) {
  j.open("trace");
  j.num("wall_s", t.wall_s);
  j.num("decode_s", t.decode_s);
  j.num("classify_s", t.classify_s);
  j.num("observe_s", t.observe_s);
  j.num("shed_s", t.shed_s);
  j.num("record_s", t.record_s);
  j.num("seal_s", t.seal_s);
  j.num("merge_s", t.merge_s);
  j.num("epoch_s", t.epoch_s);
  j.num("refine_s", t.refine_s);
  j.num("handoff_s", t.handoff_s);
  j.num("roll_s", t.shadow_roll_s);
  j.num("reverse_dip_dport_s", t.shadow_reverse_s[0]);
  j.num("reverse_sip_dip_s", t.shadow_reverse_s[1]);
  j.num("reverse_sip_dport_s", t.shadow_reverse_s[2]);
  auto id = [](double x) { return x; };
  j.list("merge_ms", t.merge_ms, id);
  j.list("epoch_ms", t.epoch_ms, id);
  j.list("roll_ms", t.roll_ms, id);
  j.list("reverse_ms", t.reverse_ms, id);
  j.num("packets", std::uint64_t{t.packets});
  j.num("skipped", std::uint64_t{t.skipped});
  j.num("ops", std::uint64_t{t.ops});
  j.num("ops_recorded", std::uint64_t{t.ops_recorded});
  j.num("ops_offered", std::uint64_t{t.ops_offered});
  j.num("ops_shed", std::uint64_t{t.ops_shed});
  j.num("shed_level_max", std::uint64_t{t.shed_level_max});
  j.num("heavy_buckets", std::uint64_t{t.heavy_buckets});
  j.num("heavy_buckets_dropped", std::uint64_t{t.heavy_buckets_dropped});
  j.num("work_units", std::uint64_t{t.work_units});
  j.num("keys", std::uint64_t{t.keys});
  j.num("raw_alerts", std::uint64_t{t.raw_alerts});
  j.num("after_2d_alerts", std::uint64_t{t.after_2d_alerts});
  j.num("final_alerts", std::uint64_t{t.final_alerts});
  j.num("tracked", std::uint64_t{t.tracked});
  j.num("confirmed", std::uint64_t{t.confirmed});
  j.num("killed", std::uint64_t{t.killed});
  j.hex_list("digests", t.digests);
  j.close();
}

struct Args {
  std::string workload, data_dir, out;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--data-dir") a.data_dir = v;
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument: " + k);
  }
  if (a.workload.empty() || a.data_dir.empty() || a.out.empty()) {
    throw std::invalid_argument(
        "usage: perfbench_e2e --workload W --seed N --seconds S --trace 0|1 "
        "--data-dir DIR --out FILE");
  }
  return a;
}

int run(const Args& args) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_e2e: refusing to run a build with asserts "
                       "enabled (configure with CMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  const Workload w = make_workload(args.workload);
  std::filesystem::create_directories(args.data_dir);
  const std::string path =
      args.data_dir + "/" + args.workload + "-" + std::to_string(args.seed) +
      (w.format == Format::kPcap ? ".pcap" : ".nf5");

  // Set-up, three times: scenario build + write + pipeline construction.
  // The passes read only the first build's network (to decode) and ledger
  // (to score). Each generated trace is freed, untimed, as soon as it is
  // written and each later build is dropped, so the run's peak RSS is the
  // decoded input plus the pipeline, not extra copies of the traffic.
  constexpr int kSetupReps = 3;
  std::vector<double> setup_s;
  std::unique_ptr<Scenario> sc;
  std::uint64_t file_hash = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point a = Clock::now();
    auto built = std::make_unique<Scenario>(w.build(args.seed));
    if (w.format == Format::kPcap) {
      write_pcap(built->trace, path);
    } else {
      write_netflow_v5(built->trace, path);
    }
    const double build_write_s = seconds_between(a, Clock::now());
    built->trace = Trace{};
    const Clock::time_point b = Clock::now();
    auto pipe = std::make_unique<OverlappedPipeline>(w.pipe);
    setup_s.push_back(build_write_s + seconds_between(b, Clock::now()));
    pipe.reset();
    const std::uint64_t h = file_digest(path);
    if (rep == 0) {
      file_hash = h;
      sc = std::move(built);
    } else if (h != file_hash) {
      std::fprintf(stderr, "perfbench_e2e: scenario file differs between "
                           "set-up repetitions\n");
      return 1;
    }
  }

  std::vector<PassOut> passes;
  std::size_t intervals = 0;
  const Clock::time_point start = Clock::now();
  while (passes.empty() || intervals < kMinIntervals ||
         seconds_between(start, Clock::now()) < args.seconds) {
    passes.push_back(pipeline_pass(w, *sc, path));
    intervals += passes.back().rows.size();
  }
  const double measured_s = seconds_between(start, Clock::now());
  std::optional<TraceOut> traced;
  if (args.trace) traced = traced_pass(w, *sc, path);
  std::filesystem::remove(path);

  // Every repetition, and the traced replay, must detect the same thing.
  bool consistent = true;
  for (const PassOut& p : passes) {
    for (std::size_t i = 0; i < p.rows.size(); ++i) {
      consistent &= p.rows[i].digest == passes[0].rows[i].digest;
    }
  }
  if (traced) {
    consistent &= traced->digests.size() == passes[0].rows.size();
    for (std::size_t i = 0; consistent && i < traced->digests.size(); ++i) {
      consistent &= traced->digests[i] == passes[0].rows[i].digest;
    }
  }

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + args.out);
  Json j(f);
  j.open(nullptr);
  j.str("workload", args.workload);
  j.num("seed", args.seed);
  j.str("build_type", PERFBENCH_BUILD_TYPE);
  j.str("simd_backend", simd::active_backend());
  j.num("consistent", std::uint64_t{consistent ? 1u : 0u});
  j.num("measured_s", measured_s);
  j.num("peak_rss_mb", peak_rss_mb());
  j.list("setup_s", setup_s, [](double x) { return x; });
  {
    const SketchBank probe(w.pipe.bank);
    j.num("bank_memory_hw_bytes", std::uint64_t{probe.memory_bytes_hw()});
    j.num("bank_accesses_per_packet",
          std::uint64_t{probe.accesses_per_packet()});
  }
  j.num("shards", std::uint64_t{w.pipe.record_threads});
  j.num("min_intervals", std::uint64_t{kMinIntervals});
  j.key("passes");
  std::fputc('[', f);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i) std::fputs(", ", f);
    emit_pass(j, passes[i]);
  }
  std::fputc(']', f);
  if (traced) emit_trace(j, *traced);
  j.close();
  std::fputc('\n', f);
  std::fclose(f);
  if (!consistent) {
    std::fprintf(stderr, "perfbench_e2e: interval digests differ between "
                         "repetitions or against the traced replay\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hifind::perfbench

int main(int argc, char** argv) {
  try {
    return hifind::perfbench::run(hifind::perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
}
