// The benchmark's workloads: a scenario, an input format and a pipeline
// configuration each. README.md records why each one exists.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "detect/overlapped.hpp"
#include "gen/attacks.hpp"
#include "gen/background.hpp"
#include "gen/scenario.hpp"

namespace hifind::perfbench {

enum class Format { kPcap, kNetflowV5 };

/// Detection interval of every workload (HifindDetectorConfig's default).
constexpr double kIntervalSeconds = 60.0;

/// One recurring event stream: events start every `period_s` from
/// `first_s` and last `duration_s`, so the stream's concurrency is the same
/// all through the trace. period_s = 0 disables the stream.
struct Stream {
  double first_s{0};
  double period_s{0};
  double duration_s{0};
};

/// Length of every steady-mix trace: nu_like's 30 minutes.
constexpr std::uint32_t kSteadyMixDuration = 1800;

/// Clients knocking on the dead service per misconfiguration (2.5 SYN/s
/// each). Each is a heavy key in two key spaces at once, which makes
/// misconfiguration onsets the reversal's most expensive intervals.
constexpr std::size_t kMisconfigClients = 24;

/// Server failures of every steady mix: {start, duration} in s.
constexpr std::array<std::array<double, 2>, 2> kServerFailures{
    {{600, 200}, {1400, 150}}};

/// nu_like's network, background and attack kinds on a fixed schedule.
/// gen's presets place every event at a seeded random time and draw its size
/// from wide ranges; one seed then overlaps several large scans and costs
/// five times the reversal work of the next, which no run-to-run bound can
/// absorb. Here the seed picks the identities (attackers, victims, ports,
/// targets) and the background, while the schedule and the sizes, which
/// cycle through fixed ladders, are the same for every seed.
struct SteadyMix {
  Stream spoofed_floods, fixed_floods, hscans, vscans, block_scans;
  Stream flash_crowds, misconfigs;
};

inline Scenario build_steady_mix(std::uint64_t seed, const SteadyMix& mix) {
  const ScenarioConfig base = nu_like_config(seed, kSteadyMixDuration);
  NetworkModelConfig net_config = base.network;
  net_config.seed = mix64(net_config.seed ^ mix64(seed));
  Scenario sc(net_config);
  const NetworkModel& net = sc.network;
  Pcg32 rng(mix64(seed), mix64(seed ^ 0x51ead7c0ffee1234ULL));
  auto us = [](double s) { return static_cast<Timestamp>(s * kMicrosPerSecond); };
  const double total = kSteadyMixDuration;

  std::vector<ServerFailureWindow> failures;
  for (const auto& [start, dur] : kServerFailures) {
    ServerFailureWindow w;
    w.service_index = rng.bounded(
        static_cast<std::uint32_t>(net.services().size() - 1));
    w.start = us(start);
    w.end = us(start + dur);
    failures.push_back(w);
  }
  BackgroundConfig bg = base.background;
  bg.connections_per_second = base.background_cps;
  bg.seed = mix64(seed ^ 0x5ca1ab1e0ddba11ULL);
  generate_background(bg, net, us(total), failures, sc.trace, sc.truth);

  // Calls inject(start, index) for every event of the stream that fits.
  // Starts snap back to an interval boundary: an attack's trace-time delay
  // to detection is then a whole number of intervals, the same for every
  // seed, instead of a seed-dependent share of the first one.
  auto each = [total](const Stream& s, auto inject) {
    if (s.period_s <= 0) return;
    std::size_t j = 0;
    for (double t = s.first_s; t + s.duration_s <= total; t += s.period_s) {
      inject(std::floor(t / kIntervalSeconds) * kIntervalSeconds, j++);
    }
  };
  constexpr std::array<std::uint16_t, 8> kScanPorts{1433, 445,  139,  5554,
                                                    2745, 1025, 6129, 22};

  each(mix.spoofed_floods, [&](double t, std::size_t j) {
    const Service& victim = net.sample_service(rng);
    SynFloodSpec spec;
    spec.victim_ip = victim.ip;
    spec.victim_port = victim.port;
    spec.start = us(t);
    spec.duration = us(mix.spoofed_floods.duration_s);
    spec.rate_pps = std::array{250.0, 450.0, 700.0}[j % 3];
    spec.spoofed = true;
    spec.label = "spoofed SYN flood";
    inject_syn_flood(spec, net, rng, sc.trace, sc.truth);
  });
  each(mix.fixed_floods, [&](double t, std::size_t j) {
    const Service& victim = net.sample_service(rng);
    SynFloodSpec spec;
    spec.victim_ip = victim.ip;
    spec.victim_port = victim.port;
    spec.start = us(t);
    spec.duration = us(mix.fixed_floods.duration_s);
    spec.rate_pps = std::array{150.0, 300.0, 450.0}[j % 3];
    spec.spoofed = false;
    spec.attacker = net.sample_external_client(rng);
    spec.label = "non-spoofed SYN flood";
    inject_syn_flood(spec, net, rng, sc.trace, sc.truth);
  });
  each(mix.hscans, [&](double t, std::size_t j) {
    HscanSpec spec;
    spec.attacker = net.sample_external_client(rng);
    spec.dport = kScanPorts[rng.bounded(kScanPorts.size())];
    // The smallest rung stays under the 1 SYN/s threshold on purpose.
    spec.num_targets = std::array<std::size_t, 4>{150, 900, 4000, 20000}[j % 4];
    spec.start = us(t);
    spec.duration = us(mix.hscans.duration_s);
    spec.open_fraction = 0.03;
    spec.label = "horizontal scan";
    inject_horizontal_scan(spec, net, rng, sc.trace, sc.truth);
  });
  each(mix.vscans, [&](double t, std::size_t j) {
    VscanSpec spec;
    spec.attacker = net.sample_external_client(rng);
    spec.target = net.sample_internal_address(rng);
    spec.first_port = static_cast<std::uint16_t>(1 + rng.bounded(100));
    spec.num_ports = std::array<std::size_t, 3>{200, 1000, 5000}[j % 3];
    spec.start = us(t);
    spec.duration = us(mix.vscans.duration_s);
    spec.open_fraction = 0.01;
    spec.label = "port sweep (vertical)";
    inject_vertical_scan(spec, net, rng, sc.trace, sc.truth);
  });
  each(mix.block_scans, [&](double t, std::size_t) {
    BlockScanSpec spec;
    spec.attacker = net.sample_external_client(rng);
    spec.num_targets = 64;
    spec.num_ports = 32;
    spec.first_port = static_cast<std::uint16_t>(1 + rng.bounded(1000));
    spec.start = us(t);
    spec.duration = us(mix.block_scans.duration_s);
    spec.label = "block scan";
    inject_block_scan(spec, net, rng, sc.trace, sc.truth);
  });
  each(mix.flash_crowds, [&](double t, std::size_t) {
    const Service& svc = net.sample_service(rng);
    FlashCrowdSpec spec;
    spec.service_ip = svc.ip;
    spec.service_port = svc.port;
    spec.start = us(t);
    spec.duration = us(mix.flash_crowds.duration_s);
    spec.rate_pps = 250.0;
    spec.success_fraction = 0.75;
    inject_flash_crowd(spec, net, rng, sc.trace, sc.truth);
  });
  each(mix.misconfigs, [&](double t, std::size_t) {
    MisconfigSpec spec;
    spec.dead_ip = net.dead_service().ip;
    spec.dead_port = net.dead_service().port;
    spec.num_clients = kMisconfigClients;
    spec.start = us(t);
    spec.duration = us(mix.misconfigs.duration_s);
    spec.rate_pps = 2.5 * static_cast<double>(kMisconfigClients);
    inject_misconfiguration(spec, net, rng, sc.trace, sc.truth);
  });
  sc.trace.sort();
  return sc;
}

struct Workload {
  /// Builds the workload's scenario; the seed is the only input.
  Scenario (*build)(std::uint64_t seed){nullptr};
  std::uint32_t duration_s{0};  ///< the length build gives the trace
  Format format{Format::kPcap};
  OverlappedPipelineConfig pipe;
};

/// Pooled interval samples a run must reach before it may stop, so every
/// run has at least 10 intervals beyond the p90 its tails report.
constexpr std::size_t kMinIntervals = 100;

/// nu_like's event counts over 30 minutes, minus the block scan (see
/// README.md): 4 spoofed and 3 fixed floods, 21 horizontal and 6 vertical
/// scans, 2 flash crowds, 4 misconfigurations, 2 server failures.
inline SteadyMix campus_mix() {
  SteadyMix m;
  m.spoofed_floods = {150, 400, 240};
  m.fixed_floods = {200, 530, 200};
  m.hscans = {125, 67, 300};
  m.vscans = {170, 250, 180};
  m.flash_crowds = {400, 800, 200};
  m.misconfigs = {300, 360, 240};
  return m;
}

/// The attack-heavy counts of bench/detection_epoch.cpp's
/// nu_like_attack_heavy preset: 10 spoofed and 8 fixed floods, 60
/// horizontal and 17 vertical scans, 2 block scans.
inline SteadyMix attack_heavy_mix() {
  SteadyMix m = campus_mix();
  m.spoofed_floods = {130, 150, 240};
  m.fixed_floods = {160, 190, 200};
  m.hscans = {121, 23, 300};
  m.vscans = {140, 90, 180};
  m.block_scans = {500, 700, 200};
  return m;
}

/// Distinct spoofed sources per flood interval of spoofed_million_flow.
constexpr std::size_t kSpoofedSourcesPerInterval = 200'000;
constexpr std::uint32_t kMillionFlowDuration = 1200;
constexpr std::size_t kMillionFlowFloods = 4;

/// million_flow_config's traffic, stretched: the background, then four
/// spoofed floods at pinned rates from the 120 s lead to the end of the
/// trace, so every interval after the two warm-up ones carries all four.
/// The victims are the four most popular live services: gen's preset
/// samples them by popularity, and two floods on one service are one alert
/// for two ledger events, so recall moved by a quarter between seeds.
inline Scenario build_million_flow(std::uint64_t seed) {
  ScenarioConfig c = million_flow_config(seed, kSpoofedSourcesPerInterval);
  c.duration_seconds = kMillionFlowDuration;
  c.num_spoofed_floods = 0;
  Scenario sc = build_scenario(c);
  std::vector<const Service*> victims;
  for (const Service& s : sc.network.services()) {
    if (s.alive) victims.push_back(&s);
  }
  std::partial_sort(victims.begin(), victims.begin() + kMillionFlowFloods,
                    victims.end(), [](const Service* a, const Service* b) {
                      return a->popularity > b->popularity;
                    });
  Pcg32 rng(mix64(seed ^ 0xf100d5ULL), mix64(seed));
  for (std::size_t k = 0; k < kMillionFlowFloods; ++k) {
    SynFloodSpec spec;
    spec.victim_ip = victims[k]->ip;
    spec.victim_port = victims[k]->port;
    spec.start = static_cast<Timestamp>(120 * kMicrosPerSecond);
    spec.duration =
        static_cast<Timestamp>((kMillionFlowDuration - 120) * kMicrosPerSecond);
    spec.rate_pps = static_cast<double>(kSpoofedSourcesPerInterval) /
                    (kMillionFlowFloods * kIntervalSeconds);
    spec.spoofed = true;
    spec.label = "spoofed SYN flood";
    inject_syn_flood(spec, sc.network, rng, sc.trace, sc.truth);
  }
  sc.trace.sort();
  return sc;
}

inline Workload make_workload(const std::string& name) {
  Workload w;
  w.pipe.record_threads = 2;
  w.pipe.detector.epoch_threads = 2;
  if (name == "campus_reversible") {
    w.build = [](std::uint64_t seed) {
      return build_steady_mix(seed, campus_mix());
    };
    w.duration_s = kSteadyMixDuration;
    w.format = Format::kNetflowV5;
  } else if (name == "spoofed_million_flow") {
    w.build = [](std::uint64_t seed) { return build_million_flow(seed); };
    w.duration_s = kMillionFlowDuration;
    w.format = Format::kPcap;
    w.pipe.detector.budget.deadline_ms = 50.0;
  } else if (name == "overload_compact") {
    w.build = [](std::uint64_t seed) {
      return build_steady_mix(seed, attack_heavy_mix());
    };
    w.duration_s = kSteadyMixDuration;
    w.format = Format::kPcap;
    w.pipe.bank.backend = SketchBackendKind::kCompact;
    w.pipe.shed.budget_ops_per_interval = 65536;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace hifind::perfbench
