"""What the benchmark measures: workloads, metrics, units and bounds.

The single source for BENCHMARK.json (written by run_all.py) and for the
units run.py prints. README.md explains each workload and metric.
"""

RUN_SECONDS = 20

# Tails are the p90 of at least 100 pooled intervals (kMinIntervals in
# workloads.hpp), so every run has at least 10 intervals beyond its tail.
WORKLOADS = [
    ("campus_reversible",
     "NetFlow v5 campus edge on the paper's reversible sketch: DFS reversal "
     "dominates, so reversal and epoch threading show here; tails p90 of "
     ">=100 intervals"),
    ("spoofed_million_flow",
     "pcap spoofed floods, 200k fresh sources per interval, budgeted epoch: "
     "decode, record and merge dominate, reversal does not; tails p90 of "
     ">=100 intervals"),
    ("overload_compact",
     "pcap attack-heavy mix on the compact sketch with shedding and "
     "refinement live: the only workload that sheds and refines; tails p90 "
     "of >=100 intervals"),
]

# (name, unit, better, bound). Alert latency (p50 and tail) and the seal
# tail are per-layer metrics below: over ten seeds their spread reached
# 0.3-0.7 of the median on a 4-vCPU VM, beyond any bound a gate may use
# (see README.md).
END_TO_END = [
    ("throughput_pps", "pkt/s", "higher", 0.25),
    ("ingest_pps", "pkt/s", "higher", 0.25),
    ("seal_p50_ms", "ms", "lower", 0.25),
    ("onset_to_alert_s", "s", "lower", 0.05),
    ("cpu_s_per_mpkt", "CPU-s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("event_recall", "ratio", "higher", 0.15),
    ("precision", "ratio", "higher", 0.05),
    ("admit_frac", "ratio", "higher", 0.1),
    ("complete_frac", "ratio", "higher", 0.05),
]

# (name, unit); per-layer metrics carry no bound.
PER_LAYER = [
    ("packet.decode.s", "s"),
    ("packet.decode.pps", "pkt/s"),
    ("packet.decode.skipped", "count"),
    ("packet.classify.ns_per_pkt", "ns"),
    ("packet.classify.op_frac", "ratio"),
    ("detect.shed.ns_per_op", "ns"),
    ("detect.shed.ops_offered", "count"),
    ("detect.shed.ops_shed", "count"),
    ("detect.shed.level_max", "count"),
    ("detect.record.ns_per_op", "ns"),
    ("detect.record.ops", "count"),
    ("detect.record.ring_full_spins", "count"),
    ("detect.record.drain_spin_yields", "count"),
    ("detect.record.shard_occupancy_max", "ratio"),
    ("detect.seal.ms_sum", "ms"),
    ("detect.seal.ms_tail", "ms"),
    ("detect.alert_latency.ms_p50", "ms"),
    ("detect.alert_latency.ms_tail", "ms"),
    ("detect.merge.ms_p50", "ms"),
    ("detect.merge.ms_sum", "ms"),
    ("detect.merge.shards", "count"),
    ("forecast.roll.ms_p50", "ms"),
    ("forecast.roll.ms_sum", "ms"),
    ("forecast.roll.heavy_buckets", "count"),
    ("sketch.reverse.ms_p50", "ms"),
    ("sketch.reverse.ms_sum", "ms"),
    ("sketch.reverse.ms_max", "ms"),
    ("sketch.reverse.dip_dport.ms_sum", "ms"),
    ("sketch.reverse.sip_dip.ms_sum", "ms"),
    ("sketch.reverse.sip_dport.ms_sum", "ms"),
    ("sketch.reverse.work_units", "count"),
    ("sketch.reverse.keys", "count"),
    ("sketch.reverse.keys_per_kwork", "1/kwork"),
    ("sketch.reverse.heavy_buckets_dropped", "count"),
    ("detect.epoch.ms_p50", "ms"),
    ("detect.epoch.ms_sum", "ms"),
    ("detect.epoch.cpu_cores", "cores"),
    ("detect.phases.ms_sum", "ms"),
    ("detect.phases.raw_alerts", "count"),
    ("detect.phases.after_2d_alerts", "count"),
    ("detect.phases.final_alerts", "count"),
    ("detect.refine.ms_sum", "ms"),
    ("detect.refine.observe_ms_sum", "ms"),
    ("detect.refine.tracked", "count"),
    ("detect.refine.confirmed", "count"),
    ("detect.refine.killed", "count"),
    ("detect.bank.memory_hw_bytes", "bytes"),
    ("detect.bank.accesses_per_packet", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
]

# Per-layer metrics where bigger means better; every other one is a cost.
_HIGHER_IS_BETTER = {
    "packet.decode.pps",
    "sketch.reverse.keys_per_kwork",
    "detect.refine.confirmed",
}

UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update(dict(PER_LAYER))


def benchmark_json():
    """The BENCHMARK.json document, as a dict."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u,
             "better": "higher" if n in _HIGHER_IS_BETTER else "lower"}
            for n, u in PER_LAYER
        ],
    }
