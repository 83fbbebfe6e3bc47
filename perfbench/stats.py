"""Statistics and metric derivation for the end-to-end benchmark.

Turns the raw JSON perfbench_e2e writes (per-pass, per-interval samples
plus the traced pass's spans) into the named metrics of spec.py.
"""

import json
import math
import statistics

# Percentiles a tail may report, highest last.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
# Samples a tail percentile needs beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolation percentile (p in [0, 1]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it, or None when even the median has too few."""
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line. metrics: {name: (value, unit)}."""
    for name, (value, _) in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    })


def digest_failures(raw):
    """(attempted, failed): interval results in all passes and the traced
    pass, and how many disagree with the first pass's digest."""
    reference = raw["passes"][0]["digests"]
    runs = [p["digests"] for p in raw["passes"]]
    if "trace" in raw:
        runs.append(raw["trace"]["digests"])
    attempted = sum(len(r) for r in runs)
    failed = 0
    for r in runs:
        failed += abs(len(r) - len(reference))
        failed += sum(1 for a, b in zip(r, reference) if a != b)
    return attempted, failed


def pooled_ms(raw):
    """(seal_ms, latency_ms, tail): every pass's per-interval close and alert
    latency times, and the tail percentile the workload's minimum interval
    count supports."""
    tail = tail_percentile(raw["min_intervals"])
    seal_ms = [x * 1e3 for p in raw["passes"] for x in p["seal_s"]]
    latency_ms = [x * 1e3 for p in raw["passes"] for x in p["latency_s"]]
    if len(seal_ms) < raw["min_intervals"] or tail is None:
        raise ValueError("run has fewer intervals than its tail needs")
    return seal_ms, latency_ms, tail


def end_to_end(raw):
    """Every end-to-end metric, by name, from an untraced or traced run."""
    passes = raw["passes"]
    first = passes[0]
    seal_ms, _, _ = pooled_ms(raw)
    onset = [x for p in passes for x in p["onset_s"]]
    offered = sum(first["ops_offered"])
    shed = sum(first["ops_shed"])
    scored = [i for i, s in enumerate(first["scored"]) if s]
    complete = sum(1 for i in scored if not first["truncated"][i])
    med = statistics.median
    return {
        "throughput_pps": med(p["packets"] / p["wall_s"] for p in passes),
        "ingest_pps": med(p["packets"] / sum(p["ingest_s"]) for p in passes),
        "seal_p50_ms": percentile(seal_ms, 0.5),
        "onset_to_alert_s": med(onset) if onset else float("nan"),
        "cpu_s_per_mpkt": med(p["cpu_s"] / p["packets"] * 1e6 for p in passes),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": med(raw["setup_s"]),
        "event_recall": first["recall"],
        "precision": first["precision"],
        "admit_frac": 1.0 - shed / offered if offered else 1.0,
        "complete_frac": complete / len(scored) if scored else 1.0,
    }


# Spans of the traced pass that together should cover its wall time.
TRACE_SPANS = ("decode", "classify", "observe", "shed", "record", "seal",
               "merge", "epoch", "refine", "handoff")


def per_layer(raw):
    """Every per-layer metric, by name, from a traced run."""
    t = raw["trace"]
    passes = raw["passes"]
    med = statistics.median
    reverse_s = (t["reverse_dip_dport_s"] + t["reverse_sip_dip_s"] +
                 t["reverse_sip_dport_s"])
    covered = sum(t[f"{s}_s"] for s in TRACE_SPANS)
    untraced_pps = med(p["packets"] / p["wall_s"] for p in passes)
    traced_pps = t["packets"] / t["wall_s"]
    seal_ms, latency_ms, tail = pooled_ms(raw)

    def ms_p50(key):
        return percentile(t[key], 0.5) if t[key] else 0.0

    def per(span_s, count, scale=1e9):
        return span_s / count * scale if count else 0.0

    return {
        "packet.decode.s": t["decode_s"],
        "packet.decode.pps": t["packets"] / t["decode_s"],
        "packet.decode.skipped": t["skipped"],
        "packet.classify.ns_per_pkt": per(t["classify_s"], t["packets"]),
        "packet.classify.op_frac": t["ops"] / t["packets"],
        "detect.shed.ns_per_op": per(t["shed_s"], t["ops"]),
        "detect.shed.ops_offered": t["ops_offered"],
        "detect.shed.ops_shed": t["ops_shed"],
        "detect.shed.level_max": t["shed_level_max"],
        "detect.record.ns_per_op": per(t["record_s"], t["ops_recorded"]),
        "detect.record.ops": t["ops_recorded"],
        # Ring, drain and occupancy exist only inside the pipeline's
        # recorder: these three come from the run's pipeline passes.
        "detect.record.ring_full_spins": med(
            sum(p["ring_full_spins"]) for p in passes),
        "detect.record.drain_spin_yields": med(
            sum(p["drain_spin_yields"]) for p in passes),
        "detect.record.shard_occupancy_max": med(
            med(p["occupancy_max"]) for p in passes),
        # close_interval() as a whole (drain + rebind are private to it),
        # and the pipeline's seal-to-result latency, from the pipeline passes.
        "detect.seal.ms_sum": med(sum(p["seal_s"]) for p in passes) * 1e3,
        "detect.seal.ms_tail": percentile(seal_ms, tail),
        "detect.alert_latency.ms_p50": percentile(latency_ms, 0.5),
        "detect.alert_latency.ms_tail": percentile(latency_ms, tail),
        "detect.merge.ms_p50": ms_p50("merge_ms"),
        "detect.merge.ms_sum": t["merge_s"] * 1e3,
        "detect.merge.shards": raw["shards"],
        "forecast.roll.ms_p50": ms_p50("roll_ms"),
        "forecast.roll.ms_sum": t["roll_s"] * 1e3,
        "forecast.roll.heavy_buckets": t["heavy_buckets"],
        "sketch.reverse.ms_p50": ms_p50("reverse_ms"),
        "sketch.reverse.ms_sum": reverse_s * 1e3,
        "sketch.reverse.ms_max": max(t["reverse_ms"], default=0.0),
        "sketch.reverse.dip_dport.ms_sum": t["reverse_dip_dport_s"] * 1e3,
        "sketch.reverse.sip_dip.ms_sum": t["reverse_sip_dip_s"] * 1e3,
        "sketch.reverse.sip_dport.ms_sum": t["reverse_sip_dport_s"] * 1e3,
        "sketch.reverse.work_units": t["work_units"],
        "sketch.reverse.keys": t["keys"],
        "sketch.reverse.keys_per_kwork": per(t["keys"], t["work_units"], 1e3),
        "sketch.reverse.heavy_buckets_dropped": t["heavy_buckets_dropped"],
        "detect.epoch.ms_p50": ms_p50("epoch_ms"),
        "detect.epoch.ms_sum": t["epoch_s"] * 1e3,
        # Process CPU over wall while a pipeline epoch runs (seal start to
        # result), recorder workers' idle spinning included.
        "detect.epoch.cpu_cores": med(
            sum(p["epoch_cpu_s"]) / sum(p["latency_s"]) for p in passes),
        "detect.phases.ms_sum":
            (t["epoch_s"] - t["roll_s"] - reverse_s) * 1e3,
        "detect.phases.raw_alerts": t["raw_alerts"],
        "detect.phases.after_2d_alerts": t["after_2d_alerts"],
        "detect.phases.final_alerts": t["final_alerts"],
        "detect.refine.ms_sum": t["refine_s"] * 1e3,
        "detect.refine.observe_ms_sum": t["observe_s"] * 1e3,
        "detect.refine.tracked": t["tracked"],
        "detect.refine.confirmed": t["confirmed"],
        "detect.refine.killed": t["killed"],
        "detect.bank.memory_hw_bytes": raw["bank_memory_hw_bytes"],
        "detect.bank.accesses_per_packet": raw["bank_accesses_per_packet"],
        "trace.overhead_frac": 1.0 - traced_pps / untraced_pps,
        "trace.uncovered_frac": 1.0 - covered / t["wall_s"],
    }


def span_table(raw):
    """(layer, ms) rows of the traced pass, largest first, for the printout:
    the epoch split into roll, reversal and phases, plus the uncovered rest."""
    t = raw["trace"]
    reverse_s = (t["reverse_dip_dport_s"] + t["reverse_sip_dip_s"] +
                 t["reverse_sip_dport_s"])
    rows = {s: t[f"{s}_s"] for s in TRACE_SPANS if s != "epoch"}
    rows["epoch.roll"] = t["roll_s"]
    rows["epoch.reverse"] = reverse_s
    rows["epoch.phases"] = t["epoch_s"] - t["roll_s"] - reverse_s
    rows["uncovered"] = t["wall_s"] - sum(t[f"{s}_s"] for s in TRACE_SPANS)
    return sorted(((k, v * 1e3) for k, v in rows.items()),
                  key=lambda kv: -kv[1])
