#!/usr/bin/env python3
"""Validate a rsd_bench run manifest against the rsd-bench-manifest-v4 schema.

Usage: check_manifest.py MANIFEST.json

Checks (exit 0 on success, 1 with a diagnostic on the first violation):
  * the file is valid JSON with schema "rsd-bench-manifest-v4";
  * top-level run parameters (threads/runs/seed/results_dir) are present
    and well-typed; trace_dir, when present, is a non-empty string;
  * every experiment entry has a name, a tag list, an "ok"/"failed"
    status (with an error string when failed), finite wall_s when
    present, a csv path list, and a metrics object;
  * metrics values are either numbers (counters/gauges) or histogram
    objects with count/sum/mean/min/max plus interpolated p50/p90/p99
    quantiles satisfying min <= p50 <= p90 <= p99 <= max and
    min <= mean <= max, all finite;
  * link-network counters (metrics named "net.*") are non-negative, and a
    successful fabric_compare entry must carry net.transfers, net.reconfigs,
    net.express, and net.route_hits — the Network flushes them at quiesce
    boundaries, so their absence means the experiment never drove the
    modeled links (or predates the fast-path counters);
  * the partitioned engine's pardes.horizon_gain counter is non-negative —
    the lookahead matrix can only widen epoch horizons, so a negative gain
    means the horizon computation regressed;
  * attribution blocks (v4) decompose a positive makespan into seven
    non-negative components (v4 adds nic_ns, the NIC/fibre serialisation
    of cross-chassis transfers) that sum to it exactly, and each banded
    entry carries a finite slack_share plus an ordered [lower, upper] band;
  * a successful attribution_fabrics entry must record at least one
    attribution with a band (the slacked replays);
  * a successful multichassis_contention entry must carry non-negative
    net.nic_transfers and net.fibre_busy_ns counters — it drives traffic
    across chassis NICs by construction, so their absence means the
    multi-chassis graph was never built.
"""

import json
import math
import sys

ATTRIBUTION_COMPONENTS = (
    "compute_ns", "reconfig_ns", "nic_ns", "fabric_ns", "queue_ns", "wake_ns",
    "idle_ns",
)


def fail(msg):
    print(f"check_manifest: {msg}", file=sys.stderr)
    sys.exit(1)


def check_finite_number(value, where):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{where}: expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        fail(f"{where}: non-finite value {value!r}")


def check_metrics(metrics, where):
    if not isinstance(metrics, dict):
        fail(f"{where}: metrics must be an object")
    for name, value in metrics.items():
        if not name:
            fail(f"{where}: empty metric name")
        if isinstance(value, dict):
            for key in ("count", "sum", "mean", "min", "max", "p50", "p90", "p99"):
                if key not in value:
                    fail(f"{where}: histogram {name!r} missing {key!r}")
                check_finite_number(value[key], f"{where}: {name}.{key}")
            if value["count"] < 0 or value["min"] > value["max"]:
                fail(f"{where}: histogram {name!r} is inconsistent")
            if not (value["min"] <= value["p50"] <= value["p90"] <= value["p99"]
                    <= value["max"]):
                fail(f"{where}: histogram {name!r} quantiles are not ordered "
                     "within [min, max]")
            # The mean prints with 12 significant digits; allow that rounding.
            slack = 1e-11 * max(1.0, abs(value["min"]), abs(value["max"]))
            if not value["min"] - slack <= value["mean"] <= value["max"] + slack:
                fail(f"{where}: histogram {name!r} mean {value['mean']} lies "
                     f"outside [min, max] = [{value['min']}, {value['max']}]")
        else:
            check_finite_number(value, f"{where}: {name}")
            if name.startswith("net.") and value < 0:
                fail(f"{where}: link-network counter {name!r} is negative")
            if name == "pardes.horizon_gain" and value < 0:
                fail(f"{where}: {name!r} is negative (the lookahead matrix "
                     "can only widen horizons over the uniform floor)")


def check_attribution(entries, where):
    if not isinstance(entries, list) or not entries:
        fail(f"{where}: attribution must be a non-empty list")
    banded = 0
    for i, entry in enumerate(entries):
        at = f"{where}: attribution[{i}]"
        if not isinstance(entry, dict):
            fail(f"{at}: expected an object")
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            fail(f"{at}: missing label")
        at = f"{where}: attribution[{i}] ({label})"
        makespan = entry.get("makespan_ns")
        check_finite_number(makespan, f"{at}: makespan_ns")
        if makespan <= 0:
            fail(f"{at}: makespan_ns must be positive")
        components = entry.get("components")
        if not isinstance(components, dict):
            fail(f"{at}: missing components object")
        total = 0
        for key in ATTRIBUTION_COMPONENTS:
            if key not in components:
                fail(f"{at}: components missing {key!r}")
            check_finite_number(components[key], f"{at}: components.{key}")
            if components[key] < 0:
                fail(f"{at}: components.{key} is negative")
            total += components[key]
        if total != makespan:
            fail(f"{at}: components sum to {total}, not the makespan "
                 f"{makespan} (the decomposition must be exact)")
        if ("slack_share" in entry) != ("band" in entry):
            fail(f"{at}: slack_share and band must appear together")
        if "band" in entry:
            banded += 1
            check_finite_number(entry["slack_share"], f"{at}: slack_share")
            if entry["slack_share"] < 0:
                fail(f"{at}: slack_share is negative")
            band = entry["band"]
            if not isinstance(band, list) or len(band) != 2:
                fail(f"{at}: band must be [lower, upper]")
            check_finite_number(band[0], f"{at}: band lower")
            check_finite_number(band[1], f"{at}: band upper")
            if band[0] > band[1]:
                fail(f"{at}: band lower {band[0]} exceeds upper {band[1]}")
    return banded


def check_experiment(entry, index):
    where = f"experiments[{index}]"
    if not isinstance(entry, dict):
        fail(f"{where}: expected an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        fail(f"{where}: missing experiment name")
    where = f"experiments[{index}] ({name})"
    tags = entry.get("tags")
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        fail(f"{where}: tags must be a list of strings")
    status = entry.get("status")
    if status not in ("ok", "failed"):
        fail(f"{where}: status must be 'ok' or 'failed', got {status!r}")
    if status == "failed" and not isinstance(entry.get("error"), str):
        fail(f"{where}: failed entry must carry an error string")
    if "wall_s" in entry:
        check_finite_number(entry["wall_s"], f"{where}: wall_s")
        if entry["wall_s"] < 0:
            fail(f"{where}: negative wall_s")
    csv = entry.get("csv")
    if not isinstance(csv, list) or not all(isinstance(p, str) for p in csv):
        fail(f"{where}: csv must be a list of path strings")
    if "metrics" not in entry:
        fail(f"{where}: missing metrics object (manifest-v4 requires one)")
    check_metrics(entry["metrics"], where)
    if name == "fabric_compare" and status == "ok":
        for counter in ("net.transfers", "net.reconfigs", "net.express",
                        "net.route_hits"):
            if counter not in entry["metrics"]:
                fail(f"{where}: ok entry is missing {counter!r} (the Network "
                     "flushes link counters at quiesce boundaries)")
    if name == "multichassis_contention" and status == "ok":
        for counter in ("net.nic_transfers", "net.fibre_busy_ns"):
            value = entry["metrics"].get(counter)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(f"{where}: ok entry is missing {counter!r} (cross-chassis "
                     "traffic must traverse the NIC/fibre links)")
            if value < 0:
                fail(f"{where}: {counter!r} is negative")
    banded = 0
    if "attribution" in entry:
        banded = check_attribution(entry["attribution"], where)
    if name == "attribution_fabrics" and status == "ok":
        if "attribution" not in entry:
            fail(f"{where}: ok entry must record attributions")
        if banded == 0:
            fail(f"{where}: no attribution carries an Eq 2-3 band (the "
                 "slacked replays must)")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_manifest.py MANIFEST.json")
    try:
        with open(sys.argv[1], encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as err:
        fail(f"cannot read {sys.argv[1]}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{sys.argv[1]} is not valid JSON: {err}")

    if not isinstance(manifest, dict):
        fail("top level must be an object")
    schema = manifest.get("schema")
    if schema != "rsd-bench-manifest-v4":
        fail(f"unexpected schema {schema!r} (want rsd-bench-manifest-v4)")
    for key in ("threads", "runs"):
        value = manifest.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(f"{key} must be a non-negative integer, got {value!r}")
    if "seed" not in manifest:
        fail("missing seed")
    if not isinstance(manifest.get("results_dir"), str):
        fail("results_dir must be a string")
    if "trace_dir" in manifest:
        trace_dir = manifest["trace_dir"]
        if not isinstance(trace_dir, str) or not trace_dir:
            fail("trace_dir, when present, must be a non-empty string")
    experiments = manifest.get("experiments")
    if not isinstance(experiments, list):
        fail("experiments must be a list")
    for i, entry in enumerate(experiments):
        check_experiment(entry, i)

    print(f"check_manifest: OK ({len(experiments)} experiments, schema {schema})")


if __name__ == "__main__":
    main()
