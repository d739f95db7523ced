#!/usr/bin/env python3
"""Render critical-path attribution reports from a rsd_bench v4 manifest.

Usage: report.py MANIFEST.json [EXPERIMENT ...]

Prints, for every experiment that recorded an "attribution" block (all of
them by default, or just the named ones), per entry the makespan and the
percentage of it attributed to each critical-path component, plus — for
slacked entries — the observed slack-wake share against its predicted
Eq 2-3 band.

Experiments that drove the partitioned engine or the modeled links also
get an engine line: epochs, the lookahead-stall fraction (stalled
partition-epochs over partition-epochs), the accumulated horizon gain,
and the express-path share of network transfers.

Exit status: 0 when every selected experiment carries at least one
attribution and every banded share lies inside its band; 1 otherwise.
This is what the `attribution_report` ctest asserts: the manifest's
attribution data is renderable *and* self-consistent.
"""

import json
import sys

COMPONENTS = (
    ("compute_ns", "compute"),
    ("reconfig_ns", "reconfig"),
    ("nic_ns", "nic"),
    ("fabric_ns", "fabric"),
    ("queue_ns", "queue"),
    ("wake_ns", "wake"),
    ("idle_ns", "idle"),
)


def fail(msg):
    print(f"report: {msg}", file=sys.stderr)
    sys.exit(1)


def render_entry(experiment, entry):
    """Print one attribution entry; return False if its band check fails."""
    makespan = entry["makespan_ns"]
    components = entry["components"]
    print(f"  {experiment}/{entry['label']}: makespan {makespan / 1e6:.3f} ms")
    shares = "  ".join(
        f"{label} {100.0 * components[key] / makespan:.1f}%"
        for key, label in COMPONENTS
    )
    print(f"    {shares}")
    if "band" not in entry:
        return True
    share = entry["slack_share"]
    lower, upper = entry["band"]
    within = lower <= share <= upper
    verdict = "" if within else "  (OUTSIDE BAND)"
    print(f"    slack share {share:.4f} vs Eq 2-3 band "
          f"[{lower:.4f}, {upper:.4f}]{verdict}")
    return within


def render_engine_metrics(experiment, metrics):
    """Print the partitioned-engine / network fast-path line, if any."""
    if not isinstance(metrics, dict):
        return
    epochs = metrics.get("pardes.epochs")
    stalls = metrics.get("pardes.lookahead_stalls")
    gain = metrics.get("pardes.horizon_gain")
    transfers = metrics.get("net.transfers")
    express = metrics.get("net.express")
    parts = []
    if isinstance(epochs, (int, float)) and epochs > 0:
        parts.append(f"epochs {epochs:.0f}")
        # pardes.partition_events observes one value per partition per
        # engine run, so stalls / (epochs * count) is the exact stall
        # fraction for a single-engine experiment and a fleet-level
        # approximation when several engines flushed into one entry.
        events = metrics.get("pardes.partition_events")
        if isinstance(stalls, (int, float)) and isinstance(events, dict):
            partitions = events.get("count", 0)
            if partitions > 0:
                parts.append(
                    f"stall fraction {stalls / (epochs * partitions):.4f}")
        if isinstance(gain, (int, float)):
            parts.append(f"horizon gain {gain / 1e6:.2f} ms")
    if isinstance(transfers, (int, float)) and transfers > 0 \
            and isinstance(express, (int, float)):
        parts.append(f"express share {express / transfers:.1%}")
    if parts:
        print(f"  {experiment}: engine {'  '.join(parts)}")


def main():
    if len(sys.argv) < 2:
        fail("usage: report.py MANIFEST.json [EXPERIMENT ...]")
    path, selected = sys.argv[1], sys.argv[2:]
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{path} is not valid JSON: {err}")
    if manifest.get("schema") != "rsd-bench-manifest-v4":
        fail(f"unexpected schema {manifest.get('schema')!r} "
             "(want rsd-bench-manifest-v4)")

    experiments = manifest.get("experiments", [])
    names = {e.get("name") for e in experiments}
    for name in selected:
        if name not in names:
            fail(f"no experiment {name!r} in {path}")

    printed = 0
    ok = True
    print("[report] critical-path attribution")
    for entry in experiments:
        name = entry.get("name", "?")
        if selected and name not in selected:
            continue
        for attribution in entry.get("attribution", []):
            try:
                ok &= render_entry(name, attribution)
            except (KeyError, TypeError, ZeroDivisionError) as err:
                fail(f"{name}: malformed attribution entry ({err!r}); run "
                     "check_manifest.py for a precise diagnostic")
            printed += 1
        render_engine_metrics(name, entry.get("metrics"))

    if printed == 0:
        which = " ".join(selected) if selected else "any experiment"
        fail(f"no attribution recorded for {which} — run an experiment that "
             "records one (e.g. rsd_bench attribution_fabrics)")
    if not ok:
        fail("a slack-wake share fell outside its predicted Eq 2-3 band")
    print(f"[report] {printed} attribution entr"
          f"{'y' if printed == 1 else 'ies'}, all bands hold")


if __name__ == "__main__":
    main()
