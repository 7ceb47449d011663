#!/usr/bin/env python3
"""Validates the BENCH_*.json schema emitted by the perf harnesses.

Schema (see bench/bench_json.h):
  {"bench": str,
   "results": [{"label": str, "source": "measured"|"modeled",
                <metric>: number, ...}]}
with every result row carrying at least throughput_per_sec, p50_us and
p99_us. `source` is the one string metric: it says whether the row's
numbers were timed from the code the bench ran ("measured") or come in
any part from the DES, a formula or an injected sleep ("modeled"). A row
without it, with any other value, or a model_* row not marked "modeled"
fails. Run under the `bench-smoke` ctest label so benches that stop
emitting valid JSON fail CI instead of silently bit-rotting.

When a validated file carries measured cluster_nodes_* rows (the fig5
cluster scale-out bench), the modeled model_redirect_nodes_* curve is
located (same file or a sibling BENCH_remote_redirection.json) and the
speedups-normalized-to-one-node are printed side by side: per-N deviation
is printed, and deviations beyond DEVIATION_WARN get a WARN line. The
measured curve is one process on one host while the model projects
separate nodes against a shared DBMS, so a WARN here reports the gap
between the two; it does not fail the run.

When a file carries c10k_conns_* rows (the perf_c10k transport bench),
p99 flatness is checked: p99 at the largest connection count must stay
within C10K_P99_RATIO_MAX of p99 at the smallest. The check is a hard
FAIL only for a full-scale run (max connections >= 10000) — smoke runs
use tiny counts whose wall-clock noise dwarfs the signal, so they only
earn a WARN.

When a file carries a full_fidelity row next to progressive_resolution_*
rows (the fig4 progressive-delivery bench), two hard gates apply: first
paint at the coarsest resolution must be at least PROGRESSIVE_SPEEDUP_MIN
times faster than the full-fidelity delivery, and every row reporting a
measured_error must sit within its reported error_bound. Both hold at any
scale — the speedup is dominated by the modeled link transfer and the
bound is deterministic, so smoke runs are not exempt.

When a file carries raw_exact next to view_fraction_2 (the wavelet
approximate-analysis ablation), the paper's claim is a hard gate: the 2%
view prefix's holistic_us (download + decode + analysis) must be at least
WAVELET_HOLISTIC_SPEEDUP_MIN times shorter than raw_exact's.
"""
import json
import os
import sys

REQUIRED_METRICS = ("throughput_per_sec", "p50_us", "p99_us")

# Allowed values of each row's "source" key.
SOURCES = ("measured", "modeled")

# Measured-vs-model speedup deviation that earns a WARN (fraction).
DEVIATION_WARN = 0.40

# C10K acceptance: p99 at the largest connection count may be at most
# this multiple of p99 at the smallest (hard FAIL at >= this many conns).
C10K_P99_RATIO_MAX = 2.0
C10K_FULL_SCALE = 10000

# Progressive delivery acceptance: coarsest first paint must be at least
# this many times faster than the full-fidelity delivery (hard FAIL).
PROGRESSIVE_SPEEDUP_MIN = 5.0

# Wavelet approximate analysis (§3.4/§6.3): "shortens the holistic response
# time by at least an order of magnitude" (hard FAIL).
WAVELET_HOLISTIC_SPEEDUP_MIN = 10.0


def speedup_curve(results, prefix):
    """{nodes: speedup} for rows labeled <prefix><N>, normalized to N=1."""
    curve = {}
    for row in results:
        label = row.get("label", "")
        if not label.startswith(prefix):
            continue
        nodes = row.get("nodes")
        throughput = row.get("throughput_per_sec")
        if isinstance(nodes, (int, float)) and isinstance(
                throughput, (int, float)):
            curve[int(nodes)] = float(throughput)
    base = curve.get(1)
    if not base:
        return {}
    return {n: t / base for n, t in sorted(curve.items())}


def crosscheck_cluster(path, results):
    """Prints measured-vs-model scale-out deviation; returns None."""
    measured = speedup_curve(results, "cluster_nodes_")
    if not measured:
        return
    model = speedup_curve(results, "model_redirect_nodes_")
    if not model:
        sibling = os.path.join(os.path.dirname(path) or ".",
                               "BENCH_remote_redirection.json")
        try:
            with open(sibling) as fh:
                model = speedup_curve(
                    json.load(fh).get("results", []), "model_redirect_nodes_")
        except (OSError, json.JSONDecodeError, AttributeError):
            model = {}
    if not model:
        print(f"note {path}: no model_redirect_nodes_* curve found; "
              "skipping measured-vs-model crosscheck")
        return
    common = sorted(set(measured) & set(model) - {1})
    if not common:
        print(f"note {path}: measured and model curves share no node "
              "counts; skipping crosscheck")
        return
    print(f"crosscheck {path}: measured vs modeled scale-out speedup")
    for n in common:
        deviation = (measured[n] - model[n]) / model[n]
        flag = ""
        if abs(deviation) > DEVIATION_WARN:
            flag = f"  WARN deviation beyond {DEVIATION_WARN:.0%}"
        print(f"  nodes={n}: measured {measured[n]:.2f}x "
              f"model {model[n]:.2f}x  deviation {deviation:+.1%}{flag}")


def crosscheck_c10k(path, results):
    """Checks c10k p99 flatness; returns an error string or None."""
    curve = {}
    for row in results:
        if not row.get("label", "").startswith("c10k_conns_"):
            continue
        conns = row.get("connections")
        p99 = row.get("p99_us")
        if isinstance(conns, (int, float)) and isinstance(p99, (int, float)):
            curve[int(conns)] = float(p99)
    if len(curve) < 2:
        return None
    low, high = min(curve), max(curve)
    if curve[low] <= 0:
        return f"c10k baseline p99 at {low} connections is not positive"
    ratio = curve[high] / curve[low]
    verdict = "ok" if ratio <= C10K_P99_RATIO_MAX else "FLAT-VIOLATION"
    print(f"crosscheck {path}: c10k p99 flatness "
          f"{low} conns {curve[low]:.0f}us -> {high} conns "
          f"{curve[high]:.0f}us  ratio {ratio:.2f}x "
          f"(limit {C10K_P99_RATIO_MAX:.1f}x)  {verdict}")
    if ratio > C10K_P99_RATIO_MAX:
        if high >= C10K_FULL_SCALE:
            return (f"c10k p99 at {high} connections is {ratio:.2f}x the "
                    f"{low}-connection p99 (limit {C10K_P99_RATIO_MAX:.1f}x)")
        print(f"  WARN ratio beyond limit at sub-scale ({high} conns); "
              "not failing a smoke run")
    return None


def crosscheck_progressive(path, results):
    """Checks progressive first-paint speedup and approx error bounds;
    returns an error string or None."""
    rows = {row.get("label", ""): row for row in results}
    full = rows.get("full_fidelity")
    coarse = rows.get("progressive_resolution_0")
    if full and coarse:
        full_p50 = full.get("p50_us")
        coarse_p50 = coarse.get("p50_us")
        if not isinstance(coarse_p50, (int, float)) or coarse_p50 <= 0:
            return "progressive_resolution_0 p50_us is not positive"
        speedup = float(full_p50) / float(coarse_p50)
        verdict = ("ok" if speedup >= PROGRESSIVE_SPEEDUP_MIN
                   else "SPEEDUP-VIOLATION")
        print(f"crosscheck {path}: progressive first paint "
              f"{coarse_p50:.0f}us vs full fidelity {full_p50:.0f}us  "
              f"speedup {speedup:.1f}x "
              f"(gate {PROGRESSIVE_SPEEDUP_MIN:.0f}x)  {verdict}")
        if speedup < PROGRESSIVE_SPEEDUP_MIN:
            return (f"coarse first paint is only {speedup:.2f}x faster "
                    f"than full fidelity "
                    f"(gate {PROGRESSIVE_SPEEDUP_MIN:.0f}x)")
    checked = 0
    for label, row in rows.items():
        error = row.get("measured_error")
        bound = row.get("error_bound")
        if not isinstance(error, (int, float)) or not isinstance(
                bound, (int, float)):
            continue
        checked += 1
        if error > bound + 1e-9:
            return (f"{label}: measured_error {error:.6g} exceeds "
                    f"reported error_bound {bound:.6g}")
    if checked:
        print(f"crosscheck {path}: {checked} approx row(s) within their "
              "reported error bounds")
    return None


def crosscheck_wavelet_approx(path, results):
    """Checks the view_fraction_2 holistic speedup over raw_exact; returns
    an error string or None."""
    rows = {row.get("label", ""): row for row in results}
    raw = rows.get("raw_exact")
    view = rows.get("view_fraction_2")
    if not raw or not view:
        return None
    raw_us = raw.get("holistic_us")
    view_us = view.get("holistic_us")
    if not isinstance(raw_us, (int, float)) or not isinstance(
            view_us, (int, float)):
        return "raw_exact and view_fraction_2 need numeric holistic_us"
    if view_us <= 0:
        return "view_fraction_2 holistic_us is not positive"
    speedup = float(raw_us) / float(view_us)
    verdict = ("ok" if speedup >= WAVELET_HOLISTIC_SPEEDUP_MIN
               else "SPEEDUP-VIOLATION")
    print(f"crosscheck {path}: view_fraction_2 holistic {view_us:.0f}us vs "
          f"raw_exact {raw_us:.0f}us  speedup {speedup:.0f}x "
          f"(gate {WAVELET_HOLISTIC_SPEEDUP_MIN:.0f}x)  {verdict}")
    if speedup < WAVELET_HOLISTIC_SPEEDUP_MIN:
        return (f"view_fraction_2 is only {speedup:.2f}x faster "
                f"holistically than raw_exact "
                f"(gate {WAVELET_HOLISTIC_SPEEDUP_MIN:.0f}x)")
    return None


def validate(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        return "top level is not an object"
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        return "missing/empty 'bench' name"
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return "missing/empty 'results' list"
    labels = set()
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            return f"results[{i}] is not an object"
        label = row.get("label")
        if not isinstance(label, str) or not label:
            return f"results[{i}] missing 'label'"
        if label in labels:
            return f"duplicate label {label!r}"
        labels.add(label)
        source = row.get("source")
        if source not in SOURCES:
            return (f"results[{i}] ({label}): 'source' must be one of "
                    f"{SOURCES}, got {source!r}")
        if label.startswith("model_") and source != "modeled":
            return (f"results[{i}] ({label}): model_* row must have "
                    f"source 'modeled', got {source!r}")
        for metric in REQUIRED_METRICS:
            value = row.get(metric)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return f"results[{i}] ({label}): missing numeric {metric!r}"
            if value < 0:
                return f"results[{i}] ({label}): negative {metric!r}"
        for key, value in row.items():
            if key in ("label", "source"):
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return f"results[{i}] ({label}): non-numeric metric {key!r}"
    crosscheck_cluster(path, results)
    error = crosscheck_c10k(path, results)
    if error:
        return error
    error = crosscheck_progressive(path, results)
    if error:
        return error
    return crosscheck_wavelet_approx(path, results)


def main(argv):
    if len(argv) < 2:
        print("usage: validate_bench_json.py BENCH_foo.json...",
              file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            error = validate(path)
        except (OSError, json.JSONDecodeError) as exc:
            error = str(exc)
        if error:
            print(f"FAIL {path}: {error}", file=sys.stderr)
            failed = True
        else:
            print(f"OK   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
