#!/usr/bin/env bash
# Tier-1 verification: build, the fast cluster lane, the full test suite
# (including the bench-smoke JSON-schema checks, the transport conformance
# suite and the remote chaos/failover suites), the end-to-end benchmark's
# own unit tests (perfbench/run.py --test) and its response checks on
# every workload (perfbench/run.py --all, which exits non-zero when a
# /hle page, image or /approx bound is wrong), the schema check of every
# checked-in BENCH_*.json (each row must say whether it is "measured" or
# "modeled"), the side-by-side print of the measured cluster curve and
# the modeled fig5 curve (a WARN there reports the gap; it does not
# fail), the c10k p99-flatness crosscheck, then the stress suite —
# concurrency hammers, networked chaos/failover, the cluster kill/restart
# stress and the reactor net-stress lane (`ctest -L net-stress` runs just
# that lane; the stress label regex picks it up here) — under
# ThreadSanitizer, and last every non-stress test (`ctest -LE stress`, the
# codec fuzz suites included) under AddressSanitizer + UndefinedBehavior
# Sanitizer. The reachability lane (ctest -L reachability: every src/
# function is reached by a program or listed in
# scripts/reachability_allowlist.txt) runs once, in the default build: the
# check compiles its own unsanitized -O0 tree, so the ASan lane excludes
# its label. Run from the repo root:
#   scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== build (default) ==="
cmake -B build -S . >/dev/null
cmake --build build -j

echo "=== cluster lane (routing, failover, coherence) ==="
(cd build && ctest -L cluster --output-on-failure)

echo "=== reachability lane (every src/ function reached or listed) ==="
(cd build && ctest -L reachability --output-on-failure)

echo "=== full suite but the reachability lane, 8 tests in parallel (fast tests + stress + bench-smoke) ==="
(cd build && ctest -LE reachability --output-on-failure -j8)

echo "=== end-to-end benchmark unit tests (perfbench) ==="
python3 perfbench/run.py --test

echo "=== end-to-end response checks (perfbench, every workload, 2 s each) ==="
python3 perfbench/run.py --all --seconds 2

echo "=== every checked-in BENCH_*.json passes the schema validator ==="
for bench_json in BENCH_*.json; do
  python3 bench/validate_bench_json.py "$bench_json"
done

echo "=== scale-out side by side (measured one-host cluster vs modeled fig5 curve; WARN = gap, not failure) ==="
python3 bench/validate_bench_json.py BENCH_cluster_scaleout.json \
    BENCH_remote_redirection.json

echo "=== c10k crosscheck (p99 flatness at 10k keep-alive connections) ==="
python3 bench/validate_bench_json.py BENCH_c10k.json

echo "=== wavelet crosschecks (first-paint >= 5x, approx error <= bound, 2% view prefix >= 10x holistic) ==="
python3 bench/validate_bench_json.py BENCH_wavelet_progressive.json \
    BENCH_wavelet_approx.json

echo "=== build (HEDC_SANITIZE=thread) ==="
cmake -B build-tsan -S . -DHEDC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j

echo "=== stress suite under TSan (includes cluster kill/restart) ==="
(cd build-tsan && ctest -L stress --output-on-failure)

echo "=== build (HEDC_SANITIZE=address: ASan + UBSan) ==="
cmake -B build-asan -S . -DHEDC_SANITIZE=address >/dev/null
cmake --build build-asan -j

echo "=== every non-stress test under ASan + UBSan (includes the codec fuzz suites) ==="
(cd build-asan && ctest -LE "stress|reachability" --output-on-failure -j4)

echo "verify: OK"
