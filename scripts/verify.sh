#!/usr/bin/env bash
# Tier-1 verification: build, the fast cluster lane, the full test suite
# (including the bench-smoke JSON-schema checks, the transport conformance
# suite and the remote chaos/failover suites), the end-to-end benchmark's
# own unit tests (perfbench/run.py --test) and its response checks on
# every workload (perfbench/run.py --all, which exits non-zero when a
# /hle page, image or /approx bound is wrong), the schema check of every
# checked-in BENCH_*.json, the measured-vs-model scale-out and c10k
# p99-flatness crosschecks, then the stress suite —
# concurrency hammers, networked chaos/failover, the cluster kill/restart
# stress and the reactor net-stress lane (`ctest -L net-stress` runs just
# that lane; the stress label regex picks it up here) — under
# ThreadSanitizer, and last the codec fuzz suites (`ctest -L fuzz`) under
# AddressSanitizer. Run from the repo root:
#   scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== build (default) ==="
cmake -B build -S . >/dev/null
cmake --build build -j

echo "=== cluster lane (routing, failover, coherence) ==="
(cd build && ctest -L cluster --output-on-failure)

echo "=== full suite, 8 tests in parallel (fast tests + stress + bench-smoke) ==="
(cd build && ctest --output-on-failure -j8)

echo "=== end-to-end benchmark unit tests (perfbench) ==="
python3 perfbench/run.py --test

echo "=== end-to-end response checks (perfbench, every workload, 2 s each) ==="
python3 perfbench/run.py --all --seconds 2

echo "=== every checked-in BENCH_*.json passes the schema validator ==="
for bench_json in BENCH_*.json; do
  python3 bench/validate_bench_json.py "$bench_json"
done

echo "=== scale-out crosscheck (measured vs modeled fig5 curve) ==="
python3 bench/validate_bench_json.py BENCH_cluster_scaleout.json \
    BENCH_remote_redirection.json

echo "=== c10k crosscheck (p99 flatness at 10k keep-alive connections) ==="
python3 bench/validate_bench_json.py BENCH_c10k.json

echo "=== progressive-delivery crosscheck (first-paint >= 5x, approx error <= bound) ==="
python3 bench/validate_bench_json.py BENCH_wavelet_progressive.json \
    BENCH_wavelet_approx.json

echo "=== build (HEDC_SANITIZE=thread) ==="
cmake -B build-tsan -S . -DHEDC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j

echo "=== stress suite under TSan (includes cluster kill/restart) ==="
(cd build-tsan && ctest -L stress --output-on-failure)

echo "=== build (HEDC_SANITIZE=address) ==="
cmake -B build-asan -S . -DHEDC_SANITIZE=address >/dev/null
cmake --build build-asan -j

echo "=== codec fuzz suites under ASan (raw unit, wavelet, dm-remote) ==="
(cd build-asan && ctest -L fuzz --output-on-failure)

echo "verify: OK"
