#!/usr/bin/env bash
# CI entry point: tier-1 suite, parity-fuzz suite, benchmark smokes, paper claims,
# examples, CLI smokes.
#
# Usage: scripts/ci.sh
# Run from anywhere; all paths are resolved relative to the repository root.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:$PYTHONPATH}"

# One scratch root for every stage that needs disk; a single trap cleans up.
TMP_ROOT="$(mktemp -d)"
trap 'rm -rf "${TMP_ROOT}"' EXIT

echo "=== static analysis (invariant linter; zero unsuppressed findings) ==="
python -m repro analyze src/repro

echo "=== compileall (src + tests must byte-compile) ==="
python -m compileall -q src tests

echo "=== pyflakes (if available) ==="
if python -c "import pyflakes" >/dev/null 2>&1; then
    python -m pyflakes src tests
else
    echo "pyflakes not installed; skipping"
fi

echo "=== tier-1 test suite ==="
python -m pytest -x -q

echo "=== parity-fuzz suite ==="
python -m pytest -q -m fuzz tests/test_segments_parity_fuzz.py tests/test_api_execution.py \
    tests/test_tracking_parity_fuzz.py tests/test_core_metrics_dataset.py \
    tests/test_labelling_parity_fuzz.py tests/test_logistic_solver_fuzz.py

echo "=== segment-matching benchmark (smoke) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${PYTHONPATH}" \
    python benchmarks/bench_segment_matching.py --smoke

echo "=== tracking benchmark (smoke: bitwise parity + speedup sanity) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${PYTHONPATH}" \
    python benchmarks/bench_tracking.py --smoke

echo "=== fused-extraction benchmark (smoke: bitwise parity + speedup sanity) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${PYTHONPATH}" \
    python benchmarks/bench_extraction_fused.py --smoke

echo "=== runner-overhead benchmark (smoke) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${PYTHONPATH}" \
    python benchmarks/bench_runner_overhead.py --smoke

echo "=== telemetry-overhead benchmark (smoke: default tracer < 3% gate) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${PYTHONPATH}" \
    python benchmarks/bench_obs_overhead.py --smoke

echo "=== sharded-runner benchmark (smoke: bitwise parity at 2 workers) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${PYTHONPATH}" \
    python benchmarks/bench_sharded_runner.py --smoke

echo "=== paper claims (Tables I/II, Figs. 1-5 from the committed paper configs) ==="
python scripts/paper_claims.py

echo "=== examples (the paper's pictures: Fig. 1 panels, Fig. 3 masks, Fig. 4 heatmap) ==="
for example in quickstart quality_maps rare_class_recall video_quality_monitoring; do
    python "examples/${example}.py" > "${TMP_ROOT}/example_${example}.txt"
done

echo "=== worker-loss fault-injection suite (process backend: kill-one, all-die, CLI kill-one) ==="
python -m pytest -q -m faults tests/test_execution_faults.py

echo "=== process CLI (smoke: --backend process --workers 2 bitwise-equal to serial) ==="
PROC_SERIAL_OUT="${TMP_ROOT}/proc_serial.json"
PROC_OUT="${TMP_ROOT}/proc_process.json"
python -m repro run examples/configs/metaseg_small.json --output "${PROC_SERIAL_OUT}"
python -m repro run examples/configs/metaseg_small.json \
    --backend process --workers 2 --output "${PROC_OUT}"
python - "${PROC_SERIAL_OUT}" "${PROC_OUT}" <<'PY'
import json, sys
serial, process = (json.load(open(path)) for path in sys.argv[1:])
for field in ("tables", "provenance"):
    if process[field] != serial[field]:
        print(f"FAIL: process run diverges from serial in {field}", file=sys.stderr)
        raise SystemExit(1)
print("process smoke: --backend process --workers 2 bitwise-equal to serial")
PY

echo "=== unwritable cache (smoke: the finished run survives a store it cannot write) ==="
RO_CACHE="${TMP_ROOT}/ro-cache"
mkdir -p "${RO_CACHE}"
: > "${RO_CACHE}/objects"  # a regular file where the objects directory goes
python -m repro run examples/configs/metaseg_small.json --output "${TMP_ROOT}/ro_reference.json"
python -m repro run examples/configs/metaseg_small.json --cache-dir "${RO_CACHE}" \
    --output "${TMP_ROOT}/ro_serial.json"
python -m repro run examples/configs/metaseg_small.json --cache-dir "${RO_CACHE}" \
    --backend process --workers 2 --output "${TMP_ROOT}/ro_process.json"
python - "${TMP_ROOT}/ro_reference.json" "${TMP_ROOT}/ro_serial.json" "${TMP_ROOT}/ro_process.json" <<'PY'
import json, sys
serial, *cached = (json.load(open(path)) for path in sys.argv[1:])
for report in cached:
    for field in ("tables", "provenance"):
        if report[field] != serial[field]:
            print(f"FAIL: run on an unwritable cache diverges in {field}", file=sys.stderr)
            raise SystemExit(1)
print("unwritable cache smoke: serial + process runs bitwise-equal to the storeless run")
PY

echo "=== experiment CLI (smoke) ==="
python -m repro list
python -m repro run examples/configs/metaseg_small.json
python -m repro run examples/configs/metaseg_sharded.json
python -m repro run examples/configs/timedynamic_small.json
python -m repro run examples/configs/decision_small.json

echo "=== trace export (smoke: run --trace, Chrome trace-event schema) ==="
TRACE_OUT="${TMP_ROOT}/trace.json"
python -m repro run examples/configs/metaseg_small.json --trace --trace-out "${TRACE_OUT}" \
    | tee "${TMP_ROOT}/trace_run.txt"
grep -q "^trace trace-" "${TMP_ROOT}/trace_run.txt" \
    || { echo "FAIL: --trace did not print the span tree" >&2; exit 1; }
python - "${TRACE_OUT}" <<'PY'
import json, sys
from repro.obs import validate_chrome_trace
payload = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(payload)
if problems:
    print("FAIL: invalid chrome trace:", *problems, sep="\n  ", file=sys.stderr)
    raise SystemExit(1)
spans = [event for event in payload["traceEvents"] if event["ph"] == "X"]
names = {event["name"] for event in spans}
missing = {"run", "resolve", "extract", "evaluate"} - names
if missing:
    print(f"FAIL: trace lacks stage spans: {sorted(missing)}", file=sys.stderr)
    raise SystemExit(1)
print(f"trace smoke: valid chrome trace ({len(spans)} spans)")
PY

echo "=== disk-backed I/O (committed fixture smoke) ==="
python -m repro run examples/configs/metaseg_disk.json

echo "=== disk-backed I/O (generated fixture + process backend + store cache) ==="
DISK_ROOT="${TMP_ROOT}/disk-fixture"
DISK_CACHE="${TMP_ROOT}/disk-cache"
python scripts/make_disk_fixture.py --root "${DISK_ROOT}" \
    --emit-config "${DISK_ROOT}/metaseg_disk.json"
python -m repro run "${DISK_ROOT}/metaseg_disk.json" \
    --backend process --workers 2 --cache-dir "${DISK_CACHE}"
python -m repro run "${DISK_ROOT}/metaseg_disk.json" \
    --backend process --workers 2 --cache-dir "${DISK_CACHE}" \
    | tee "${TMP_ROOT}/disk_second_run.txt"
grep -q "cache: hit" "${TMP_ROOT}/disk_second_run.txt" \
    || { echo "FAIL: second disk-backed run was not served from cache" >&2; exit 1; }

echo "=== sweep-cache benchmark (smoke: warm >= 5x cold + bitwise parity) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${PYTHONPATH}" \
    python benchmarks/bench_sweep_cache.py --smoke

echo "=== sweep CLI (smoke: second identical sweep served from cache) ==="
SWEEP_CACHE_DIR="${TMP_ROOT}/sweep-cache"
mkdir -p "${SWEEP_CACHE_DIR}"
REPRO_CACHE_DIR="${SWEEP_CACHE_DIR}" \
    python -m repro sweep examples/configs/sweep_metaseg.json
REPRO_CACHE_DIR="${SWEEP_CACHE_DIR}" \
    python -m repro sweep examples/configs/sweep_metaseg.json \
    | tee "${SWEEP_CACHE_DIR}/second_run.txt"
grep -q "cache hits: 2/2" "${SWEEP_CACHE_DIR}/second_run.txt" \
    || { echo "FAIL: second sweep run was not served from cache" >&2; exit 1; }

echo "=== scoring-server benchmark (smoke: bitwise parity + latency gates) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${PYTHONPATH}" \
    python benchmarks/bench_serve.py --smoke

echo "=== scoring server (smoke: subprocess serve, bitwise parity vs batch) ==="
SERVE_CACHE="${TMP_ROOT}/serve-cache"
python scripts/serve_smoke.py --cache-dir "${SERVE_CACHE}"

echo "=== cache prune CLI (smoke: LRU bound on the serve-smoke store) ==="
python -m repro cache prune --cache-dir "${SERVE_CACHE}" --max-entries 1 \
    | tee "${TMP_ROOT}/prune_run.txt"
grep -q "1 kept" "${TMP_ROOT}/prune_run.txt" \
    || { echo "FAIL: cache prune did not bound the store to one entry" >&2; exit 1; }

echo "ci.sh: all stages passed"
