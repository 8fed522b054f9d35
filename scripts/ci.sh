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

echo "=== static analysis (invariant linter on the program and itself; zero unsuppressed findings) ==="
python -m tools.analysis src/repro tools/analysis

echo "=== compileall (src + tools + tests must byte-compile) ==="
python -m compileall -q src tools tests

echo "=== pyflakes (stdlib unused-import check where pyflakes is not installed) ==="
if python -c "import pyflakes" >/dev/null 2>&1; then
    python -m pyflakes src tools tests
else
    python scripts/check_unused_imports.py src tools tests
fi

echo "=== tier-1 test suite ==="
python -m pytest -x -q

echo "=== parity-fuzz suite (every test marked fuzz under tests/) ==="
python -m pytest -q -m fuzz tests

echo "=== segment-matching benchmark (smoke) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${REPO_ROOT}/tests:${PYTHONPATH}" \
    python benchmarks/bench_segment_matching.py --smoke

echo "=== tracking benchmark (smoke: bitwise parity + speedup sanity) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${REPO_ROOT}/tests:${PYTHONPATH}" \
    python benchmarks/bench_tracking.py --smoke

echo "=== fused-extraction benchmark (smoke: bitwise parity + speedup sanity) ==="
PYTHONPATH="${REPO_ROOT}/benchmarks:${REPO_ROOT}/tests:${PYTHONPATH}" \
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
# The decision kind ships its fitted priors in every shard spec.
for config in metaseg_small decision_small; do
    PROC_SERIAL_OUT="${TMP_ROOT}/proc_${config}_serial.json"
    PROC_OUT="${TMP_ROOT}/proc_${config}_process.json"
    python -m repro run "examples/configs/${config}.json" --output "${PROC_SERIAL_OUT}"
    python -m repro run "examples/configs/${config}.json" \
        --backend process --workers 2 --output "${PROC_OUT}"
    python - "${config}" "${PROC_SERIAL_OUT}" "${PROC_OUT}" <<'PY'
import json, sys
name, *paths = sys.argv[1:]
serial, process = (json.load(open(path)) for path in paths)
for field in ("tables", "provenance"):
    if process[field] != serial[field]:
        print(f"FAIL: {name} process run diverges from serial in {field}", file=sys.stderr)
        raise SystemExit(1)
print(f"process smoke: {name} --backend process --workers 2 bitwise-equal to serial")
PY
done
# The time-dynamic shards (per-sequence metrics datasets and tracks) cross
# the process pool and are published through the store.
PROC_TD_SERIAL_OUT="${TMP_ROOT}/proc_td_serial.json"
PROC_TD_OUT="${TMP_ROOT}/proc_td_process.json"
python -m repro run examples/configs/timedynamic_small.json --output "${PROC_TD_SERIAL_OUT}"
python -m repro run examples/configs/timedynamic_small.json \
    --backend process --workers 2 --cache-dir "${TMP_ROOT}/proc-td-cache" \
    --output "${PROC_TD_OUT}"
python - "${PROC_TD_SERIAL_OUT}" "${PROC_TD_OUT}" <<'PY'
import json, sys
serial, process = (json.load(open(path)) for path in sys.argv[1:])
for field in ("tables", "provenance"):
    if process[field] != serial[field]:
        print(f"FAIL: time-dynamic process run diverges from serial in {field}", file=sys.stderr)
        raise SystemExit(1)
print("process smoke: time-dynamic process run with a store bitwise-equal to serial")
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

echo "=== experiment CLI (smoke; reports match examples/report_digests.json) ==="
python -m repro list
python -m repro run examples/configs/metaseg_small.json --output "${TMP_ROOT}/report_metaseg_small.json"
python -m repro run examples/configs/metaseg_sharded.json \
    --output "${TMP_ROOT}/report_metaseg_sharded.json"
python -m repro run examples/configs/timedynamic_small.json \
    --output "${TMP_ROOT}/report_timedynamic_small.json"
python -m repro run examples/configs/decision_small.json --output "${TMP_ROOT}/report_decision_small.json"
# The committed disk fixture (label PNGs and softmax dumps under tests/fixtures/disk).
python -m repro run examples/configs/metaseg_disk.json --output "${TMP_ROOT}/report_metaseg_disk.json"
python - "${TMP_ROOT}" <<'PY'
import hashlib, json, sys
from pathlib import Path
digests = json.load(open("examples/report_digests.json"))["reports"]
changed = [
    name for name, expected in sorted(digests.items())
    if hashlib.sha256((Path(sys.argv[1]) / f"report_{name}.json").read_bytes()).hexdigest()
    != expected
]
if changed:
    print(f"FAIL: report bytes differ from report_digests.json: {changed}", file=sys.stderr)
    raise SystemExit(1)
print(f"report digests: {len(digests)} reports byte-identical")
PY

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
