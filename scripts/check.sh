#!/usr/bin/env bash
# Pre-PR gate: vet, build, and race-test the whole module.
# Run from anywhere; operates on the repo that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== go test -race ./... =="
go test -race ./...

echo "== chaos soak: go test -run Chaos -race -count=2 =="
go test -run Chaos -race -count=2 ./internal/chaos/... ./internal/gpusim/... ./internal/healthd/...

echo "== short fuzz: fast paths vs their references =="
go test -run '^$' -fuzz FuzzSlicedVsScalarBatch -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzDecodeFastVsRef -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzEncodeVsRef -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzLayoutVsBitLoop -fuzztime 10s ./internal/bitvec/
go test -run '^$' -fuzz FuzzSynBitRowsVsSyndromes -fuzztime 10s ./internal/rscode/
go test -run '^$' -fuzz FuzzOnDieDecodeVsRef -fuzztime 10s ./internal/ondie/

echo "== bench smoke: one iteration of every benchmark =="
HBM2ECC_MC_SAMPLES=2000 HBM2ECC_CAMPAIGN_RUNS=20 \
	go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench smoke: cmd/bench -quick -gate (sliced >= scalar clean-path) =="
bench_out="${TMPDIR:-/tmp}/hbm2ecc_bench_smoke.json"
go run ./cmd/bench -quick -gate -out "$bench_out" >/dev/null
test -s "$bench_out"
rm -f "$bench_out"

echo "== cluster smoke: ecceval -workers 2 =="
go run ./cmd/ecceval -workers 2 -samples 2000 >/dev/null

echo "== serve smoke: decoded + loadgen =="
serve_dir="$(mktemp -d "${TMPDIR:-/tmp}/hbm2ecc_serve_smoke.XXXXXX")"
go build -o "$serve_dir/decoded" ./cmd/decoded
"$serve_dir/decoded" -addr 127.0.0.1:0 -schemes DuetECC >"$serve_dir/decoded.log" 2>&1 &
decoded_pid=$!
trap 'kill "$decoded_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
serve_url=""
for _ in $(seq 1 100); do
	serve_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/decoded.log" | head -n 1)"
	[ -n "$serve_url" ] && break
	sleep 0.1
done
test -n "$serve_url" || { cat "$serve_dir/decoded.log"; exit 1; }
# loadgen exits nonzero on any codec violation or if completions fall
# short, so this one line is the whole assertion.
go run ./cmd/loadgen -url "$serve_url" -duration 2s -conns 4 -wait 5s -min-completions 1000
kill -INT "$decoded_pid"
wait "$decoded_pid"

echo "== bench smoke: cmd/bench -serve -quick =="
go run ./cmd/bench -serve -quick -out "$serve_dir/bench_serve.json" >/dev/null
test -s "$serve_dir/bench_serve.json"

echo "== fleet smoke: fleetd + simulated agents =="
go build -o "$serve_dir/fleetd" ./cmd/fleetd
"$serve_dir/fleetd" -addr 127.0.0.1:0 -nodes 50 -hours 48 -accel 50000 \
	>"$serve_dir/fleetd.log" 2>&1 &
fleetd_pid=$!
trap 'kill "$decoded_pid" "$fleetd_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
fleet_url=""
for _ in $(seq 1 100); do
	fleet_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/fleetd.log" | head -n 1)"
	[ -n "$fleet_url" ] && break
	sleep 0.1
done
test -n "$fleet_url" || { cat "$serve_dir/fleetd.log"; exit 1; }
# The simulated agents report in; wait until the coordinator ranks at
# least one node, then check the metric families are exported.
ranked=""
for _ in $(seq 1 100); do
	ranked="$(curl -sf "$fleet_url/v1/fleet?top=1" | grep -o '"id":"node-[0-9]*"' | head -n 1)"
	[ -n "$ranked" ] && break
	sleep 0.1
done
test -n "$ranked" || { echo "no ranked node"; cat "$serve_dir/fleetd.log"; exit 1; }
fleet_metrics="$(curl -sf "$fleet_url/metrics")"
for fam in fleet_nodes fleet_reports_total fleetd_build_info fleetd_uptime_seconds; do
	echo "$fleet_metrics" | grep -q "$fam" || { echo "/metrics missing $fam"; exit 1; }
done
curl -sf "$fleet_url/healthz" | grep -q '"status":"ok"'
kill -INT "$fleetd_pid"
wait "$fleetd_pid"

echo "== fleet durability smoke: kill -9, recover from state dir =="
state_dir="$serve_dir/fleet_state"
mkdir -p "$state_dir"
"$serve_dir/fleetd" -addr 127.0.0.1:0 -nodes 50 -hours 48 -accel 50000 \
	-state-dir "$state_dir" >"$serve_dir/fleetd_wal.log" 2>&1 &
wal_pid=$!
trap 'kill "$decoded_pid" "$fleetd_pid" "$wal_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
wal_url=""
for _ in $(seq 1 100); do
	wal_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/fleetd_wal.log" | head -n 1)"
	[ -n "$wal_url" ] && break
	sleep 0.1
done
test -n "$wal_url" || { cat "$serve_dir/fleetd_wal.log"; exit 1; }
# Wait until every simulated node has reported in, then SIGKILL the
# coordinator — no snapshot, no clean close; the WAL is all it gets.
total=""
for _ in $(seq 1 100); do
	total="$(curl -sf "$wal_url/v1/fleet?top=1" | grep -o '"total":[0-9]*' | cut -d: -f2)"
	[ "$total" = "50" ] && break
	sleep 0.1
done
test "$total" = "50" || { echo "fleet never reached 50 nodes"; cat "$serve_dir/fleetd_wal.log"; exit 1; }
kill -9 "$wal_pid"
wait "$wal_pid" 2>/dev/null || true
# Recover: an empty fleetd (-nodes 0) over the same state dir must
# replay the WAL and serve the full pre-kill fleet picture.
"$serve_dir/fleetd" -addr 127.0.0.1:0 -nodes 0 \
	-state-dir "$state_dir" >"$serve_dir/fleetd_rec.log" 2>&1 &
wal_pid=$!
rec_url=""
for _ in $(seq 1 100); do
	rec_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$serve_dir/fleetd_rec.log" | head -n 1)"
	[ -n "$rec_url" ] && break
	sleep 0.1
done
test -n "$rec_url" || { cat "$serve_dir/fleetd_rec.log"; exit 1; }
grep -q 'durable state in' "$serve_dir/fleetd_rec.log" || { echo "no recovery log line"; cat "$serve_dir/fleetd_rec.log"; exit 1; }
rec_fleet="$(curl -sf "$rec_url/v1/fleet?top=1")"
echo "$rec_fleet" | grep -q '"total":50' || { echo "recovered fleet lost nodes: $rec_fleet"; cat "$serve_dir/fleetd_rec.log"; exit 1; }
echo "$rec_fleet" | grep -q '"id":"node-' || { echo "recovered fleet has no ranked node: $rec_fleet"; exit 1; }
kill -INT "$wal_pid"
wait "$wal_pid"

echo "== bench smoke: cmd/bench -fleet -quick =="
go run ./cmd/bench -fleet -quick -out "$serve_dir/bench_fleet.json" >/dev/null
test -s "$serve_dir/bench_fleet.json"

echo "== workload smoke: all five outcome classes reachable =="
# Every campaign run carries exactly one forced fault event; a small
# grid over {none, DuetECC} x {gemm, dnn} must reach masked,
# tolerable-SDC, critical-SDC, DUE and crash.
go test -run TestOutcomeClassesReachable -count=1 ./internal/workload/
wl_out="$serve_dir/ecceval_workload.txt"
go run ./cmd/ecceval -workload -workload-runs 40 -workload-schemes none,DuetECC >"$wl_out"
for col in masked "tolerable SDC" "critical SDC" DUE crash "End-to-end FIT"; do
	grep -q "$col" "$wl_out" || { echo "workload report missing '$col'"; cat "$wl_out"; exit 1; }
done

echo "== bench smoke: cmd/bench -workload -quick (resume differential) =="
go run ./cmd/bench -workload -quick -out "$serve_dir/bench_workload.json" >/dev/null
test -s "$serve_dir/bench_workload.json"
grep -q '"resume_identical": true' "$serve_dir/bench_workload.json"

echo "== on-die smoke: BEER inference recovers every known H-matrix =="
ondie_out="$serve_dir/ecceval_ondie.txt"
go run ./cmd/ecceval -ondie-infer >"$ondie_out"
test "$(grep -c 'true' "$ondie_out")" = 4 || { echo "inference missed a candidate"; cat "$ondie_out"; exit 1; }
if grep -q 'false' "$ondie_out"; then echo "inference mismatch"; cat "$ondie_out"; exit 1; fi

echo "== bench smoke: cmd/bench -ondie -quick (inference exactness gate) =="
go run ./cmd/bench -ondie -quick -out "$serve_dir/bench_ondie.json" >/dev/null
test -s "$serve_dir/bench_ondie.json"
if grep -q '"infer_exact_match": false' "$serve_dir/bench_ondie.json"; then
	echo "bench -ondie: inference failed"; exit 1
fi

echo "OK: all checks passed"
