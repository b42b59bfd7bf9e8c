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

echo "== perfbench: go vet + build (its own module, over this tree) =="
# perfbench builds against ../ through a replace directive, so a change
# under internal/ can break it without any step above noticing.
(cd perfbench && go vet ./... && go build -o /dev/null ./...)

echo "== go test -race ./... =="
go test -race ./...

echo "== chaos soak: go test -run Chaos -race -count=2 =="
# fieldsim's kill-and-partition run is the fleet health plane's chaos lock.
go test -run Chaos -race -count=2 ./internal/chaos/... ./internal/fieldsim/...

echo "== short fuzz: fast paths vs their references =="
go test -run '^$' -fuzz FuzzBatchVsSingle -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzDecodeFastVsRef -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzEncodeVsRef -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzLayoutVsBitLoop -fuzztime 10s ./internal/bitvec/
go test -run '^$' -fuzz FuzzLocalityVsBitLoop -fuzztime 10s ./internal/bitvec/
go test -run '^$' -fuzz FuzzSynBitRowsVsSyndromes -fuzztime 10s ./internal/rscode/
go test -run '^$' -fuzz FuzzOnDieDecodeVsRef -fuzztime 10s ./internal/ondie/
go test -run '^$' -fuzz FuzzReadSeriesVsReadWire -fuzztime 10s ./internal/dram/

echo "== bench smoke: one iteration of every benchmark =="
HBM2ECC_MC_SAMPLES=2000 HBM2ECC_CAMPAIGN_RUNS=20 \
	go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench smoke: cmd/bench -quick -gate (batch decode no slower than single-shot) =="
bench_out="${TMPDIR:-/tmp}/hbm2ecc_bench_smoke.json"
go run ./cmd/bench -quick -gate -out "$bench_out" >/dev/null
test -s "$bench_out"
rm -f "$bench_out"

echo "== bench smoke: cmd/bench -cluster -quick =="
cluster_out="${TMPDIR:-/tmp}/hbm2ecc_bench_cluster_smoke.json"
go run ./cmd/bench -cluster -quick -out "$cluster_out" >/dev/null
test -s "$cluster_out"
rm -f "$cluster_out"

echo "== campaign differential: ecceval vs campaignd, checkpoint round trips =="
# ecceval evaluates pattern columns (each trial drawn once and decoded
# by every scheme); campaignd's workers evaluate single (scheme, pattern)
# cells. Each cell's trial stream depends only on the seed, the pattern
# and the shard, never on the scheme, so both must print the same report,
# straight through and after a checkpoint/resume round trip.
ecc_dir="$(mktemp -d "${TMPDIR:-/tmp}/hbm2ecc_ecceval.XXXXXX")"
trap 'rm -rf "$ecc_dir"' EXIT
go build -o "$ecc_dir/ecceval" ./cmd/ecceval
go build -o "$ecc_dir/campaignd" ./cmd/campaignd
"$ecc_dir/ecceval" -samples 2000 >"$ecc_dir/seq.txt"
"$ecc_dir/campaignd" -listen 127.0.0.1:0 -workers 2 -samples 2000 \
	>"$ecc_dir/campaignd.txt" 2>"$ecc_dir/campaignd.log" || { cat "$ecc_dir/campaignd.log"; exit 1; }
diff "$ecc_dir/seq.txt" "$ecc_dir/campaignd.txt"
# Each round trip resumes a complete checkpoint: all 63 (scheme, pattern)
# cells come from the file and the report must not change.
resumed_ok() {
	grep -qxF "Resuming from $1: 63 cells complete." "$2" || { echo "no full resume banner in $2"; cat "$2"; exit 1; }
	grep -v '^Resuming from' "$2" | diff "$ecc_dir/seq.txt" -
}
"$ecc_dir/ecceval" -samples 2000 -checkpoint "$ecc_dir/ckpt.json" >/dev/null
"$ecc_dir/ecceval" -samples 2000 -resume "$ecc_dir/ckpt.json" >"$ecc_dir/resumed.txt"
resumed_ok "$ecc_dir/ckpt.json" "$ecc_dir/resumed.txt"
"$ecc_dir/campaignd" -listen 127.0.0.1:0 -workers 2 -samples 2000 -checkpoint "$ecc_dir/env.json" \
	>/dev/null 2>"$ecc_dir/campaignd.log" || { cat "$ecc_dir/campaignd.log"; exit 1; }
"$ecc_dir/campaignd" -listen 127.0.0.1:0 -workers 2 -samples 2000 -resume "$ecc_dir/env.json" \
	>"$ecc_dir/cresumed.txt" 2>"$ecc_dir/campaignd.log" || { cat "$ecc_dir/campaignd.log"; exit 1; }
resumed_ok "$ecc_dir/env.json" "$ecc_dir/cresumed.txt"
rm -rf "$ecc_dir"

echo "== fleet smoke: fleetd + simulated agents =="
smoke_dir="$(mktemp -d "${TMPDIR:-/tmp}/hbm2ecc_smoke.XXXXXX")"
trap 'rm -rf "$smoke_dir"' EXIT
go build -o "$smoke_dir/fleetd" ./cmd/fleetd
"$smoke_dir/fleetd" -addr 127.0.0.1:0 -nodes 50 -hours 48 -accel 50000 \
	>"$smoke_dir/fleetd.log" 2>&1 &
fleetd_pid=$!
trap 'kill "$fleetd_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
fleet_url=""
for _ in $(seq 1 100); do
	fleet_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$smoke_dir/fleetd.log" | head -n 1)"
	[ -n "$fleet_url" ] && break
	sleep 0.1
done
test -n "$fleet_url" || { cat "$smoke_dir/fleetd.log"; exit 1; }
# The simulated agents report in; wait until the coordinator ranks at
# least one node, then check the metric families are exported.
ranked=""
for _ in $(seq 1 100); do
	ranked="$(curl -sf "$fleet_url/v1/fleet?top=1" | grep -o '"id":"node-[0-9]*"' | head -n 1)"
	[ -n "$ranked" ] && break
	sleep 0.1
done
test -n "$ranked" || { echo "no ranked node"; cat "$smoke_dir/fleetd.log"; exit 1; }
fleet_metrics="$(curl -sf "$fleet_url/metrics")"
for fam in fleet_nodes fleet_reports_total fleetd_build_info fleetd_uptime_seconds; do
	echo "$fleet_metrics" | grep -q "$fam" || { echo "/metrics missing $fam"; exit 1; }
done
curl -sf "$fleet_url/healthz" | grep -q '"status":"ok"'
kill -INT "$fleetd_pid"
wait "$fleetd_pid"

echo "== fleet durability smoke: kill -9, recover from state dir =="
state_dir="$smoke_dir/fleet_state"
mkdir -p "$state_dir"
"$smoke_dir/fleetd" -addr 127.0.0.1:0 -nodes 50 -hours 48 -accel 50000 \
	-state-dir "$state_dir" >"$smoke_dir/fleetd_wal.log" 2>&1 &
wal_pid=$!
trap 'kill "$fleetd_pid" "$wal_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
wal_url=""
for _ in $(seq 1 100); do
	wal_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$smoke_dir/fleetd_wal.log" | head -n 1)"
	[ -n "$wal_url" ] && break
	sleep 0.1
done
test -n "$wal_url" || { cat "$smoke_dir/fleetd_wal.log"; exit 1; }
# Wait until every simulated node has reported in, then SIGKILL the
# coordinator — no snapshot, no clean close; the WAL is all it gets.
total=""
for _ in $(seq 1 100); do
	total="$(curl -sf "$wal_url/v1/fleet?top=1" | grep -o '"total":[0-9]*' | cut -d: -f2)"
	[ "$total" = "50" ] && break
	sleep 0.1
done
test "$total" = "50" || { echo "fleet never reached 50 nodes"; cat "$smoke_dir/fleetd_wal.log"; exit 1; }
kill -9 "$wal_pid"
wait "$wal_pid" 2>/dev/null || true
# Recover: an empty fleetd (-nodes 0) over the same state dir must
# replay the WAL and serve the full pre-kill fleet picture.
"$smoke_dir/fleetd" -addr 127.0.0.1:0 -nodes 0 \
	-state-dir "$state_dir" >"$smoke_dir/fleetd_rec.log" 2>&1 &
wal_pid=$!
rec_url=""
for _ in $(seq 1 100); do
	rec_url="$(sed -n 's#.* on \(http://[0-9.:]*\) .*#\1#p' "$smoke_dir/fleetd_rec.log" | head -n 1)"
	[ -n "$rec_url" ] && break
	sleep 0.1
done
test -n "$rec_url" || { cat "$smoke_dir/fleetd_rec.log"; exit 1; }
grep -q 'durable state in' "$smoke_dir/fleetd_rec.log" || { echo "no recovery log line"; cat "$smoke_dir/fleetd_rec.log"; exit 1; }
rec_fleet="$(curl -sf "$rec_url/v1/fleet?top=1")"
echo "$rec_fleet" | grep -q '"total":50' || { echo "recovered fleet lost nodes: $rec_fleet"; cat "$smoke_dir/fleetd_rec.log"; exit 1; }
echo "$rec_fleet" | grep -q '"id":"node-' || { echo "recovered fleet has no ranked node: $rec_fleet"; exit 1; }
kill -INT "$wal_pid"
wait "$wal_pid"

echo "== obsd smoke: probes report to the fleet plane, deterministically =="
go build -o "$smoke_dir/obsd" ./cmd/obsd
"$smoke_dir/obsd" -once -devices 3 -seed 7 >"$smoke_dir/obsd_a.json"
"$smoke_dir/obsd" -once -devices 3 -seed 7 >"$smoke_dir/obsd_b.json"
cmp "$smoke_dir/obsd_a.json" "$smoke_dir/obsd_b.json"
grep -q '"total":3' "$smoke_dir/obsd_a.json" || { echo "obsd fleet missing devices"; cat "$smoke_dir/obsd_a.json"; exit 1; }
# A 2ms-MTTE beam floods the device: its agent must not report ok.
"$smoke_dir/obsd" -once -devices 1 -mtte 0.002 >"$smoke_dir/obsd_flood.json"
grep -q '"id":"gpu0"' "$smoke_dir/obsd_flood.json" || { echo "obsd ranked no node"; cat "$smoke_dir/obsd_flood.json"; exit 1; }
if grep -q '"health":"ok"' "$smoke_dir/obsd_flood.json"; then
	echo "flooded device ranked healthy"; cat "$smoke_dir/obsd_flood.json"; exit 1
fi

echo "== telemetry smoke: beamsim -metrics prints phases and dumps spans =="
# beamsim, ecceval and repro share the -metrics path: the phase table of
# obs.DefaultTracer on stdout, then the Prometheus dump of obs.Default.
go run ./cmd/beamsim -runs 6 -metrics "$smoke_dir/beamsim.prom" >"$smoke_dir/beamsim.txt"
for phase in write_pass read_scan evaluate; do
	grep -q "^$phase " "$smoke_dir/beamsim.txt" || { echo "no $phase phase row"; cat "$smoke_dir/beamsim.txt"; exit 1; }
done
grep -q '^obs_span_duration_seconds' "$smoke_dir/beamsim.prom" || { echo "metrics dump missing obs_span_duration_seconds"; exit 1; }
if grep -q '^resilience_' "$smoke_dir/beamsim.prom"; then
	echo "metrics dump still carries resilience_* families"; exit 1
fi

echo "== workload smoke: all five outcome classes reachable =="
# Every campaign run carries exactly one forced fault event; a small
# grid over {none, DuetECC} x {gemm, dnn} must reach masked,
# tolerable-SDC, critical-SDC, DUE and crash.
go test -run TestOutcomeClassesReachable -count=1 ./internal/workload/
wl_out="$smoke_dir/ecceval_workload.txt"
go run ./cmd/ecceval -workload -workload-runs 40 -workload-schemes none,DuetECC >"$wl_out"
for col in masked "tolerable SDC" "critical SDC" DUE crash "End-to-end FIT"; do
	grep -q "$col" "$wl_out" || { echo "workload report missing '$col'"; cat "$wl_out"; exit 1; }
done

echo "== on-die smoke: BEER inference recovers every known H-matrix =="
ondie_out="$smoke_dir/ecceval_ondie.txt"
go run ./cmd/ecceval -ondie-infer >"$ondie_out"
test "$(grep -c 'true' "$ondie_out")" = 4 || { echo "inference missed a candidate"; cat "$ondie_out"; exit 1; }
if grep -q 'false' "$ondie_out"; then echo "inference mismatch"; cat "$ondie_out"; exit 1; fi

echo "OK: all checks passed"
