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
go test -run '^$' -fuzz FuzzReadVsDecode -fuzztime 10s ./internal/gpusim/
go test -run '^$' -fuzz FuzzDecideVsSimulate -fuzztime 10s ./internal/workload/

echo "== bench smoke: one iteration of every benchmark =="
HBM2ECC_MC_SAMPLES=2000 HBM2ECC_CAMPAIGN_RUNS=20 \
	go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench smoke: cmd/bench -quick -gate (batch decode no slower than single-shot) =="
bench_out="${TMPDIR:-/tmp}/hbm2ecc_bench_smoke.json"
go run ./cmd/bench -quick -gate -out "$bench_out" >/dev/null
test -s "$bench_out"
rm -f "$bench_out"

echo "== campaign round trips: ecceval straight vs checkpoint/resume =="
# Each round trip resumes a complete checkpoint: every cell comes from
# the file and the report must not change. The evaluation has 63
# (scheme, pattern) cells; the workload grid {none, DuetECC} x 3 kernels
# has 6 (scheme, kernel) cells.
ecc_dir="$(mktemp -d "${TMPDIR:-/tmp}/hbm2ecc_ecceval.XXXXXX")"
trap 'rm -rf "$ecc_dir"' EXIT
go build -o "$ecc_dir/" ./cmd/ecceval ./cmd/repro ./cmd/sysrel ./cmd/beamsim ./cmd/classify ./cmd/obsd ./cmd/fleetd
round_trip() { # round_trip NAME CELLS ECCEVAL_ARGS...
	local name="$1" cells="$2"
	shift 2
	"$ecc_dir/ecceval" "$@" >"$ecc_dir/$name.txt"
	"$ecc_dir/ecceval" "$@" -checkpoint "$ecc_dir/$name.json" >/dev/null
	"$ecc_dir/ecceval" "$@" -resume "$ecc_dir/$name.json" >"$ecc_dir/$name.resumed.txt"
	grep -qxF "Resuming from $ecc_dir/$name.json: $cells cells complete." "$ecc_dir/$name.resumed.txt" ||
		{ echo "no full resume banner for $name"; cat "$ecc_dir/$name.resumed.txt"; exit 1; }
	grep -v '^Resuming from' "$ecc_dir/$name.resumed.txt" | diff "$ecc_dir/$name.txt" -
}
round_trip eval 63 -samples 2000
round_trip workload 6 -workload -workload-runs 20 -workload-schemes none,DuetECC

echo "== beam logs round trip: beamsim -logs then classify -in =="
# The written logs must classify to the counts beamsim printed for the
# campaign it ran: events, filtered damaged entries and discarded runs.
"$ecc_dir/beamsim" -runs 20 -logs "$ecc_dir/beam.jsonl" >"$ecc_dir/beamsim.txt"
"$ecc_dir/classify" -in "$ecc_dir/beam.jsonl" >"$ecc_dir/classify.txt"
beam_counts="$(sed -n 's#^events: \([0-9]*\), damaged entries filtered: \([0-9]*\), runs discarded: \([0-9]*/[0-9]*\)$#\1 \2 \3#p' "$ecc_dir/beamsim.txt")"
class_counts="$(sed -n 's#^campaign: \([0-9]*\) events, \([0-9]*\) damaged entries filtered ([0-9]* intermittent records), \([0-9]*/[0-9]*\) runs discarded$#\1 \2 \3#p' "$ecc_dir/classify.txt")"
[ -n "$beam_counts" ] && [ "$beam_counts" = "$class_counts" ] ||
	{ echo "beamsim counts '$beam_counts' != classify -in counts '$class_counts'"; cat "$ecc_dir/beamsim.txt" "$ecc_dir/classify.txt"; exit 1; }

echo "== usage errors: out-of-range counts exit nonzero =="
# fleetd and obsd check their flags before any listener opens, so none
# of these starts a server.
for cmd in "ecceval -samples 0" "ecceval -samples -5" "ecceval -workload -workload-runs 0" \
	"repro -samples 0" "repro -runs 0" "sysrel -samples 0" "beamsim -runs 0" "beamsim -runs -5" "classify -runs 0" \
	"obsd -once -devices 0" "obsd -once -runs 0" "obsd -once -mtte 0" "obsd -once -mtte -3" \
	"fleetd -nodes -1" "fleetd -once -nodes 0" "fleetd -once -nodes 5 -hours 0" \
	"fleetd -once -nodes 5 -accel 0"; do
	status=0
	# shellcheck disable=SC2086 # cmd is split into binary and flags on purpose
	"$ecc_dir"/$cmd >/dev/null 2>&1 || status=$?
	[ "$status" = 2 ] || { echo "'$cmd' exited $status; want usage error 2"; exit 1; }
done
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
if echo "$fleet_metrics" | grep -Eq 'fleet_wal_|fleet_compaction'; then
	echo "/metrics still carries fleet_wal_*/fleet_compaction* families"; exit 1
fi
curl -sf "$fleet_url/healthz" | grep -q '"status":"ok"'
kill -INT "$fleetd_pid"
wait "$fleetd_pid"

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
