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

echo "== batch only: no non-test package links net/http =="
# fleetd and obsd are batch tools; the coordinator is reached through
# Loopback. A network server would regrow the deleted HTTP surface.
if go list -deps ./... | grep -qx 'net/http'; then
	echo "non-test code still carries net/http:"
	go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -w 'net/http'
	exit 1
fi
# The fleet write-ahead log is gone as well.
if grep -rlE 'fleet_wal_|fleet_compaction' --include='*.go' --exclude='*_test.go' .; then
	echo "non-test code still carries fleet_wal_*/fleet_compaction* families"; exit 1
fi

echo "== perfbench: go vet + build (its own module, over this tree) =="
# perfbench builds against ../ through a replace directive, so a change
# under internal/ can break it without any step above noticing.
(cd perfbench && go vet ./... && go build -o /dev/null ./...)

echo "== go test -race ./... =="
go test -race ./...

echo "== short fuzz: fast paths vs their references =="
go test -run '^$' -fuzz FuzzBatchVsSingle -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzDecodeFastVsRef -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzEncodeVsRef -fuzztime 10s ./internal/core/
go test -run '^$' -fuzz FuzzLayoutVsBitLoop -fuzztime 10s ./internal/bitvec/
go test -run '^$' -fuzz FuzzLocalityVsBitLoop -fuzztime 10s ./internal/bitvec/
go test -run '^$' -fuzz FuzzSynBitRowsVsSyndromes -fuzztime 10s ./internal/rscode/
go test -run '^$' -fuzz FuzzOnDieDecodeVsRef -fuzztime 10s ./internal/ondie/
go test -run '^$' -fuzz FuzzReadSeriesVsReadWire -fuzztime 10s ./internal/dram/
go test -run '^$' -fuzz FuzzMemoryVsDevice -fuzztime 10s ./internal/workload/
go test -run '^$' -fuzz FuzzWindowVsRing -fuzztime 10s ./internal/fleet/
go test -run '^$' -fuzz FuzzDecideVsSimulate -fuzztime 10s ./internal/workload/
go test -run '^$' -fuzz FuzzSourceVsStdlib -fuzztime 10s ./internal/xrand/

echo "== bench smoke: one iteration of every benchmark =="
HBM2ECC_MC_SAMPLES=2000 HBM2ECC_CAMPAIGN_RUNS=20 \
	go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench smoke: cmd/bench -quick -gate (batch decode no slower than single-shot) =="
bench_out="${TMPDIR:-/tmp}/hbm2ecc_bench_smoke.json"
go run ./cmd/bench -quick -gate -out "$bench_out" >/dev/null
test -s "$bench_out"
rm -f "$bench_out"

echo "== beam logs round trip: beamsim -logs then classify -in =="
ecc_dir="$(mktemp -d "${TMPDIR:-/tmp}/hbm2ecc_ecceval.XXXXXX")"
trap 'rm -rf "$ecc_dir"' EXIT
go build -o "$ecc_dir/" ./cmd/ecceval ./cmd/repro ./cmd/sysrel ./cmd/beamsim ./cmd/classify ./cmd/obsd ./cmd/fleetd
# The written logs must classify to the counts beamsim printed for the
# campaign it ran: events, filtered damaged entries and discarded runs.
"$ecc_dir/beamsim" -runs 20 -logs "$ecc_dir/beam.jsonl" >"$ecc_dir/beamsim.txt"
"$ecc_dir/classify" -in "$ecc_dir/beam.jsonl" >"$ecc_dir/classify.txt"
beam_counts="$(sed -n 's#^events: \([0-9]*\), damaged entries filtered: \([0-9]*\), runs discarded: \([0-9]*/[0-9]*\)$#\1 \2 \3#p' "$ecc_dir/beamsim.txt")"
class_counts="$(sed -n 's#^campaign: \([0-9]*\) events, \([0-9]*\) damaged entries filtered ([0-9]* intermittent records), \([0-9]*/[0-9]*\) runs discarded$#\1 \2 \3#p' "$ecc_dir/classify.txt")"
[ -n "$beam_counts" ] && [ "$beam_counts" = "$class_counts" ] ||
	{ echo "beamsim counts '$beam_counts' != classify -in counts '$class_counts'"; cat "$ecc_dir/beamsim.txt" "$ecc_dir/classify.txt"; exit 1; }

echo "== usage errors: out-of-range counts exit nonzero =="
for cmd in "ecceval -samples 0" "ecceval -samples -5" "ecceval -workload -workload-runs 0" \
	"repro -samples 0" "repro -runs 0" "sysrel -samples 0" "beamsim -runs 0" "beamsim -runs -5" "classify -runs 0" \
	"obsd -devices 0" "obsd -runs 0" "obsd -mtte 0" "obsd -mtte -3" \
	"fleetd -nodes -1" "fleetd -nodes 0" "fleetd -nodes 5 -hours 0" \
	"fleetd -nodes 5 -accel 0"; do
	status=0
	# shellcheck disable=SC2086 # cmd is split into binary and flags on purpose
	"$ecc_dir"/$cmd >/dev/null 2>&1 || status=$?
	[ "$status" = 2 ] || { echo "'$cmd' exited $status; want usage error 2"; exit 1; }
done
rm -rf "$ecc_dir"

smoke_dir="$(mktemp -d "${TMPDIR:-/tmp}/hbm2ecc_smoke.XXXXXX")"
trap 'rm -rf "$smoke_dir"' EXIT
go build -o "$smoke_dir/" ./cmd/fleetd ./cmd/obsd

# pin FILE SHA256: a fleet output must hash to its pinned value, so a
# change that moves it deterministically fails here too.
pin() {
	got="$(sha256sum "$1" | cut -d' ' -f1)"
	[ "$got" = "$2" ] || { echo "$(basename "$1"): sha256 $got, pinned $2"; exit 1; }
}

echo "== fleetd: deterministic, pinned, every frame acknowledged =="
"$smoke_dir/fleetd" -nodes 200 -hours 240 >"$smoke_dir/fleetd_a.json" 2>/dev/null
"$smoke_dir/fleetd" -nodes 200 -hours 240 >"$smoke_dir/fleetd_b.json" 2>/dev/null
cmp "$smoke_dir/fleetd_a.json" "$smoke_dir/fleetd_b.json"
pin "$smoke_dir/fleetd_a.json" 99d63451b71dbb284094846a82e7e8d0743b990d25a9320165a737c327c3e021
"$smoke_dir/fleetd" -nodes 1000 -hours 720 -accel 10000 >"$smoke_dir/fleetd_month.json" 2>/dev/null
pin "$smoke_dir/fleetd_month.json" b75200e4128ed4a4fa281c44986d6a3cc135651f075d669dd8fa2f0b3e1fe940
grep -q '"Rejected": 0,\?$' "$smoke_dir/fleetd_a.json" || { echo "fleetd refused frames"; cat "$smoke_dir/fleetd_a.json"; exit 1; }
sent="$(sed -n 's/.*"Sent": \([0-9]*\).*/\1/p' "$smoke_dir/fleetd_a.json")"
enqueued="$(sed -n 's/.*"Enqueued": \([0-9]*\).*/\1/p' "$smoke_dir/fleetd_a.json")"
test -n "$sent" && test "$sent" = "$enqueued" || { echo "fleetd acknowledged $sent of $enqueued frames"; exit 1; }

echo "== obsd smoke: probes report to the fleet plane, deterministically =="
"$smoke_dir/obsd" -devices 3 -seed 7 >"$smoke_dir/obsd_a.json"
"$smoke_dir/obsd" -devices 3 -seed 7 >"$smoke_dir/obsd_b.json"
cmp "$smoke_dir/obsd_a.json" "$smoke_dir/obsd_b.json"
pin "$smoke_dir/obsd_a.json" 8c8742c50e55bc4f3f1b316807b60fe3dd9f1e0b45725ce203b24b891b813f05
grep -q '"total":3' "$smoke_dir/obsd_a.json" || { echo "obsd fleet missing devices"; cat "$smoke_dir/obsd_a.json"; exit 1; }
# A 2ms-MTTE beam floods the device: its agent must not report ok.
"$smoke_dir/obsd" -devices 1 -mtte 0.002 >"$smoke_dir/obsd_flood.json"
pin "$smoke_dir/obsd_flood.json" bb9b6293c9bb0025a073a7620e809257a87d7a2c292ee485e1ca8d7ac9f7d833
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
# repro's section rows add up to its runtime; the time no section
# covers must stay under a tenth of it. Inside the characterization
# section, the beam campaign and its classification are phases.
go run ./cmd/repro -runs 50 -samples 2000 -metrics "$smoke_dir/repro.prom" >"$smoke_dir/repro.txt"
for phase in campaign classify; do
	grep -q "^$phase " "$smoke_dir/repro.txt" || { echo "repro: no $phase phase row"; cat "$smoke_dir/repro.txt"; exit 1; }
done
unattributed="$(awk '$1 == "unattributed" { sub("%", "", $3); print $3 }' "$smoke_dir/repro.txt")"
[ -n "$unattributed" ] && awk -v u="$unattributed" 'BEGIN { exit !(u < 10) }' ||
	{ echo "repro unattributed share '$unattributed%' not below 10%"; cat "$smoke_dir/repro.txt"; exit 1; }

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
