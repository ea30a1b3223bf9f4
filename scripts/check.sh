#!/bin/sh
# Pre-PR gate: formatting, vet, build, the full test suite once under the
# race detector with shuffled test order and once plainly, coverage floors,
# structural gates, a short fuzz smoke over every native fuzz target, and
# CLI smokes. Run from the repository root:
#
#   ./scripts/check.sh
#
# CI and reviewers expect every PR to pass this unchanged.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# The plain run. The race runtime changes allocation counts, so every
# testing.AllocsPerRun ceiling (zero-alloc tracing, flowtable, dice, clock,
# world lookups, the emulated and fast campaign memory ceilings) skips itself
# above; this run is the binding one for all of them, and it also runs the
# benchmark ruler's tests (bench/) against the changed internal/*.
echo "== go test -count=1 ./..."
go test -count=1 ./...

# Coverage floors on the packages the streaming pipeline flows through,
# and on spinscan's flag and settings handling.
# These are regression floors, not targets: raise them when coverage grows,
# never lower them to make a PR pass.
echo "== coverage floors"
cov_floor() {
    pkg=$1
    floor=$2
    pct=$(go test -cover "$pkg" 2>/dev/null | awk '
        { for (i = 1; i < NF; i++) if ($i == "coverage:") { sub(/%/, "", $(i+1)); print $(i+1) } }')
    if [ -z "$pct" ]; then
        echo "no coverage output for $pkg" >&2
        exit 1
    fi
    if [ "$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p < f) }')" = 1 ]; then
        echo "$pkg coverage $pct% below floor $floor%" >&2
        exit 1
    fi
    echo "$pkg: $pct% (floor $floor%)"
}
cov_floor ./internal/scanner 75
cov_floor ./internal/websim 75
cov_floor ./internal/analysis 75
cov_floor ./internal/shard 75
cov_floor ./internal/flowtable 75
cov_floor ./cmd/spinscan 48

# Structural gate: application state keyed by the connection pointer outlives
# the connection unless someone remembers a drop hook (PR 16's leak); it
# belongs on the connection, as Conn.AcceptStream keeps it.
echo "== no map[*transport.Conn] side tables"
if grep -rn 'map\[\*transport\.Conn\]' --include='*.go' cmd internal examples; then
    echo "per-connection state is keyed by *transport.Conn in the lines above" >&2
    exit 1
fi

# Structural gate: the scan engines read the campaign's one scanner.Config
# through a pointer. A by-value Config parameter copies its 256 bytes on every
# call; on the per-domain path such copies, with the results returned by
# value, were a tenth of a fast campaign's CPU. Only the entry points take it
# by value.
echo "== no by-value Config parameters in internal/scanner"
if grep -rnE --include='*.go' --exclude='*_test.go' \
    '^func (\([^)]*\) )?[A-Za-z0-9_]+\([^)]*[A-Za-z0-9_] Config[,)]' internal/scanner |
    grep -vE 'func (RunStream|Run|newCampaign|openCheckpoint|checkpointPrefix|ConnDice)\('; then
    echo "the functions above take scanner.Config by value; pass *Config or the fields they read" >&2
    exit 1
fi

# Structural gate: a failed connection is classified once, when it is
# recorded. ConnResult.setErr writes Err together with its class and hostile
# profile, and every reader (retries, the breaker, telemetry, Table 5)
# switches on those fields; a second classifier of the same text can drift
# from the first, as telemetry and Table 5 did until they were merged. So
# outside their own packages resilience.Classify and hostile.ProfileOf run
# only in setErr and on DNS failure text (resolveRetry, classifyDomain), and
# internal/scanner writes Err only in setErr and the poisonConn value.
echo "== a connection's failure is classified once, by setErr"
# funcsites PATTERN DIR...: "file:line: func: text" for every non-comment
# line of non-test Go matching the awk PATTERN, naming its function.
funcsites() {
    pat=$1
    shift
    find "$@" -name '*.go' ! -name '*_test.go' | sort | xargs awk -v pat="$pat" '
        FNR == 1 { fn = "" }
        /^func / { fn = $0; sub(/ *\{.*/, "", fn) }
        /^}/ { fn = "" }
        $0 ~ pat && !/^[ \t]*\/\// { printf "%s:%d: %s: %s\n", FILENAME, FNR, fn, $0 }'
}
if funcsites '(resilience\.Classify|hostile\.ProfileOf)\(' cmd internal examples bench |
    grep -v '^internal/resilience/\|^internal/hostile/' |
    grep -vE '^internal/scanner/scanner\.go:[0-9]+: func \(c \*ConnResult\) setErr\(|^internal/scanner/[a-z]+\.go:[0-9]+: func (resolveRetry|classifyDomain)\(.*Classify\((err\.Error\(\)|res\.DNSErr)\)'; then
    echo "the lines above classify error text; a connection carries its class (ConnResult.ErrClass, set by setErr)" >&2
    exit 1
fi
if funcsites '\.Err[ \t]*=[^=]|(^|[^A-Za-z0-9_])Err:' internal/scanner |
    grep -vE '^internal/scanner/scanner\.go:[0-9]+: func \(c \*ConnResult\) setErr\(|^internal/scanner/stream\.go:[0-9]+: [^:]*: [[:space:]]*poisonConn '; then
    echo "the lines above write ConnResult.Err; record a failure with setErr, which classifies it" >&2
    exit 1
fi

# Structural gate: per-domain telemetry is owned. A worker counts every
# domain, connection, lookup and packet in plain fields of its own (the
# scanner's domainTally, the resolver's and the network's Stats) and
# publishes them to the shared registry once per pipeline batch; a shared
# atomic per event cost a fast campaign a fifth of its CPU. So the resolver
# and the network know nothing of telemetry, and the per-domain recorders
# are methods of the worker's tally, not of the campaign's scanTelemetry.
echo "== per-domain telemetry is owned"
if go list -deps ./internal/dns ./internal/netem | grep -qx 'quicspin/internal/telemetry'; then
    echo "internal/dns or internal/netem depends on internal/telemetry; count in their Stats, which the scanner publishes" >&2
    exit 1
fi
if grep -nE '^func \([a-z]+ \*scanTelemetry\) (recordDomain|connTimeline)\(' internal/scanner/*.go; then
    echo "the lines above record per-domain telemetry on the campaign-level type; record in the worker's domainTally" >&2
    exit 1
fi
for fn in recordDomain connTimeline; do
    if ! grep -qE "^func \([a-z]+ \*domainTally\) $fn\(" internal/scanner/telemetry.go; then
        echo "internal/scanner/telemetry.go has no domainTally.$fn; the gate above checks nothing" >&2
        exit 1
    fi
done

# Native Go fuzzing needs no build tags, so `go vet ./...` above already
# covers the fuzz harnesses; here each target gets a short guided run
# beyond its seed corpus (which plain `go test` replays as unit tests).
fuzz_smoke() {
    pkg=$1
    target=$2
    echo "== go test -fuzz=$target -fuzztime=5s $pkg"
    go test -run='^$' -fuzz="^${target}\$" -fuzztime=5s "$pkg"
}
fuzz_smoke ./internal/wire FuzzVarint
fuzz_smoke ./internal/wire FuzzShortHeader
fuzz_smoke ./internal/wire FuzzLongHeader
fuzz_smoke ./internal/qlog FuzzQlogParse
fuzz_smoke ./internal/h3 FuzzH3Request
fuzz_smoke ./internal/analysis FuzzAccumulatorUnmarshal
fuzz_smoke ./internal/shard FuzzSubmissionFrame
fuzz_smoke ./internal/flowtable FuzzFlowIngest
fuzz_smoke ./internal/scanner FuzzDomainResultJSON

# Interrupt-and-resume smoke: SIGKILL a real spinscan campaign mid-run,
# resume it from the checkpoint journal, and require the rendered tables to
# be byte-identical to an uninterrupted reference run. This exercises the
# journal's torn-line tolerance with a genuinely unclean death, which the
# in-process tests cannot. Every scan journals under
# <checkpoint>/w<week>-<v4|v6>/<vantage>/shard-<NNN>/, so the record counts
# below glob four levels down.
echo "== interrupt-and-resume smoke"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/spinscan" ./cmd/spinscan
# The emulated engine over ~55k domains keeps the campaign slow enough
# (a few hundred milliseconds on two cores) for the SIGKILL to land while
# the journal is still growing; interrupted() fails the smoke when it did
# not.
scan_flags="-scale 4000 -engine emulated -week 3 -workers 4 -progress 0"

# interrupted NAME KILLED TOTAL: the journal held KILLED records when the
# kill landed and TOTAL once the resumed run finished; a resume that added
# nothing means the run had finished first and the smoke tested nothing.
interrupted() {
    if [ "$2" -ge "$3" ]; then
        echo "$1: the kill landed after the run had finished ($2 of $3 journal records); nothing was interrupted" >&2
        exit 1
    fi
    echo "$1: killed with $2 of $3 journal records"
}

"$tmp/spinscan" $scan_flags 2>/dev/null >"$tmp/reference.txt"

"$tmp/spinscan" $scan_flags -checkpoint "$tmp/ckpt" 2>/dev/null >/dev/null &
scan_pid=$!
# Wait until the journal holds some completed domains, then kill -9.
i=0
while [ "$(cat "$tmp"/ckpt/*/*/*/*.jsonl 2>/dev/null | wc -l)" -lt 20 ]; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        break
    fi
    sleep 0.05
done
kill -9 "$scan_pid" 2>/dev/null || true
wait "$scan_pid" 2>/dev/null || true
killed=$(cat "$tmp"/ckpt/*/*/*/*.jsonl 2>/dev/null | wc -l)

"$tmp/spinscan" $scan_flags -checkpoint "$tmp/ckpt" -resume 2>/dev/null >"$tmp/resumed.txt"
interrupted "unsharded" "$killed" "$(cat "$tmp"/ckpt/*/*/*/*.jsonl | wc -l)"
if ! diff -u "$tmp/reference.txt" "$tmp/resumed.txt"; then
    echo "resumed tables differ from the uninterrupted reference" >&2
    exit 1
fi

# qlog interchange smoke: spinscan streams per-connection traces to
# -qlog-dir while scanning; spinalyze must rebuild Tables 2, 3 and 5 from
# them byte-identically (with the -asdb-out snapshot), and must also run
# without a snapshot (Table 2 skipped, nothing crashes on the missing
# resolver). Table 1 is not compared: unresolved domains emit no traces, so
# its Total column legitimately differs.
echo "== qlog interchange smoke"
"$tmp/spinscan" -scale 200000 -week 3 -progress 0 -qlog-dir "$tmp/qlogs" -asdb-out "$tmp/asdb.txt" \
    2>/dev/null >"$tmp/qlog-scan.txt"
go build -o "$tmp/spinalyze" ./cmd/spinalyze
"$tmp/spinalyze" -qlog-dir "$tmp/qlogs" -asdb "$tmp/asdb.txt" 2>/dev/null >"$tmp/qlog-analyzed.txt"
"$tmp/spinalyze" -qlog-dir "$tmp/qlogs" 2>/dev/null >/dev/null
# table N FILE: the block from "Table N." to the next blank line.
table() { awk -v t="Table $1." 'index($0, t) == 1 { on = 1 } on && $0 == "" { exit } on' "$2"; }
for n in 2 3 5; do
    table "$n" "$tmp/qlog-scan.txt" >"$tmp/qlog-t$n-scan.txt"
    table "$n" "$tmp/qlog-analyzed.txt" >"$tmp/qlog-t$n-analyzed.txt"
    if [ ! -s "$tmp/qlog-t$n-scan.txt" ] || ! diff -u "$tmp/qlog-t$n-scan.txt" "$tmp/qlog-t$n-analyzed.txt"; then
        echo "spinalyze Table $n differs from (or is missing in) spinscan's output" >&2
        exit 1
    fi
done

# Sharded interrupt-and-resume smoke: the same unclean-death contract for
# the distributed coordinator — SIGKILL a sharded campaign mid-run, resume
# from the per-shard journals, and require byte-identical tables against an
# uninterrupted sharded reference (which TestShardDeterminism already pins
# to the unsharded output). The UDP transport on the resume leg exercises
# the collector exchange from the CLI.
echo "== sharded interrupt-and-resume smoke"
shard_flags="-scale 4000 -engine emulated -week 3 -workers 4 -progress 0 -shards 4"

"$tmp/spinscan" $shard_flags 2>/dev/null >"$tmp/shard-reference.txt"

"$tmp/spinscan" $shard_flags -checkpoint "$tmp/shard-ckpt" 2>/dev/null >/dev/null &
shard_pid=$!
i=0
while [ "$(cat "$tmp"/shard-ckpt/*/*/*/*.jsonl 2>/dev/null | wc -l)" -lt 20 ]; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        break
    fi
    sleep 0.05
done
kill -9 "$shard_pid" 2>/dev/null || true
wait "$shard_pid" 2>/dev/null || true
killed=$(cat "$tmp"/shard-ckpt/*/*/*/*.jsonl 2>/dev/null | wc -l)

"$tmp/spinscan" $shard_flags -checkpoint "$tmp/shard-ckpt" -resume -shard-transport udp \
    2>/dev/null >"$tmp/shard-resumed.txt"
interrupted "sharded" "$killed" "$(cat "$tmp"/shard-ckpt/*/*/*/*.jsonl | wc -l)"
if ! diff -u "$tmp/shard-reference.txt" "$tmp/shard-resumed.txt"; then
    echo "resumed sharded tables differ from the uninterrupted reference" >&2
    exit 1
fi

# Shard chaos smoke: run a sharded UDP campaign with faults at three sites
# from one -faults spec — a scripted worker crash and a scripted worker
# panic, both recovered from the checkpoint journal, datagram
# drop/duplication/corruption/delay on the accumulator exchange, and storage
# faults under every shard journal — and require the rendered tables to be
# byte-identical to the fault-free sharded reference above. The supervisor
# must log both restarts, proving the injected crash fired and the scan
# pipeline returned the injected panic as the failed attempt's error. The
# seed changes from run to run (neutrality must hold for every fault
# pattern) and is printed on failure.
echo "== shard chaos smoke"
chaos_plan="seed:$(date +%s),udp.drop:0.05,udp.dup:0.05,udp.corrupt:0.02,udp.delay:0.05,udp.max-delay:2ms,fs.short-write:0.05,fs.write-err:0.1,fs.sync-err:0.05,shard.crash:1@40,shard.panic:2@25"
"$tmp/spinscan" $shard_flags -shard-transport udp -checkpoint "$tmp/chaos-ckpt" -faults "$chaos_plan" \
    2>"$tmp/chaos.log" >"$tmp/chaos.txt"
if ! diff -u "$tmp/shard-reference.txt" "$tmp/chaos.txt"; then
    echo "chaos-run tables differ from the fault-free sharded reference (-faults $chaos_plan)" >&2
    cat "$tmp/chaos.log" >&2
    exit 1
fi
if ! grep -q "shard 1 (vantage 0): .*injected fault: crash.*restarting from journal" "$tmp/chaos.log"; then
    echo "chaos run never restarted shard 1 (injected crash did not fire; -faults $chaos_plan):" >&2
    cat "$tmp/chaos.log" >&2
    exit 1
fi
if ! grep -q "shard 2 (vantage 0): .*injected panic after 25 domains.*restarting from journal" "$tmp/chaos.log"; then
    echo "chaos run never restarted shard 2 after its injected panic (-faults $chaos_plan):" >&2
    cat "$tmp/chaos.log" >&2
    exit 1
fi

# Follow-mode smoke: the continuous campaign service under storage chaos,
# sharded. A 3-week `-follow -shards 4 -shard-transport udp` campaign with
# an injected storage fault plan is SIGTERMed once week 1 completes (so the
# signal lands mid-week-2), must exit 143 (128+SIGTERM; SIGINT is 130), then
# resumes from the per-shard rolling journals and must render tables
# byte-identical to the fault-free, unsharded one-shot `-weeks 3` reference.
# With a one-week retention horizon the resumed run replays weeks 1 and 2
# and removes week 1's directory under the storage-fault plan as it goes.
# One smoke therefore pins follow ≡ one-shot and sharded ≡ unsharded at the
# CLI, plus the SIGTERM graceful drain, the exit-code split, journal
# retention and journal degradation under injected faults.
echo "== follow-mode smoke"
follow_flags="-scale 4000 -engine emulated -weeks 3 -workers 4 -progress 0"
storage_plan="seed:7,fs.short-write:0.05,fs.write-err:0.1,fs.sync-err:0.05"

"$tmp/spinscan" $follow_flags 2>/dev/null >"$tmp/follow-reference.txt"

follow_service="-follow -shards 4 -shard-transport udp -journal-segment-bytes 8192 -journal-sync 16 -journal-retain-weeks 1"
"$tmp/spinscan" $follow_flags $follow_service -checkpoint "$tmp/follow-ckpt" -faults "$storage_plan" \
    2>"$tmp/follow.log" >"$tmp/follow-first.txt" &
follow_pid=$!
i=0
while ! grep -q "week 1 complete" "$tmp/follow.log" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 400 ] || ! kill -0 "$follow_pid" 2>/dev/null; then
        break
    fi
    sleep 0.05
done
kill -TERM "$follow_pid" 2>/dev/null || true
follow_rc=0
wait "$follow_pid" || follow_rc=$?
# Exit 0 means the campaign outran the signal: nothing was interrupted.
if [ "$follow_rc" != 143 ]; then
    echo "follow SIGTERM run exited $follow_rc, want 143:" >&2
    cat "$tmp/follow.log" >&2
    exit 1
fi
"$tmp/spinscan" $follow_flags $follow_service -checkpoint "$tmp/follow-ckpt" -resume -faults "$storage_plan" \
    2>>"$tmp/follow.log" >"$tmp/follow-resumed.txt"
if ! diff -u "$tmp/follow-reference.txt" "$tmp/follow-resumed.txt"; then
    echo "follow-mode tables differ from the one-shot -weeks 3 reference" >&2
    cat "$tmp/follow.log" >&2
    exit 1
fi
if ! grep -q "fault injection armed" "$tmp/follow.log"; then
    echo "fault plan never armed:" >&2
    cat "$tmp/follow.log" >&2
    exit 1
fi
if [ "$(ls "$tmp/follow-ckpt")" != "w3-v4" ]; then
    echo "-journal-retain-weeks 1 left $(ls "$tmp/follow-ckpt" | tr '\n' ' ')in the checkpoint, want only w3-v4" >&2
    exit 1
fi

# Hostile chaos smoke: both engines must survive a 30 %-hostile world at
# the CLI level — exit 0, non-empty adoption tables, and the hostile error
# classes rendered in Table 5. The in-process chaos test covers the
# semantics; this catches CLI wiring regressions (flag parsing, rendering).
echo "== hostile chaos smoke"
for eng in emulated fast; do
    "$tmp/spinscan" -scale 5000 -hostile-frac 0.3 -engine "$eng" -progress 0 \
        2>/dev/null >"$tmp/hostile-$eng.txt"
    if ! grep -q "Table 1" "$tmp/hostile-$eng.txt"; then
        echo "hostile chaos run ($eng) produced no adoption tables" >&2
        exit 1
    fi
    if ! grep -q "hostile: " "$tmp/hostile-$eng.txt"; then
        echo "hostile chaos run ($eng) rendered no hostile error classes" >&2
        exit 1
    fi
done

# World storage smoke: -lazy-world synthesises the population on demand
# instead of materialising it; it is one population either way, so both
# engines must print byte-identical tables with and without the flag, on
# IPv4 and on IPv6 (where the pooled and the per-domain v6 addresses
# decode to their servers).
echo "== world storage smoke"
for eng in fast emulated; do
    for fam in "" -ipv6; do
        "$tmp/spinscan" -scale 20000 -week 3 -progress 0 -engine "$eng" $fam \
            2>/dev/null >"$tmp/world-eager-$eng$fam.txt"
        "$tmp/spinscan" -scale 20000 -week 3 -progress 0 -engine "$eng" $fam -lazy-world \
            2>/dev/null >"$tmp/world-lazy-$eng$fam.txt"
        if ! diff -u "$tmp/world-eager-$eng$fam.txt" "$tmp/world-lazy-$eng$fam.txt"; then
            echo "-lazy-world changed the $eng engine's ${fam:+IPv6 }tables" >&2
            exit 1
        fi
    done
done

# Live dashboard smoke: run a traced, sharded follow service with the debug
# endpoint on an ephemeral port and scrape /debug/campaign and /debug/traces
# mid-scan — both must answer 200 with a non-empty rolling window of a
# 2-shard campaign / trace list. The service scans until it is killed after
# the scrape, so it cannot finish before the first one.
echo "== live dashboard smoke"
"$tmp/spinscan" -scale 20000 -engine emulated -workers 2 -progress 0 -follow -shards 2 \
    -trace -debug-addr 127.0.0.1:0 >/dev/null 2>"$tmp/dash.log" &
dash_pid=$!
dash_addr=""
i=0
while [ -z "$dash_addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "debug endpoint never announced itself:" >&2
        cat "$tmp/dash.log" >&2
        exit 1
    fi
    dash_addr=$(sed -n 's|.*debug endpoint on http://\([^ ]*\).*|\1|p' "$tmp/dash.log" | head -1)
    [ -n "$dash_addr" ] || sleep 0.05
done
dash_ok=0
i=0
while [ "$i" -lt 200 ] && kill -0 "$dash_pid" 2>/dev/null; do
    i=$((i + 1))
    code=$(curl -s -o "$tmp/campaign.json" -w '%{http_code}' \
        "http://$dash_addr/debug/campaign?format=json" || true)
    # A non-empty open window proves the dashboard is fed mid-scan, by both
    # shards once each has registered its accumulator.
    if [ "$code" = 200 ] && grep -q '"domains": [1-9]' "$tmp/campaign.json" &&
        grep -q '"shards": 2' "$tmp/campaign.json"; then
        dash_ok=1
        break
    fi
    sleep 0.05
done
if [ "$dash_ok" != 1 ]; then
    echo "/debug/campaign never served a non-empty window" >&2
    exit 1
fi
trace_code=$(curl -s -o "$tmp/traces.json" -w '%{http_code}' "http://$dash_addr/debug/traces" || true)
if [ "$trace_code" != 200 ] || ! grep -q '"domain"' "$tmp/traces.json"; then
    echo "/debug/traces did not serve traces (status $trace_code)" >&2
    exit 1
fi
kill "$dash_pid" 2>/dev/null || true
wait "$dash_pid" 2>/dev/null || true

# Spinwatch service smoke: run the passive observer against an emulated
# netem tap mid-campaign, curl its flow telemetry until the table reports
# spin-RTT samples, then SIGTERM it and require the graceful-drain exit
# code 143 (matching the follow-mode contract).
echo "== spinwatch service smoke"
go build -o "$tmp/spinwatch" ./cmd/spinwatch
"$tmp/spinwatch" -debug-addr 127.0.0.1:0 -seed 11 -clients 4 -servers 2 \
    >/dev/null 2>"$tmp/watch.log" &
watch_pid=$!
watch_addr=""
i=0
while [ -z "$watch_addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "spinwatch debug endpoint never announced itself:" >&2
        cat "$tmp/watch.log" >&2
        exit 1
    fi
    watch_addr=$(sed -n 's|.*debug endpoint on http://\([^ ]*\).*|\1|p' "$tmp/watch.log" | head -1)
    [ -n "$watch_addr" ] || sleep 0.05
done
watch_ok=0
i=0
while [ "$i" -lt 200 ] && kill -0 "$watch_pid" 2>/dev/null; do
    i=$((i + 1))
    code=$(curl -s -o "$tmp/flows.json" -w '%{http_code}' \
        "http://$watch_addr/debug/flows?format=json" || true)
    # Non-zero samples prove the tap feeds the flow table mid-campaign.
    if [ "$code" = 200 ] && grep -q '"Samples": [1-9]' "$tmp/flows.json"; then
        watch_ok=1
        break
    fi
    sleep 0.05
done
if [ "$watch_ok" != 1 ]; then
    echo "/debug/flows never reported spin-RTT samples" >&2
    cat "$tmp/watch.log" >&2
    exit 1
fi
ready_code=$(curl -s -o /dev/null -w '%{http_code}' "http://$watch_addr/readyz" || true)
if [ "$ready_code" != 200 ]; then
    echo "/readyz returned $ready_code with flows active, want 200" >&2
    exit 1
fi
kill -TERM "$watch_pid" 2>/dev/null || true
watch_rc=0
wait "$watch_pid" || watch_rc=$?
if [ "$watch_rc" != 143 ]; then
    echo "spinwatch SIGTERM exit $watch_rc, want 143:" >&2
    cat "$tmp/watch.log" >&2
    exit 1
fi

echo "OK"
