#!/bin/sh
# Pre-merge gate: formatting, static analysis, the full test suite, and the
# race detector (which also runs the chaos fault-injection soak).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# vet's copylocks check is what catches a dvs.Client copied by value now
# that it holds its connection pool behind a mutex.
echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# ROADMAP's tracked numbers: they should fall.
echo "== non-test Go lines outside bench/: $(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
echo "== non-test Go lines of internal/obs and cmd/lftop: $(find internal/obs cmd/lftop -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"
echo "== exported Config/Options fields outside bench/: $(go test -count=1 -run '^TestEveryOptionHasASetter$' -v . | sed -n 's/.* \([0-9]*\) exported Config\/Options fields.*/\1/p')"
echo "== exported functions and methods under internal/ and cmd/ without a non-test caller: $(go test -count=1 -run '^TestEveryExportHasACaller$' -v . | sed -n 's/.*: \([0-9]*\) without a non-test caller, \([0-9]*\) of them allow-listed.*/\1 (\2 allow-listed)/p')"

# -shuffle=on randomizes test order within each package, so hidden
# inter-test coupling (shared registries, leaked goroutines, package
# globals) fails here instead of in some future reordering.
echo "== go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# run_named <go test flags...> -run <pattern> <packages>: like go test, but a
# -run pattern that matches no test is a failure. A renamed test silently
# matching nothing is how coverage rots.
run_named() {
	out=$(go test -v "$@" 2>&1) || { printf '%s\n' "$out" | grep -v '^time=' | tail -40 >&2; exit 1; }
	pattern=""
	prev=""
	for a in "$@"; do
		[ "$prev" = "-run" ] && pattern=$a
		prev=$a
	done
	for alt in $(printf '%s' "$pattern" | tr '|' ' '); do
		printf '%s\n' "$out" | grep -q -- "^--- PASS: $alt" || {
			echo "check.sh: -run alternative '$alt' matched no passing test in: $*" >&2
			exit 1
		}
	done
	printf '%s\n' "$out" | grep -E '^(ok|PASS)' | sort -u
}

# Twenty rounds each of the places where an ordering, not a value, is the
# contract: the one client transport under its two configurations (reuse,
# redial, deadlines, cancellation, the handshake wait, the retry rule — the
# client matrix and transcript in internal/wire, and the suites of the two
# packages that wrap it) and "the server span is exported before the reply
# leaves", which the TestWire* trace tests read back the moment they hold a
# reply.
echo "== connection-reuse and span-order stress (-count=20)"
go test -race -count=20 ./internal/dvs ./internal/ibp
run_named -race -count=20 \
	-run 'TestClientTranscript|TestClientCancel|TestClientNeverReuses|TestClientRepeats|TestClientRemembers|TestClientCloseLeaves|TestClientHandshakeWait|TestClientReplyLineIsBounded|TestClientWatchdog|TestRemoteSourceKeeps' \
	./internal/wire
# The one server loop under all five services: transcript parity (every
# verb and error, untagged and tagged), the shed matrix, Close, and the
# bounded line read.
run_named -race -count=20 \
	-run 'TestTranscriptParity|TestShed|TestCloseLeavesNoHandler|TestRequestLineIsBounded' \
	./internal/wire
# Tagged execution and the gathered write: workers number the peak
# concurrency and leave with their connection, a blocked handler holds its
# own worker only, a handler that panics costs its own connection only,
# tagged or not, and a reply whose write fails mid-body is the
# connection's last with its pooled body returned. The client's half-written
# PUT is a row of TestClientRepeatsOnlyWhatIsSafe above.
run_named -race -count=20 \
	-run 'TestWorkersNumberPeakConcurrency|TestWorkersLeaveWithTheConnection|TestWorkerBlockedDoesNotStallOthers|TestHandlerPanicReachesEventLog|TestReplyWriteFailsMidBody' \
	./internal/wire

# The one fetch flight: who shares a transfer, who may leave it, what a
# reader sees when an attempt fails under it — orderings all, judged by
# the race detector.
run_named -race -count=20 \
	-run 'TestFlightSharedAcrossEntryPoints|TestFlightStagedGoneCostsOneMiss|TestFlightTriesEveryExNodeReplica|TestFlightTracedFromViewer|TestFlightSemantics|TestFlightCancellation|TestFlightFailureAfterPublishedBytes' \
	./internal/agent
# The prefetcher's queue and the foreground gate: one prefetch in flight,
# an earlier move's unstarted targets dropped, nothing started while a
# user's fetch is in flight, Close with the worker waiting at the gate, and
# the stager (SuppressStageOnMiss) waiting at the same gate; and what the
# default policy queues: one set a move, along the cursor's path, else the
# quadrant's first not cached; and that an agent two clients share queues
# around the client that moved.
run_named -race -count=20 \
	-run 'TestOnePrefetchInFlight|TestMoveDropsStalePrefetches|TestNoPrefetchStartsWhileUserWaits|TestCloseStopsParkedPrefetcher|TestSuppressStageOnMissPausesStager|TestPathMoveQueuesOneSet|TestCachedPathTargetFallsThrough|TestFirstMoveTakesQuadrantFirst|TestServedAgentQueuesAroundTheMover' \
	./internal/agent
run_named -race -count=20 -run 'TestDoCoalescesConcurrentCalls|TestJoinSharesStarterState|TestCancellerDoesNotKillFlight|TestLastWaiterCancelsFlight|TestConcurrentCancellationStorm' ./internal/singleflight

# The render kernel against the per-ray oracle it replaced (frames byte for
# byte, at GOMAXPROCS 1 and 4), a frame laid out ahead by Prepare — finished,
# joined while it runs, or begun — against one laid out inline, a layout
# used only by its own camera, and the viewer decoding into the set it
# evicted, or laying out its next frame, while another goroutine renders:
# the race detector is the judge of "a set a Render may still read is never
# recycled" and of the layout's hand-off between its two goroutines.
run_named -race -count=20 -run 'TestRenderMatchesPerRayOracle|TestDecodeIntoRecycledSet|TestPreparedFrameMatchesInline|TestLayoutForAnotherCameraIsDiscarded' ./internal/lightfield
run_named -race -count=20 -run 'TestViewerRecyclesEvictedSet|TestViewerRecycleUnderRender|TestRenderWhileMoveToLaysOut|TestRenderInsideOuterSphereFailsAsBefore' ./internal/agent

# The two-lane decode: a source that fails in either segment, a decode that
# fails while its pump is still in Read (nothing it started may write where
# anyone can see once it has returned, and nothing is left running), and
# every corruption of both frame layouts, segment tables included.
run_named -race -count=20 \
	-run 'TestDecodeFailsInEitherSegment|TestDecodeLeavesNothingBehind|TestDecodeViewSetRejectsEveryCorruption|TestLyingSegmentTableBuysNoMemory' \
	./internal/lightfield

# A closed server has closed its listener, whether or not its serving
# goroutine had started: every server a daemon starts, closed the moment it
# binds, and the daemon harness's whole stack under a cancelled context.
run_named -race -count=20 -run TestClosedServerRefusesDials .
run_named -race -count=20 -run TestCancelledContextClosesStack ./internal/daemon

# The chaos soak, with and without a stager that could re-close the
# corrupting depot's circuit: every replica of an extent behind an open
# circuit is an ordering of failures, so it gets twenty rounds too. It,
# the slow-depot SLO repair and the flight-recorder capture run on the
# default transport — kept, pipelined connections — with faults drawn per
# reply, under which the fault layer's own cases and "every verb through
# one kept client dials once" are orderings as well.
run_named -race -count=20 -run 'TestChaosBrowseUnderFaults|TestSLOAlertDrivenRepairEndToEnd|TestFlightRecorderCaptureEndToEnd' .
run_named -race -count=20 -run 'TestFaultPerReplyCorruptsOnlyTheKthBody|TestFaultPerReplySpikeDelaysOnlyTheKthReply|TestFaultKillBreaksOpenConnections' ./internal/netsim
run_named -race -count=20 -run 'TestEveryVerbDialsOnce|TestOnwardCopyConnectionsStayBounded' ./internal/ibp

echo "== fuzz the one request parser, the one serve loop and the one client's reply path (10s each)"
go test -run '^$' -fuzz FuzzParseRequest -fuzztime=10s -fuzzminimizetime=1s ./internal/wire
go test -run '^$' -fuzz FuzzServeConn -fuzztime=10s -fuzzminimizetime=1s ./internal/wire
go test -run '^$' -fuzz FuzzClientReply -fuzztime=10s -fuzzminimizetime=1s ./internal/wire

echo "== fuzz the view-set payload and frame decoders (10s each)"
go test -run '^$' -fuzz FuzzUnmarshalViewSet -fuzztime=10s -fuzzminimizetime=1s ./internal/lightfield
go test -run '^$' -fuzz FuzzDecodeViewSetFrom -fuzztime=10s -fuzzminimizetime=1s ./internal/lightfield

echo "== fuzz the fleet's decode of a peer's /metrics (10s)"
go test -run '^$' -fuzz FuzzFleetParseMetrics -fuzztime=10s -fuzzminimizetime=1s ./internal/obs/fleet

echo "== fuzz the codec's inflater against compress/zlib (10s)"
go test -run '^$' -fuzz FuzzInflate -fuzztime=10s -fuzzminimizetime=1s ./internal/codec

echo "== fuzz the exNode XML parser (10s)"
go test -run '^$' -fuzz FuzzExNodeUnmarshal -fuzztime=10s -fuzzminimizetime=1s ./internal/exnode

echo "== fuzz the -slo-config rule parser every daemon reads (10s)"
go test -run '^$' -fuzz FuzzParseRules -fuzztime=10s -fuzzminimizetime=1s ./internal/obs/slo

echo "== fuzz the /debug/tsdb query parser every daemon serves (10s)"
go test -run '^$' -fuzz FuzzTSDBQuery -fuzztime=10s -fuzzminimizetime=1s ./internal/obs

echo "== fuzz the composite edge capability lfedged reads off the wire (10s)"
go test -run '^$' -fuzz FuzzParseCap -fuzztime=10s -fuzzminimizetime=1s ./internal/edge

# One iteration each, so the in-package benchmarks cannot rot; their
# numbers are read with -benchtime and -count by hand, never from here.
echo "== in-package benchmarks build and run (1x)"
go test -run '^$' -bench . -benchtime 1x ./internal/lightfield ./internal/codec ./internal/ibp ./internal/dvs ./internal/agent

# bench/ is its own module, so ./... above skips it. It wires dvs.Client
# and agent.Viewer by struct literal: build and smoke-test it here, so a
# change that breaks that wiring fails CI, not the next benchmark run.
echo "== benchmark module: vet + short tests"
(cd bench && go vet ./... && go test -short ./...)

echo "== docs audit"
sh scripts/docscheck.sh

echo "== pipelined data plane race smoke"
# The zero-copy hot path multiplexes tagged requests over shared
# connections and hands pooled buffers across goroutines; run its most
# concurrency-heavy tests under the race detector explicitly (and
# -count=1, so they rerun even when the cached ./... results are fresh).
run_named -race -count=1 \
	-run 'TestPipelined|TestPipeWindowBackpressure|TestPipeMidstreamDrop|TestPipePoolSerialFallback' \
	./internal/ibp
run_named -race -count=1 -run 'TestTranscriptParity|TestShed|TestClientCancelledLoadNeverWritesDst' ./internal/wire
run_named -race -count=1 -run 'TestDownloadPipelinedPool' ./internal/lors
run_named -race -count=1 -run 'TestStreamBuffer|TestSegmentInflatesBeforeItArrives' ./internal/codec
run_named -race -count=1 -run 'TestGetViewSetStream|TestViewerUsesStreamingPath' ./internal/agent

# The figure path, so lfbench cannot rot: Figure 9's three cases end to end
# over short sessions. Its numbers are read by hand, never from here.
echo "== lfbench -fig 9 (short sessions)"
benchdir=$(mktemp -d)
trap 'rm -rf "$benchdir"' EXIT
go run ./cmd/lfbench -fig 9 -accesses 12 >"$benchdir/fig9.txt"
for c in case1_lan case2_wan case3_landepot; do
	grep -q "^summary $c " "$benchdir/fig9.txt" || {
		cat "$benchdir/fig9.txt" >&2
		echo "lfbench -fig 9 printed no summary line for $c" >&2
		exit 1
	}
done

echo "== lftop smoke"
go build -o "$benchdir/depotd" ./cmd/depotd
go build -o "$benchdir/lftop" ./cmd/lftop
"$benchdir/depotd" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 -tsdb-interval 100ms \
	-max-inflight 4 -max-queue 8 -max-queue-wait 200ms >"$benchdir/depotd.log" 2>&1 &
depot_pid=$!
teardown() {
	kill "$depot_pid" 2>/dev/null || true
	wait "$depot_pid" 2>/dev/null || true
}
smoke_fail() {
	echo "$1" >&2
	echo "--- depotd.log ---" >&2
	cat "$benchdir/depotd.log" >&2
	teardown
	exit 1
}
# The log parse only discovers the :0-bound port; readiness is gated on
# /readyz below, not on log lines.
maddr=""
i=0
while [ "$i" -lt 50 ]; do
	maddr=$(sed -n 's|.*metrics on http://\([^/]*\)/metrics.*|\1|p' "$benchdir/depotd.log")
	[ -n "$maddr" ] && break
	i=$((i + 1))
	sleep 0.1
done
[ -n "$maddr" ] || smoke_fail "depotd did not report a metrics address within 5s"
if ! "$benchdir/lftop" -wait-ready 5s -once -json "$maddr" >"$benchdir/lftop.json"; then
	smoke_fail "lftop -wait-ready -once -json failed against $maddr"
fi
grep -q '"endpoint"' "$benchdir/lftop.json" || smoke_fail "lftop smoke produced no target summary"
# The TSDB must retain a queryable range (>= 2 samples at -tsdb-interval
# 100ms) and /debug/alerts must serve parseable JSON.
sleep 0.5
series=$(curl -s "http://$maddr/debug/tsdb" | tr ',' '\n' | sed -n 's/.*"name": *"\([^"{]*\)".*/\1/p' | head -1)
[ -n "$series" ] || smoke_fail "/debug/tsdb index lists no unlabeled series"
npoints=$(curl -s "http://$maddr/debug/tsdb?name=$series&since=30s&agg=raw" | grep -c '"t":' || true)
[ "$npoints" -ge 2 ] || smoke_fail "/debug/tsdb range query for $series returned $npoints samples, want >= 2"
alerts=$(curl -s "http://$maddr/debug/alerts")
printf '%s' "$alerts" | grep -q '"firing"' || smoke_fail "/debug/alerts did not serve an alert summary: $alerts"
# The overload families are registered eagerly, so an idle depot with
# admission control configured must already expose them at zero.
metrics=$(curl -s "http://$maddr/metrics")
for name in ibp.shed ibp.server.inflight ibp.server.queue_depth; do
	printf '%s' "$metrics" | grep -q "\"$name" || smoke_fail "/metrics missing overload family $name"
done
# The runtime harvester registers its families eagerly too: the GC-pause
# series must show up in the TSDB index on an idle depot.
curl -s "http://$maddr/debug/tsdb" | grep -q '"runtime.go.gc.pause.ms"' \
	|| smoke_fail "/debug/tsdb does not list runtime.go.gc.pause.ms"
# The flight recorder must serve a parseable (empty) bundle index.
captures=$(curl -s "http://$maddr/debug/capture")
printf '%s' "$captures" | grep -q '"bundles"' \
	|| smoke_fail "/debug/capture did not serve a bundle index: $captures"
teardown

# A browse through a real lfedged (cold, then warm) is TestBinariesEndToEnd's.
echo "== lfedged smoke (serves, exports its counters, exits cleanly on SIGTERM)"
go build -o "$benchdir/lfedged" ./cmd/lfedged
"$benchdir/lfedged" -addr 127.0.0.1:0 -cache-bytes 33554432 -metrics-addr 127.0.0.1:0 \
	>"$benchdir/lfedged.log" 2>&1 &
edge_pid=$!
edge_teardown() {
	kill "$edge_pid" 2>/dev/null || true
	wait "$edge_pid" 2>/dev/null || true
}
edge_fail() {
	echo "$1" >&2
	echo "--- lfedged.log ---" >&2
	cat "$benchdir/lfedged.log" >&2
	edge_teardown
	exit 1
}
eaddr=""
emaddr=""
i=0
while [ "$i" -lt 50 ]; do
	eaddr=$(sed -n 's|.*serving IBP edge cache on \([^ ]*\).*|\1|p' "$benchdir/lfedged.log")
	emaddr=$(sed -n 's|.*metrics on http://\([^/]*\)/metrics.*|\1|p' "$benchdir/lfedged.log")
	[ -n "$eaddr" ] && [ -n "$emaddr" ] && break
	i=$((i + 1))
	sleep 0.1
done
[ -n "$eaddr" ] || edge_fail "lfedged did not report a serving address within 5s"
[ -n "$emaddr" ] || edge_fail "lfedged did not report a metrics address within 5s"
curl -s "http://$emaddr/metrics" | grep -q '"edge.hits"' \
	|| edge_fail "/metrics on lfedged has no edge.hits counter"
kill -TERM "$edge_pid"
wait "$edge_pid" 2>/dev/null || true
grep -q "shutting down" "$benchdir/lfedged.log" || edge_fail "lfedged did not shut down cleanly on SIGTERM"

echo "== fleet federation smoke (lboned + depots + publisher + steward -fleet-scrape)"
go build -o "$benchdir/lboned" ./cmd/lboned
go build -o "$benchdir/dvsd" ./cmd/dvsd
go build -o "$benchdir/lfserve" ./cmd/lfserve
go build -o "$benchdir/lfsteward" ./cmd/lfsteward
fleet_pids=""
fleet_teardown() {
	for pid in $fleet_pids; do
		kill "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	done
}
fleet_fail() {
	echo "$1" >&2
	for f in lboned dvsd depot1 depot2 lfserve lfsteward; do
		[ -s "$benchdir/$f.log" ] && { echo "--- $f.log ---" >&2; tail -20 "$benchdir/$f.log" >&2; }
	done
	fleet_teardown
	exit 1
}
# parse_addr <log> <sed-pattern>: poll a daemon's startup line for a
# :0-bound address for up to 5s.
parse_addr() {
	_out=""
	_i=0
	while [ "$_i" -lt 50 ]; do
		_out=$(sed -n "$2" "$benchdir/$1")
		[ -n "$_out" ] && break
		_i=$((_i + 1))
		sleep 0.1
	done
	printf '%s' "$_out"
}
"$benchdir/lboned" -addr 127.0.0.1:0 >"$benchdir/lboned.log" 2>&1 &
fleet_pids="$fleet_pids $!"
lbaddr=$(parse_addr lboned.log 's|.*serving directory on http://\([^ ]*\).*|\1|p')
[ -n "$lbaddr" ] || fleet_fail "lboned did not report a directory address"
"$benchdir/dvsd" -addr 127.0.0.1:0 >"$benchdir/dvsd.log" 2>&1 &
fleet_pids="$fleet_pids $!"
dvsaddr=$(parse_addr dvsd.log 's|.*serving DVS on \([^ ]*\).*|\1|p')
[ -n "$dvsaddr" ] || fleet_fail "dvsd did not report a serving address"
depotaddrs=""
for n in 1 2; do
	"$benchdir/depotd" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
		-lbone "http://$lbaddr" -heartbeat 1s >"$benchdir/depot$n.log" 2>&1 &
	fleet_pids="$fleet_pids $!"
	daddr=$(parse_addr "depot$n.log" 's|.*serving IBP on \([^ ]*\).*|\1|p')
	[ -n "$daddr" ] || fleet_fail "depot$n did not report a serving address"
	depotaddrs="$depotaddrs,$daddr"
done
depotaddrs=${depotaddrs#,}
# A tiny published database (8 view sets) so the steward has exNodes to
# manage and replica coverage to report.
"$benchdir/lfserve" -addr 127.0.0.1:0 -depots "$depotaddrs" -dvs "$dvsaddr" \
	-procedural -res 16 -step 45 -l 2 -replicas 2 \
	-lbone "http://$lbaddr" -metrics-addr 127.0.0.1:0 >"$benchdir/lfserve.log" 2>&1 &
fleet_pids="$fleet_pids $!"
published=$(parse_addr lfserve.log 's|.*published \([0-9]*\) view sets.*|\1|p')
[ -n "$published" ] || fleet_fail "lfserve did not publish the database"
"$benchdir/lfsteward" -dvs "$dvsaddr" -res 16 -step 45 -l 2 -replicas 2 \
	-lbone "http://$lbaddr" -interval 5s -fleet-scrape -fleet-interval 300ms \
	-metrics-addr 127.0.0.1:0 >"$benchdir/lfsteward.log" 2>&1 &
fleet_pids="$fleet_pids $!"
smaddr=$(parse_addr lfsteward.log 's|.*metrics on http://\([^/]*\)/metrics.*|\1|p')
[ -n "$smaddr" ] || fleet_fail "lfsteward did not report a metrics address"
# The matrix converges: two depots, the publisher agent, and the steward
# itself, all up.
up=0
i=0
while [ "$i" -lt 100 ]; do
	up=$(curl -s "http://$smaddr/debug/fleet" | grep -c '"state": *"up"' || true)
	[ "$up" -ge 4 ] && break
	i=$((i + 1))
	sleep 0.2
done
[ "$up" -ge 4 ] || fleet_fail "/debug/fleet shows $up members up, want >= 4 (2 depots + agent + steward)"
matrix=$(curl -s "http://$smaddr/debug/fleet")
printf '%s' "$matrix" | grep -q '"replica.coverage.min"' \
	|| fleet_fail "/debug/fleet aggregates missing replica.coverage.min: $matrix"
"$benchdir/lftop" -fleet -once "$smaddr" | grep -q 'node' \
	|| fleet_fail "lftop -fleet -once did not render the matrix header"
# One TSDB per process: the steward's own /debug/tsdb retains the fleet
# series and answers range queries, and there is no second store. The
# index is read once the store has sampled a fold: the matrix converges
# within one scrape pass, and the first sample after it may be up to one
# -tsdb-interval away.
covpoints=0
i=0
while [ "$i" -lt 50 ]; do
	covpoints=$(curl -s "http://$smaddr/debug/tsdb?name=fleet.replica.coverage.min&since=30s&agg=raw" | grep -c '"t":' || true)
	[ "$covpoints" -ge 2 ] && break
	i=$((i + 1))
	sleep 0.2
done
[ "$covpoints" -ge 2 ] || fleet_fail "/debug/tsdb coverage query returned $covpoints points, want >= 2"
curl -s "http://$smaddr/debug/tsdb" | grep -q '"fleet\.' \
	|| fleet_fail "/debug/tsdb index lists no fleet.* series"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$smaddr/debug/fleet/tsdb")
[ "$code" = 404 ] || fleet_fail "/debug/fleet/tsdb answered $code, want 404"
# The scraper's own accounting is on the steward's /metrics.
stewmetrics=$(curl -s "http://$smaddr/metrics")
for m in '"fleet.scrapes"' '"fleet.members{state=up}"'; do
	printf '%s' "$stewmetrics" | grep -qF "$m" \
		|| fleet_fail "the steward's /metrics has no $m"
done
# lftop's fleet mode reads the same surface.
if ! "$benchdir/lftop" -fleet -once -json "$smaddr" >"$benchdir/lftop_fleet.json"; then
	fleet_fail "lftop -fleet -once -json failed against $smaddr"
fi
grep -q '"members"' "$benchdir/lftop_fleet.json" \
	|| fleet_fail "lftop -fleet produced no member matrix"
fleet_teardown

echo "all checks passed"
