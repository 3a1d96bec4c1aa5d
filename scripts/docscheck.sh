#!/bin/sh
# Docs audit: the operator docs must not drift from the source.
#
#  1. Every command-line flag defined in cmd/*/main.go or in the daemon
#     harness (internal/daemon) must appear in docs/OPERATIONS.md as
#     `-flagname`; and the other way, every flag row of docs/OPERATIONS.md
#     must name a defined flag — under a "### N. `cmd`" heading, one of
#     cmd's own or the harness's, anywhere else any command's.
#  2. Every metric family and span name declared in
#     internal/obs/names.go must appear in docs/OBSERVABILITY.md; and the
#     other way, every row of the client agent, server agent, edge cache
#     and steward tables there must name a names.go constant or a key the
#     component's RegisterMetrics publishes.
#  3. Every HTTP endpoint the obs mux serves (including the SLO stack's
#     extra handlers) must appear in docs/OBSERVABILITY.md.
#  4. Every wire verb in a service's verb table, every IBP error code, and the
#     optional request-line tokens must appear in docs/PROTOCOL.md — it
#     claims to be the authoritative protocol reference, so it must not
#     drift from the dispatch code.
#  5. Every /debug/* endpoint registered anywhere under internal/obs
#     (including the flight recorder's /debug/capture routes) and every
#     runtime.* family in names.go must appear in docs/OBSERVABILITY.md.
#  6. The fleet federation surface must be documented: every fleet.*
#     family in names.go, the /debug/fleet endpoint, and every built-in
#     fleet SLO rule name in internal/obs/slo must appear in
#     docs/OBSERVABILITY.md, and the rule names in the
#     docs/OPERATIONS.md runbook too. The retired second fleet TSDB
#     endpoint may be named by no doc and no non-test Go file.
#  7. One client transport: outside internal/wire, no non-test file of a
#     package that speaks a line protocol as a client reads replies off a
#     connection itself (a bufio.Reader) or appends the optional tokens
#     (obs.LineTokens). DESIGN.md §10 lists what lives only in wire.Client.
#  8. One miss path: the non-test files of internal/agent call
#     lors.DownloadInto once, lors.Download never, and open the
#     agent.getviewset span in one place (DESIGN.md §10, "One fetch
#     flight": every entry point reaches the same flight).
#  9. One harness: no non-test file under cmd/ calls slo.Start, signal.Notify,
#     obs.ConfigureDefaultLogger or overload.NewGate, or defines any of
#     the six observability flags or the three admission flags — they
#     live once, in internal/daemon (DESIGN.md, "One daemon harness").
# 10. Every signal names its reader: each metric family in
#     internal/obs/names.go, each endpoint, built-in SLO rule, lftop pane
#     and capture-bundle file is the first cell of a row of a
#     docs/OBSERVABILITY.md table whose last column is "Read by", and
#     every reader that column names exists: a rule name in
#     internal/obs/slo/rules.go, a Test function, an OPERATIONS.md heading
#     whose section names the row, a code symbol, a row of the lftop pane
#     table, or a BENCHMARK.json column (docs/OBSERVABILITY.md, "Every
#     signal names its reader").
set -eu

cd "$(dirname "$0")/.."

fail=0

echo "== flags vs docs/OPERATIONS.md"
# A definition is flag.X("name" in a main, or fs.X(&v, "name" / d.fs.X("name"
# in the harness.
defined_flags() {
	grep -hoE '(flag|fs)\.[A-Z][A-Za-z0-9]*\((&[^,]+, *)?"[^"]+"' "$@" | sed 's/.*"\([^"]*\)"$/\1/' | sort -u
}
for src in cmd/*/main.go internal/daemon/daemon.go; do
	owner=$(basename "$(dirname "$src")")
	flags=$(defined_flags "$src")
	for f in $flags; do
		if ! grep -qE -- "(^|[\`| ])-$f(\`|,| |\$)" docs/OPERATIONS.md; then
			echo "MISSING: flag -$f of $owner not documented in docs/OPERATIONS.md" >&2
			fail=1
		fi
	done
done
nharness=$(grep -cE 'fs\.[A-Z][A-Za-z0-9]*\((&[^,]+, *)?"' internal/daemon/daemon.go)
[ "$nharness" -ge 10 ] || { echo "docscheck: extracted only $nharness flags from internal/daemon, want >= 10" >&2; exit 1; }
# The other way: one "<owner> <flag>" line per flag named in the first cell
# of a table row, owner "-" outside a command's section.
rows=$(awk '
	/^### [0-9]+\. `[a-z]+`/ { split($0, h, "`"); owner = h[2]; next }
	/^##? / { owner = "" }
	/^\| `-/ {
		split($0, cell, "|")
		s = cell[2]
		while (match(s, /`-[a-z0-9-]+`/)) {
			print (owner == "" ? "-" : owner), substr(s, RSTART + 2, RLENGTH - 3)
			s = substr(s, RSTART + RLENGTH)
		}
	}' docs/OPERATIONS.md)
nrows=$(printf '%s\n' "$rows" | grep -c .)
[ "$nrows" -ge 70 ] || { echo "docscheck: extracted only $nrows flag rows from docs/OPERATIONS.md, want >= 70" >&2; exit 1; }
anyflags=$(defined_flags cmd/*/main.go internal/daemon/daemon.go)
while read -r owner f; do
	if [ "$owner" = "-" ]; then
		known=$anyflags
		who="any command"
	else
		known=$(defined_flags "cmd/$owner/main.go" internal/daemon/daemon.go)
		who=$owner
	fi
	if ! printf '%s\n' "$known" | grep -qxF -- "$f"; then
		echo "STALE: docs/OPERATIONS.md documents -$f, which $who does not define" >&2
		fail=1
	fi
done <<EOF
$rows
EOF

echo "== metric names vs docs/OBSERVABILITY.md"
names=$(grep -oE '= "[a-z][a-z0-9._]+"' internal/obs/names.go | sed 's/= "\(.*\)"/\1/' | sort -u)
for n in $names; do
	if ! grep -qF -- "$n" docs/OBSERVABILITY.md; then
		echo "MISSING: metric/span name $n not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done

# published_keys <go files>: the names RegisterMetrics publishes — each key
# literal of its snapshot maps under the RegisterSnapshot prefix above it.
published_keys() {
	awk '
		/^func .*RegisterMetrics\(/ { on = 1; next }
		on && /^}/ { on = 0; prefix = "" }
		on && match($0, /RegisterSnapshot\("[a-z_.]+"/) {
			prefix = substr($0, RSTART + 18, RLENGTH - 19)
			next
		}
		on && prefix != "" {
			s = $0
			while (match(s, /"[a-z_.]+"/)) {
				print prefix "." substr(s, RSTART + 1, RLENGTH - 2)
				s = substr(s, RSTART + RLENGTH)
			}
		}' "$@"
}
# A trailing <placeholder> in a row (edge.hot.<viewset>) stands for a key
# completed at scrape time.
for table in "Client agent:internal/agent/clientagent.go" \
	"Server agent:internal/agent/serveragent.go" \
	"Edge cache:internal/edge/edge.go" \
	"Steward:internal/steward/steward.go internal/steward/hotset.go"; do
	title=${table%%:*}
	keys=$(published_keys ${table#*:})
	rows=$(awk -v t="### $title " '
		index($0, t) == 1 { on = 1; next }
		/^##/ { on = 0 }
		on && /^\| `/ { split($0, c, "`"); print c[2] }' docs/OBSERVABILITY.md)
	nrows=$(printf '%s\n' "$rows" | grep -c .)
	[ "$nrows" -ge 4 ] || { echo "docscheck: extracted only $nrows rows from the $title table of docs/OBSERVABILITY.md, want >= 4" >&2; exit 1; }
	for r in $rows; do
		if ! printf '%s\n' "$names" "$keys" | grep -qxF -- "${r%<*>}"; then
			echo "STALE: the $title table of docs/OBSERVABILITY.md names $r, neither a names.go name nor a key its RegisterMetrics publishes" >&2
			fail=1
		fi
	done
done

echo "== HTTP endpoints vs docs/OBSERVABILITY.md"
endpoints=$({ grep -hE 'mux\.Handle' internal/obs/http.go | grep -oE '"/[a-z0-9/]+"' || true
	grep -oE '"/[a-z0-9/]+"' internal/obs/slo/stack.go || true
} | tr -d '"' | sed 's|^/debug/pprof/.*|/debug/pprof/|' | sort -u)
for e in $endpoints; do
	if ! grep -qF -- "$e" docs/OBSERVABILITY.md; then
		echo "MISSING: endpoint $e not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done

echo "== wire verbs, error codes, and tokens vs docs/PROTOCOL.md"
# Verbs are collected from the verb tables the five services hand to
# internal/wire (one "VERB": entry a line), so adding a verb without
# documenting it fails here. There are
# 18 today; extracting fewer means this pattern no longer matches the code.
verbs=$(grep -hoE '^[[:space:]]*"[A-Z]+":[[:space:]]' \
	internal/ibp/server.go internal/edge/server.go internal/dvs/dvs.go \
	internal/agent/serveragent.go internal/agent/remote.go \
	| grep -oE '[A-Z]+' | sort -u)
nverbs=$(echo "$verbs" | grep -c .)
[ "$nverbs" -ge 18 ] || { echo "docscheck: extracted only $nverbs wire verbs from the verb tables, want >= 18" >&2; exit 1; }
for v in $verbs; do
	if ! grep -qE "(^|[\`| ])$v(\`| |\$)" docs/PROTOCOL.md; then
		echo "MISSING: wire verb $v not documented in docs/PROTOCOL.md" >&2
		fail=1
	fi
done
codes=$(sed -n 's/^\tcode[A-Za-z]* *= *"\([A-Z]*\)"$/\1/p' internal/ibp/proto.go | sort -u)
[ -n "$codes" ] || { echo "docscheck: extracted no IBP error codes" >&2; exit 1; }
for c in $codes; do
	if ! grep -qF -- "\`$c\`" docs/PROTOCOL.md; then
		echo "MISSING: IBP error code $c not documented in docs/PROTOCOL.md" >&2
		fail=1
	fi
done
for tok in tag= deadline= trace=; do
	if ! grep -qF -- "$tok" docs/PROTOCOL.md; then
		echo "MISSING: request-line token $tok not documented in docs/PROTOCOL.md" >&2
		fail=1
	fi
done

echo "== debug endpoints and runtime families vs docs/OBSERVABILITY.md"
# Audit #3 reads only the mux registrations; this sweep catches every
# /debug/* path string anywhere in internal/obs (handlers that route by
# prefix, like the flight recorder's /debug/capture, included).
# Tests probe deliberately-bogus paths (404 cases), so only non-test
# sources define the documented surface.
debugeps=$(grep -rhoE --exclude='*_test.go' '"/debug/[a-z0-9/]*"' internal/obs \
	| tr -d '"' | sed 's|^/debug/pprof/.*|/debug/pprof/|' | sed 's|/$||' | sort -u)
[ -n "$debugeps" ] || { echo "docscheck: extracted no /debug endpoints" >&2; exit 1; }
for e in $debugeps; do
	if ! grep -qF -- "$e" docs/OBSERVABILITY.md; then
		echo "MISSING: debug endpoint $e not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done
runtimefams=$(grep -oE '= "runtime\.[a-z0-9._]+"' internal/obs/names.go | sed 's/= "\(.*\)"/\1/' | sort -u)
[ -n "$runtimefams" ] || { echo "docscheck: extracted no runtime.* families from names.go" >&2; exit 1; }
for n in $runtimefams; do
	if ! grep -qF -- "$n" docs/OBSERVABILITY.md; then
		echo "MISSING: runtime family $n not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done

echo "== fleet federation surface vs docs"
fleetfams=$(grep -oE '= "fleet\.[a-z0-9._]+"' internal/obs/names.go | sed 's/= "\(.*\)"/\1/' | sort -u)
[ -n "$fleetfams" ] || { echo "docscheck: extracted no fleet.* families from names.go" >&2; exit 1; }
for n in $fleetfams; do
	if ! grep -qF -- "$n" docs/OBSERVABILITY.md; then
		echo "MISSING: fleet family $n not documented in docs/OBSERVABILITY.md" >&2
		fail=1
	fi
done
if ! grep -qF -- /debug/fleet docs/OBSERVABILITY.md; then
	echo "MISSING: fleet endpoint /debug/fleet not documented in docs/OBSERVABILITY.md" >&2
	fail=1
fi
# The fleet's history lives in the host's one /debug/tsdb.
stale=$({ grep -rlF --include='*.go' --exclude='*_test.go' /debug/fleet/tsdb . || true
	grep -lF /debug/fleet/tsdb README.md DESIGN.md docs/*.md || true; })
if [ -n "$stale" ]; then
	echo "STALE: /debug/fleet/tsdb is gone (the fleet series are in /debug/tsdb), but these still name it:" >&2
	echo "$stale" >&2
	fail=1
fi
# Built-in fleet rule names come from the FleetDefaultRules source, so
# renaming a rule without updating the alert docs fails here.
fleetrules=$(grep -hoE 'Name: *"fleet-[a-z-]+"' internal/obs/slo/*.go | grep -oE '"fleet-[a-z-]+"' | tr -d '"' | sort -u)
[ -n "$fleetrules" ] || { echo "docscheck: extracted no fleet rule names from internal/obs/slo" >&2; exit 1; }
for r in $fleetrules; do
	for doc in docs/OBSERVABILITY.md docs/OPERATIONS.md; do
		if ! grep -qF -- "$r" "$doc"; then
			echo "MISSING: fleet rule $r not documented in $doc" >&2
			fail=1
		fi
	done
done

echo "== one client transport (DESIGN.md §10)"
strays=$(grep -rnE --include='*.go' --exclude='*_test.go' 'bufio\.NewReader|obs\.LineTokens' \
	internal/ibp internal/dvs internal/agent internal/edge internal/lors internal/steward || true)
if [ -n "$strays" ]; then
	echo "STRAY: a line-protocol client outside internal/wire reads replies or appends tokens itself:" >&2
	echo "$strays" >&2
	fail=1
fi

echo "== one miss path (DESIGN.md §10)"
agentsrc=$(ls internal/agent/*.go | grep -v '_test\.go$')
count_in_agent() { cat $agentsrc | grep -v '^[[:space:]]*//' | grep -oE -- "$1" | wc -l; }
for want in '1 lors\.DownloadInto\(' '0 lors\.Download\(' '1 StartSpan\([^)]*obs\.SpanGetViewSet\)'; do
	n=$(count_in_agent "${want#* }")
	if [ "$n" -ne "${want%% *}" ]; then
		echo "STRAY: internal/agent has $n occurrences of ${want#* }, want ${want%% *}: a second miss path?" >&2
		fail=1
	fi
done

echo "== one harness (DESIGN.md, \"One daemon harness\")"
strays=$(grep -nE 'slo\.Start\(|signal\.Notify|obs\.ConfigureDefaultLogger\(|overload\.NewGate\(|flag\.[A-Z][A-Za-z0-9]*\((&[^,]+, *)?"(metrics-addr|slo-config|prof-rates|tsdb-interval|log-level|log-format|max-inflight|max-queue|max-queue-wait)"' \
	cmd/*/*.go | grep -v '_test\.go:' | grep -v 'flag\.Lookup(' || true)
if [ -n "$strays" ]; then
	echo "STRAY: a main wires what internal/daemon owns:" >&2
	echo "$strays" >&2
	fail=1
fi

echo "== every signal names its reader (docs/OBSERVABILITY.md)"
# One "<key><TAB><read-by cell>" line per row of a table whose last header
# cell is "Read by". Splitting on "|" breaks the middle cells that hold an
# escaped "\|", never the first or the last.
readrows=$(awk -F'|' '
	/^\|/ && $(NF-1) ~ /^ *Read by *$/ { on = 1; next }
	on && /^\|---/ { next }
	on && /^\|/ { k = $2; sub(/^[^`]*`/, "", k); sub(/`.*/, "", k); print k "\t" $(NF-1); next }
	{ on = 0 }' docs/OBSERVABILITY.md)
nread=$(printf '%s\n' "$readrows" | grep -c .)
[ "$nread" -ge 140 ] || { echo "docscheck: extracted only $nread Read-by rows from docs/OBSERVABILITY.md, want >= 140" >&2; exit 1; }
panes=$(awk -F'|' '
	/^\| Pane \|/ { on = 1; next }
	on && /^\|---/ { next }
	on && /^\|/ { k = $2; sub(/^[^`]*`/, "", k); sub(/`.*/, "", k); print k; next }
	{ on = 0 }' docs/OBSERVABILITY.md)
[ -n "$panes" ] || { echo "docscheck: extracted no lftop panes from docs/OBSERVABILITY.md" >&2; exit 1; }
lftopsrc=$(ls cmd/lftop/*.go | grep -v '_test\.go$')
# runbook_names <heading> <key>: OPERATIONS.md has the heading (#'s and
# backticks aside), and its section, up to the next heading, names key.
runbook_names() {
	awk -v h="$1" -v k="$2" '
		/^```/ { fence = !fence }
		!fence && /^#+ / { t = $0; sub(/^#+ /, "", t); gsub(/`/, "", t); on = (t == h); if (on) seen = 1; next }
		on && index($0, k) { found = 1 }
		END { exit !(seen && found) }' docs/OPERATIONS.md
}
# code_defines <pkg>.<Name>: a non-test file of a directory named pkg under
# internal/ or cmd/ declares Name (func, method, type, var or const).
code_defines() {
	pkg=${1%%.*}
	sym=${1#*.}
	for dir in $(find internal cmd -type d -name "$pkg"); do
		if ls "$dir"/*.go | grep -v '_test\.go$' | xargs grep -qE "^(func (\([^)]*\) )?$sym[[(]|type $sym |var $sym |const $sym |[[:space:]]+$sym +=)"; then
			return 0
		fi
	done
	return 1
}
while IFS='	' read -r key cell; do
	readers=$(printf '%s' "$cell" | grep -oE '`[a-z]+:[^`]+`' | tr -d '`' || true)
	if [ -z "$readers" ]; then
		echo "UNREAD: docs/OBSERVABILITY.md row $key names no reader" >&2
		fail=1
		continue
	fi
	while read -r r; do
		kind=${r%%:*}
		what=${r#*:}
		case $kind in
		rule) grep -qE "Name: *\"$what\"" internal/obs/slo/rules.go ;;
		test) grep -rqE "^func $what\(" --include='*_test.go' . ;;
		runbook) runbook_names "$what" "$key" ;;
		code) code_defines "$what" ;;
		pane) printf '%s\n' "$panes" | grep -qxF -- "$what" && cat $lftopsrc | grep -qF -- "$what" ;;
		bench) grep -qF "\"name\": \"$what\"" BENCHMARK.json ;;
		*) false ;;
		esac || {
			echo "UNREAD: docs/OBSERVABILITY.md row $key names reader $r, which does not exist (or whose runbook section does not name $key)" >&2
			fail=1
		}
	done <<READERS
$readers
READERS
done <<ROWS
$readrows
ROWS
readkeys=$(printf '%s\n' "$readrows" | cut -f1 | sed 's|/$||')
# must_read <what> <names>: every name is the key of a Read-by row.
must_read() {
	for n in $2; do
		if ! printf '%s\n' "$readkeys" | grep -qxF -- "${n%/}"; then
			echo "UNREAD: $1 $n has no Read-by row in docs/OBSERVABILITY.md" >&2
			fail=1
		fi
	done
}
must_read "metric family" "$(grep -oE '^	M[A-Za-z0-9]+ += "[^"]+"' internal/obs/names.go | sed 's/.*"\(.*\)"/\1/')"
must_read "endpoint" "$endpoints $debugeps /debug/fleet"
must_read "built-in rule" "$(grep -oE 'Name: *"[a-z0-9-]+"' internal/obs/slo/rules.go | grep -oE '"[^"]+"' | tr -d '"')"
bundlefiles=$(grep -oE 'snap\("[^"]+"|Files\["[^"]+"\]' internal/obs/prof/recorder.go | grep -oE '"[^"]+"' | tr -d '"' | sort -u)
[ -n "$bundlefiles" ] || { echo "docscheck: extracted no capture-bundle files from internal/obs/prof/recorder.go" >&2; exit 1; }
must_read "capture-bundle file" "$bundlefiles"
while read -r pane; do
	if ! cat $lftopsrc | grep -qF -- "$pane"; then
		echo "STALE: docs/OBSERVABILITY.md documents lftop pane $pane, which cmd/lftop does not draw" >&2
		fail=1
	fi
done <<PANES
$panes
PANES

if [ "$fail" -ne 0 ]; then
	echo "docs audit failed" >&2
	exit 1
fi
echo "docs audit passed"
