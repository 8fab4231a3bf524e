#!/bin/sh
# Full verify sweep: build everything, vet everything, run all tests under
# the race detector. ROADMAP.md's tier-1 gate is the build+test subset; this
# script is the stricter local pre-commit check.
set -eux
cd "$(dirname "$0")/.."
go build ./...
# Platforms without timerfd build clock.Dozer's time.Sleep fallback.
GOOS=darwin GOARCH=arm64 go build ./...
GOOS=windows go build ./...
go vet ./...
# A paced source dozes on a timerfd the netpoller waits on (clock.Dozer), not
# in a raw nanosleep: that holds its thread and P through the doze, and
# bcast_remote sat fell 23 % (4.29 M → 3.29 M tuples/s, 2 vCPUs) with the
# source sleeping that way.
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'Nanosleep' .; then
	echo "a nanosleep outside tests (see above)" >&2
	exit 1
fi
# The kernel timer has one home.
if grep -rn --include='*.go' --exclude-dir=.bench_build 'SYS_TIMERFD' . | grep -v '^\./internal/clock/'; then
	echo "SYS_TIMERFD outside internal/clock (see above)" >&2
	exit 1
fi
# The tuple path waits in Transport.Recv and in bounded ring enqueues, never
# in a sleep-poll: the one time.Sleep allowed in the worker loop and the
# tunnel is the chaos Slow hook in Worker.execute.
if grep -n 'time\.Sleep' internal/core/tunnel.go internal/worker/worker.go |
	grep -v 'worker.go:.*time\.Sleep(time\.Duration(ns))$'; then
	echo "time.Sleep on the tuple path (see above)" >&2
	exit 1
fi
# The worker loop pays per batch, not per tuple: the functions every tuple
# passes through read no wall clock and take no lock or select. What is time-
# or visibility-driven (real clock read, tally publication, the 2·D flush
# gate) lives in Worker.onTick, called once per coarse-clock tick. An acked
# source stamps its trees with the clock read before each spout Next, so
# EmitOn reads no clock either.
no_per_tuple() { # FILE RECEIVER NAME PATTERN
	if ! sed -n "/^func ($2) $3(/,/^}/p" "$1" | grep -q .; then
		echo "$1: no func ($2) $3; update the hot-path guard" >&2
		exit 1
	fi
	if sed -n "/^func ($2) $3(/,/^}/p" "$1" | grep -nE "$4"; then
		echo "$1: func ($2) $3 does per tuple what the loop pays per batch (see above)" >&2
		exit 1
	fi
}
per_tuple='time\.Now|time\.Since|\.Lock\(\)|select \{'
no_per_tuple internal/worker/worker.go 'w \*Worker' execute "$per_tuple"
no_per_tuple internal/worker/worker.go 'w \*Worker' dispatch "$per_tuple"
no_per_tuple internal/worker/sdntransport.go 't \*SDNTransport' Send "$per_tuple"
no_per_tuple internal/worker/sdntransport.go 't \*SDNTransport' Recv "$per_tuple"
no_per_tuple internal/worker/router.go 'r \*Router' routeInto "$per_tuple"
no_per_tuple internal/worker/worker.go 'w \*Worker' EmitOn "$per_tuple"
no_per_tuple internal/switchfabric/switch.go 's \*Switch' processBatch "$per_tuple"
# A controller frame has one way into a worker: Inject puts every frame the
# controller sends into the port's control lane, so deliver never looks at a
# refused frame's source; each egress ring counts the frames offered to it,
# so the port keeps no tx tallies of its own and the ring no dequeue tally;
# and the transport reads the lane before serving tuples it has decoded.
if ! grep -q '^func (s \*Switch) deliver(' internal/switchfabric/switch.go ||
	sed -n '/^func (s \*Switch) deliver(/,/^}/p' internal/switchfabric/switch.go | grep -n 'PeekAddrs' ||
	grep -nwE 'controlLaneCapacity|txPackets|txBytes|txDropped' internal/switchfabric/*.go ||
	grep -niw 'dequeued' internal/ring/*.go ||
	! sed -n '/^func (t \*SDNTransport) Recv(/,/^}/p' internal/worker/sdntransport.go |
		awk '/ReadControl\(/ && !lane {lane = NR} /t\.inQueue\[:/ {serve = NR}
			END {exit !(lane && serve && lane < serve)}'; then
	echo "a second way in for controller frames, an egress tally besides the rings', or a Recv that serves decoded data before the control lane (see above)" >&2
	exit 1
fi
# A staged tuple never waits out a timer: the worker loop flushes before it
# blocks, so no wait is cut to the flush deadline (capWait) and worker.go arms
# a timer only for the rate-limit wait (awaitToken) and run's Hang hook.
if grep -n 'capWait' $(ls internal/worker/*.go | grep -v '_test\.go$') ||
	awk '/^func /{fn=$0} /time\.(NewTimer|After)\(/{print FILENAME":"FNR": "fn" ... "$0}' internal/worker/worker.go |
	grep -v -e 'awaitToken() .*time\.NewTimer(d)' -e 'run() .*time\.After(time\.Duration(w\.hangNs'; then
	echo "internal/worker: a timer that could hold staged tuples (see above)" >&2
	exit 1
fi
# A paced source waits between due tuples in one place, its doze, and spends
# no poll budget first: with due tuples a few µs apart a spin never ran out,
# and its clock reads were most of a paced source's CPU.
if [ "$(grep -c 'doze\.Sleep(' internal/worker/worker.go)" != 1 ] ||
	grep -n 'idleSpin' internal/worker/worker.go; then
	echo "internal/worker/worker.go: want exactly one doze.Sleep( and no idleSpin (see above)" >&2
	exit 1
fi
# One flow cache, one classifier, one select-group path, one way to
# configure the switch: the microflow cache fronts one ordered rule list, and
# a select group binary-searches its cumulative weights (no slot table).
if grep -inE 'megaflow|Disable[A-Za-z]*Cache|Without[A-Za-z]*Cache|optionFunc|subTable|maskedKey|flowKey|maxWRRSlots' \
	$(ls internal/switchfabric/*.go | grep -v '_test\.go$'); then
	echo "internal/switchfabric grew a second flow cache, classifier, group path or option idiom (see above)" >&2
	exit 1
fi
# One switch attachment, one mastership machine: a lone controller is a
# replicated set of one, so no second agent, sink setter or standalone mode.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'OFAgent|MultiAgent|ConnectSwitchMulti|SetController|replicated\(\)|assertRole' .; then
	echo "a second controller attachment or a standalone mode (see above)" >&2
	exit 1
fi
# One way to build an acker tuple: k records of [kind, root, xor, src], built
# by the worker's ackTuple, through which sendAck routes a record and
# sendAckBatch sends a batch. (bench/ is benchmark-owned; its acker probe
# feeds single-record tuples, the k = 1 case.)
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build --exclude-dir=bench \
	'OnStream(tuple\.AckStream' . | grep -v '^\./internal/worker/worker\.go:' ||
	awk '/^func /{fn=$0} /OnStream\(tuple\.AckStream/{print FILENAME":"FNR": "fn}' internal/worker/worker.go |
	grep -v ': func ackTuple('; then
	echo "an acker tuple built outside the worker's ackTuple (see above)" >&2
	exit 1
fi
# A tuple is encoded where it leaves and decoded where it lies: no encode
# scratch and no buffer made between a tuple and its frame, in either
# direction (stage and decodeFrame are Send's and Recv's per-tuple halves).
for fn in Send stage Recv decodeFrame; do
	no_per_tuple internal/worker/sdntransport.go 't \*SDNTransport' "$fn" 'make\(|encScratch'
done
# One place computes a latency percentile: metrics.Histogram.Quantile
# (bench/ is benchmark-owned and keeps its own).
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'^func (\([^)]*\) )?[A-Za-z0-9_]*uantile' . |
	grep -v -e '^\./internal/metrics/' -e '^\./bench/'; then
	echo "a quantile function outside internal/metrics (see above)" >&2
	exit 1
fi
# One place polls worker statistics and one place decodes them: the app
# host (workerstats.go). The updater's drain barrier is the one other user
# of METRIC_REQ/METRIC_RESP; apps read Controller.WorkerStats.
if grep -n 'KindMetricReq\|control\.MetricResp' internal/controller/*.go |
	grep -v -e '_test\.go:' -e '/workerstats\.go:' -e '/updater\.go:'; then
	echo "METRIC_REQ/METRIC_RESP handled outside workerstats.go and updater.go (see above)" >&2
	exit 1
fi
# Statistics leave a worker only when asked: sendMetrics has one caller,
# handleControl's METRIC_REQ case, and no push interval remains. The worker's
# framework layer is the only code that reads a control tuple (the transport
# takes a decoded batch size), and /api/v1/top reads cached rows without
# triggering a sweep.
metric_calls=$(awk '/^func /{fn=$0; cs=""} /^\tcase /{cs=$0}
	/sendMetrics\(/ && !/^func \([^)]*\) sendMetrics\(/{print FILENAME ":" FNR ": " fn " / " cs}' \
	$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'))
if [ "$(printf '%s\n' "$metric_calls" | grep -c .)" != 1 ] ||
	! printf '%s\n' "$metric_calls" | grep -q 'handleControl(.*/.*case control\.KindMetricReq:'; then
	printf '%s\n' "$metric_calls" >&2
	echo "sendMetrics called other than once, from handleControl's METRIC_REQ case (see above)" >&2
	exit 1
fi
if grep -rn 'StatsInterval' internal/worker internal/agent ||
	grep -rn 'Reconfigure' internal/worker internal/storm ||
	awk '/^type ServerOptions struct/{in_opts=1} in_opts && /^}/{in_opts=0}
		in_opts && /^[[:space:]]+Poll[[:space:]]/{print FILENAME ":" FNR ": " $0; found=1} END{exit !found}' \
		internal/observe/server.go; then
	echo "a statistics push, a transport that parses control tuples, or a /top poll hook (see above)" >&2
	exit 1
fi
# The control plane waits on coordinator events (coordinator.Await) and the
# updater's one exchange loop, not on a clock: no condition poll in the
# controller or the manager, and no timer in the manager's readiness wait.
if grep -nE 'awaitCond|pollInterval' $(ls internal/controller/*.go internal/manager/*.go | grep -v '_test\.go$') ||
	grep -n 'time\.After(' internal/manager/manager.go; then
	echo "a polling wait in the control plane (see above)" >&2
	exit 1
fi
# One way to configure a cluster: NewCluster takes one Config, and no option
# type or With* wrapper (nor an alias of one) stands in front of its fields.
if grep -nE '^type Option\b|^[[:space:]]+Option[[:space:]]+=|optionFunc|^func (\([^)]*\) )?With|^[[:space:]]+With[A-Z][A-Za-z]*[[:space:]]+=' \
	typhoon.go $(ls internal/core/*.go | grep -v '_test\.go$'); then
	echo "a second way to configure a cluster (see above)" >&2
	exit 1
fi
# One door into a running cluster: typhoon-ctl speaks only /api/v1 through
# internal/apiclient — no coordinator connection, no second streaming
# manager, no sockets or ad-hoc HTTP of its own — and the coordinator has no
# wire protocol to speak to (its remote access is that API).
if grep -rnE '"typhoon/internal/(coordinator|manager|paths)"|^[[:space:]]*"net"$|http\.(Get|Post|Client|NewRequest)' cmd/typhoon-ctl/; then
	echo "typhoon-ctl must go through internal/apiclient (see above)" >&2
	exit 1
fi
if grep -nE '^[[:space:]]*"(net|encoding/gob)"$' internal/coordinator/*.go; then
	echo "internal/coordinator is in-process: no listener, no wire codec (see above)" >&2
	exit 1
fi
# One program per paper result: the figure harness is typhoon-bench's alone.
# An example is a program of its own (Fig 14 is examples/yahoo-ads) and takes
# what it shares with a runner from internal/workload.
if grep -rln --include='*.go' --exclude-dir=.bench_build '"typhoon/internal/experiments"' . |
	grep -v '^\./cmd/typhoon-bench/'; then
	echo "only cmd/typhoon-bench imports internal/experiments (see above)" >&2
	exit 1
fi
go test -race ./...
# bench/ is a module of its own, so ./... above does not see it; a signature
# change must not break the benchmark unnoticed.
(cd bench && go vet ./... && go test -short ./...)
# Short fuzz smoke over the wire-format decoders (-fuzz takes one package
# at a time). Failures land reproducer files under testdata/fuzz/.
go test -fuzz '^FuzzDecode$' -fuzztime 5s -run '^FuzzDecode$' ./internal/openflow/
go test -fuzz '^FuzzDecode$' -fuzztime 5s -run '^FuzzDecode$' ./internal/packet/
go test -fuzz '^FuzzDecodeBatch$' -fuzztime 5s -run '^FuzzDecodeBatch$' ./internal/tuple/
# The receive path's one-pass frame walk against packet.Decode + tuple.Decode.
go test -fuzz '^FuzzFrameToTuples$' -fuzztime 5s -run '^FuzzFrameToTuples$' ./internal/worker/
# The tunnel's length-prefixed stream framing.
go test -fuzz '^FuzzTunnelFrame$' -fuzztime 5s -run '^FuzzTunnelFrame$' ./internal/core/
go test -fuzz '^FuzzDecodeControl$' -fuzztime 5s -run '^FuzzDecodeControl$' ./internal/control/
# Ack tuples arrive off the wire: any field count or kind, against a
# one-record-at-a-time reference.
go test -fuzz '^FuzzAckerExecute$' -fuzztime 5s -run '^FuzzAckerExecute$' ./internal/ack/
# COMPLETE tuples arrive off the wire too: any length or root, against the
# source's slab of live trees.
go test -fuzz '^FuzzHandleComplete$' -fuzztime 5s -run '^FuzzHandleComplete$' ./internal/worker/
# The JSON bodies /api/v1 takes off the socket: scenario specs, and chaos
# specs (a plan's events are the same Spec, decoded and validated alike).
go test -fuzz '^FuzzParseSpec$' -fuzztime 5s -run '^FuzzParseSpec$' ./internal/scenario/
go test -fuzz '^FuzzDecodePlan$' -fuzztime 5s -run '^FuzzDecodePlan$' ./internal/chaos/
