.PHONY: all build test bench bench-full bench-json bench-check examples obs-smoke serve-smoke c10k-smoke chaos-smoke trace-smoke profile-smoke txn-smoke repl-smoke perfbench-smoke perf-pairs ci doc clean

# Sections that produce BENCH json rows (see bench/main.ml --json).
BENCH_JSON_SECTIONS = fig8a fig9 fig12 extra_skiplist shard_sweep txn
# Generous on purpose: CI-scale runs on a time-shared core are noisy;
# the gate catches collapses and census violations, not drift.
BENCH_THRESHOLD = 60
# The profiler-overhead gate is tight by design: default-rate sampling
# (97 Hz) must stay within this percentage of the profiler-off figure.
PROFILE_OVERHEAD_THRESHOLD = 5

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

bench-full:
	dune exec bench/main.exe -- --full

# Regenerate the committed machine-readable baseline (BENCH_PR7.json):
# one row per benchmark cell with throughput, latency percentiles, the
# final chain census and bytes-per-entry.  Schema: Harness.Bench_json.
bench-json:
	dune build bench/main.exe
	dune exec bench/main.exe -- --ci --label baseline \
	  --json BENCH_PR7.json $(BENCH_JSON_SECTIONS)

# Perf trajectory gate: rerun the same sections at the same scale and
# diff every committed baseline row; non-zero exit on regression or a
# missing row.
bench-check:
	dune build bench/main.exe bin/bench_diff.exe
	dune exec bench/main.exe -- --ci --label check \
	  --json /tmp/verlib_bench_current.json $(BENCH_JSON_SECTIONS)
	dune exec bin/bench_diff.exe -- BENCH_PR7.json \
	  /tmp/verlib_bench_current.json --threshold $(BENCH_THRESHOLD)

examples:
	dune exec examples/quickstart.exe
	dune exec examples/order_book.exe
	dune exec examples/ip_routes.exe
	dune exec examples/metrics_cut.exe

# End-to-end observability smoke: a short instrumented run through the
# CLI (with a chain census and the background census sampler on), then
# the exported stats JSON and Chrome trace validated by the test binary
# (the same alcotest cases `dune runtest` runs on freshly generated
# artefacts), and finally a zero-violation census check on every
# versioned structure.
obs-smoke:
	dune build bin/verlib_run.exe test/test_obs.exe
	dune exec bin/verlib_run.exe -- -d 0.2 -r 1 --stats=json \
	  --census --census-interval 0.05 \
	  --trace /tmp/verlib_trace.json > /tmp/verlib_stats.json
	OBS_SMOKE_TRACE=/tmp/verlib_trace.json \
	  OBS_SMOKE_STATS=/tmp/verlib_stats.json \
	  dune exec test/test_obs.exe -- test smoke
	@for s in dlist hashtable btree arttree skiplist sharded-btree:4; do \
	  echo "census check: $$s"; \
	  dune exec bin/verlib_run.exe -- -s $$s -n 500 -d 0.1 -r 1 \
	    --census --stats=json > /tmp/verlib_census_$$s.json || exit 1; \
	  grep -q '"census":{' /tmp/verlib_census_$$s.json \
	    || { echo "FAIL: no census block for $$s"; exit 1; }; \
	  if grep -Eq '"violations":[1-9][0-9]*\}' /tmp/verlib_census_$$s.json; then \
	    echo "FAIL: census violations for $$s"; exit 1; \
	  fi; \
	done
	@echo "obs-smoke: census clean on the versioned structures (incl. a sharded mount)"

# Wire-path smoke: boot verlib-serve on an ephemeral port, prove the
# snapshot invariant from concurrent client domains (bank mix: MULTI/EXEC
# transfers; every MGET/RANGE pair sum is exactly 2B, money conserved at
# quiescence), drive an opgen run and require a clean census in the
# served STATS, and check the SIGINT drain path flushes the final
# report with its census; then the bank and opgen runs again on a
# sharded mount.  Served throughput is perfbench's business (see
# perf-pairs below), not this target's.
serve-smoke:
	dune build bin/verlib_serve.exe bin/verlib_loadgen.exe
	@set -e; \
	./_build/default/bin/verlib_serve.exe -s btree -p 0 -t 6 \
	  --census-interval 0.1 --duration 120 --stats json \
	  > /tmp/verlib_serve_report.json 2>/tmp/verlib_serve.log & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	sleep 1; \
	port=$$(awk 'NR==1 && $$1=="PORT" {print $$2}' /tmp/verlib_serve_report.json); \
	test -n "$$port" || { echo "FAIL: server did not report a port"; exit 1; }; \
	echo "serve-smoke: server on port $$port"; \
	echo "serve-smoke: bank snapshot invariant (4 client domains)"; \
	./_build/default/bin/verlib_loadgen.exe --port $$port --mix bank \
	  -t 4 -d 1 --pairs 32; \
	echo "serve-smoke: opgen run + served census"; \
	./_build/default/bin/verlib_loadgen.exe --port $$port --ci \
	  -t 4 -p 8 -q multifind:8 -u 20 -d 1 \
	  --stats-out /tmp/verlib_serve_stats.json; \
	grep -q '"violations":0' /tmp/verlib_serve_stats.json \
	  || { echo "FAIL: census violations in served STATS"; exit 1; }; \
	kill -INT $$srv; \
	wait $$srv; \
	trap - EXIT; \
	grep -q 'draining' /tmp/verlib_serve.log \
	  || { echo "FAIL: server did not drain on SIGINT"; exit 1; }; \
	grep -q '"census":{' /tmp/verlib_serve_report.json \
	  || { echo "FAIL: no final census in the drained report"; exit 1; }; \
	echo "serve-smoke: sharded mount (sharded-btree:4): bank + opgen + census"; \
	./_build/default/bin/verlib_serve.exe -s sharded-btree:4 -p 0 -t 6 \
	  --census-interval 0.1 --duration 120 --stats json \
	  > /tmp/verlib_serve_sh_report.json 2>/tmp/verlib_serve_sh.log & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	sleep 1; \
	port=$$(awk 'NR==1 && $$1=="PORT" {print $$2}' /tmp/verlib_serve_sh_report.json); \
	test -n "$$port" || { echo "FAIL: sharded server did not report a port"; exit 1; }; \
	./_build/default/bin/verlib_loadgen.exe --port $$port --mix bank \
	  -t 4 -d 1 --pairs 32; \
	./_build/default/bin/verlib_loadgen.exe --port $$port --ci \
	  -t 4 -p 8 -q multifind:8 -u 20 -d 1 \
	  --stats-out /tmp/verlib_serve_sh_stats.json; \
	grep -q '"violations":0' /tmp/verlib_serve_sh_stats.json \
	  || { echo "FAIL: census violations in sharded served STATS"; exit 1; }; \
	kill -INT $$srv; \
	wait $$srv; \
	trap - EXIT; \
	grep -q 'draining' /tmp/verlib_serve_sh.log \
	  || { echo "FAIL: sharded server did not drain on SIGINT"; exit 1; }; \
	grep -q '"census":{' /tmp/verlib_serve_sh_report.json \
	  || { echo "FAIL: no final census in the sharded drained report"; exit 1; }; \
	echo "serve-smoke: OK"

# c10k gate (docs/ASYNC.md): four event loops hold thousands of
# mostly-idle connections while a pipelined hot set drives load — the
# posture the old serving core could never reach (select(2) dies past
# FD_SETSIZE=1024 fds; thread-per-connection capped concurrency at the
# domain count).  Asserts:
#   - every idle connection survives the run (the loadgen PINGs each at
#     open and again after the workload, exiting non-zero on any death);
#   - zero census violations under the c10k posture;
#   - the connections are balanced across the loops: STATS loop_conns
#     max - min <= 1;
#   - the queue-phase p99 stays bounded (the wait from the poll round
#     that saw a chunk to its inline execution);
#   - SIGINT drains gracefully and the final report shows zero
#     registered connections — no leaked fds.
# Needs ~2.2k fds: raise the soft ulimit if the hard limit allows.
C10K_IDLE = 2048
c10k-smoke:
	dune build bin/verlib_serve.exe bin/verlib_loadgen.exe
	@set -e; \
	ulimit -n 16384 2>/dev/null || true; \
	./_build/default/bin/verlib_serve.exe -s btree -p 0 -t 4 \
	  --census-interval 0.2 --duration 180 --stats json \
	  > /tmp/verlib_c10k_report.json 2>/tmp/verlib_c10k.log & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	sleep 1; \
	port=$$(awk 'NR==1 && $$1=="PORT" {print $$2}' /tmp/verlib_c10k_report.json); \
	test -n "$$port" || { echo "FAIL: server did not report a port"; exit 1; }; \
	echo "c10k-smoke: $(C10K_IDLE) idle conns + pipelined hot set on port $$port"; \
	./_build/default/bin/verlib_loadgen.exe --port $$port --ci \
	  --idle-conns $(C10K_IDLE) -t 4 -p 8 -q multifind:8 -u 20 -d 2 \
	  --stats-out /tmp/verlib_c10k_stats.json; \
	grep -q '"violations":0' /tmp/verlib_c10k_stats.json \
	  || { echo "FAIL: census violations under the c10k posture"; exit 1; }; \
	loops=$$(sed -n 's/.*"loop_conns":\[\([0-9,]*\)\].*/\1/p' \
	  /tmp/verlib_c10k_stats.json); \
	test -n "$$loops" || { echo "FAIL: no per-loop connection counts in STATS"; exit 1; }; \
	echo "$$loops" | awk -F, '{ mn = $$1; mx = $$1; \
	    for (i = 2; i <= NF; i++) { if ($$i < mn) mn = $$i; if ($$i > mx) mx = $$i } \
	    exit !(NF == 4 && mx - mn <= 1) }' \
	  || { echo "FAIL: connections unbalanced across the loops: $$loops"; exit 1; }; \
	echo "c10k-smoke: connections per loop $$loops"; \
	dwell=$$(sed -n 's/.*"phase_queue_cycles":{[^}]*"p99_us":\([0-9.]*\).*/\1/p' \
	  /tmp/verlib_c10k_stats.json); \
	test -n "$$dwell" || { echo "FAIL: no queue-phase histogram in STATS"; exit 1; }; \
	awk -v d="$$dwell" 'BEGIN { exit !(d+0 < 500000) }' \
	  || { echo "FAIL: queue-phase p99 $${dwell}us is unbounded"; exit 1; }; \
	echo "c10k-smoke: queue-phase p99 $${dwell}us"; \
	sleep 1; \
	kill -INT $$srv; \
	wait $$srv; \
	trap - EXIT; \
	grep -q 'draining' /tmp/verlib_c10k.log \
	  || { echo "FAIL: server did not drain on SIGINT"; exit 1; }; \
	grep -q '"connections_active":0' /tmp/verlib_c10k_report.json \
	  || { echo "FAIL: connections still registered after the drain"; exit 1; }; \
	echo "c10k-smoke: OK"

# Chaos gate (docs/RESILIENCE.md).  Three stanzas:
#   1. bin/verlib_soak: the bank mix against a live in-process server
#      while a named fault plan fires at the versioning core and the
#      wire; exits non-zero unless the final quiescent census is
#      violation-free, no domain is left parked, clients saw zero
#      errors, and money is conserved exactly.
#   2. Overload: a 1-loop server with admission control is overdriven
#      by 6 client domains — the loadgen must observe -BUSY sheds
#      (shed > 0) — and must then serve an untroubled follow-up run
#      (shed = 0, 0 errors): shedding engages and releases.
#   3. The loadgen's own --faults path: the bank invariant holds over a
#      flaky wire masked by the client retry layer.
#   4. --duration alone ends a server: a primary and a one-loop replica
#      following it each exit 0 by themselves within the timeout, and
#      print their final report with the quiescent census.
chaos-smoke:
	dune build bin/verlib_soak.exe bin/verlib_serve.exe bin/verlib_loadgen.exe
	@set -e; \
	for plan in crash-stop-locker flaky-wire stalled-reclaimer yield-storm; do \
	  echo "chaos-smoke: soak under $$plan"; \
	  ./_build/default/bin/verlib_soak.exe --plan $$plan --duration 1.5 --ci; \
	done; \
	echo "chaos-smoke: sharded soak (cross-shard snapshots under fire)"; \
	./_build/default/bin/verlib_soak.exe --plan crash-stop-locker \
	  -s sharded-btree:4 --duration 1.5 --ci; \
	./_build/default/bin/verlib_soak.exe --plan flaky-wire \
	  -s sharded-hashtable:2 --duration 1.5 --ci
	@set -e; \
	echo "chaos-smoke: overload shedding (1 loop, admission control)"; \
	./_build/default/bin/verlib_serve.exe -s btree -p 0 -t 1 \
	  --shed-queue 1 --retry-after-ms 1 --duration 120 --stats none \
	  > /tmp/verlib_shed_port.txt 2>/tmp/verlib_shed_srv.log & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	sleep 1; \
	port=$$(awk '$$1=="PORT"{print $$2}' /tmp/verlib_shed_port.txt); \
	test -n "$$port" || { echo "FAIL: server did not report a port"; exit 1; }; \
	./_build/default/bin/verlib_loadgen.exe --port $$port -t 6 -p 4 -u 20 \
	  -d 1.5 -n 2000 | tee /tmp/verlib_shed_over.txt; \
	grep -Eq 'shed=[1-9]' /tmp/verlib_shed_over.txt \
	  || { echo "FAIL: overdrive produced no -BUSY sheds"; exit 1; }; \
	./_build/default/bin/verlib_loadgen.exe --port $$port -t 1 -p 4 -u 20 \
	  -d 0.5 -n 2000 --no-fill | tee /tmp/verlib_shed_rec.txt; \
	grep -Eq 'shed=0' /tmp/verlib_shed_rec.txt \
	  || { echo "FAIL: server still shedding after the overdrive"; exit 1; }; \
	grep -Eq '0 errors' /tmp/verlib_shed_rec.txt \
	  || { echo "FAIL: errors after recovery"; exit 1; }; \
	echo "chaos-smoke: bank invariant over a flaky wire (loadgen --faults)"; \
	./_build/default/bin/verlib_loadgen.exe --port $$port --mix bank \
	  -t 4 -d 1 --pairs 16 --faults flaky-wire; \
	kill -INT $$srv; \
	wait $$srv; \
	trap - EXIT; \
	echo "chaos-smoke: --duration ends a primary and its replica"; \
	timeout 30 ./_build/default/bin/verlib_serve.exe -s btree -p 0 -t 2 \
	  --prefill 1000 --census-interval 0.2 --duration 1.5 --stats json \
	  > /tmp/verlib_dur_primary.json 2>/tmp/verlib_dur_primary.log & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	sleep 0.3; \
	port=$$(awk 'NR==1 && $$1=="PORT" {print $$2}' /tmp/verlib_dur_primary.json); \
	test -n "$$port" || { echo "FAIL: server did not report a port"; exit 1; }; \
	timeout 30 ./_build/default/bin/verlib_serve.exe -s btree -p 0 -t 1 \
	  --replica-of 127.0.0.1:$$port --census-interval 0.2 --duration 1 \
	  --stats json > /tmp/verlib_dur_replica.json 2>/tmp/verlib_dur_replica.log \
	  || { echo "FAIL: the replica did not exit 0 by itself at --duration"; exit 1; }; \
	wait $$srv \
	  || { echo "FAIL: the primary did not exit 0 by itself at --duration"; exit 1; }; \
	trap - EXIT; \
	for f in /tmp/verlib_dur_primary.json /tmp/verlib_dur_replica.json; do \
	  grep -q '"census":{' $$f \
	    || { echo "FAIL: no final census in $$f"; exit 1; }; \
	  grep -q '"violations":0' $$f \
	    || { echo "FAIL: census violations in $$f"; exit 1; }; \
	done; \
	grep -q '"size":1000' /tmp/verlib_dur_replica.json \
	  || { echo "FAIL: the replica did not bootstrap from its primary"; exit 1; }; \
	echo "chaos-smoke: OK"

# Observability gate (docs/OBSERVABILITY.md).  One server under a
# deterministic stall plan (a 30 ms pause at lock.acquire every 40th
# per-domain hit) with the full metrics plane armed — request tracing,
# METRICS sweeps, SLO watchdog, flight recorder — driven by a traced
# loadgen run.  Asserts the whole pipeline end to end:
#   - traced samples joined client-side, every phase decomposition
#     nesting inside its client-measured RTT (the loadgen exits non-zero
#     otherwise);
#   - the METRICS exposition parses under the strict line-format parser;
#   - the shutdown Chrome trace carries per-request span tracks;
#   - at least one flight dump was filed by the SLO watchdog naming the
#     injected [stall] phase, and the stall dominates a dump's span
#     aggregate — chaos shows up attributed, not as mystery latency.
# Artifacts (uploaded by CI): /tmp/verlib_req_trace.json,
# /tmp/verlib_trace_join.json, /tmp/verlib_metrics.txt, /tmp/verlib_flight/.
trace-smoke:
	dune build bin/verlib_serve.exe bin/verlib_loadgen.exe
	@set -e; \
	rm -rf /tmp/verlib_flight /tmp/verlib_req_trace.json; \
	./_build/default/bin/verlib_serve.exe -s sharded-btree:4 -p 0 -t 4 \
	  --census-interval 0.2 --metrics-interval 0.2 \
	  --flight-dir /tmp/verlib_flight --flight-min-interval 0 \
	  --slo-p99-us 5000 \
	  --faults 'lock.acquire:pause=30@every=40' \
	  --duration 120 --stats none --trace /tmp/verlib_req_trace.json \
	  > /tmp/verlib_trace_port.txt 2>/tmp/verlib_trace_srv.log & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	sleep 1; \
	port=$$(awk '$$1=="PORT"{print $$2}' /tmp/verlib_trace_port.txt); \
	test -n "$$port" || { echo "FAIL: server did not report a port"; exit 1; }; \
	echo "trace-smoke: traced opgen against the stalling server (port $$port)"; \
	./_build/default/bin/verlib_loadgen.exe --port $$port -t 2 -p 4 \
	  -n 1000 -u 30 -d 2 --trace-sample 7 \
	  --trace-out /tmp/verlib_trace_join.json \
	  --metrics-out /tmp/verlib_metrics.txt \
	  | tee /tmp/verlib_trace_out.txt; \
	grep -Eq 'trace: [1-9][0-9]* sample' /tmp/verlib_trace_out.txt \
	  || { echo "FAIL: no traced samples joined"; exit 1; }; \
	grep -Eq 'metrics: [0-9]+ sample\(s\) validated' /tmp/verlib_trace_out.txt \
	  || { echo "FAIL: METRICS exposition did not validate"; exit 1; }; \
	sleep 1; \
	kill -INT $$srv; \
	wait $$srv; \
	trap - EXIT; \
	grep -q 'requests-domain' /tmp/verlib_req_trace.json \
	  || { echo "FAIL: no request-span tracks in the Chrome trace"; exit 1; }; \
	ls /tmp/verlib_flight/flight-*.json >/dev/null 2>&1 \
	  || { echo "FAIL: no flight-recorder dumps"; exit 1; }; \
	grep -l '"slo_phase":"stall"' /tmp/verlib_flight/flight-*.json >/dev/null \
	  || { echo "FAIL: no slo-breach dump naming the injected stall phase"; exit 1; }; \
	grep -l '"dominant_phase":"stall"' /tmp/verlib_flight/flight-*.json >/dev/null \
	  || { echo "FAIL: injected stall dominates no dump's span aggregate"; exit 1; }; \
	echo "trace-smoke: OK ($$(ls /tmp/verlib_flight | wc -l) flight dump(s), join in /tmp/verlib_trace_join.json)"

# Profiling gate (docs/OBSERVABILITY.md, Profiling).  Two stanzas:
#   1. Convoy attribution: a blocking-locks sharded server under the
#      blocking-convoy preset (the first lock.acquire stalls holding the
#      lock until disarm) with the sampling profiler at 97 Hz.  Update
#      traffic on unfilled trees trips the stall at the btree root-slot
#      lock; --rt-attempts 1 stops the client retry layer from replaying
#      wedged requests onto fresh connections (each stuck connection
#      holds one of the 8 server loops; the free loops keep accepting
#      and the least-loaded handoff puts the dashboard on one of them),
#      and timeout -s KILL reaps the loadgen since its cooperative stop
#      waits on the wedged connections.  Workload health is chaos-smoke's
#      business; this gate only asserts the profiler SAW the convoy:
#      verlib_top --once must render from the live server, name the
#      convoyed site as the top contention entry and attribute >= 10% of
#      samples to it (PROFILE fetched and strictly parsed over the
#      wire), and the shutdown collapsed-stack export must be non-empty
#      and mention the site.
#   2. Overhead: a profiler-off and a 97 Hz server run side by side
#      (same mount, same loops) and the same opgen load drives them in
#      30 interleaved pairs of 3 s runs, alternating which side runs
#      first.  Each side's throughput is the loadgen's op count over
#      its elapsed time; the median of the per-pair on/off ratios must
#      stay within $(PROFILE_OVERHEAD_THRESHOLD)% of 1.  Host throughput
#      drifts by more than 5% within a minute on a small runner, so two
#      sequential blocks of runs measure the drift; a pair's two runs
#      share it, and the median discards the pairs a burst of
#      interference hit.  A single pair's ratio still spreads by ~10%
#      (2 vCPUs), so the median needs ~30 pairs to stay clear of the
#      bound when the true overhead is ~1% (EXPERIMENTS.md).
#      The sampled runs also exercise the loadgen's --profile-out
#      fetch+validate path.
# Artifacts (uploaded by CI): /tmp/verlib_profile_collapsed.txt,
# /tmp/verlib_profile.json, /tmp/verlib_top_once.txt.
profile-smoke:
	dune build bin/verlib_serve.exe bin/verlib_loadgen.exe \
	  bin/verlib_top.exe
	@set -e; \
	rm -f /tmp/verlib_profile_collapsed.txt /tmp/verlib_profile.json \
	  /tmp/verlib_top_once.txt; \
	./_build/default/bin/verlib_serve.exe -s sharded-btree:4 -p 0 -t 8 \
	  --locks blocking --faults blocking-convoy \
	  --profile-hz 97 --profile-out /tmp/verlib_profile_collapsed.txt \
	  --duration 120 --stats none \
	  > /tmp/verlib_profile_port.txt 2>/tmp/verlib_profile_srv.log & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	sleep 1; \
	port=$$(awk '$$1=="PORT"{print $$2}' /tmp/verlib_profile_port.txt); \
	test -n "$$port" || { echo "FAIL: server did not report a port"; exit 1; }; \
	echo "profile-smoke: convoy traffic against blocking locks (port $$port)"; \
	timeout -s KILL 15 ./_build/default/bin/verlib_loadgen.exe \
	  --port $$port --no-fill -t 3 -p 4 -u 100 -n 4000 -d 5 \
	  --rt-attempts 1 >/dev/null 2>&1 || true; \
	sleep 2; \
	echo "profile-smoke: verlib_top --once + convoy assertions"; \
	./_build/default/bin/verlib_top.exe -p $$port --once \
	  --expect-lock-site btree.rlock --expect-percent 10 \
	  | tee /tmp/verlib_top_once.txt; \
	kill -INT $$srv; \
	wait $$srv; \
	trap - EXIT; \
	test -s /tmp/verlib_profile_collapsed.txt \
	  || { echo "FAIL: collapsed-stack profile empty"; exit 1; }; \
	grep -q 'lock:btree.rlock' /tmp/verlib_profile_collapsed.txt \
	  || { echo "FAIL: convoyed site missing from collapsed stacks"; exit 1; }; \
	echo "profile-smoke: overhead gate (97 Hz sampling vs profiler off, 30 interleaved pairs)"; \
	./_build/default/bin/verlib_serve.exe -s sharded-btree:4 -p 0 -t 4 \
	  --census-interval 0.1 --duration 600 --stats none \
	  > /tmp/verlib_profoff_port.txt 2>/dev/null & \
	off=$$!; \
	./_build/default/bin/verlib_serve.exe -s sharded-btree:4 -p 0 -t 4 \
	  --census-interval 0.1 --profile-hz 97 --duration 600 --stats none \
	  > /tmp/verlib_profon_port.txt 2>/dev/null & \
	on=$$!; \
	trap 'kill $$off $$on 2>/dev/null || true' EXIT; \
	sleep 1; \
	offport=$$(awk '$$1=="PORT"{print $$2}' /tmp/verlib_profoff_port.txt); \
	onport=$$(awk '$$1=="PORT"{print $$2}' /tmp/verlib_profon_port.txt); \
	test -n "$$offport" -a -n "$$onport" \
	  || { echo "FAIL: an overhead server did not report a port"; exit 1; }; \
	opsps() { sed -n 's|^served: .* \([0-9.]*\)s .* (\([0-9]*\) ops,.*|\2 \1|p' "$$1" \
	  | awk '{ printf "%.0f", $$1 / $$2 }'; }; \
	rm -f /tmp/verlib_profile_ratios.txt; \
	for i in $$(seq 1 30); do \
	  if [ $$((i % 2)) -eq 1 ]; then order="off on"; else order="on off"; fi; \
	  for side in $$order; do \
	    if [ $$side = off ]; then port=$$offport; extra=; \
	    else port=$$onport; extra="--profile-out /tmp/verlib_profile.json"; fi; \
	    ./_build/default/bin/verlib_loadgen.exe --port $$port -t 4 -p 8 \
	      -n 1000 -q multifind:8 -u 20 -d 3 $$extra \
	      > /tmp/verlib_prof$${side}_$$i.log 2>&1; \
	  done; \
	  grep -q 'profile: snapshot validated' /tmp/verlib_profon_$$i.log \
	    || { echo "FAIL: PROFILE did not validate over the wire"; exit 1; }; \
	  offv=$$(opsps /tmp/verlib_profoff_$$i.log); \
	  onv=$$(opsps /tmp/verlib_profon_$$i.log); \
	  test -n "$$offv" -a -n "$$onv" \
	    || { echo "FAIL: pair $$i reported no throughput"; exit 1; }; \
	  awk -v a="$$onv" -v b="$$offv" 'BEGIN { printf "%.4f\n", a / b }' \
	    >> /tmp/verlib_profile_ratios.txt; \
	  echo "profile-smoke: pair $$i ($${order%% *} first): off $$offv ops/s, 97 Hz $$onv ops/s, ratio $$(tail -1 /tmp/verlib_profile_ratios.txt)"; \
	done; \
	kill -INT $$off $$on; \
	wait $$off $$on; \
	trap - EXIT; \
	med=$$(sort -g /tmp/verlib_profile_ratios.txt | awk '{ r[NR] = $$1 } \
	  END { m = (NR + 1) / 2; printf "%.4f", (r[int(m)] + r[int(m + 0.5)]) / 2 }'); \
	echo "profile-smoke: median on/off throughput ratio $$med over 30 pairs"; \
	awk -v m="$$med" 'BEGIN { exit !(m >= 1 - $(PROFILE_OVERHEAD_THRESHOLD) / 100) }' \
	  || { echo "FAIL: 97 Hz sampling costs more than $(PROFILE_OVERHEAD_THRESHOLD)% of throughput"; exit 1; }; \
	echo "profile-smoke: OK"

# Transactional end-to-end gate: a fault-armed server (abort-storm
# fires on the txn commit path) driven by the transactional bank mix
# over a flaky wire.  The loadgen itself exits non-zero on any
# violation, give-up or conservation failure (docs/TRANSACTIONS.md);
# on top of that we require that transactions actually committed and
# that the storm actually fired.  A second pass covers a sharded
# mount, where one transaction spans several shards.
txn-smoke:
	dune build bin/verlib_serve.exe bin/verlib_loadgen.exe
	@set -e; \
	for spec in btree sharded-btree:4; do \
	  echo "txn-smoke: $$spec under abort-storm + flaky-wire"; \
	  ./_build/default/bin/verlib_serve.exe -s $$spec -p 0 -t 6 \
	    --census-interval 0.1 --duration 120 --stats json \
	    --faults abort-storm \
	    > /tmp/verlib_txn_report.json 2>/tmp/verlib_txn.log & \
	  srv=$$!; \
	  trap 'kill $$srv 2>/dev/null || true' EXIT; \
	  sleep 1; \
	  port=$$(awk 'NR==1 && $$1=="PORT" {print $$2}' /tmp/verlib_txn_report.json); \
	  test -n "$$port" || { echo "FAIL: server did not report a port"; exit 1; }; \
	  ./_build/default/bin/verlib_loadgen.exe --port $$port --mix bank \
	    -t 4 -d 1.5 --pairs 16 --faults flaky-wire \
	    | tee /tmp/verlib_txn_bank.out; \
	  grep -q 'txn: commits=' /tmp/verlib_txn_bank.out \
	    || { echo "FAIL: no txn gauges in the bank report"; exit 1; }; \
	  grep -Eq 'txn: commits=[1-9]' /tmp/verlib_txn_bank.out \
	    || { echo "FAIL: no transactions committed"; exit 1; }; \
	  kill -INT $$srv; \
	  wait $$srv; \
	  trap - EXIT; \
	  grep -q '"faults_fired":[1-9]' /tmp/verlib_txn_report.json \
	    || { echo "FAIL: abort-storm never fired on the server"; exit 1; }; \
	done; \
	echo "txn-smoke: OK"

# Replication end-to-end gate: an in-process primary/replica pair runs
# the bank mix while the split-brain-window plan partitions the change
# feed and duplicates records.  The soak binary itself demands the full
# divergence arc — lag gauges RISE under the partition, drain to zero
# after the heal (the replica redials and re-SYNCs), the replica's
# ledger balances exactly at the healed watermark, and both sides
# finish with zero census violations (docs/REPLICATION.md).  It writes
# no benchmark rows: perfbench's txn-feed, which runs a live replica,
# is the replication benchmark (make perf-pairs).
repl-smoke:
	dune build bin/verlib_soak.exe
	@set -e; \
	./_build/default/bin/verlib_soak.exe --repl --ci \
	  2>&1 | tee /tmp/verlib_repl_smoke.log; \
	grep -q 'soak(repl): OK' /tmp/verlib_repl_smoke.log \
	  || { echo "FAIL: replication soak did not pass"; exit 1; }; \
	grep -Eq 'divergence: max_lag=[1-9]' /tmp/verlib_repl_smoke.log \
	  || { echo "FAIL: no divergence observed under the partition"; exit 1; }; \
	echo "repl-smoke: OK"

# Served-path benchmark gate: one short run of each perfbench workload
# (perfbench/run.py builds the server and its load client from source).
# The client checks every reply against a model of the store and exits
# non-zero on the first wrong answer; the figures are not gated here.
PERFBENCH_WORKLOADS = kv-point kv-scan txn-feed

perfbench-smoke:
	@set -e; \
	for w in $(PERFBENCH_WORKLOADS); do \
	  echo "perfbench-smoke: $$w"; \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
	    --trace 0 > /tmp/verlib_perfbench_$$w.json; \
	  grep -q '"correct": true' /tmp/verlib_perfbench_$$w.json \
	    || { echo "FAIL: $$w replies failed the model check"; exit 1; }; \
	done; \
	echo "perfbench-smoke: OK"

# The served regression gate: interleaved A/B pairs of each perfbench
# workload in W, BASE's committed files (exported under $$TMPDIR)
# against the working tree, alternating which side runs first.  Prints
# per-metric medians, the base's IQR, wins out of N and the spread-rule
# verdict (bench/pairs.py).  Exits 1 when any workload fails a check,
# fails an operation, or regresses past a BENCHMARK.json bound; else 3
# when a metric is unresolved (the base's IQR is wider than its bound,
# so the pairs cannot tell; pairs.py names them); else 0.  E.g.
#   make perf-pairs W="kv-point kv-scan txn-feed" N=10 BASE=HEAD~1
# N below 10 is refused: the spread rule needs at least ten pairs.
W ?= txn-feed
SEED ?= 1
N ?= 10
BASE ?= HEAD
perf-pairs:
	@rc=0; \
	for w in $(W); do \
	  python3 bench/pairs.py --workload $$w --seed $(SEED) --pairs $(N) \
	    --base $(BASE) || { c=$$?; test $$rc = 1 || rc=$$c; }; \
	done; \
	exit $$rc

# Everything the CI workflow (.github/workflows/ci.yml) runs, callable
# locally: full build, the test suites, the perf-trajectory gate at
# --ci scale, the observability gate, the profiling gate, the
# transactional end-to-end gate, the replication chaos gate, the c10k
# gate, the chaos gate (whose overload stanza is the end-to-end
# shedding check) and the served-path benchmark gate.  The heavier
# smoke targets (serve-smoke, obs-smoke) stay opt-in.
ci: build test examples bench-check trace-smoke profile-smoke txn-smoke repl-smoke c10k-smoke chaos-smoke perfbench-smoke

doc:
	dune build @doc

clean:
	dune clean
