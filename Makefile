GO ?= go

.PHONY: build test verify live bench bench-scale bench-live bench-compare faults e12 e13 trace soak soak-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: build, formatting, vet, tests, and the race
# detector. Any file gofmt would rewrite fails the build. staticcheck runs
# when installed (no network fetch in the gate); any finding fails the
# build.
verify:
	$(GO) build ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) soak-smoke

# live runs the E-series parity scenarios over real UDP loopback sockets
# (segue mid-stream, seeded impairment) under the race detector, plus the
# udpnet lifecycle stress tests: the sim and live runs of each scenario must
# deliver byte-identical streams with zero data loss.
live:
	$(GO) test -race -count=1 -v -run 'TestLive' ./internal/experiment/
	$(GO) test -race -count=1 ./internal/udpnet/ ./internal/impair/

# faults runs the deterministic sweeps twice each and verifies the runs are
# byte-identical: the E9 fault-injection sweep (which also compares UNITES
# snapshots of two same-seed runs) and the E10 scale soak (sharded kernels +
# batched delivery, including the batched-vs-per-packet A/B equivalence).
faults:
	./scripts/faults_e9.sh
	./scripts/scale_e10.sh

# e12 is the cross-host migration gate: the E12 experiment run twice and
# byte-compared, the adaptivectl handoff in both environments (sim + UDP
# loopback, each gating exact delivery and stale-epoch fencing), and the
# targeted migration test suites under the race detector.
e12:
	./scripts/e12_migrate.sh

# e13 is the bandwidth-arbiter gate: the shared-bottleneck experiment run
# twice and byte-compared (fairness, isochronous latency, and goodput gates
# inside), the allocation-free grant-path benchmark, and the targeted
# arbiter test suites under the race detector.
e13:
	./scripts/e13_arbiter.sh

# bench runs the data-path micro-benchmarks (packet codec, message pool,
# netsim forwarding, sim kernel) 5 times with allocation stats and writes
# the raw output plus a JSON summary to BENCH_datapath.json.
bench:
	./scripts/bench_datapath.sh

# bench-scale runs the E10 many-session soak benchmark and writes
# BENCH_scale.json (pkts/s, events/pkt, ns/pkt, allocs/pkt per soak size,
# with go version / GOMAXPROCS / CPU metadata).
bench-scale:
	./scripts/bench_scale.sh

# bench-live runs the E11 live line-rate blast over UDP loopback in both
# provider configurations (per-packet vs batched recvmmsg/sendmmsg) and
# writes BENCH_live.json. The script gates A/B within the run: batched
# must reach >= 2x the per-packet packet rate and hold allocs/pkt < 1.0.
bench-live:
	./scripts/bench_live.sh

# bench-compare diffs freshly generated BENCH_*.json against the committed
# baselines under scripts/baseline/ and fails on time or allocation
# regressions (TIME_THRESHOLD / ALLOC_THRESHOLD override the percent gates).
bench-compare:
	./scripts/bench_compare.sh

# trace flight-records the E3 policy-segue run, renders it to Chrome
# trace-event JSON (load TRACE_e3.json in chrome://tracing or
# ui.perfetto.dev), and prints the per-kind summary. 1/16 sampling keeps the
# whole 10-minute run inside the ring, so the segue markers survive.
trace:
	$(GO) run ./cmd/adaptivetrace -record e3 -sample 16 -o TRACE_e3.trace
	$(GO) run ./cmd/adaptivetrace -chrome TRACE_e3.json -spans TRACE_e3.trace
	$(GO) run ./cmd/adaptivetrace -summary TRACE_e3.trace

# soak is the live-observability leak gate: a long observed E10 soak served
# as a real process (adaptivebench -soak), scraped over HTTP and tailed by a
# separate adaptivetrace process, gating on RSS growth, result-fingerprint
# drift (p999 included), dropped trace chunks, and tail-vs-archive trace
# identity. SESSIONS/ITERS scale it (defaults 1000 x 10).
soak:
	./scripts/soak_e10.sh

# soak-smoke is the verify-sized variant: the same end-to-end loop (serve,
# scrape, tail, diff) at a size that finishes in seconds. It is the
# endpoint's smoke test, not a leak gate.
soak-smoke:
	SESSIONS=100 ITERS=2 PREFIX=SMOKE_ ./scripts/soak_e10.sh

clean:
	rm -f BENCH_* FAULTS_* TRACE_* SOAK_* SMOKE_* results_all.txt
	rm -rf bin
