# Convenience targets; everything is plain `go` underneath.

.PHONY: all build lint vet shardgate offloadgate lifegate test bench bench-go figures quick-figures faults examples clean

all: build test

build:
	go build ./...

# Formatting and the standard go vet checks. The repo's own analyzer
# runs in `make vet`.
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: files need formatting:"; echo "$$fmt"; exit 1; fi
	go vet ./...

# fsvet, in one invocation: every static pass over the type-checked
# module, tests included (determinism, reachability, units, lock order
# and lock balance, charge accounting, handle escapes, the alloc budget,
# shard isolation, mailbox discipline, the TCP state machine), plus the
# three runtime cross-checks:
#   - lockdep: replays the experiment mix under runtime lockdep; an
#     observed lock-order edge the static graph missed fails;
#   - alloc: measures allocs/event on the macro web bench and on the
#     bulk bed with every NIC offload on, and allocs/op on the bare
#     engine, against the ceilings in .fsvet-allocbudget.json;
#   - fsm: replays the fsm experiment mix under the runtime transition
#     tracer; an observed transition with no static site, or < 90%
#     coverage of the spec's non-defensive edges, fails.
# Fails on any unbaselined finding. Refreshes the committed observed
# graphs (LOCKGRAPH_observed.json, FSMGRAPH_observed.json); both mixes
# are deterministic, so the files only move when behaviour does.
# Regenerate the alloc budget after deliberate changes with:
#   go run ./cmd/fsvet -write-allocbudget
# (ceilings, notes and corpus fixture entries are preserved).
FSVET = go run ./cmd/fsvet -root . -baseline .fsvet-baseline.json \
	-lockdep-cross-check -write-observed LOCKGRAPH_observed.json \
	-alloc-cross-check \
	-fsm-cross-check -write-fsmgraph FSMGRAPH_observed.json

vet:
	$(FSVET)

# Shard gate: the conservative-lookahead engine's equality suite under
# the race detector — engine unit tests (parallel == serial traces,
# deterministic Pending/Fired aggregation) plus the experiment digest
# suite (Figure 4/5, Table 1, loss sweep, overload ramp bit-identical
# between Shards=1 and Shards>1, with mailbox traffic asserted
# non-vacuous).
shardgate:
	go test -race ./internal/shard
	go test -race -run 'TestShardDigest' ./internal/experiment

# Offload gate: the NIC offload model's invariants. GRO merge boundary
# and IRQ-coalescing timer unit tests, the TSO fault-granularity
# equivalence (an armed fault plane draws identical per-MSS decisions
# whether or not the wire carries super-segments), and the offload
# digest suite under the race detector (legacy == sharded, offloads-off
# inert). The alloc ceiling with every offload on is `make vet`'s.
offloadgate:
	go test -run 'TestGRO|TestCoalesce' ./internal/kernel
	go test -run 'TestTSO' ./internal/app
	go test -race -run 'TestOffload|TestShardDigestOffload' ./internal/experiment

# Lifecycle gate: the host lifecycle plane's invariants. The app-layer
# crash/drain/restart suite under the race detector, then the fixed
# fsbench lifecycle scenarios with their built-in verdict enforcement
# (every scenario recovers to >=99% of baseline, a graceful drain
# aborts strictly fewer connections than a hard crash, a rolling
# restart never looks like an outage). Refreshes the committed
# BENCH_lifecycle.json — every value in it is simulated, so the file
# only moves when lifecycle behaviour does.
lifegate:
	go test -race -run 'TestLifecycle' ./internal/app
	go run ./cmd/fsbench lifecycle

test: lint vet lifegate
	go test ./...

# Full test run recorded to test_output.txt (what CI would archive).
test-record:
	go test -count=1 ./... 2>&1 | tee test_output.txt

# Benchmark the simulator engine itself and refresh the committed
# perf records: BENCH_simperf.json with events/sec, ns/event and
# allocs/event for a fixed macro run plus bare-loop schedule/fire and
# schedule/cancel churn, and BENCH_vet.json with fsvet's load, pass and
# cross-check seconds, finding and edge counts, and measured
# allocations. Diff the files across commits to see how engine and
# analyzer changes move. Wall-clock records are written only here.
bench:
	go run ./cmd/fsbench simperf
	$(FSVET) -bench-out BENCH_vet.json

# Any conventional go test benchmarks, archived to bench_output.txt.
bench-go:
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate every table and figure of the paper (minutes).
figures:
	go run ./cmd/fsbench all

quick-figures:
	go run ./cmd/fsbench -quick all

# Smoke-run the fault-injection experiments (loss sweep + overload
# ramp) with small windows; exercises the whole fault plane end to end.
faults:
	go run ./cmd/fsbench -quick losssweep overload
	go run ./cmd/fsbench -quick -faults loss=0.01,ring=256,allocfail=0.001 figure4a

examples:
	go run ./examples/quickstart
	go run ./examples/webserver -cores 8 -ms 50
	go run ./examples/proxy -cores 8 -ms 50
	go run ./examples/production -hour 10
	go run ./examples/attack

clean:
	rm -f test_output.txt bench_output.txt sim.pcap
