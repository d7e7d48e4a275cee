GO ?= go

.PHONY: ci build vet fmtcheck lint test race shard-equiv fabstore-equiv fccbench-smoke shard-speedup scale-smoke bench bench-smoke bench-diff examples-smoke fccperf-smoke fuzz-smoke loc

# ci is the tier-1 gate: build, vet, the invariant lint pass, the full
# suite under the race detector, the sharded-equivalence crown jewel
# under -race, fccbench's own verdicts on every experiment
# (fccbench-smoke), a smoke run of every example binary, and the
# end-to-end benchmark's own tests (fccperf-smoke). Run it before
# every push. bench-smoke and fuzz-smoke ride along non-gating (the
# leading `-`): a crash in a benchmark or a new fuzz finding prints
# loudly but does not fail the gate, since timing noise and time-boxed
# searches must never block a merge.
ci: build vet lint race shard-equiv fabstore-equiv fccbench-smoke examples-smoke fccperf-smoke
	-@$(MAKE) --no-print-directory bench-smoke || echo "bench-smoke FAILED (non-gating)"
	-@$(MAKE) --no-print-directory fuzz-smoke || echo "fuzz-smoke FAILED (non-gating)"
	-@$(MAKE) --no-print-directory shard-speedup || echo "shard-speedup FAILED (non-gating)"
	-@$(MAKE) --no-print-directory scale-smoke || echo "scale-smoke FAILED (non-gating)"
	-@$(MAKE) --no-print-directory bench-diff || echo "bench-diff FAILED (non-gating)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmtcheck fails if any file drifts from gofmt, listing the offenders.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt drift in:"; echo "$$out"; exit 1; fi

# lint is the determinism/engine-invariant gate: gofmt drift, go vet,
# and fcclint's analyzers (detban, maporder, procblock, errcmp,
# hotpath, concban, plus the interprocedural detflow, poolref and
# tiesort — see DESIGN.md "Simulator invariants"). -timing prints the
# load/analyze wall time and the per-analyzer breakdown on stderr, so a
# slow analyzer shows up in every CI log. fcclint also runs standalone:
#   go run ./cmd/fcclint ./...            # plain
#   go run ./cmd/fcclint -json ./...      # machine-readable findings
lint: fmtcheck vet
	$(GO) run ./cmd/fcclint -timing ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# shard-equiv is the parallel-determinism gate: the coordinator/mailbox
# unit tests, the cross-shard link tests, plus the serial-vs-sharded
# byte-identical-snapshot suite, run under the race detector with
# -count=1 so a cached pass never masks a fresh data race in the
# window-barrier machinery. The link and exp legs pin GOMAXPROCS=4 so
# the worker-barrier path actually runs (on a single-P runtime the
# coordinator falls back to sequential execution) and the race detector
# sees real cross-goroutine traffic — for the link leg, wire messages
# handed back to their sender's engine through the barrier.
shard-equiv:
	$(GO) test -race -count=1 -run 'Coordinator|Mailbox|Window' ./internal/sim/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestCross' ./internal/link/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSharded' ./internal/exp/

# fabstore-equiv gates the E11 macro-benchmark's determinism claim: the
# same seed must produce byte-identical stats snapshots whether FabStore
# runs on one engine or sharded across 4 failure domains, clean and
# under the fault plan, with zero unaccounted transactions — under the
# race detector, like shard-equiv.
fabstore-equiv:
	$(GO) test -race -count=1 -run 'TestFabStoreEquiv' ./internal/exp/

# fccbench-smoke runs every experiment twice and gates on fccbench's own
# verdicts: the two -json documents must be byte-identical, and neither
# may hold a false. Every boolean in the document is a verdict (match,
# ring_match, ring_fault_match, fault_match, shard_match, deterministic,
# verified, AllCorrect, RecoveredOK), so a false is a failed check.
fccbench-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/fccbench -exp all -json "$$dir/a.json" > /dev/null && \
	$(GO) run ./cmd/fccbench -exp all -json "$$dir/b.json" > /dev/null && \
	cmp "$$dir/a.json" "$$dir/b.json" && \
	if grep -nw false "$$dir/a.json" "$$dir/b.json"; then \
		echo "fccbench-smoke: a verdict above is false"; exit 1; fi

# bench runs every benchmark in the tree and records the perf
# trajectory as BENCH_<date>.json (events/sec, ns/op, allocs/op — see
# cmd/benchjson), or as BENCH_<date>b.json … z when that day already has
# one: benchjson never replaces a document. Compare against the
# committed document from the previous PR before merging scheduler or
# flit-path changes.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson

# bench-diff compares the two most recent committed BENCH_<date>.json
# documents (ns/op and allocs/op deltas; see cmd/benchdiff). It rides
# along in ci non-gating — wall-clock noise must never block a merge —
# but a REGRESSED line in its output is worth reading before pushing.
bench-diff:
	@$(GO) run ./cmd/benchdiff

# shard-speedup smoke-runs E12, the multi-pod scaling experiment: wall
# clock at 1/2/4/8 shards with the serial-vs-sharded equivalence check
# inline. Non-gating in ci (timing noise must never block a merge), but
# a `match false` line in its output is a determinism bug — report it.
shard-speedup:
	$(GO) run ./cmd/fccbench -exp shard-speedup -seed 1

# scale-smoke runs E13, the datacenter-scale sweep: boot and
# route-repair wall clock plus steady-state events/sec on generated
# fat-trees and a dragonfly, with the serial-vs-sharded equivalence
# check inline. Non-gating in ci (wall-clock noise must never block a
# merge), but any `false` in a match column is a determinism bug —
# report it.
scale-smoke:
	$(GO) run ./cmd/fccbench -exp scale -seed 1

# bench-smoke compiles and executes every benchmark for 100 iterations —
# just enough to catch panics and broken invariants, cheap enough for ci.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=100x ./... > /dev/null

# fuzz-smoke runs each native fuzz target for about 10 s, one go test
# -fuzz call per target, since -fuzz takes one target at a time: the
# flit codec against its bitwise and unpooled references, the ladder
# engine and a one-shard coordinator (every serial cluster's run path)
# against the heap executive, sim.Queue against a resliced-slice FIFO,
# the host address map against its sorting reference, and txn's four
# request forms (RequestRetry, the completion form RequestFn, the
# blocking form RequestP and the plain Request) against an independent
# reference initiator with its own tag table, window and timers.
# A finding is written to the package's testdata/fuzz, where plain
# `go test` replays it from then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCRC16$$' -fuzztime 10s ./internal/flit/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/flit/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzQueue$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzAddrMap$$' -fuzztime 10s ./internal/host/
	$(GO) test -run '^$$' -fuzz '^FuzzRequestRetry$$' -fuzztime 10s ./internal/txn/

# fccperf-smoke runs the end-to-end benchmark's own tests: every
# workload at 1/100 size with the zero-failure and same-seed-repeat
# checks, and TestLintClean. cmd/fccperf is a module of its own, so the
# root's `go test ./...` never builds it.
fccperf-smoke:
	cd cmd/fccperf && $(GO) test -count=1 ./...

# examples-smoke builds and runs every example end to end, then the two
# cmd tools that build clusters through fcc.New (fabtop with a traced
# read across three switches, fabsim at its defaults); each is a short
# deterministic simulation, so a non-zero exit is a real break. Each
# runs twice, and the two stdouts must be byte-identical (cmp), as
# fccbench-smoke requires of fccbench's documents.
examples-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	twice() { echo "== $$*"; $(GO) run "$$@" > "$$dir/a" && $(GO) run "$$@" > "$$dir/b" && \
		cmp "$$dir/a" "$$dir/b"; } && \
	for d in examples/*/; do twice ./$$d || exit 1; done && \
	twice ./cmd/fabtop -trace -switches 3 -fams 3 && \
	twice ./cmd/fabsim

# loc prints the count of non-test Go lines outside cmd/fccperf (the
# benchmark), testdata, .bench_build and .git: the size a simplification
# reports before and after. Not part of ci; it gates nothing.
loc:
	@find . \( -path ./.git -o -path ./.bench_build -o -path ./cmd/fccperf -o -name testdata \) -prune \
		-o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
