GO ?= go

.PHONY: ci build vet fmtcheck lint test race shard-equiv fabstore-equiv shard-speedup scale-smoke bench bench-smoke bench-diff examples-smoke fccperf-smoke fuzz-smoke

# ci is the tier-1 gate: build, vet, the invariant lint pass, the full
# suite under the race detector, the sharded-equivalence crown jewel
# under -race, a smoke run of every example binary, and the end-to-end
# benchmark's own tests (fccperf-smoke). Run it before
# every push. bench-smoke and fuzz-smoke ride along non-gating (the
# leading `-`): a crash in a benchmark or a new fuzz finding prints
# loudly but does not fail the gate, since timing noise and time-boxed
# searches must never block a merge.
ci: build vet lint race shard-equiv fabstore-equiv examples-smoke fccperf-smoke
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
# unit tests plus the serial-vs-sharded byte-identical-snapshot suite,
# run under the race detector with -count=1 so a cached pass never
# masks a fresh data race in the window-barrier machinery. The exp leg
# pins GOMAXPROCS=4 so the worker-barrier path actually runs (on a
# single-P runtime the coordinator falls back to sequential execution)
# and the race detector sees real cross-goroutine traffic.
shard-equiv:
	$(GO) test -race -count=1 -run 'Coordinator|Mailbox|Window' ./internal/sim/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSharded' ./internal/exp/

# fabstore-equiv gates the E11 macro-benchmark's determinism claim: the
# same seed must produce byte-identical stats snapshots whether FabStore
# runs on one engine or sharded across 4 failure domains, clean and
# under the fault plan, with zero unaccounted transactions — under the
# race detector, like shard-equiv.
fabstore-equiv:
	$(GO) test -race -count=1 -run 'TestFabStoreEquiv' ./internal/exp/

# bench runs every benchmark in the tree and records the perf
# trajectory as BENCH_<date>.json (events/sec, ns/op, allocs/op — see
# cmd/benchjson). Compare against the committed document from the
# previous PR before merging scheduler or flit-path changes.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -out BENCH_$$(date +%F).json

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
# fat-trees and a dragonfly, with the serial-vs-sharded and
# incremental-vs-full equivalence checks inline. Non-gating in ci
# (wall-clock noise must never block a merge), but any `false` in a
# match column is a determinism bug — report it.
scale-smoke:
	$(GO) run ./cmd/fccbench -exp scale -seed 1

# bench-smoke compiles and executes every benchmark for 100 iterations —
# just enough to catch panics and broken invariants, cheap enough for ci.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=100x ./... > /dev/null

# fuzz-smoke runs each native fuzz target for about 10 s, one go test
# -fuzz call per target, since -fuzz takes one target at a time: the
# flit codec against its bitwise and unpooled references, and the ladder
# engine against the heap executive. A finding is written to the
# package's testdata/fuzz, where plain `go test` replays it from then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCRC16$$' -fuzztime 10s ./internal/flit/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/flit/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s ./internal/sim/

# fccperf-smoke runs the end-to-end benchmark's own tests: every
# workload at 1/100 size with the zero-failure and same-seed-repeat
# checks, and TestLintClean. cmd/fccperf is a module of its own, so the
# root's `go test ./...` never builds it.
fccperf-smoke:
	cd cmd/fccperf && $(GO) test -count=1 ./...

# examples-smoke builds and runs every example end to end, then the two
# cmd tools that build clusters through fcc.New (fabtop with a traced
# read across three switches, fabsim at its defaults); each is a short
# deterministic simulation, so a non-zero exit is a real break.
examples-smoke:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done
	@echo "== cmd/fabtop"; $(GO) run ./cmd/fabtop -trace -switches 3 -fams 3 > /dev/null
	@echo "== cmd/fabsim"; $(GO) run ./cmd/fabsim > /dev/null
