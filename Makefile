# Local targets mirror .github/workflows/ci.yml step for step, so "it
# passes locally" and "it passes in CI" mean the same thing.

GO ?= go
# BENCHTIME feeds -benchtime for the bench-json artifact; CI overrides it
# to 1x so the benchmarks smoke-run on every push without burning minutes.
BENCHTIME ?= 1s
# BENCH_PATTERN/BENCH_PKGS select the benchmarks the BENCH_sched.json
# artifact records: scheduler scaling, virtid contention, checkpoint
# capture (full vs incremental image bytes), the collective drain
# planner (overlapping vs serialised collectives) and fleet throughput
# (complete simulations per second; its runs/sec metric gates
# higher-is-better in bench-check), the storage pipeline (checkpoint
# commit under each profile; max-write-ns records the staging win over
# the contended PFS) and the compression pay-off sweep (CPU charged vs
# bytes saved across per-byte costs), and the content-hash layer (page
# hash MB/s; copy-free live fingerprint with one dirty page per op).
BENCH_PATTERN ?= BenchmarkScheduler|BenchmarkVirtid|BenchmarkCheckpointCapture|BenchmarkSnapshotUpperHalf|BenchmarkOverlapDrain|BenchmarkFleetThroughput|BenchmarkRestartFallback|BenchmarkCheckpointCommit|BenchmarkCompressionPayoff|BenchmarkPageHash|BenchmarkFingerprintUpperHalf
BENCH_PKGS ?= ./internal/coordinator ./internal/virtid ./internal/rank ./internal/memsim ./internal/fleet
# MAX_REGRESS is bench-check's tolerated ns/op regression vs the
# committed artifact (0.30 = 30%); CI loosens it because -benchtime=1x
# timings are noise — only staleness and order-of-magnitude regressions
# gate there.
MAX_REGRESS ?= 0.30

.PHONY: all build test race lint fmt loc perfbench-test bench bench-sched bench-virtid bench-fleet bench-json bench-check run smoke smoke-matrix smoke-sweep smoke-faults

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# perfbench-test runs the whole-job benchmark's own tests (64-rank jobs of
# every workload, including its memoised-vs-memo-free fingerprint gate).
# perfbench is a separate module, so `go test ./...` at the root skips it.
perfbench-test:
	cd perfbench && $(GO) test -count=1 ./...

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi
	$(GO) run ./cmd/isolint

fmt:
	gofmt -w .

# loc prints the root module's non-test Go line count (perfbench/ is a
# separate module; .bench_build/ holds its build output), the size
# figure ROADMAP.md tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' \
		-not -path './.bench_build/*' -not -path './.git/*' -print0 | \
		xargs -0 cat | wc -l

# bench runs every benchmark, including the scheduler-scaling set
# (BenchmarkScheduler{64,512,4096,65536}Ranks in internal/coordinator;
# the 65536-rank variants run serial and island-parallel).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-sched runs only the event-scheduler scaling benchmarks.
bench-sched:
	$(GO) test -bench='BenchmarkScheduler' -benchmem -run=^$$ ./internal/coordinator

# bench-fleet runs the multi-run engine benchmarks: complete simulations
# per second at pool widths 1/4/8, plus allocs/run warm vs cold.
bench-fleet:
	$(GO) test -bench='BenchmarkFleetThroughput' -benchmem -run=^$$ ./internal/fleet

# bench-virtid runs the handle-virtualisation contention benchmarks:
# MutexTable vs ShardedTable at 1/4/16 goroutines, plus request churn.
bench-virtid:
	$(GO) test -bench='BenchmarkVirtid' -benchmem -run=^$$ ./internal/virtid

# bench-json regenerates BENCH_sched.json, the machine-readable record of
# the scheduler, virtid and checkpoint-capture benchmarks (name, ns/op,
# allocs/op, events, image-bytes) that tracks the perf trajectory across
# PRs. The bench output goes through a temp file, not a pipe, so a
# benchmark failure fails the target instead of writing a silently
# truncated artifact.
bench-json:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem \
		-benchtime=$(BENCHTIME) -run=^$$ $(BENCH_PKGS) > BENCH_sched.tmp
	$(GO) run ./cmd/benchjson < BENCH_sched.tmp > BENCH_sched.json
	rm -f BENCH_sched.tmp

# bench-check reruns the artifact benchmarks and fails if BENCH_sched.json
# is stale (benchmarks added/removed without `make bench-json`) or if any
# benchmark regressed more than MAX_REGRESS vs the committed numbers.
bench-check:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem \
		-benchtime=$(BENCHTIME) -run=^$$ $(BENCH_PKGS) > BENCH_check.tmp
	$(GO) run ./cmd/benchjson -check BENCH_sched.json -max-regress $(MAX_REGRESS) < BENCH_check.tmp; \
		status=$$?; rm -f BENCH_check.tmp; exit $$status

run:
	$(GO) run ./cmd/manasim

# smoke mirrors CI's basic determinism check: the default failure/restart
# scenario executed twice and compared byte for byte.
smoke:
	$(GO) run ./cmd/manasim > /tmp/manasim-run1.txt
	$(GO) run ./cmd/manasim > /tmp/manasim-run2.txt
	cmp /tmp/manasim-run1.txt /tmp/manasim-run2.txt

# smoke-matrix mirrors CI's determinism matrix: every combination of
# handle-table implementation, image mode and library scenario spec runs
# twice at 512 ranks and must print byte-identical reports — and once
# more with the sharded parallel scheduler (-islands 8 -workers 4),
# which must reproduce the serial report byte for byte.
smoke-matrix:
	$(GO) build -o /tmp/manasim-matrix ./cmd/manasim
	@set -e; \
	for virtid in mutex sharded; do \
	  for inc in "" "-incremental"; do \
	    for spec in default overlap stencil master-worker bursty-alltoall pipeline; do \
	      echo "smoke-matrix: -virtid $$virtid $$inc -spec $$spec"; \
	      /tmp/manasim-matrix -virtid $$virtid $$inc -spec $$spec \
	        -ranks 512 -steps 5 -ckpt-at 200us -no-fail > /tmp/manasim-matrix1.txt; \
	      /tmp/manasim-matrix -virtid $$virtid $$inc -spec $$spec \
	        -ranks 512 -steps 5 -ckpt-at 200us -no-fail > /tmp/manasim-matrix2.txt; \
	      cmp /tmp/manasim-matrix1.txt /tmp/manasim-matrix2.txt; \
	      /tmp/manasim-matrix -virtid $$virtid $$inc -spec $$spec \
	        -ranks 512 -steps 5 -ckpt-at 200us -no-fail \
	        -islands 8 -workers 4 > /tmp/manasim-matrix3.txt; \
	      cmp /tmp/manasim-matrix1.txt /tmp/manasim-matrix3.txt; \
	    done; \
	  done; \
	done
	@set -e; \
	for st in direct staged staged-compressed; do \
	  inc=""; if [ $$st = staged-compressed ]; then inc="-incremental"; fi; \
	  echo "smoke-matrix: storage -storage $$st $$inc"; \
	  /tmp/manasim-matrix -storage $$st $$inc \
	    -ranks 512 -steps 5 -ckpt-at 200us -no-fail > /tmp/manasim-matrix1.txt; \
	  /tmp/manasim-matrix -storage $$st $$inc \
	    -ranks 512 -steps 5 -ckpt-at 200us -no-fail > /tmp/manasim-matrix2.txt; \
	  cmp /tmp/manasim-matrix1.txt /tmp/manasim-matrix2.txt; \
	  /tmp/manasim-matrix -storage $$st $$inc \
	    -ranks 512 -steps 5 -ckpt-at 200us -no-fail \
	    -islands 8 -workers 4 > /tmp/manasim-matrix3.txt; \
	  cmp /tmp/manasim-matrix1.txt /tmp/manasim-matrix3.txt; \
	done

# smoke-faults mirrors CI's fault-matrix job: every canned fault plan
# under cmd/manasim/testdata/faults/ — single and multi-failure, torn
# and corrupt images, restart-time double faults — runs twice and must
# print byte-identical output, in three modes: serial, the sharded
# parallel scheduler (-islands 8 -workers 4), and incremental images
# (-incremental -full-every 2). The parallel run must also reproduce
# the serial bytes exactly. The staging/ plans then run against the
# fast-staged storage document: a crash mid-drain must fall back to the
# newest durable generation and a torn drain must surface at restart,
# byte-identically serial and parallel.
smoke-faults:
	$(GO) build -o /tmp/manasim-faults ./cmd/manasim
	@set -e; \
	for plan in cmd/manasim/testdata/faults/*.json; do \
	  echo "smoke-faults: $$plan"; \
	  /tmp/manasim-faults -faults $$plan > /tmp/manasim-faults1.txt; \
	  /tmp/manasim-faults -faults $$plan > /tmp/manasim-faults2.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults2.txt; \
	  /tmp/manasim-faults -faults $$plan -islands 8 -workers 4 > /tmp/manasim-faults3.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults3.txt; \
	  /tmp/manasim-faults -faults $$plan -incremental -full-every 2 > /tmp/manasim-faults4.txt; \
	  /tmp/manasim-faults -faults $$plan -incremental -full-every 2 > /tmp/manasim-faults5.txt; \
	  cmp /tmp/manasim-faults4.txt /tmp/manasim-faults5.txt; \
	done
	@set -e; \
	for plan in cmd/manasim/testdata/faults/staging/*.json; do \
	  echo "smoke-faults: $$plan (staged)"; \
	  /tmp/manasim-faults -incremental -faults $$plan \
	    -storage cmd/manasim/testdata/storage/fast-staged.json > /tmp/manasim-faults1.txt; \
	  /tmp/manasim-faults -incremental -faults $$plan \
	    -storage cmd/manasim/testdata/storage/fast-staged.json > /tmp/manasim-faults2.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults2.txt; \
	  /tmp/manasim-faults -incremental -faults $$plan \
	    -storage cmd/manasim/testdata/storage/fast-staged.json \
	    -islands 8 -workers 4 > /tmp/manasim-faults3.txt; \
	  cmp /tmp/manasim-faults1.txt /tmp/manasim-faults3.txt; \
	done

# smoke-sweep mirrors CI's fleet determinism check: a small -sweep grid
# run twice, with the aggregates — cell hashes, byte counts, headline
# metrics, compile counts — byte-identical once the wall-clock fields
# are stripped. The cell hashes are also what ties each concurrent run
# to its standalone counterpart (cmd/manasim's sweep tests pin that).
smoke-sweep:
	$(GO) build -o /tmp/manasim-sweep ./cmd/manasim
	/tmp/manasim-sweep -sweep -steps 8 -sweep-specs default,overlap \
	  -sweep-ranks 4,8 -sweep-ckpt 1ms -sweep-virtid sharded,mutex \
	  -sweep-incremental false,true -sweep-workers 4 > /tmp/manasim-sweep1.json
	/tmp/manasim-sweep -sweep -steps 8 -sweep-specs default,overlap \
	  -sweep-ranks 4,8 -sweep-ckpt 1ms -sweep-virtid sharded,mutex \
	  -sweep-incremental false,true -sweep-workers 1 > /tmp/manasim-sweep2.json
	python3 -c 'import json,sys; \
	strip=lambda d: {"cells":[{k:v for k,v in c.items() if k!="wall_ms"} for c in d["cells"]], \
	"totals":{k:v for k,v in d["totals"].items() if k not in ("wall_ms","runs_per_sec","pool_workers")}}; \
	a=strip(json.load(open("/tmp/manasim-sweep1.json"))); b=strip(json.load(open("/tmp/manasim-sweep2.json"))); \
	sys.exit(0 if a==b else sys.stderr.write("sweep aggregates diverge across pool widths\n") or 1)'
