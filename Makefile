.PHONY: all build test bench chaos crash partitions scaling queries procs soak doc bench-gate same-series ci clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

chaos:
	DPC_CHAOS_FULL=1 dune exec test/test_chaos.exe

# Crash/recovery suites only: the crash oracle sweep (quick by default,
# full width with DPC_CHAOS_FULL=1 in the environment) plus the
# durable-recovery, delta-checkpoint drift, crash-schedule hygiene, and
# degraded-query groups.
crash:
	dune exec test/test_chaos.exe -- test 'crash oracle'
	dune exec test/test_persistence.exe -- test 'mid-run checkpoint'
	dune exec test/test_persistence.exe -- test 'delta checkpoints'
	dune exec test/test_persistence.exe -- test 'crash schedule'
	dune exec test/test_robustness.exe -- test 'degraded queries'

# Partition-fault suites: the partition oracle at full width (15 seeded
# instances x 4 schemes x 4 plan families, digest-checked against a
# perfect network), the channel-core model test (random and exhaustive
# drop/duplicate/reorder/crash schedules against the exactly-once FIFO
# spec; its failure is named on stderr, which CI keeps), the
# partitionable/backoff/suspension unit group, the degraded-query
# partition test, and the partitions bench figure (heal latency +
# retransmit storm, jitter on/off).
partitions:
	DPC_CHAOS_FULL=1 dune exec test/test_chaos.exe -- test 'partition oracle'
	dune exec test/test_net.exe -- test 'channel model' || \
		{ echo "make partitions: test_net group 'channel model' failed" >&2; exit 1; }
	dune exec test/test_net.exe -- test 'partition faults'
	dune exec test/test_robustness.exe -- test 'degraded queries'
	dune exec bench/main.exe -- --fig partitions --tiny

# Multicore determinism sweep: parallel-vs-sequential digest equality at
# 1/2/4 domains (clean, hashed-fault, and crash schedules, all four
# schemes), the shard-partition and concurrent-metrics suites, and the
# domain-scaling bench figure (throughput table + digest shape check).
scaling:
	dune exec test/test_scaling.exe
	dune exec bench/main.exe -- --fig scaling --tiny

# Query serving tier: the full-width test_query suite (cache semantics,
# §5.5 invalidation regression, pagination properties, cost drift, and
# the Zipfian storm sweep across all four schemes — the quick run that
# `dune runtest` executes storms Advanced only) plus the queries bench
# figure with its own shape checks (hit rate >= 50%, warm p99 faster
# than cache-off, degraded-but-bounded crash-window storm).
queries:
	DPC_QUERIES_FULL=1 dune exec test/test_query.exe
	dune exec bench/main.exe -- --fig queries --tiny

# Real processes: one dpcd daemon per node, Unix-socket transport, WAL +
# checkpoints + durable outbox on disk. The launcher kill -9s node 1
# mid-run, recovers it from its data directory, and requires every
# node's digests to equal the in-process simulator's — all four schemes.
# mid-partition crash of node 1 (Block/Unblock over the control plane).
# `make procs` also reruns the sweep with wire chaos on.
procs:
	dune exec bin/dpcd.exe -- cluster
	dune exec bin/dpcd.exe -- cluster --chaos

# Long-running cluster soak: sustained rounds of traffic through the
# three daemons with a periodic durable-outbox compaction; fails if any
# ledger outgrows its round-independent ceiling or digests diverge.
soak:
	dune exec bin/dpcd.exe -- cluster --soak

# API docs (requires odoc; `make ci` skips this step where it is absent).
doc:
	dune build @doc

# Throughput regression gate against the checked-in baseline
# (BENCH_PR8.json): fig8/fig9 events/s may not drop more than 15%, and
# the queries figure's modeled warm-cache p99 may not regress.
bench-gate:
	sh scripts/bench_gate.sh

# Behaviour-preserving refactors: build REV and the working tree, run every
# bench figure (--tiny --seed 7 --json) in each, and diff the reports with
# the wall-clock fields stripped. Usage: make same-series REV=<rev>.
same-series:
	sh scripts/same_series.sh $(REV)

ci:
	sh scripts/ci.sh

clean:
	dune clean
