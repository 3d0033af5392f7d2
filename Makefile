.PHONY: build test check bench chaos sim

build:
	go build ./...

test:
	go test ./...

# chaos runs the seeded kill/partition/restore harness under the race
# detector: >=3 site crashes and >=1 network partition against an active
# mixed workload, asserting zero committed-write loss and convergence.
# TestChaosSimClock replays the same schedule on the simulated clock, so
# this covers both clock implementations. TestSnapshotAtomicity checks
# cross-partition snapshot isolation (an invariant sum read on masters and
# on lagging replicas) across a failover, an abandoned commit ack and
# dependency-tracker folds.
chaos:
	go test -race -count=1 -v -run 'TestChaos|TestSnapshotAtomicity' ./internal/cluster/

# sim replays the whole scenarios/ corpus on the virtual clock: hours of
# simulated mixed traffic, diurnal shifts, partitions, overload and crash
# failover in under a minute of wall clock, asserting zero acked-write
# loss, replica convergence and the per-scenario bounds.
sim:
	go run ./cmd/proteus-sim run scenarios/*.json

# check is the CI pipeline: vet + build + tests + race detector over the
# concurrency-heavy packages.
check:
	./scripts/ci.sh

# bench runs the scan benchmarks, the row-vs-batch kernel benchmarks, the
# join/group-by A/B benchmarks (BenchmarkJoinTableProbe among them: the
# pipelined probe per scan batch, which must report 0 allocs/op) and
# BenchmarkCheckpointFold (ns and allocs per folded redo record against
# checkpoint images of 1e3, 1e4 and 1e5 rows: flat allocations, time that
# follows the change and not the image) and BenchmarkScanWithDelta (ns per
# row and allocations of a 100k-row column store scanned in morsel-sized
# units with 0, 64 and 1 024 updates pending in its delta) with allocation
# stats, archiving the run under results/.
bench:
	mkdir -p results
	go test -run XXX -bench 'BenchmarkScan' -benchmem . | tee results/bench-$$(date +%Y-%m-%d).txt
	go test -run XXX -bench 'BenchmarkBatchKernels' -benchmem ./internal/exec/ | tee -a results/bench-$$(date +%Y-%m-%d).txt
	go test -run XXX -bench 'BenchmarkJoin|BenchmarkGroupBy' -benchmem ./internal/exec/ | tee -a results/bench-$$(date +%Y-%m-%d).txt
	go test -run XXX -bench 'BenchmarkCheckpointFold' -benchmem ./internal/redolog/ | tee -a results/bench-$$(date +%Y-%m-%d).txt
	go test -run XXX -bench 'BenchmarkScanWithDelta' -benchmem ./internal/colstore/ | tee -a results/bench-$$(date +%Y-%m-%d).txt
