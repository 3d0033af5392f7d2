#!/usr/bin/env bash
# ci.sh — the repository's check pipeline (also `make check`):
# vet, build, the full test suite, then the race detector over the
# concurrency-heavy packages (engine, sites, interconnect, log broker,
# locking, replication, metrics, stores and partitions under layout swaps
# and delta merges, the simulated disk whose reads hand out views of its
# blocks, the partition directory's lookups under splits and
# merges, transaction planning over one shared decision cache, and the
# zone maps whose ranges and NULL/NaN flags writers widen under their lock
# while scans read which conjuncts they prove).
# It leaves the working tree as it found it: the last step fails if
# `git status --porcelain` changed.
set -euo pipefail
cd "$(dirname "$0")/.."

in_git=0
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    in_git=1
    status_before=$(git status --porcelain)
fi

echo "== go vet"
go vet ./...

echo "== no fmt formatting or reflective sorts on the transaction, query and log paths"
# The engine and the data sites (every non-test file of internal/cluster
# and internal/site), a transaction's per-operation path (routing in the
# partition directory, locks, 2PC, the transaction planner, the row
# stores), a whole-partition move's (splits and merges cutting typed
# images), a query's (the query planner and its plan-cache key, join
# pipeline and tables, runtime filters, columnar relations, batch kernels,
# the group-by table, the in-memory column store with its delta, scan
# chunks and column builds, the disk column store and the simulated device
# its blocks are read from, the storage batches and filter kernels, the
# zone map), the per-tick log paths (the redo-log broker and its checkpoint
# fold, replication's fetch and apply), and the advisor's decision math
# (internal/asa) format no strings and sort through
# slices.*: fmt.Sprint* and fmt.Fprint* allocate on every call, and
# sort.Slice / sort.SliceStable allocate a closure and a reflect swapper.
# fmt.Errorf on error returns is allowed; test files are not checked.
hot_paths=(internal/metadata/metadata.go internal/partition/split.go
    internal/plan/{planner,txnplan}.go internal/rowstore/{mem,disk}.go internal/colstore/{batchscan,coldata,mem,delta,disk}.go
    internal/disksim/disksim.go
    internal/storage/{batch,kernels,image}.go internal/zonemap/zonemap.go
    internal/exec/{joinpipe,jointable,rfilter,colrel,batch,batchagg,batchjoin,morsel,agg,groupby}.go
    internal/replication/replication.go internal/redolog/{redolog,checkpoint}.go)
for f in internal/cluster/*.go internal/site/*.go internal/txn/*.go internal/asa/*.go; do
    [[ "$f" == *_test.go ]] || hot_paths+=("$f")
done
if grep -nE 'fmt\.(Sprint|Fprint)' "${hot_paths[@]}"; then
    echo "fmt.Sprint*/fmt.Fprint* on the transaction or query path (see above)" >&2
    exit 1
fi
if grep -nE 'sort\.Slice(Stable)?\(' "${hot_paths[@]}"; then
    echo "sort.Slice/sort.SliceStable on the transaction or query path, use slices.* (see above)" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== bench module (gating)"
# bench/ is a Go module of its own, so the steps above never compile it,
# and it reaches into exported engine fields (Engine.Deps, Engine.Net,
# Engine.Obs, ...): vet it and run its tests against this tree.
go vet -C bench .
go test -C bench .

echo "== benchmark workloads against their oracles (gating)"
# Two seconds' worth of each workload: the benchmark exits non-zero on
# any operation that fails or whose answer differs from its oracle, so
# every scan shape — morsel scheduling, zone-map pruning,
# encoded kernels — and every CH join shape — pipelined probes, partial
# aggregates, the open-loop mix beside transactions — is checked against
# plain loops over the tables' rows on each CI run. Every benchmark query
# has an aggregate root, so none has a LIMIT or streams: LIMIT, streaming
# and cancellation are gated by the tier-1 tests above
# (TestMorselMatchesLegacy, TestMorselLimitStopsScheduling,
# TestMorselStreamMatchesMaterialized, TestMorselCancelNoGoroutineLeak,
# TestMorselContextCancelAborts, the streaming cases of
# internal/cluster/admission_test.go). oltp-rmw reads back every cell it
# wrote and drains its replicas while the maintenance tick folds
# checkpoints and truncates the log underneath.
go run -C bench . --workload olap-scan --seconds 2 >/dev/null
# gate_metric WORKLOAD METRIC CEILING runs two seconds of WORKLOAD and
# fails when METRIC in its JSON line is missing or above CEILING.
gate_metric() {
    local line value
    line=$(go run -C bench . --workload "$1" --seconds 2 | grep '^{')
    echo "$line"
    value=$(echo "$line" | grep -o "\"$2\":{\"value\":[^,}]*" | awk -F: '{print $3}')
    if awk -v v="$value" -v c="$3" 'BEGIN { exit !(v == "" || v + 0 > c + 0) }'; then
        echo "$1 $2 ${value:-missing} over its ceiling of $3" >&2
        exit 1
    fi
}
# The join run also gates its traffic. Its operation count is fixed
# (calibrated rate × seconds) and a join's bytes are counted, not timed,
# so net_bytes_per_op is exact for the seed: each probing site builds its
# own tables from its whole copy of a replicated build side, or from the
# build rows routed to it, and a change that ships build rows its probes
# cannot meet, rows of a table the probing site holds a copy of, or rows
# back through the coordinator fails here. The ceiling is the value
# measured when replicated build sides stopped crossing (16 501 bytes)
# plus 10 %.
gate_metric olap-join net_bytes_per_op 18151
# The row-copy runs gate their allocations: a count, so it repeats to
# within about 1 % for the seed. The ceilings are the values measured when
# site tasks stopped being goroutine-pool tasks (58.9 on oltp-rmw, 163 on
# htap-mixed, at two seconds) plus 10 %; per-row version objects or
# per-cell string decodes in row scans come back over them. (They were 69
# and 189, from 62.9 and 172 when row copies stopped allocating per row
# and per version.)
gate_metric htap-mixed allocs_per_op 180
gate_metric oltp-rmw allocs_per_op 65

echo "== encoding and filter-kernel fuzz corpora (seeds only, -count=1)"
# Replays the checked-in corpora without cached results: the colstore
# encoding round trip (internal/colstore/testdata/fuzz/FuzzColRoundTrip)
# and every typed filter kernel against the boxed comparator
# (internal/storage/testdata/fuzz/FuzzFilterVec). `go test -fuzz
# FuzzColRoundTrip ./internal/colstore/` and `go test -fuzz FuzzFilterVec
# ./internal/storage/` explore further locally.
go test -run FuzzColRoundTrip -count=1 ./internal/colstore/
go test -run FuzzFilterVec -count=1 ./internal/storage/

echo "== scenario corpus on the virtual clock (gating)"
# Replays every scenarios/*.json on vclock.Sim (hours of virtual traffic
# in well under a minute of wall clock) and fails the pipeline on any
# invariant violation: acked-write loss, non-convergence, error-rate or
# latency bounds, shed minimums, wall-time budget.
go run ./cmd/proteus-sim run scenarios/*.json

echo "== paper figure files parse (gating)"
# Parses and defaults every scenarios/figures/*.json at quick scale without
# running it: `make figures` runs them. Their predicates do not gate CI yet;
# fig8a's fails on this tree.
go run ./cmd/proteus-sim validate scenarios/figures/*.json

echo "== go test -race (concurrency-heavy packages)"
go test -race -count=1 \
    ./internal/admission/ \
    ./internal/cluster/ \
    ./internal/vclock/ \
    ./internal/scenario/ \
    ./cmd/proteus-sim/ \
    ./internal/site/ \
    ./internal/simnet/ \
    ./internal/redolog/ \
    ./internal/txn/ \
    ./internal/replication/ \
    ./internal/faults/ \
    ./internal/obs/ \
    ./internal/exec/ \
    ./internal/colstore/ \
    ./internal/partition/ \
    ./internal/rowstore/ \
    ./internal/disksim/ \
    ./internal/workload/... \
    ./internal/metadata/ \
    ./internal/plan/ \
    ./internal/zonemap/

echo "== working tree unchanged (gating)"
# No step may write into the checkout: a rewritten artifact or a stray
# output file shows up here. Skipped outside a git checkout.
if [[ $in_git == 1 ]]; then
    status_after=$(git status --porcelain)
    if [[ "$status_after" != "$status_before" ]]; then
        echo "the pipeline changed the working tree:" >&2
        diff <(echo "$status_before") <(echo "$status_after") >&2 || true
        exit 1
    fi
else
    echo "not a git checkout; skipped"
fi

echo "ok"
