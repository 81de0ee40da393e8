# NetCL build and test entry points.
#
# tier1 is the fast correctness gate (gofmt + vet + build + test; it
# fails when `gofmt -l .` lists any file); tier2 and race run the race
# detector over the concurrent code (sharded engine, UDP backend,
# drivers, chaos tests); bench emits the interpreter
# hot-path measurement, bench-reliability the goodput-under-loss one,
# bench-loadgen the shard-count sweep of the flow-parallel data plane,
# bench-host the window sweep of the pipelined host channel plus the
# send-path allocation check, bench-ctrl the transactional control
# plane (batched vs single-op CRUD, plus data-path p99 under a
# control-plane storm), bench-fabric the hierarchical-aggregation
# sweep over multi-tier fabrics (goodput and top-tier ingress bytes at
# 1/2/3 tiers, partition-invariance pinned), bench-churn the four
# production-churn timelines (crash/failover, re-election, hot-key
# churn, rolling reconfig) scored against SLOs. perfbench-tiny runs
# every benchmark workload at test size with its correctness checks
# (the benchmark is its own module, so `go test ./...` at the root
# skips it); fuzz-smoke gives each native fuzz target ten seconds.

GO ?= go
GOFMT ?= gofmt

.PHONY: all tier1 tier2 race bench bench-reliability bench-loadgen bench-host bench-ctrl bench-netsim bench-netsim-smoke bench-fabric bench-fabric-smoke bench-churn bench-churn-smoke perfbench-tiny fuzz-smoke examples clean

all: tier1

tier1:
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./... && $(GO) build ./... && $(GO) test ./...

tier2: race

race:
	$(GO) vet ./... && $(GO) test -race ./...

bench:
	$(GO) test -run TestCompiledBurstAllocs -v ./internal/bmv2
	$(GO) test -run xxx -bench BenchmarkInterpHotPath -benchmem .
	$(GO) run ./cmd/nclbench -interp -out BENCH_interp.json

bench-reliability:
	$(GO) run ./cmd/nclbench -reliability -out BENCH_reliability.json

bench-loadgen:
	$(GO) run ./cmd/nclbench -loadgen -out BENCH_loadgen.json

bench-host:
	$(GO) test -run xxx -bench BenchmarkHostSendPath -benchmem .
	$(GO) run ./cmd/nclbench -hostpath -out BENCH_hostpath.json

bench-ctrl:
	$(GO) run ./cmd/nclbench -ctrl -out BENCH_ctrl.json

bench-netsim:
	$(GO) run ./cmd/nclbench -netsim -out BENCH_netsim.json

bench-netsim-smoke:
	$(GO) run ./cmd/nclbench -netsim -smoke -out BENCH_netsim_smoke.json

bench-fabric:
	$(GO) run ./cmd/nclbench -fabric -out BENCH_fabric.json

bench-fabric-smoke:
	$(GO) run ./cmd/nclbench -fabric -smoke -out BENCH_fabric_smoke.json

bench-churn:
	$(GO) run ./cmd/nclbench -churn -out BENCH_churn.json

bench-churn-smoke:
	$(GO) run ./cmd/nclbench -churn -smoke -out BENCH_churn_smoke.json

perfbench-tiny:
	cd perfbench && $(GO) test ./...

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSimOrder$$' -fuzztime=10s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzPackUnpackRoundTrip$$' -fuzztime=10s ./internal/runtime
	$(GO) test -run '^$$' -fuzz '^FuzzUnpackIntoRaw$$' -fuzztime=10s ./internal/runtime

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/allreduce
	$(GO) run ./examples/kvcache
	$(GO) run ./examples/paxos

clean:
	rm -f BENCH_reliability.json BENCH_interp.json BENCH_loadgen.json BENCH_hostpath.json BENCH_ctrl.json BENCH_netsim_smoke.json BENCH_fabric_smoke.json BENCH_churn_smoke.json
