# Developer checks for the trace reproduction. `make check` is the gate:
# formatting, vet, and the full test suite under the race detector (plans
# shared by machines and the service's concurrent requests must stay
# race-clean).

GO ?= go

.PHONY: check fmt vet test race bench bench-sim build serve

check: fmt vet race

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run XXX .

# Tracked simulator benchmark: fixed -benchtime/-count, JSON vs the seed
# baseline (scripts/bench_baseline.txt) written to BENCH_sim.json.
bench-sim:
	sh scripts/bench.sh

# Run the compile-and-execute service on the default address (127.0.0.1:8347).
serve:
	$(GO) run ./cmd/tracesrv
