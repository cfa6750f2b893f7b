GO ?= go

.PHONY: build test race fuzz bench bench-quick serve-smoke ingest-smoke fleet-smoke

FUZZTIME ?= 10s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every fuzz target in the module for FUZZTIME each (CI runs this).
# `go test -list` finds the targets, so a new Fuzz function joins without
# an edit here.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(echo "$$targets" | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			$(GO) test $$pkg -run "^$$target\$$" -fuzz "^$$target\$$" -fuzztime $(FUZZTIME); \
		done; \
	done

# Full perf-trajectory run; refreshes BENCH_solver.json (commit the result).
bench:
	$(GO) run ./cmd/benchrun -out BENCH_solver.json

# Reduced-size pass for CI; writes the report without overwriting history
# expectations (same file name so the artifact upload is uniform).
bench-quick:
	$(GO) run ./cmd/benchrun -quick -out BENCH_solver.json

# Start the live observability server briefly and scrape it (used by CI).
serve-smoke:
	./scripts/serve_smoke.sh

# Ingestion data plane overload smoke: submit, burst, assert sheds, drain.
ingest-smoke:
	./scripts/serve_smoke.sh ingest

# Fleet scheduler smoke: two tenants share a pool, kill processors, rebalance.
fleet-smoke:
	./scripts/serve_smoke.sh fleet
