# CI entry points for the parsel repo (pure Go, no external deps).
#
#   make ci      - everything below, in order (what a PR must pass);
#                  .github/workflows/ci.yml runs exactly these targets,
#                  split across jobs so the race leg parallelizes
#   make vet     - static checks: go vet + gofmt (fails on unformatted files)
#   make build   - compile all packages, commands and examples
#   make test    - full test suite (includes the differential oracle suite)
#   make race    - full suite under the race detector (pool/selector/daemon/
#                  dataset stress)
#   make e2e     - the daemon end-to-end suite alone (httptest + parselclient,
#                  incl. the kill-and-restart snapshot harness, the multi-kind
#                  catalogues, the tenant admission/ledger suite, the chaos
#                  suite: differential replay through seeded fault injection,
#                  panic recovery, deadline propagation, and the multi-node
#                  cluster harness: routed catalogue replay with one of three
#                  nodes killed), uncached, for quick iteration on the
#                  serving layer
#   make fuzz    - short fuzz smoke: the 128-bit quantile-rank arithmetic, the
#                  daemon's HTTP request decoder, the snapshot decoder and the
#                  binary result-frame decoder
#   make smoke   - metrics-scrape smoke: boot a daemon, run one query, pull
#                  /metrics and strictly validate the exposition
#   make cover   - coverage profile over the core packages (engine, client,
#                  internal) with a hard threshold; writes cover.out
#   make loc     - non-test Go lines outside perfbench/: the net-LoC figure
#                  a simplification change reports (not part of ci)

GO ?= go

# Core packages the coverage gate measures: the engine, the wire client
# and every internal package — commands and examples are thin mains and
# excluded.
COVER_PKGS = .,./parselclient,./parselclient/cluster,./internal/...
COVER_MIN ?= 85

.PHONY: ci vet build test race e2e fuzz smoke cover loc

ci: vet build test race e2e fuzz smoke cover

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

e2e:
	$(GO) test -count=1 -run 'TestDaemon|TestDataset|TestSnapshot|TestTenant|TestCluster|TestObs' ./internal/serve .

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzQuantileRank -fuzztime=5s .
	$(GO) test -run='^$$' -fuzz=FuzzParseRequest -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=5s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=5s ./internal/snapshot

smoke:
	$(GO) test -count=1 -run 'TestObsScrapeSmoke' ./internal/serve

cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=$(COVER_PKGS) \
		. ./parselclient ./parselclient/cluster ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% is below the %s%% threshold\n", t, min; exit 1 } \
		printf "coverage %.1f%% (threshold %s%%)\n", t, min }'

loc:
	@git ls-files --cached --others --exclude-standard '*.go' | \
		grep -v -e '_test\.go$$' -e '^perfbench/' | xargs cat | wc -l
