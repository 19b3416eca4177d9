# Tier-1 gate (see ROADMAP.md): everything `make ci` runs must stay
# green on every change.

GO ?= go

.PHONY: ci fmt vet build test race bench-smoke fuzz-smoke ledger ledger-agree ledger-smoke loc

ci: fmt vet build test race bench-smoke fuzz-smoke ledger-smoke

# Formatting is part of the gate: fails, naming the files, when gofmt
# would change any — the benchmark harness's module (utebench/) included.
fmt:
	@out="$$(gofmt -l cmd internal examples utebench *.go)"; test -z "$$out" || { echo "gofmt would change:"; echo "$$out"; exit 1; }

# utebench/ is a module of its own, so ./... does not reach it.
vet:
	$(GO) vet ./...
	cd utebench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of the convert, stats and frame-codec benchmarks as a
# smoke test: catches benchmark bit-rot without paying for a measurement
# run (measurements are the ledger's job: `make ledger`).
# RouterWindow covers the serving tier's scatter-gather path,
# UteloadSmoke is one full load-generator run against a router fleet,
# ConvertPerEvent fails above 64 bytes or 0.05 objects allocated per raw
# event (the reader decodes in place, the converter owns its records),
# Ingest fails above 0.2 objects per event on the live write path,
# IngestHTTP drives that path through the daemon's HTTP surface and fails
# above 180 bytes per event (a body grown or copied per request is ~300),
# SchedHotLoop pins the simulator's per-event cost, Tracegen runs whole
# trace generations (simulator, MPI runtime, trace facility) and fails
# above 50 bytes or 0.30 objects allocated per event, CutTraceRecord
# fails when cutting a record allocates at all, and SweepCell runs
# scenario-sweep cells through the whole pipeline (its wide case fails
# when frame-start pseudo-intervals swamp the merged file), and
# PreviewZoom's whole-512 rung fails when the pyramid engine allocates
# more bytes per preview than the scan engine over the same file (it must
# hold one edge frame at a time).
# SummarizeWide is a time-resolved query (64 bins, scan engine) over a
# 256-lane trace and fails above 1 600 objects allocated per query (about
# 1 160 with dense lane rows; a lane map per bin made it about 2 260).
# SlogmergePerEventSmall is utemerge -slog's merge and SLOG build
# (slog.MergeFiles) over a small storm trace.
# StatsColumnar's columnar-cold, concat, dense-coded (a hash group-by
# over a coded column keyed per entry beside bin(start, 50)), hash,
# frac-hash (a fraction in
# every group's sum), predefined-sppm,
# predefined-storm and rows-storm (the two predefined tables that fold
# per row, alone) cases live in the root package and fail when a run
# allocates more than a
# fixed number of objects per record (the stats path must not allocate
# per record or per group per frame — a fraction accumulator included —
# and a string concatenation must not
# build a string per record); its scalar baseline sits beside the
# test-only oracle in internal/stats.
# ServeStatsWarm asks the trace service for the predefined tables over
# one window of the ledger's sPPM 4x8 trace again and again, and fails
# unless every request from the third on is an answer hit (the whole
# TSV body is memoized from its second asking: the hit count must move by
# exactly b.N), when its body differs from the first answer, or unless the
# JSON form — never memoized whole — evaluates and fetches exactly the 2
# frames straddling the window's edges (a cut frame's partial is never
# memoized) and reuses the other 61 frames' partials; before the partials
# every request evaluated all 63 of its window's frames.
# ServePreview's pyramid-warm rung asks a window that lands on no
# base-cell bound twice as a preview and twice as a time-resolved table,
# then fails unless every later asking (two per op) is an answer hit, when
# any reads a frame, or when a body differs from the first answer; the
# table's JSON form must fetch exactly the frames overlapping the window's
# edge remainders (counted by the test from the bin edges and the base
# width).
# ServeRecordsPage reads one /records page spanning several frames, cold
# and re-read, and ServeScanPoll re-asks a time-resolved table the scan
# engine answers at a fresh key, a live poll's shape; both report
# frames/op and fail when a body differs from the first.
bench-smoke:
	$(GO) test -run xxx -bench 'ConvertPerEvent|ConvertParallel|SlogmergePerEventSmall|StatsWindow|StatsParallel|StatsColumnar|IntervalEncodeV4|IntervalScanV4|IntervalWriterThroughput|ServeWindow|ServeStatsWarm|ServePreview|ServeRecordsPage|ServeScanPoll|PreviewZoom|RouterWindow|UteloadSmoke|SchedHotLoop|Tracegen|CutTraceRecord|SweepCell|SummarizeWide|^BenchmarkIngest$$|IngestHTTP' -benchtime 1x .
	$(GO) test -run xxx -bench 'StatsColumnar' -benchtime 1x ./internal/stats

# A short fuzz of every target, one at a time (the fuzz engine allows a
# single -fuzz pattern per invocation): catches regressions the checked-in
# seed corpus alone would miss. Longer runs: raise FUZZTIME.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzNextRecord$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzScanWindow$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzSalvage$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzPyramid$$' -fuzztime $(FUZZTIME) ./internal/interval
	$(GO) test -run xxx -fuzz '^FuzzParseWindow$$' -fuzztime $(FUZZTIME) ./internal/clock
	$(GO) test -run xxx -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run xxx -fuzz '^FuzzIngestBatch$$' -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run xxx -fuzz '^FuzzQuery$$' -fuzztime $(FUZZTIME) ./internal/tracesvc
	$(GO) test -run xxx -fuzz '^FuzzRawReader$$' -fuzztime $(FUZZTIME) ./internal/trace

# The benchmark ledger (utebench/, declared in BENCHMARK.json): a
# black-box harness in its own module that builds ./cmd/... and drives
# the real commands and daemons. `ledger` is the four workloads at the
# benchmark's own run length; `ledger-smoke` is the harness's own tests
# at toy sizes (~25 s) — every flag and endpoint the ledger uses still
# answers — and is part of `ci` (-count=1: the test cache cannot see
# that the commands the harness builds and runs have changed).
# `ledger-agree` is the acceptance driver's own check run locally: two
# interleaved sets of 10 runs per workload of this checkout against
# itself, compared under BENCHMARK.json's bounds — it says whether the
# host is quiet enough for a parent-vs-change comparison to mean
# anything (~30 min; not part of `ci`).
ledger:
	for w in pipeline_sppm_4x8 sweep_wide_216x4 serve_zoom_warm ingest_live_2x4; do \
		bash utebench/run.sh --workload $$w || exit 1; \
	done

ledger-agree:
	bash utebench/run.sh -agree 10

ledger-smoke:
	cd utebench && $(GO) test -count=1 ./...

# The line count a simplicity PR cites as "net non-test lines": non-blank,
# non-comment lines of the Go files under internal/ and cmd/, tests
# excluded. Run it at the parent and at the change.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs grep -HcvE '^[[:space:]]*(//|$$)' | awk -F: '{n += $$2} END {print n}'
