package engine

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/trace"
	"repro/internal/wear"
)

func testWorkload() trace.Workload {
	return trace.Workload{
		Name:                "test-mix",
		WritesPerLinePerSec: 1e-5,
		ReadsPerLinePerSec:  1e-4,
		FootprintFrac:       1.0,
		ZipfSkew:            0.5,
	}
}

// testSpec returns a small, fast run: 256 lines under BCH-4 with the
// basic full-decode patrol. Tests override its knobs individually.
func testSpec() Spec {
	return Spec{
		Geometry: mem.Geometry{
			Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
			RowsPerBank: 16, LinesPerRow: 8, LineBytes: 64,
		},
		PCM:           pcm.DefaultParams(),
		Mix:           pcm.UniformMix(),
		Wear:          wear.DefaultParams(),
		Energy:        energy.DefaultParams(),
		Scheme:        ecc.MustBCHLine(4),
		Policy:        scrub.Basic(),
		ScrubInterval: 5000,
		Horizon:       25000,
		Substeps:      8,
		Workload:      testWorkload(),
		Seed:          42,
	}
}

// specVariants exercises every execution path the engine owns: both
// detection modes, write thresholds, adaptive control, leveling, SLC form
// switch, ECP, pre-aging, and fault injection.
func specVariants() map[string]Spec {
	variants := map[string]Spec{}

	basic := testSpec()
	variants["basic"] = basic

	light := testSpec()
	light.Scheme = ecc.MustBCHLine(8)
	light.Policy = scrub.LightBasic()
	variants["light-detect"] = light

	adaptive := scrub.DefaultAdaptive()
	adaptive.MaxInterval = 6250
	combined := testSpec()
	combined.Scheme = ecc.MustBCHLine(8)
	combined.Policy = scrub.MustNew(scrub.Config{
		Label:          "combined",
		Detect:         scrub.LightDetect,
		WriteThreshold: 6,
		WearAware:      true,
		Adaptive:       &adaptive,
	})
	variants["combined"] = combined

	substrates := testSpec()
	substrates.GapMovePeriod = 64
	substrates.SLCFraction = 0.3
	substrates.ECPEntries = 2
	substrates.InitialLineWrites = 90_000_000
	substrates.RecordRounds = true
	variants["substrates"] = substrates

	faulty := testSpec()
	faulty.Fault = &fault.Plan{ReadFlipRate: 0.01, SweepSkipRate: 0.2, StuckCheckRate: 0.05}
	variants["faulty"] = faulty

	return variants
}

// runCold runs spec on a state fresh from statePool.New with a drift
// sampler built privately rather than taken from the shared cache, so
// neither scratch nor a sampler from an earlier run can reach it.
func runCold(t *testing.T, spec Spec) *Result {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	s := statePool.New().(*state)
	if err := s.init(spec); err != nil {
		t.Fatal(err)
	}
	model, err := pcm.NewModel(spec.PCM)
	if err != nil {
		t.Fatal(err)
	}
	if s.sampler, err = pcm.NewLineSampler(model, spec.Mix, pcm.CellsPerLine, s.k); err != nil {
		t.Fatal(err)
	}
	if err := s.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return &s.res
}

// TestRecycledStateMatchesCold pins the pooling invariant: recycled
// scratch, the shared sampler cache, and batched RNG draws change
// allocation behaviour only. Every variant's result on a cold state with
// a privately built sampler is identical to a pooled run, on the cached
// sampler, made after every other variant has dirtied the pool with
// differently sized and filled scratch.
func TestRecycledStateMatchesCold(t *testing.T) {
	variants := specVariants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := runCold(t, variants[name])
		for _, other := range names {
			if other == name {
				continue
			}
			if _, err := RunContext(context.Background(), variants[other]); err != nil {
				t.Fatalf("%s: %v", other, err)
			}
		}
		got, err := RunContext(context.Background(), variants[name])
		if err != nil {
			t.Fatalf("%s: recycled: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled-state result differs from cold:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

// TestHooksDoNotChangeResults runs the same spec with and without full
// instrumentation (spans + progress + round callbacks) and requires
// identical results, plus sane span and callback contents.
func TestHooksDoNotChangeResults(t *testing.T) {
	spec := testSpec()
	plain, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	rec := &SpanRecorder{}
	var progressCalls, roundCalls int
	var lastSim float64
	spec.Hooks = &Hooks{
		Progress: func(sweep int, simSeconds, horizon float64) {
			progressCalls++
			if simSeconds <= lastSim {
				t.Errorf("progress went backwards: %g after %g", simSeconds, lastSim)
			}
			lastSim = simSeconds
			if horizon != spec.Horizon {
				t.Errorf("progress horizon = %g, want %g", horizon, spec.Horizon)
			}
		},
		Round: func(rr RoundRecord) {
			roundCalls++
			if rr.Interval <= 0 {
				t.Errorf("round record with non-positive interval: %+v", rr)
			}
		},
		Spans: rec,
	}
	instrumented, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(instrumented, plain) {
		t.Errorf("instrumented run differs from plain run:\n got  %+v\n want %+v", instrumented, plain)
	}
	if progressCalls != plain.Sweeps || roundCalls != plain.Sweeps {
		t.Errorf("progress/round calls = %d/%d, want %d each", progressCalls, roundCalls, plain.Sweeps)
	}

	spans := map[string]Span{}
	for _, sp := range rec.Spans() {
		spans[sp.Stage] = sp
	}
	if got := spans["decode"].Count; got != plain.ScrubDecodes {
		t.Errorf("decode span count = %d, want %d", got, plain.ScrubDecodes)
	}
	// BCH-4 is a real line codec, so trace mode runs one kernel decode
	// per modelled decode.
	if got := spans["kernel"].Count; got != plain.ScrubDecodes {
		t.Errorf("kernel span count = %d, want %d (one kernel pass per decode)", got, plain.ScrubDecodes)
	}
	if got := spans["writeback"].Count; got != plain.ScrubWriteBacks {
		t.Errorf("writeback span count = %d, want %d", got, plain.ScrubWriteBacks)
	}
	if got := spans["demand"].Count; got != plain.DemandWrites {
		t.Errorf("demand span count = %d, want %d", got, plain.DemandWrites)
	}
	if got := spans["control"].Count; got != int64(plain.Sweeps) {
		t.Errorf("control span count = %d, want %d", got, plain.Sweeps)
	}
}

// TestKernelStageLightDetect pins the trace-mode kernel exercise under
// light detection: every modelled CRC probe runs a real slicing-kernel
// checksum and every escalated decode runs a real kernel line decode,
// all accounted under the "kernel" stage — without changing the Result.
func TestKernelStageLightDetect(t *testing.T) {
	spec := testSpec()
	spec.Scheme = ecc.MustBCHLine(8)
	spec.Policy = scrub.LightBasic()
	plain, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := &SpanRecorder{}
	spec.Hooks = &Hooks{Spans: rec}
	instrumented, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(instrumented, plain) {
		t.Errorf("kernel exercise changed the result:\n got  %+v\n want %+v", instrumented, plain)
	}
	var kernel Span
	for _, sp := range rec.Spans() {
		if sp.Stage == "kernel" {
			kernel = sp
		}
	}
	want := plain.ScrubProbes + plain.ScrubDecodes
	if kernel.Count != want {
		t.Errorf("kernel span count = %d, want %d (probes %d + decodes %d)",
			kernel.Count, want, plain.ScrubProbes, plain.ScrubDecodes)
	}
	if kernel.Count > 0 && kernel.Nanos <= 0 {
		t.Errorf("kernel span recorded no time over %d passes", kernel.Count)
	}
}

// TestStatsAccumulate checks that completed runs fold into the
// process-wide totals scrubd surfaces on /metrics.
func TestStatsAccumulate(t *testing.T) {
	before := Stats()
	res, err := RunContext(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	after := Stats()
	if got := after.Runs - before.Runs; got < 1 {
		t.Errorf("Runs advanced by %d, want >= 1", got)
	}
	if got := after.Visits - before.Visits; got < res.ScrubVisits {
		t.Errorf("Visits advanced by %d, want >= %d", got, res.ScrubVisits)
	}
	if after.SimSeconds <= before.SimSeconds {
		t.Error("SimSeconds did not advance")
	}
}

// cancelPolicy cancels its context from inside the visit loop after a set
// number of write-back consultations, which under FullDecode is one per
// visit — letting the test measure how many further visits the engine
// performs before it notices.
type cancelPolicy struct {
	scrub.Policy
	cancel context.CancelFunc
	after  int
	calls  int
}

func (p *cancelPolicy) ShouldWriteBack(scrub.VisitInfo) bool {
	p.calls++
	if p.calls == p.after {
		p.cancel()
	}
	return false
}

// TestCancellationVisitStride verifies the bounded-latency cancellation
// fix: with a single substep spanning 8192 lines, a context cancelled
// mid-substep must stop the patrol within visitStride visits, not at the
// substep boundary thousands of visits later.
func TestCancellationVisitStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pol := &cancelPolicy{Policy: scrub.Basic(), cancel: cancel, after: 100}

	spec := testSpec()
	spec.Geometry = mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 8,
		RowsPerBank: 32, LinesPerRow: 32, LineBytes: 64,
	} // 8192 lines
	spec.Substeps = 1
	spec.Policy = pol

	_, err := RunContext(ctx, spec)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !strings.Contains(err.Error(), "engine: run canceled") {
		t.Errorf("error = %v, want engine cancellation error", err)
	}
	maxVisits := pol.after + visitStride
	if pol.calls > maxVisits {
		t.Errorf("engine performed %d visits before honouring cancel, want <= %d", pol.calls, maxVisits)
	}
	if pol.calls < pol.after {
		t.Errorf("only %d visits before cancel point %d — test harness broken", pol.calls, pol.after)
	}
}

// TestCanceledRunCountsInStats pins that cancelled runs land in the
// CanceledRuns total rather than the success counters.
func TestCanceledRunCountsInStats(t *testing.T) {
	before := Stats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, testSpec()); err == nil {
		t.Fatal("run under cancelled context succeeded")
	}
	after := Stats()
	if got := after.CanceledRuns - before.CanceledRuns; got < 1 {
		t.Errorf("CanceledRuns advanced by %d, want >= 1", got)
	}
}

// BenchmarkEngineRun measures the pooled engine hot path. make bench
// records it in BENCH_engine.json, and bench-gate holds it to an
// absolute allocation and byte budget.
func BenchmarkEngineRun(b *testing.B) {
	spec := testSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
