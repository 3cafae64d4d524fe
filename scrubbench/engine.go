package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wear"
)

// localWorkload is a workload served by local runs through core, the
// path `scrubsim -json` takes: resolve the mechanism, run the engine,
// encode the result.
type localWorkload struct {
	mechanism string
	workload  string
	// horizon is the simulated duration of one run, in seconds.
	horizon float64
	// interval fixes the sweep interval (0 keeps the suite's derived
	// one).
	interval float64
	// traceHorizon shortens the traced runs (0 = horizon). Setting
	// Hooks.Spans makes the engine run a real codec decode per visit,
	// which multiplies a visit-bound run's time many times over.
	traceHorizon float64
}

// paperDemand is the default 16 Ki-line region under the combined
// mechanism and an OLTP write stream: the drift sampler on demand writes
// does almost all of the work.
var paperDemand = localWorkload{
	mechanism: "combined",
	workload:  "db-oltp",
	horizon:   4 * 3600,
}

// coldPatrol is the paper's "light detection makes frequent scrub
// cheap" regime: BCH-8 with the CRC probe and write threshold 6 over a
// cold archive, patrolled every 120 s. The scrub-visit loop does almost
// all of the work.
var coldPatrol = localWorkload{
	mechanism:    "threshold",
	workload:     "idle-archive",
	horizon:      24 * 3600,
	interval:     120,
	traceHorizon: 3 * 3600,
}

// build resolves the workload at a seed and horizon.
func (w localWorkload) build(seed uint64, horizon float64) (core.System, core.Mechanism, trace.Workload, error) {
	sys := core.DefaultSystem()
	sys.Horizon = horizon
	sys.Seed = seed
	m, err := core.SuiteMechanism(sys, w.mechanism)
	if err != nil {
		return core.System{}, core.Mechanism{}, trace.Workload{}, err
	}
	if w.interval > 0 {
		m.Interval = w.interval
	}
	wl, err := trace.ByName(w.workload)
	if err != nil {
		return core.System{}, core.Mechanism{}, trace.Workload{}, err
	}
	return sys, m, wl, nil
}

// request is one local run as a user makes it: resolve, run, encode.
type request struct {
	encoded []byte
	light   bool
	run     time.Duration // engine run alone
	total   time.Duration // resolve + run + encode
}

// do performs one request of the workload at a seed and horizon.
func (w localWorkload) do(ctx context.Context, seed uint64, horizon float64, hooks *engine.Hooks) (request, error) {
	return runRequest(ctx, func() (core.System, core.Mechanism, trace.Workload, error) {
		return w.build(seed, horizon)
	}, hooks)
}

// runRequest resolves a run, executes it and encodes its result the way
// scrubd and `scrubsim -json` do. A panic inside it becomes an error.
func runRequest(ctx context.Context, build func() (core.System, core.Mechanism, trace.Workload, error), hooks *engine.Hooks) (req request, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("request panicked: %v", p)
		}
	}()
	start := time.Now()
	sys, m, wl, err := build()
	if err != nil {
		return request{}, err
	}
	t0 := time.Now()
	res, err := core.RunOneWithOptionsContext(ctx, sys, m, wl, core.Options{Hooks: hooks})
	req.run = time.Since(t0)
	if err != nil {
		return request{}, err
	}
	req.encoded, err = json.Marshal(service.NewRunMetrics(res))
	if err != nil {
		return request{}, err
	}
	req.total = time.Since(start)
	req.light = m.Policy.Detection() == scrub.LightDetect
	return req, nil
}

// checkCounts verifies the invariants every engine result must hold.
func checkCounts(r service.RunMetrics, light bool) error {
	if r.ScrubDecodes > r.ScrubVisits {
		return fmt.Errorf("decodes %d exceed visits %d", r.ScrubDecodes, r.ScrubVisits)
	}
	if light && r.ScrubProbes != r.ScrubVisits {
		return fmt.Errorf("light detection probed %d of %d visits", r.ScrubProbes, r.ScrubVisits)
	}
	return nil
}

// setupLocal resolves the workload and initialises a device on its spec
// (per-line endurance draws and initial crossing samples) several times,
// each after a reference probe. It returns the set-up times in
// reference seconds, the NewDevice wall times and the last device.
func setupLocal(w localWorkload, seed uint64, ref *refKernel) (setup, inits []float64, dev *engine.Device, err error) {
	for i := 0; i < setupRepeats; i++ {
		s := scale(ref.probe())
		start := time.Now()
		sys, m, wl, err := w.build(seed, w.horizon)
		if err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		dev, err = engine.NewDevice(engine.ResolveSpec(sys, m, wl, engine.Options{}))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("new device: %w", err)
		}
		inits = append(inits, time.Since(t0).Seconds())
		setup = append(setup, time.Since(start).Seconds()*s)
	}
	return setup, inits, dev, nil
}

// setupRepeats is how many times a run sets up; the median is reported.
const setupRepeats = 5

// runLocal measures a local workload: repeated identical requests for
// the run's budget, each after a reference probe, every result checked
// against the first. A traced run makes one untraced request for the
// counters and checks, then measures the layers.
func runLocal(ctx context.Context, w localWorkload, cfg runConfig, ref *refKernel, rep *report) (outcome, error) {
	var out outcome
	setup, inits, dev, err := setupLocal(w, cfg.seed, ref)
	if err != nil {
		return out, err
	}
	rep.add("setup_s", median(setup), "s", len(setup), "")

	budget, least := time.Duration(cfg.seconds)*time.Second, minRequests
	if cfg.trace == 1 {
		budget, least = 0, 1
	}
	// runs, totals, repeats and simRates are in reference seconds.
	var runs, totals, repeats, simRates, wallRuns []float64
	var first request
	var c counts
	start := time.Now()
	for i := 0; i < least || time.Since(start) < budget; i++ {
		// Start every request from a collected heap, so one request's
		// garbage neither slows the next nor moves the peak RSS.
		runtime.GC()
		s := scale(ref.probe())
		out.attempted++
		req, err := w.do(ctx, cfg.seed, w.horizon, nil)
		if err != nil {
			out.fail("request %d: %v", i, err)
			continue
		}
		if first.encoded == nil {
			var rm service.RunMetrics
			if err := json.Unmarshal(req.encoded, &rm); err != nil {
				return out, err
			}
			if err := checkCounts(rm, req.light); err != nil {
				out.wrongOutput("request %d: %v", i, err)
				continue
			}
			first = req
			c.addRun(rm)
		} else {
			if !bytes.Equal(req.encoded, first.encoded) {
				out.wrongOutput("request %d: result differs from the first request's", i)
				continue
			}
			repeats = append(repeats, req.total.Seconds()*s)
		}
		runs = append(runs, req.run.Seconds()*s)
		totals = append(totals, req.total.Seconds()*s)
		simRates = append(simRates, w.horizon/86400/(req.run.Seconds()*s))
		wallRuns = append(wallRuns, req.run.Seconds())
	}
	if first.encoded == nil {
		return out, fmt.Errorf("no request succeeded")
	}
	addCounts(rep, c, 1)
	if cfg.trace == 1 {
		return out, traceLocal(ctx, w, cfg, dev, inits, rep, &out)
	}
	rep.add("run_s.p50", median(runs), "s", len(runs), "engine run alone")
	rep.add("run_s.p50.wall", median(wallRuns), "s", len(wallRuns), "engine run alone, wall time")
	rep.add("simdays_per_s", median(simRates), "simdays/s", len(simRates), "")
	rep.addDist("result_ms", totals, 1e3, "ms")
	rep.add("hit_ms.p50", median(repeats)*1e3, "ms", len(repeats),
		"repeated request; the local path has no cache")
	return out, nil
}

// minRequests keeps at least this many requests per run, so repeats
// are checked and a median exists even on a short budget.
const minRequests = 3

// counts are the engine's own work counters; they repeat exactly.
type counts struct {
	demandWrites, visits, probes, decodes, writebacks, repairs, sweeps float64
	// escalations are the decodes of runs under light detection: probes
	// that fired.
	escalations float64
}

func (c *counts) addRun(r service.RunMetrics) {
	c.demandWrites += float64(r.DemandWrites)
	c.visits += float64(r.ScrubVisits)
	c.probes += float64(r.ScrubProbes)
	c.decodes += float64(r.ScrubDecodes)
	c.writebacks += float64(r.ScrubWriteBacks)
	c.repairs += float64(r.RepairWrites)
	c.sweeps += float64(r.Sweeps)
	if r.ScrubProbes > 0 {
		c.escalations += float64(r.ScrubDecodes)
	}
}

// addCounts reports the counters summed over runs results.
func addCounts(rep *report, c counts, runs int) {
	rep.add("engine.demand_writes", c.demandWrites, "count", runs, "")
	rep.add("engine.visits", c.visits, "count", runs, "")
	rep.add("engine.probes", c.probes, "count", runs, "")
	rep.add("engine.decodes", c.decodes, "count", runs, "")
	rep.add("engine.writebacks", c.writebacks, "count", runs, "")
	rep.add("engine.repairs", c.repairs, "count", runs, "")
	rep.add("engine.sweeps", c.sweeps, "count", runs, "")
	rep.add("engine.decode_per_probe", ratio(c.escalations, c.probes), "ratio", runs,
		"useful escalations of the light probe")
	rep.add("engine.writeback_per_visit", ratio(c.writebacks, c.visits), "ratio", runs, "")
}

// traceLocal adds the per-layer figures of a local workload: the rungs
// that need no trace mode, then alternating untraced/traced pairs. The
// service and journal layers do not run here; their figures read 0.
func traceLocal(ctx context.Context, w localWorkload, cfg runConfig, dev *engine.Device, inits []float64, rep *report, out *outcome) error {
	if err := samplerRungs(cfg.seed, rep, out); err != nil {
		return err
	}
	rep.add("engine.init_ms", median(inits)*1e3, "ms", len(inits), "engine.NewDevice on the workload spec")
	perVisit, err := patrolRung(dev)
	if err != nil {
		return err
	}
	rep.add("engine.patrol.ns_per_visit", median(perVisit), "ns", len(perVisit), "Device.PatrolChunk, negligible dt")

	horizon := w.horizon
	if w.traceHorizon > 0 {
		horizon = w.traceHorizon
	}
	do := func(_ int, hooks *engine.Hooks) (request, error) { return w.do(ctx, cfg.seed, horizon, hooks) }
	if err := tracePairs(do, time.Duration(cfg.seconds)*time.Second, rep, out); err != nil {
		return err
	}
	addServiceAbsent(rep)
	return nil
}

// tracePairs alternates untraced and traced runs of the same request
// until the budget is spent (at least one pair), swapping which side
// goes first each pair. It reports every stage's time per operation and
// share, the unattributed share, and the traced/untraced wall ratio.
func tracePairs(do func(pair int, hooks *engine.Hooks) (request, error), budget time.Duration, rep *report, out *outcome) error {
	spans := new(engine.SpanRecorder)
	var tracedWall float64
	var overhead []float64
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < budget; pair++ {
		var plain, traced request
		for side := 0; side < 2; side++ {
			withSpans := (side+pair)%2 == 1
			var hooks *engine.Hooks
			if withSpans {
				hooks = &engine.Hooks{Spans: spans}
			}
			out.attempted++
			req, err := do(pair, hooks)
			if err != nil {
				out.fail("trace pair %d: %v", pair, err)
				continue
			}
			if withSpans {
				traced = req
			} else {
				plain = req
			}
		}
		if plain.encoded == nil || traced.encoded == nil {
			continue
		}
		if !bytes.Equal(plain.encoded, traced.encoded) {
			out.wrongOutput("trace pair %d: traced result differs from untraced", pair)
			continue
		}
		tracedWall += traced.run.Seconds()
		overhead = append(overhead, traced.run.Seconds()/plain.run.Seconds())
	}
	if len(overhead) == 0 {
		return fmt.Errorf("no trace pair succeeded")
	}
	all := spans.Spans()
	kernel := engine.StageKernel.String()
	nanos := make(map[string]float64, len(all))
	spanNanos := 0.0 // non-kernel span time
	for _, s := range all {
		nanos[s.Stage] = float64(s.Nanos)
		if s.Stage != kernel {
			spanNanos += float64(s.Nanos)
		}
	}
	kernelNanos := nanos[kernel]
	wallNanos := tracedWall * 1e9
	// Shares are of the traced wall time less the kernel stage, which
	// only trace mode runs: they describe the run a user sees.
	userNanos := wallNanos - kernelNanos
	for _, s := range all {
		name := "engine.stage." + s.Stage
		rep.add(name+".ns_per_op", s.MeanNanos, "ns", int(s.Count), "")
		if s.Stage == kernel {
			rep.add(name+".share", ratio(float64(s.Nanos), wallNanos), "fraction", len(overhead),
				"of traced wall; trace-only work")
			continue
		}
		rep.add(name+".share", ratio(float64(s.Nanos), userNanos), "fraction", len(overhead), "")
	}
	rep.add("engine.unattributed.share", ratio(userNanos-spanNanos, userNanos), "fraction", len(overhead),
		"init and loop overhead")
	// Which layer a workload stresses, free of the tracing overhead that
	// lands between spans.
	rep.add("engine.span.demand.share", ratio(nanos[engine.StageDemand.String()], spanNanos), "fraction", len(overhead),
		"of non-kernel span time")
	rep.add("engine.span.probe_decode.share", ratio(nanos[engine.StageProbe.String()]+nanos[engine.StageDecode.String()], spanNanos), "fraction", len(overhead),
		"of non-kernel span time")
	rep.add("trace.overhead_ratio", median(overhead), "ratio", len(overhead), "traced wall / untraced wall")
	return nil
}

// samplerRungs times the drift and endurance samplers directly, with
// paper-demand's parameters, and checks their outputs.
func samplerRungs(seed uint64, rep *report, out *outcome) error {
	model, err := pcm.NewModel(pcm.DefaultParams())
	if err != nil {
		return err
	}
	// The engine tracks T+4 crossings per line; BCH-8 makes that 12.
	const k = 12
	ls, err := pcm.NewLineSampler(model, pcm.UniformMix(), pcm.CellsPerLine, k)
	if err != nil {
		return err
	}
	wm, err := wear.NewModel(wear.DefaultParams())
	if err != nil {
		return err
	}
	rng := stats.NewRNG(seed)
	var cross, weak []float64
	crossNs := timeBatches(func() { cross = ls.SampleCrossings(rng, cross) })
	out.attempted++
	if err := checkAscending(cross, k, false); err != nil {
		out.wrongOutput("SampleCrossings: %v", err)
	}
	weakNs := timeBatches(func() { weak = wm.SampleWeakest(rng, weak) })
	out.attempted++
	if err := checkAscending(weak, wear.DefaultParams().K, true); err != nil {
		out.wrongOutput("SampleWeakest: %v", err)
	}
	rep.add("pcm.sample_crossings.ns", median(crossNs), "ns", len(crossNs), "per line write")
	rep.add("wear.sample_weakest.ns", median(weakNs), "ns", len(weakNs), "per line")
	return nil
}

// checkAscending verifies a sampler's output: positive, finite,
// ascending, at most (or, when exact, exactly) k entries.
func checkAscending(v []float64, k int, exact bool) error {
	if len(v) > k || (exact && len(v) != k) {
		return fmt.Errorf("%d entries, want %d", len(v), k)
	}
	for i, x := range v {
		if !(x > 0) || math.IsInf(x, 0) {
			return fmt.Errorf("entry %d is %g", i, x)
		}
		if i > 0 && x < v[i-1] {
			return fmt.Errorf("entries %d,%d descend", i-1, i)
		}
	}
	return nil
}

// timeBatches times batches of calls and returns ns per call per batch.
func timeBatches(f func()) []float64 {
	const batches, calls = 7, 20000
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/calls)
	}
	return out
}

// patrolRung times Device.PatrolChunk over whole patrol passes with a
// negligible dt, so no demand traffic lands and the figure is the visit
// loop alone.
func patrolRung(dev *engine.Device) ([]float64, error) {
	const passes = 5
	var obs []engine.LineObservation
	out := make([]float64, 0, passes)
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		rep, err := dev.PatrolChunk(dev.Slots(), 1e-9, obs)
		if err != nil {
			return nil, err
		}
		obs = rep.Observations
		out = append(out, float64(time.Since(t0).Nanoseconds())/float64(rep.Lines))
	}
	return out, nil
}
