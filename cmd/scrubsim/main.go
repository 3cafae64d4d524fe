// Command scrubsim runs a single scrub-mechanism simulation and prints a
// detailed report: reliability, scrub activity, energy breakdown, wear,
// and the estimated performance overhead.
//
// Usage:
//
//	scrubsim [flags]
//
// Examples:
//
//	scrubsim -mechanism basic -workload db-oltp
//	scrubsim -mechanism combined -workload idle-archive -horizon 604800
//	scrubsim -scheme BCH-4 -policy threshold-3 -interval 7200 -workload kv-store
//	scrubsim -workload kv-store -record kv.trace          # export a trace
//	scrubsim -trace kv.trace -mechanism combined          # replay it
//	scrubsim -mechanism combined -json                    # machine-readable result
//	scrubsim -mechanism combined -trace-stages            # per-stage engine timings
//	scrubsim -submit http://127.0.0.1:8344 -replicas 8    # run remotely on scrubd
//
// The flags always become a scrubd job spec (service.Spec), so a local
// run and a submitted one read every shared flag the same way (-seed 0,
// for instance, selects the default seed 1 on both). A local run builds
// the spec in-process and layers the local-only flags (-trace, -record,
// -gap, -slc, -ecp, -trace-stages) on top. With -submit the job is
// POSTed to the daemon, polled until it finishes, and reported exactly
// like a local run (plus a replica-spread summary when -replicas > 1);
// the local-only flags are rejected in this mode.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/httpx"
	"repro/internal/ondie"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scrubsim:", err)
		os.Exit(1)
	}
}

// run parses args as scrubsim's command line and executes it.
func run(args []string) error {
	fs := flag.NewFlagSet("scrubsim", flag.ExitOnError)
	var (
		mechName = fs.String("mechanism", "combined", "suite mechanism: basic|strong-ecc|light-detect|threshold|combined (overridden by -scheme/-policy)")
		workload = fs.String("workload", "db-oltp", "built-in workload name (see -list)")
		horizon  = fs.Float64("horizon", 0, "simulated seconds (0 = system default)")
		seed     = fs.Uint64("seed", 1, "simulation seed (0 = the default, 1)")
		interval = fs.Float64("interval", 0, "initial scrub interval seconds (0 = derived; negative is an error)")
		schemeN  = fs.String("scheme", "", "override ECC scheme: SECDED or BCH-<t>")
		policyN  = fs.String("policy", "", "override policy: basic|always|light|threshold-<k>|combined-<k>|profiled|profiled-<k>")
		aged     = fs.Uint64("aged", 0, "pre-age every line by this many writes")
		gap      = fs.Uint64("gap", 0, "enable Start-Gap wear leveling with this gap-move period (0 = off)")
		slc      = fs.Float64("slc", 0, "fraction of writes stored drift-free in SLC form (form switch)")
		ecpN     = fs.Int("ecp", 0, "error-correcting pointer entries per line (0 = off)")
		traceIn  = fs.String("trace", "", "replay demand writes from this trace file instead of the synthetic workload")
		record   = fs.String("record", "", "record the workload's event stream to this trace file and exit")
		list     = fs.Bool("list", false, "list workloads and mechanisms, then exit")
		jsonOut  = fs.Bool("json", false, "emit the run result as a single JSON object (the scrubd result encoding)")
		timeout  = fs.Duration("timeout", 0, "abort the simulation after this long (0 = no limit)")
		traceStg = fs.Bool("trace-stages", false, "record per-stage wall-clock spans of the run pipeline and print them after the report (local runs only)")
		submit   = fs.String("submit", "", "submit the run as a job to this scrubd base URL instead of simulating locally")
		replicas = fs.Int("replicas", 0, "Monte Carlo replica count for -submit jobs (0 = 1)")
		pollWait = fs.Duration("poll-timeout", 0, "give up waiting for a submitted job after this long (0 = wait forever)")

		faultRead      = fs.Float64("fault-read", 0, "per-visit probability a scrub read flips extra bits")
		faultReadBits  = fs.Int("fault-read-bits", 0, "max phantom bits per faulty read (0 = default)")
		faultSkip      = fs.Float64("fault-skip", 0, "per-sweep probability the sweep is cut short")
		faultProbeMiss = fs.Float64("fault-probe-miss", 0, "probability a dirty light probe aliases to clean")
		faultStuck     = fs.Float64("fault-stuck", 0, "per-line probability of stuck ECC check bits")
		faultStall     = fs.Float64("fault-stall", 0, "per-sweep probability of a controller stall")

		ondieT        = fs.Int("ondie-t", 0, "on-die ECC strength per 64-bit word: 1 = SECDED, 2..9 = BCH-t (0 = off)")
		ondieWeakT    = fs.Int("ondie-weak-t", 0, "weaker on-die strength for the coldest lines (Luo-style capacity trade; 0 = uniform)")
		ondieWeakFrac = fs.Float64("ondie-weak-frac", 0, "fraction of lines (coldest first) running the weaker on-die code")

		version = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *version {
		fmt.Println("scrubsim", buildinfo.Get())
		return nil
	}

	if *list {
		fmt.Println("workloads: ")
		for _, n := range trace.Names() {
			fmt.Println("  ", n)
		}
		fmt.Println("mechanisms: basic strong-ecc light-detect threshold combined")
		return nil
	}

	plan := &fault.Plan{
		ReadFlipRate:    *faultRead,
		ReadFlipMaxBits: *faultReadBits,
		SweepSkipRate:   *faultSkip,
		ProbeMissRate:   *faultProbeMiss,
		StuckCheckRate:  *faultStuck,
		StallRate:       *faultStall,
	}
	// Validate before the Enabled gate: a negative rate must be rejected,
	// not silently treated as "no faults".
	if err := plan.Validate(); err != nil {
		return err
	}

	odCfg := &ondie.Config{T: *ondieT, WeakT: *ondieWeakT, WeakFraction: *ondieWeakFrac}
	if err := odCfg.Validate(); err != nil {
		return err
	}

	// One job spec describes the run on both paths: -submit sends it to
	// scrubd, a local run builds it here, so the two cannot diverge.
	spec := service.Spec{
		Mechanism:   *mechName,
		Scheme:      *schemeN,
		Policy:      *policyN,
		IntervalSec: *interval,
		Workload:    *workload,
		HorizonSec:  *horizon,
		Seed:        *seed,
		Replicas:    *replicas,
		AgedWrites:  uint32(*aged),
	}
	if plan.Enabled() {
		spec.Fault = plan
	}
	if odCfg.Enabled() {
		spec.OnDie = odCfg
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *submit != "" {
		if *traceIn != "" || *record != "" || *gap != 0 || *slc != 0 || *ecpN != 0 || *traceStg {
			return fmt.Errorf("-trace, -record, -gap, -slc, -ecp and -trace-stages have no job-spec equivalent; drop them or run locally")
		}
		return submitAndReport(ctx, *submit, spec, *jsonOut, *pollWait)
	}
	if *replicas > 1 {
		return fmt.Errorf("-replicas needs -submit; local runs are single (use scrubd or cmd/experiments for campaigns)")
	}

	sys, mech, w, err := spec.Build()
	if err != nil {
		return err
	}
	if *record != "" {
		return recordTrace(sys, w, *record)
	}
	// Local-only options ride on top of the built spec.
	opts := core.Options{
		GapMovePeriod: *gap,
		SLCFraction:   *slc,
		ECPEntries:    *ecpN,
	}
	if *traceIn != "" {
		if opts.Source, err = loadTrace(sys, *traceIn); err != nil {
			return err
		}
	}
	var spans *engine.SpanRecorder
	if *traceStg {
		spans = &engine.SpanRecorder{}
		opts.Hooks = &engine.Hooks{Spans: spans}
	}
	res, err := core.RunOneWithOptionsContext(ctx, sys, mech, w, opts)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(service.NewRunMetrics(res))
	}
	if err := printReport(sys, mech, w, res, *gap > 0); err != nil {
		return err
	}
	if spans != nil {
		fmt.Println()
		if err := printStages(spans); err != nil {
			return err
		}
	}
	return nil
}

// printStages renders the engine's per-stage span timings, recorded when
// -trace-stages wires a SpanRecorder into the run's instrumentation
// hooks. Stages with zero observations (e.g. probes under a full-decode
// policy) are elided.
func printStages(rec *engine.SpanRecorder) error {
	st := core.Table{Title: "Engine stages", Header: []string{"stage", "spans", "total", "mean"}}
	for _, sp := range rec.Spans() {
		if sp.Count == 0 {
			continue
		}
		st.AddRow(sp.Stage,
			core.FmtCount(sp.Count),
			time.Duration(sp.Nanos).Round(time.Microsecond).String(),
			time.Duration(sp.MeanNanos).Round(time.Nanosecond).String())
	}
	return st.Render(os.Stdout)
}

// printReport renders the standard run report — shared by local runs and
// remote results reconstructed from a scrubd job. showGap adds the
// wear-leveler row, which only local runs can enable.
func printReport(sys core.System, mech core.Mechanism, w trace.Workload, res *engine.Result, showGap bool) error {
	fmt.Printf("mechanism  %s (scheme %s, policy %s)\n", mech.Name, mech.Scheme.Name(), mech.Policy.Name())
	fmt.Printf("workload   %s\n", w.Name)
	fmt.Printf("region     %d lines (%d KiB data), horizon %s, initial interval %s\n",
		res.Lines, int64(res.Lines)*64/1024, core.FmtSeconds(res.SimSeconds), core.FmtSeconds(mech.Interval))
	fmt.Println()

	rel := core.Table{Title: "Reliability", Header: []string{"metric", "value"}}
	rel.AddRow("uncorrectable errors", core.FmtCount(res.UEs))
	rel.AddRow("UE rate (per GB-day)", fmt.Sprintf("%.3f", res.UERatePerGBDay(64)))
	rel.AddRow("corrected bits", core.FmtCount(res.CorrectedBits))
	rel.AddRow("worst line errors", fmt.Sprintf("%d bits", res.MaxErrBits))
	if err := rel.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	act := core.Table{Title: "Scrub activity", Header: []string{"metric", "value"}}
	act.AddRow("sweeps", core.FmtCount(int64(res.Sweeps)))
	act.AddRow("visits", core.FmtCount(res.ScrubVisits))
	act.AddRow("light probes", core.FmtCount(res.ScrubProbes))
	act.AddRow("full decodes", core.FmtCount(res.ScrubDecodes))
	act.AddRow("policy write-backs", core.FmtCount(res.ScrubWriteBacks))
	act.AddRow("UE repair writes", core.FmtCount(res.RepairWrites))
	act.AddRow("final interval", core.FmtSeconds(res.FinalInterval))
	if err := act.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	en := core.Table{Title: "Scrub energy", Header: []string{"component", "energy"}}
	en.AddRow("array reads", core.FmtEnergy(res.ScrubEnergy.ReadPJ))
	en.AddRow("decode", core.FmtEnergy(res.ScrubEnergy.DecodePJ))
	en.AddRow("light detect", core.FmtEnergy(res.ScrubEnergy.DetectPJ))
	en.AddRow("write-backs", core.FmtEnergy(res.ScrubEnergy.WritePJ))
	en.AddRow("total", core.FmtEnergy(res.ScrubEnergy.Total()))
	if err := en.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	wearT := core.Table{Title: "Wear and demand", Header: []string{"metric", "value"}}
	wearT.AddRow("demand writes", core.FmtCount(res.DemandWrites))
	wearT.AddRow("total line writes", core.FmtCount(res.TotalLineWrites))
	wearT.AddRow("max slot writes", core.FmtCount(int64(res.MaxLineWrites)))
	wearT.AddRow("lines with dead cells", core.FmtCount(int64(res.LinesWithDead)))
	wearT.AddRow("dead cells", core.FmtCount(res.DeadCells))
	if showGap {
		wearT.AddRow("leveler gap moves", core.FmtCount(res.LevelerMoves))
	}
	if err := wearT.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	if sys.Fault.Enabled() && res.Faults.Any() {
		ft := core.Table{Title: "Injected faults", Header: []string{"metric", "value"}}
		ft.AddRow("faulty scrub reads", core.FmtCount(res.Faults.ReadFaultVisits))
		ft.AddRow("phantom bits", core.FmtCount(res.Faults.PhantomBits))
		ft.AddRow("sweeps interrupted", core.FmtCount(res.Faults.SweepsInterrupted))
		ft.AddRow("lines skipped", core.FmtCount(res.Faults.LinesSkipped))
		ft.AddRow("probe false-cleans", core.FmtCount(res.Faults.ProbeFalseCleans))
		ft.AddRow("stuck-check lines", core.FmtCount(res.Faults.StuckCheckLines))
		ft.AddRow("stuck-bit decodes", core.FmtCount(res.Faults.StuckDecodes))
		ft.AddRow("controller stalls", core.FmtCount(res.Faults.Stalls))
		ft.AddRow("stall time", core.FmtSeconds(res.Faults.StallSeconds))
		ft.AddRow("fault-induced UEs", core.FmtCount(res.Faults.InducedUEs))
		if err := ft.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if res.OnDieCorrectedBits > 0 || res.OnDieOverflows > 0 || res.OnDieWeakLines > 0 || res.ProfileRounds > 0 {
		od := core.Table{Title: "On-die ECC", Header: []string{"metric", "value"}}
		od.AddRow("hidden corrected bits", core.FmtCount(res.OnDieCorrectedBits))
		od.AddRow("strength overflows", core.FmtCount(res.OnDieOverflows))
		if res.OnDieWeakLines > 0 {
			od.AddRow("weak-code lines", core.FmtCount(int64(res.OnDieWeakLines)))
			od.AddRow("check bits saved", core.FmtCount(res.OnDieCheckBitsSaved))
		}
		if res.ProfileRounds > 0 {
			od.AddRow("profiling rounds", core.FmtCount(res.ProfileRounds))
			od.AddRow("profiling reads", core.FmtCount(res.ProfileReads))
			od.AddRow("direct error bits", core.FmtCount(res.ProfileDirectBits))
			od.AddRow("indirect error bits", core.FmtCount(res.ProfileIndirectBits))
			od.AddRow("at-risk lines", core.FmtCount(int64(res.AtRiskLines)))
			od.AddRow("at-risk visits", core.FmtCount(res.AtRiskVisits))
		}
		if err := od.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if res.UEs > 0 {
		det := core.Table{Title: "UE detection", Header: []string{"metric", "value"}}
		det.AddRow("read-first UEs", core.FmtCount(res.UEsReadFirst))
		det.AddRow("mean latency", core.FmtSeconds(res.UEDetectDelay.Mean()))
		det.AddRow("max latency", core.FmtSeconds(res.UEDetectDelay.Max()))
		if err := det.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	slow, err := core.PerfOverhead(sys, w, res)
	if err != nil {
		return err
	}
	fmt.Printf("estimated demand slowdown from scrub traffic: %.4fx\n", slow)
	return nil
}

// submitAndReport runs the spec remotely: submit to scrubd, poll until
// the job finishes, and render the result like a local run.
func submitAndReport(ctx context.Context, base string, spec service.Spec, jsonOut bool, pollTimeout time.Duration) error {
	res, err := submitJob(ctx, base, spec, pollTimeout)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	// The daemon echoes the normalised spec; rebuilding it yields the
	// same system/mechanism/workload the report needs for headers and the
	// slowdown estimate.
	sys, mech, w, err := res.Spec.Build()
	if err != nil {
		return fmt.Errorf("rebuild remote spec: %w", err)
	}
	if len(res.Runs) == 0 {
		return fmt.Errorf("remote result %s carries no runs", res.Fingerprint)
	}
	fmt.Printf("remote     %s (fingerprint %.12s, %d/%d replicas", base, res.Fingerprint,
		res.Replicas.Completed, res.Replicas.Requested)
	if res.Replicas.Requested > 1 {
		fmt.Printf("; report shows replica %d", res.Runs[0].ReplicaIndex)
	}
	fmt.Println(")")
	if err := printReport(sys, mech, w, res.Runs[0].ToSimResult(), false); err != nil {
		return err
	}
	if res.Replicas.Requested > 1 {
		fmt.Println()
		sp := core.Table{Title: "Replica spread", Header: []string{"metric", "mean", "stderr", "min", "max"}}
		addSpread := func(name string, m service.MetricSummary) {
			sp.AddRow(name,
				fmt.Sprintf("%.4g", m.Mean), fmt.Sprintf("%.3g", m.StdErr),
				fmt.Sprintf("%.4g", m.Min), fmt.Sprintf("%.4g", m.Max))
		}
		addSpread("uncorrectable errors", res.UEs)
		addSpread("scrub writes", res.ScrubWrites)
		addSpread("scrub energy (pJ)", res.ScrubEnergyPJ)
		if err := sp.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// pollBackoff computes the jittered exponential poll delay for attempt n
// (0-based): ceiling 50ms<<n capped at 2s, drawn uniformly from the
// ceiling's upper half so the daemon is polled neither in lockstep nor
// too lazily.
func pollBackoff(attempt int) time.Duration {
	const (
		base = 50 * time.Millisecond
		max  = 2 * time.Second
	)
	ceil := base
	for i := 0; i < attempt && ceil < max; i++ {
		ceil *= 2
	}
	if ceil > max {
		ceil = max
	}
	half := ceil / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// submitJob POSTs the spec to scrubd's jobs API — retrying a 429
// (queue-full) or 503 (shedding) submission after the daemon's
// Retry-After hint — and polls the job with jittered exponential backoff
// until it reaches a terminal state. A non-zero pollTimeout bounds the
// whole wait.
func submitJob(ctx context.Context, base string, spec service.Spec, pollTimeout time.Duration) (*service.Result, error) {
	if pollTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pollTimeout)
		defer cancel()
	}
	base = strings.TrimSuffix(base, "/")
	var sub service.Submission
	for attempt := 0; ; attempt++ {
		_, err := httpx.Call(ctx, nil, http.MethodPost, base+"/v1/jobs", nil, spec, &sub)
		var se *httpx.StatusError
		if errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
			// 429 is queue-full or tenant rate limiting, 503 is load
			// shedding; both are back-pressure, not outages, and both
			// carry a Retry-After worth honouring.
			wait := pollBackoff(attempt)
			if se.RetryAfter > 0 {
				wait = time.Duration(se.RetryAfter) * time.Second
			}
			fmt.Fprintf(os.Stderr, "scrubsim: daemon busy (%s), retrying submission in %s\n",
				se.Msg, wait.Round(time.Millisecond))
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("submit to %s: %w", base, ctx.Err())
			case <-time.After(wait):
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("submit to %s: %w", base, err)
		}
		if sub.ID == "" {
			return nil, fmt.Errorf("submit to %s: reply carries no job id", base)
		}
		break
	}
	fmt.Fprintf(os.Stderr, "scrubsim: submitted job %s\n", sub.ID)

	for attempt := 0; ; attempt++ {
		view, err := fetchJob(ctx, base, sub.ID)
		if err != nil {
			return nil, err
		}
		switch view.State {
		case service.StateDone:
			if view.Result == nil {
				return nil, fmt.Errorf("job %s done without a result", sub.ID)
			}
			var res service.Result
			if err := json.Unmarshal(view.Result, &res); err != nil {
				return nil, fmt.Errorf("decode job %s result: %w", sub.ID, err)
			}
			return &res, nil
		case service.StateFailed:
			return nil, fmt.Errorf("job %s failed: %s", sub.ID, view.Error)
		case service.StateCancelled:
			return nil, fmt.Errorf("job %s was cancelled", sub.ID)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("waiting for job %s: %w", sub.ID, ctx.Err())
		case <-time.After(pollBackoff(attempt)):
		}
	}
}

// fetchJob reads one job view from the daemon.
func fetchJob(ctx context.Context, base, id string) (*service.JobView, error) {
	var view service.JobView
	if _, err := httpx.Call(ctx, nil, http.MethodGet, base+"/v1/jobs/"+id, nil, nil, &view); err != nil {
		return nil, fmt.Errorf("poll job %s: %w", id, err)
	}
	return &view, nil
}

// recordTrace samples the workload's event stream over the system horizon
// and writes it to path in the replayable text format.
func recordTrace(sys core.System, w trace.Workload, path string) error {
	gen, err := trace.NewGenerator(w, sys.Geometry.TotalLines(), stats.NewRNG(sys.Seed))
	if err != nil {
		return err
	}
	events, err := trace.Record(gen, stats.NewRNG(sys.Seed+1), sys.Horizon, 100)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteEvents(f, events); err != nil {
		return err
	}
	fmt.Printf("recorded %d events over %s to %s\n", len(events), core.FmtSeconds(sys.Horizon), path)
	return nil
}

// loadTrace reads a trace file and wraps it in a replayer sized to the
// simulated region.
func loadTrace(sys core.System, path string) (engine.TrafficSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := trace.ReadEvents(f)
	if err != nil {
		return nil, err
	}
	return trace.NewReplayer(events, sys.Geometry.TotalLines())
}
