package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/scrub"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The scrubd-mix traffic: small specs (1 Ki lines, 12 h simulated)
// spread over workloads, mechanisms, seeds and priority classes, sent
// open-loop as a Poisson process below the service's capacity. Every
// other arrival repeats an earlier spec, so the cache-hit and dedup read
// path runs alongside the journal + run write path.
const (
	mixRate    = 4.0         // arrivals per second
	mixHorizon = 12 * 3600.0 // simulated seconds per run
	// mixReruns fresh specs are re-run through service.DefaultRunner
	// after the timed phase and compared byte for byte.
	mixReruns = 3
	// pollEvery paces the client's status polls. Timed results come
	// from the jobs' own timestamps, so polling only costs CPU, which
	// the workers share.
	pollEvery = 50 * time.Millisecond
	// jobWait bounds how long one submission may take to finish.
	jobWait = 60 * time.Second
)

var (
	// Fresh runs take 45-350 ms on a 2-vCPU Xeon, most of them over
	// 200 ms, which keeps the two workers about 15 % busy at mixRate
	// (25 % when the host runs slow). At 10 arrivals/s both workers
	// were often busy at once, and a cache hit then waited for Go's
	// 10 ms preemption to get a processor: the hit latency's median
	// swung 1-10 ms with the host's speed. Lighter workloads were left
	// out: runs of a few tens of ms vary too much between runs to gate
	// on.
	mixWorkloads  = []string{"web-serve", "kv-store", "db-oltp"}
	mixMechanisms = []string{"basic", "strong-ecc", "light-detect", "threshold", "combined"}
	mixClasses    = []string{service.PriorityInteractive, service.PriorityNormal, service.PriorityBatch}
)

func mixGeometry() *service.GeometrySpec {
	return &service.GeometrySpec{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 8,
		RowsPerBank: 4, LinesPerRow: 32, LineBytes: 64,
	}
}

// arrival is one planned submission.
type arrival struct {
	due  time.Duration // offset from the start of the load
	spec service.Spec
}

// planMix lays out n arrivals from the seed. Fresh specs cycle through
// every workload × mechanism pair, so the cost mix is the same at every
// seed; the arrival times, the seeds of the runs and the choice of
// repeated spec come from the benchmark seed. Run seeds start at 2: seed
// 1 is the warm-up's.
func planMix(seed uint64, n int) (plan []arrival, distinct []service.Spec) {
	rng := stats.NewRNG(seed)
	nw := len(mixWorkloads)
	at := 0.0
	for i := 0; i < n; i++ {
		a := arrival{due: time.Duration(at * float64(time.Second))}
		at += rng.Exponential(mixRate)
		if i%2 == 1 {
			a.spec = distinct[rng.Intn(len(distinct))]
		} else {
			c := len(distinct)
			a.spec = service.Spec{
				Mechanism:  mixMechanisms[(c/nw)%len(mixMechanisms)],
				Workload:   mixWorkloads[c%nw],
				HorizonSec: mixHorizon,
				Seed:       2 + rng.Uint64n(1<<31),
				Geometry:   mixGeometry(),
			}
			distinct = append(distinct, a.spec)
		}
		a.spec.Priority = mixClasses[i%len(mixClasses)]
		plan = append(plan, a)
	}
	return plan, distinct
}

// warmSpecs prime the engine's sampler cache for both tracked-crossing
// depths the mix uses (SECDED and BCH-8), as a long-running daemon's
// would be.
func warmSpecs() []service.Spec {
	out := make([]service.Spec, 0, 2)
	for _, m := range []string{"basic", "combined"} {
		out = append(out, service.Spec{
			Mechanism: m, Workload: "idle-archive", HorizonSec: mixHorizon,
			Seed: 1, Geometry: mixGeometry(),
		})
	}
	return out
}

// daemon is an in-process scrubd: the service with scrubd's defaults, a
// journal in a scratch directory, served over loopback HTTP.
type daemon struct {
	dir    string
	jn     *journal.Journal
	svc    *service.Service
	srv    *http.Server
	served chan error
	client *client
}

func startDaemon(ctx context.Context, workDir string) (*daemon, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "scrubd-journal-")
	if err != nil {
		return nil, err
	}
	jn, _, err := journal.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	shed := service.DefaultShedConfig()
	svc := service.New(service.Config{
		QueueCapacity: 64,
		CacheCapacity: 256,
		Journal:       jn,
		Shed:          &shed,
		Aging:         30 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(ctx)
		jn.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir: dir, jn: jn, svc: svc,
		srv:    &http.Server{Handler: service.NewHandler(svc)},
		served: make(chan error, 1),
		client: newClient("http://" + ln.Addr().String()),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for its server and workers.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.tr.CloseIdleConnections()
	errs := []error{d.srv.Shutdown(ctx)}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, d.svc.Shutdown(ctx), d.jn.Close(), os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// client speaks scrubd's HTTP API over at most nproc keep-alive
// connections.
type client struct {
	base string
	tr   *http.Transport
	http *http.Client
}

func newClient(base string) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr, Timeout: jobWait}}
}

// submit posts a spec and returns the HTTP status with the submission
// (zero unless accepted).
func (c *client) submit(ctx context.Context, spec service.Spec) (service.Submission, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.Submission{}, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return service.Submission{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return service.Submission{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.Submission{}, resp.StatusCode, err
	}
	var sub service.Submission
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &sub); err != nil {
			return service.Submission{}, resp.StatusCode, fmt.Errorf("decode submission: %w", err)
		}
	}
	return sub, resp.StatusCode, nil
}

func (c *client) get(ctx context.Context, id string) (service.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return service.JobView{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return service.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobView{}, fmt.Errorf("GET %s: status %d", id, resp.StatusCode)
	}
	var v service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return service.JobView{}, fmt.Errorf("decode job %s: %w", id, err)
	}
	return v, nil
}

// await polls a job until it is terminal.
func (c *client) await(ctx context.Context, id string) (service.JobView, int, error) {
	ctx, cancel := context.WithTimeout(ctx, jobWait)
	defer cancel()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for polls := 1; ; polls++ {
		select {
		case <-ctx.Done():
			return service.JobView{}, polls, fmt.Errorf("job %s: %w", id, ctx.Err())
		case <-tick.C:
		}
		v, err := c.get(ctx, id)
		if err != nil {
			return service.JobView{}, polls, err
		}
		if v.State.Terminal() {
			return v, polls, nil
		}
	}
}

// kind classifies what the service did with a submission.
type kind int

const (
	kindFailed kind = iota
	kindRefused
	kindFresh
	kindDedup
	kindHit
)

// sample is one submission's outcome and timings, in seconds from its
// due time unless noted.
type sample struct {
	kind   kind
	status int
	err    error
	class  string
	fp     string
	result []byte
	lag    float64 // generator lateness
	submit float64 // submit response received
	done   float64 // job finished (fresh, dedup) or result in hand (hit)
	// Fresh jobs only: time queued and time running, from the job's
	// own timestamps.
	queueWait, run float64
	polls          int
	// scale converts the end-to-end times to reference seconds.
	scale float64
}

// handle sends one arrival at its due time and follows it to a result.
func (c *client) handle(ctx context.Context, a arrival, due time.Time) sample {
	s := sample{class: a.spec.Priority, lag: time.Since(due).Seconds()}
	sub, status, err := c.submit(ctx, a.spec)
	s.submit, s.status, s.fp = time.Since(due).Seconds(), status, sub.Fingerprint
	switch {
	case err != nil:
		s.err = err
		return s
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		s.kind = kindRefused
		return s
	case status != http.StatusOK && status != http.StatusAccepted:
		s.err = fmt.Errorf("submit: status %d", status)
		return s
	}
	if sub.CacheHit {
		v, err := c.get(ctx, sub.ID)
		s.done = time.Since(due).Seconds()
		if err != nil {
			s.err = err
			return s
		}
		s.kind, s.result = kindHit, v.Result
		return s
	}
	v, polls, err := c.await(ctx, sub.ID)
	s.polls = polls
	if err != nil {
		s.err = err
		return s
	}
	if v.State != service.StateDone || v.StartedAt == nil || v.FinishedAt == nil {
		s.err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
		return s
	}
	s.kind, s.result = kindFresh, v.Result
	if sub.Deduped {
		s.kind = kindDedup
	}
	s.done = v.FinishedAt.Sub(due).Seconds()
	s.queueWait = v.StartedAt.Sub(v.SubmittedAt).Seconds()
	s.run = v.FinishedAt.Sub(*v.StartedAt).Seconds()
	return s
}

// warm serves the warm-up specs through the service in-process,
// checking their state every millisecond so polling does not quantise
// the set-up time.
func (d *daemon) warm(ctx context.Context) error {
	for _, spec := range warmSpecs() {
		sub, err := d.svc.Submit(spec)
		if err != nil {
			return err
		}
		for {
			v, err := d.svc.Get(sub.ID)
			if err != nil {
				return err
			}
			if v.State == service.StateDone {
				break
			}
			if v.State.Terminal() {
				return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// setupMix starts the daemon and serves the warm-up specs, several
// times, each after a reference probe; all but the last daemon are
// stopped. It returns the set-up times in reference seconds and the live
// daemon.
func setupMix(ctx context.Context, workDir string, ref *refKernel) ([]float64, *daemon, error) {
	var times []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		s := scale(ref.probe())
		start := time.Now()
		var err error
		if d, err = startDaemon(ctx, workDir); err != nil {
			return nil, nil, err
		}
		if err := d.warm(ctx); err != nil {
			_ = d.stop()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds()*s)
	}
	return times, d, nil
}

// runMix measures the scrubd-mix workload.
func runMix(ctx context.Context, cfg runConfig, ref *refKernel, rep *report) (out outcome, err error) {
	setup, d, err := setupMix(ctx, cfg.workDir, ref)
	if err != nil {
		return out, err
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	rep.add("setup_s", median(setup), "s", len(setup), "")

	plan, distinct := planMix(cfg.seed, int(mixRate*float64(cfg.seconds)))
	fsyncs0 := d.jn.Fsyncs()
	samples, backlogMax := runLoad(ctx, d, ref, plan)
	fsyncs := d.jn.Fsyncs() - fsyncs0

	out.attempted = len(samples)
	results := checkMix(ctx, samples, distinct, &out)
	addMixMetrics(rep, samples, float64(fsyncs), backlogMax)
	var c counts
	for _, r := range results {
		for _, run := range r.Runs {
			c.addRun(run)
		}
	}
	addCounts(rep, c, len(results))

	if cfg.trace == 1 {
		if err := traceMix(ctx, cfg, distinct, rep, &out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// The load runs in windows of mixWindow. Between windows the service
// drains and the reference kernel is probed windowProbes times on the
// idle host (a probe during the load would add to it), so the end-to-end
// times of each window are scaled by the probes on either side of it and
// follow the host's drift within a run.
const (
	mixWindow    = 2500 * time.Millisecond
	windowProbes = 2
)

// runLoad sends the plan open-loop, window by window, and waits for every
// submission to reach its result. It also returns the deepest queue seen
// at an arrival.
func runLoad(ctx context.Context, d *daemon, ref *refKernel, plan []arrival) ([]sample, int) {
	samples := make([]sample, len(plan))
	backlogMax := 0
	probe := func() []float64 {
		walls := make([]float64, windowProbes)
		for i := range walls {
			walls[i] = ref.probe()
		}
		return walls
	}
	before := probe()
	for lo := 0; lo < len(plan); {
		window := plan[lo].due / mixWindow
		hi := lo
		for hi < len(plan) && plan[hi].due/mixWindow == window {
			hi++
		}
		// Arrivals keep their offsets within the window.
		start := time.Now().Add(-window * mixWindow)
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			a := plan[i]
			due := start.Add(a.due)
			time.Sleep(time.Until(due))
			if occ, _ := d.svc.QueueOccupancy(); occ > backlogMax {
				backlogMax = occ
			}
			wg.Add(1)
			go func(i int, a arrival) {
				defer wg.Done()
				samples[i] = d.client.handle(ctx, a, due)
			}(i, a)
		}
		wg.Wait()
		after := probe()
		k := scale(median(append(append([]float64(nil), before...), after...)))
		for i := lo; i < hi; i++ {
			samples[i].scale = k
		}
		before, lo = after, hi
	}
	return samples, backlogMax
}

// checkMix verifies the served results: every reply for a fingerprint
// carries the same bytes, every result holds the engine invariants, and
// the first fresh specs re-run outside the service give the same bytes.
// It returns the decoded result of every fingerprint served.
func checkMix(ctx context.Context, samples []sample, distinct []service.Spec, out *outcome) map[string]service.Result {
	ref := make(map[string][]byte)
	for _, s := range samples {
		switch s.kind {
		case kindFailed:
			out.fail("submission failed: %v", s.err)
		case kindRefused:
			out.fail("submission refused with status %d", s.status)
		default:
			if r, ok := ref[s.fp]; !ok {
				ref[s.fp] = s.result
			} else if !bytes.Equal(r, s.result) {
				out.wrongOutput("fingerprint %.12s: replies differ", s.fp)
			}
		}
	}
	results := make(map[string]service.Result, len(ref))
	for _, spec := range distinct {
		norm, err := spec.Normalized()
		if err != nil {
			out.wrongOutput("spec %+v: %v", spec, err)
			continue
		}
		fp := norm.Fingerprint()
		data, ok := ref[fp]
		if !ok {
			continue // every submission of it failed, counted above
		}
		var res service.Result
		if err := json.Unmarshal(data, &res); err != nil {
			out.wrongOutput("fingerprint %.12s: %v", fp, err)
			continue
		}
		_, mech, _, err := norm.Build()
		if err != nil {
			out.wrongOutput("fingerprint %.12s: %v", fp, err)
			continue
		}
		for _, run := range res.Runs {
			if err := checkCounts(run, mech.Policy.Detection() == scrub.LightDetect); err != nil {
				out.wrongOutput("fingerprint %.12s: %v", fp, err)
			}
		}
		results[fp] = res
		if len(results) <= mixReruns {
			rerun, err := service.DefaultRunner(ctx, norm)
			if err != nil {
				out.wrongOutput("re-run %.12s: %v", fp, err)
				continue
			}
			want, err := json.Marshal(rerun)
			if err != nil {
				out.wrongOutput("re-run %.12s: %v", fp, err)
				continue
			}
			if !bytes.Equal(want, data) {
				out.wrongOutput("re-run %.12s: served result differs from a direct run", fp)
			}
		}
	}
	return results
}

// addMixMetrics reports the end-to-end and service-layer figures of a
// load run. The end-to-end times are in reference seconds; the
// service-layer times stay wall times.
func addMixMetrics(rep *report, samples []sample, fsyncs float64, backlogMax int) {
	var results, hits, submits, waits, runs, refRuns, simRates, lags []float64
	classWaits := make(map[string][]float64)
	var fresh, dedups, accepted, polls float64
	refused := map[int]float64{}
	for _, s := range samples {
		lags = append(lags, s.lag)
		switch s.kind {
		case kindRefused:
			refused[s.status]++
			continue
		case kindFailed:
			continue
		}
		accepted++
		submits = append(submits, s.submit)
		switch s.kind {
		case kindHit:
			hits = append(hits, s.done*s.scale)
			continue
		case kindFresh:
			fresh++
			waits = append(waits, s.queueWait)
			classWaits[s.class] = append(classWaits[s.class], s.queueWait)
			runs = append(runs, s.run)
			refRuns = append(refRuns, s.run*s.scale)
			simRates = append(simRates, mixHorizon/86400/(s.run*s.scale))
		case kindDedup:
			dedups++
		}
		results = append(results, s.done*s.scale)
		polls += float64(s.polls)
	}
	rep.add("run_s.p50", median(refRuns), "s", len(refRuns), "fresh jobs, started to finished")
	rep.add("run_s.p50.wall", median(runs), "s", len(runs), "fresh jobs, wall time")
	rep.add("simdays_per_s", median(simRates), "simdays/s", len(simRates), "")
	rep.addDist("result_ms", results, 1e3, "ms")
	rep.add("hit_ms.p50", median(hits)*1e3, "ms", len(hits), "due to result bytes in hand")

	rep.addDist("service.queue_wait_ms", waits, 1e3, "ms")
	for _, class := range mixClasses {
		w := classWaits[class]
		tail, label := tailOf(w)
		rep.add("service.queue_wait_ms."+class+".tail", tail*1e3, "ms", len(w), label)
	}
	rep.add("service.backlog_max", float64(backlogMax), "count", len(samples), "queue depth at arrivals")
	rep.addDist("service.run_ms", runs, 1e3, "ms")
	rep.addDist("service.submit_ms", submits, 1e3, "ms")
	rep.add("journal.fsyncs_per_job", ratio(fsyncs, fresh), "ratio", int(fresh), "")
	rep.add("service.cache_hit_ratio", ratio(float64(len(hits)), accepted), "fraction", int(accepted), "")
	rep.add("service.dedup_ratio", ratio(dedups, accepted), "fraction", int(accepted), "")
	rep.add("service.refused.429", refused[http.StatusTooManyRequests], "count", len(samples), "")
	rep.add("service.refused.503", refused[http.StatusServiceUnavailable], "count", len(samples), "")
	rep.add("service.polls_per_job", ratio(polls, fresh+dedups), "ratio", int(fresh+dedups), "")
	lagMax := 0.0
	for _, l := range lags {
		if l > lagMax {
			lagMax = l
		}
	}
	rep.add("loadgen.lag_ms.max", lagMax*1e3, "ms", len(lags), fmt.Sprintf("open loop at %g/s", mixRate))
}

// addServiceAbsent reports the service and journal figures as 0 on a
// workload that does not run those layers.
func addServiceAbsent(rep *report) {
	const note = "no service on this workload"
	for _, name := range []string{"service.queue_wait_ms", "service.run_ms", "service.submit_ms"} {
		rep.add(name+".p50", 0, "ms", 0, note)
		rep.add(name+".tail", 0, "ms", 0, note)
	}
	for _, class := range mixClasses {
		rep.add("service.queue_wait_ms."+class+".tail", 0, "ms", 0, note)
	}
	rep.add("service.backlog_max", 0, "count", 0, note)
	rep.add("journal.fsyncs_per_job", 0, "ratio", 0, note)
	rep.add("service.cache_hit_ratio", 0, "fraction", 0, note)
	rep.add("service.dedup_ratio", 0, "fraction", 0, note)
	rep.add("service.refused.429", 0, "count", 0, note)
	rep.add("service.refused.503", 0, "count", 0, note)
	rep.add("service.polls_per_job", 0, "ratio", 0, note)
	rep.add("loadgen.lag_ms.max", 0, "ms", 0, note)
}

// traceMix adds the engine-layer figures of the mix: the rungs on its
// first spec, then traced pairs cycling through its distinct specs for
// half the run's budget.
func traceMix(ctx context.Context, cfg runConfig, distinct []service.Spec, rep *report, out *outcome) error {
	if err := samplerRungs(cfg.seed, rep, out); err != nil {
		return err
	}
	first, err := distinct[0].Normalized()
	if err != nil {
		return err
	}
	var inits []float64
	var dev *engine.Device
	for i := 0; i < setupRepeats; i++ {
		sys, m, wl, err := first.Build()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if dev, err = engine.NewDevice(engine.ResolveSpec(sys, m, wl, engine.Options{})); err != nil {
			return err
		}
		inits = append(inits, time.Since(t0).Seconds())
	}
	rep.add("engine.init_ms", median(inits)*1e3, "ms", len(inits), "engine.NewDevice on the first spec")
	perVisit, err := patrolRung(dev)
	if err != nil {
		return err
	}
	rep.add("engine.patrol.ns_per_visit", median(perVisit), "ns", len(perVisit), "Device.PatrolChunk, negligible dt")

	do := func(pair int, hooks *engine.Hooks) (request, error) {
		spec, err := distinct[pair%len(distinct)].Normalized()
		if err != nil {
			return request{}, err
		}
		return runRequest(ctx, func() (core.System, core.Mechanism, trace.Workload, error) {
			return spec.Build()
		}, hooks)
	}
	return tracePairs(do, time.Duration(cfg.seconds)*time.Second/2, rep, out)
}
