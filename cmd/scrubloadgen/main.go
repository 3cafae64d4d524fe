// Command scrubloadgen is the overload harness for scrubd's ingestion
// path: it floods a daemon with a configurable mix of tenants, priority
// classes, deadlines, and duplicate specs, records per-class submission
// latency and every admission verdict (accepted, cache hit, dedup, rate
// limited, shed, queue-full), watches /healthz for shed-state
// transitions while the flood runs, and writes the whole measurement to
// a BENCH JSON file.
//
// Usage:
//
//	scrubloadgen [-addr URL] [-jobs N] [-batch N] [-conc N] [-tenants N]
//	             [-unique N] [-deadline-pct F] [-deadline-sec F]
//	             [-horizon F] [-replicas N] [-queue N] [-workers N]
//	             [-aging D] [-no-journal] [-out FILE]
//
// With -addr it drives an existing daemon; without it, it boots an
// in-process scrubd core (real HTTP listener, real simulations, shedding
// on with default watermarks, journal group commit on) so a single
// command produces a reproducible benchmark. Specs are the smoke-test
// miniature geometry; -unique bounds the distinct fingerprints so the
// duplicate-heavy tail exercises dedup and the result cache the way a
// production flood would.
//
// Exit status is 0 as long as the flood and drain complete; admission
// refusals are measurements, not errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scrubloadgen:", err)
		os.Exit(1)
	}
}

// genConfig is the flag-settable shape of the flood.
type genConfig struct {
	Addr        string  `json:"addr,omitempty"`
	Jobs        int     `json:"jobs"`
	Batch       int     `json:"batch"`
	Conc        int     `json:"conc"`
	Tenants     int     `json:"tenants"`
	Unique      int     `json:"unique_specs"`
	DeadlinePct float64 `json:"deadline_pct"`
	DeadlineSec float64 `json:"deadline_sec"`
	Horizon     float64 `json:"horizon_sec"`
	Replicas    int     `json:"replicas"`
	Queue       int     `json:"queue"`
	Workers     int     `json:"workers"`
	Aging       string  `json:"aging"`
	Journal     bool    `json:"journal"`
	Seed        int64   `json:"seed"`
}

// classStats aggregates one scheduling class's outcomes.
type classStats struct {
	Sent        int64   `json:"sent"`
	Accepted    int64   `json:"accepted"`
	CacheHits   int64   `json:"cache_hits"`
	Deduped     int64   `json:"deduped"`
	RateLimited int64   `json:"rate_limited_429"`
	Shed        int64   `json:"shed_503"`
	QueueFull   int64   `json:"queue_full_429"`
	Rejected    int64   `json:"rejected_other"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
}

// transition is one observed shed-state change.
type transition struct {
	AtSec float64 `json:"at_sec"`
	From  string  `json:"from"`
	To    string  `json:"to"`
}

// benchReport is the BENCH_service.json payload.
type benchReport struct {
	Config         genConfig             `json:"config"`
	SubmitSeconds  float64               `json:"submit_seconds"`
	DrainSeconds   float64               `json:"drain_seconds"`
	SubmitPerSec   float64               `json:"submits_per_sec"`
	CompletedJobs  int64                 `json:"completed_jobs"`
	CompletedPerSc float64               `json:"completed_per_sec"`
	DupHitRate     float64               `json:"duplicate_fingerprint_hit_rate"`
	Classes        map[string]classStats `json:"classes"`
	ShedStates     []transition          `json:"shed_transitions"`
	FinalState     string                `json:"final_state"`
	MaxQueueDepth  int                   `json:"max_queue_depth"`
	Journal        map[string]float64    `json:"journal,omitempty"`
}

func run() error {
	var (
		addr     = flag.String("addr", "", "existing scrubd base URL (empty = boot an in-process daemon)")
		jobs     = flag.Int("jobs", 100000, "total job submissions to issue")
		batch    = flag.Int("batch", 64, "specs per POST /v1/jobs/batch request (1 = single POST /v1/jobs)")
		conc     = flag.Int("conc", 8, "concurrent submitting clients")
		tenants  = flag.Int("tenants", 6, "distinct X-Scrubd-Tenant values")
		unique   = flag.Int("unique", 2000, "distinct spec fingerprints (the rest are duplicates)")
		dlPct    = flag.Float64("deadline-pct", 0.25, "fraction of jobs carrying a deadline")
		dlSec    = flag.Float64("deadline-sec", 600, "deadline distance from submission (seconds)")
		horizon  = flag.Float64("horizon", 2000, "simulated seconds per spec (job cost knob)")
		replicas = flag.Int("replicas", 1, "Monte Carlo replicas per spec (job cost knob)")
		queueCap = flag.Int("queue", 512, "in-process daemon queue capacity")
		workers  = flag.Int("workers", 0, "in-process daemon worker pool (0 = GOMAXPROCS)")
		aging    = flag.Duration("aging", 5*time.Second, "in-process daemon starvation-avoidance knob")
		noJnl    = flag.Bool("no-journal", false, "disable the in-process daemon's write-ahead journal")
		seed     = flag.Int64("seed", 1, "load-mix random seed")
		out      = flag.String("out", "BENCH_service.json", "benchmark report path (empty = stdout only)")
	)
	flag.Parse()
	cfg := genConfig{
		Addr: *addr, Jobs: *jobs, Batch: *batch, Conc: *conc,
		Tenants: *tenants, Unique: *unique,
		DeadlinePct: *dlPct, DeadlineSec: *dlSec,
		Horizon: *horizon, Replicas: *replicas,
		Queue: *queueCap, Workers: *workers, Aging: aging.String(),
		Journal: !*noJnl, Seed: *seed,
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.Conc < 1 {
		cfg.Conc = 1
	}
	if cfg.Unique < 1 {
		cfg.Unique = 1
	}

	base := cfg.Addr
	if base == "" {
		var stop func()
		var err error
		base, stop, err = selfHost(cfg)
		if err != nil {
			return err
		}
		defer stop()
	}
	base = strings.TrimSuffix(base, "/")
	fmt.Printf("scrubloadgen: target %s (%d jobs, batch %d, %d clients)\n", base, cfg.Jobs, cfg.Batch, cfg.Conc)

	rep := benchReport{Config: cfg, Classes: make(map[string]classStats)}

	// Monitor: poll /healthz for shed-state transitions and queue depth
	// while the flood runs and drains.
	monStop := make(chan struct{})
	var monWG sync.WaitGroup
	var monMu sync.Mutex
	start := time.Now()
	last := ""
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-monStop:
				return
			case <-tick.C:
			}
			state, depth := pollAdmission(base)
			if state == "" {
				continue
			}
			monMu.Lock()
			if depth > rep.MaxQueueDepth {
				rep.MaxQueueDepth = depth
			}
			if state != last {
				if last != "" {
					rep.ShedStates = append(rep.ShedStates, transition{
						AtSec: time.Since(start).Seconds(), From: last, To: state,
					})
					fmt.Printf("scrubloadgen: shed state %s -> %s (t=%.2fs, depth %d)\n",
						last, state, time.Since(start).Seconds(), depth)
				}
				last = state
			}
			monMu.Unlock()
		}
	}()

	// The flood: conc clients pull batch-sized slices of the job stream.
	type shot struct {
		class   service.Class
		rttMs   float64
		status  int
		deduped bool
		hit     bool
	}
	results := make([][]shot, cfg.Conc)
	next := make(chan int, cfg.Conc)
	go func() {
		for off := 0; off < cfg.Jobs; off += cfg.Batch {
			next <- off
		}
		close(next)
	}()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			client := &http.Client{Timeout: 2 * time.Minute}
			local := make([]shot, 0, cfg.Jobs/cfg.Conc+cfg.Batch)
			for off := range next {
				n := cfg.Batch
				if off+n > cfg.Jobs {
					n = cfg.Jobs - off
				}
				specs := make([]service.Spec, n)
				classes := make([]service.Class, n)
				for i := 0; i < n; i++ {
					specs[i], classes[i] = makeSpec(rng, cfg)
				}
				tenant := fmt.Sprintf("tenant-%d", rng.Intn(cfg.Tenants))
				t0 := time.Now()
				statuses, dedups, hits, err := submit(client, base, tenant, specs)
				rtt := float64(time.Since(t0).Microseconds()) / 1000
				if err != nil {
					fmt.Fprintf(os.Stderr, "scrubloadgen: submit: %v\n", err)
					continue
				}
				for i := 0; i < n; i++ {
					local = append(local, shot{
						class: classes[i], rttMs: rtt,
						status: statuses[i], deduped: dedups[i], hit: hits[i],
					})
				}
			}
			results[c] = local
		}(c)
	}
	wg.Wait()
	submitWall := time.Since(start)

	// Drain: wait until the queue empties so recovery-to-healthy and the
	// completion throughput are part of the measurement.
	drainStart := time.Now()
	for {
		state, depth := pollAdmission(base)
		if state != "" && depth == 0 {
			break
		}
		if time.Since(drainStart) > 10*time.Minute {
			fmt.Fprintln(os.Stderr, "scrubloadgen: drain timed out")
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	// One extra beat so the monitor records the post-drain state.
	time.Sleep(200 * time.Millisecond)
	close(monStop)
	monWG.Wait()
	rep.FinalState = last
	fmt.Printf("scrubloadgen: final state %s\n", rep.FinalState)

	// Aggregate per class.
	perClass := map[service.Class][]float64{}
	stats := map[service.Class]*classStats{}
	for c := service.ClassBatch; c <= service.ClassInteractive; c++ {
		stats[c] = &classStats{}
	}
	var accepted, dupHits int64
	for _, local := range results {
		for _, sh := range local {
			st := stats[sh.class]
			st.Sent++
			switch {
			case sh.status == http.StatusOK || sh.status == http.StatusAccepted:
				st.Accepted++
				accepted++
				if sh.hit {
					st.CacheHits++
					dupHits++
				} else if sh.deduped {
					st.Deduped++
					dupHits++
				}
				perClass[sh.class] = append(perClass[sh.class], sh.rttMs)
			case sh.status == http.StatusServiceUnavailable:
				st.Shed++
			case sh.status == http.StatusTooManyRequests:
				// Without per-item headers the 429 split is by mode: the
				// daemon's rate limiter answers per-tenant, queue-full is
				// the terminal 429. Both are back-pressure; count together
				// under queue_full unless a rate limiter is configured.
				st.QueueFull++
			default:
				st.Rejected++
			}
		}
	}
	for c, st := range stats {
		lat := perClass[c]
		sort.Float64s(lat)
		st.P50Ms = percentile(lat, 0.50)
		st.P99Ms = percentile(lat, 0.99)
		if len(lat) > 0 {
			st.MaxMs = lat[len(lat)-1]
		}
		rep.Classes[c.String()] = *st
	}
	if accepted > 0 {
		rep.DupHitRate = float64(dupHits) / float64(accepted)
	}
	rep.SubmitSeconds = submitWall.Seconds()
	rep.DrainSeconds = time.Since(drainStart).Seconds()
	if rep.SubmitSeconds > 0 {
		rep.SubmitPerSec = float64(cfg.Jobs) / rep.SubmitSeconds
	}

	// Final metrics scrape: completion totals and journal group commits.
	m := scrapeMetrics(base)
	rep.CompletedJobs = int64(m["scrubd_jobs_completed_total"])
	total := rep.SubmitSeconds + rep.DrainSeconds
	if total > 0 {
		rep.CompletedPerSc = float64(rep.CompletedJobs) / total
	}
	if v, ok := m["scrubd_journal_records_total"]; ok {
		rep.Journal = map[string]float64{
			"records":       v,
			"fsyncs":        m["scrubd_journal_fsyncs_total"],
			"group_commits": m["scrubd_journal_group_commits_total"],
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("scrubloadgen: %d jobs in %.2fs submit + %.2fs drain (%.0f submits/s, %.0f completions/s, dup hit rate %.3f)\n",
		cfg.Jobs, rep.SubmitSeconds, rep.DrainSeconds, rep.SubmitPerSec, rep.CompletedPerSc, rep.DupHitRate)
	for _, c := range []service.Class{service.ClassInteractive, service.ClassNormal, service.ClassBatch} {
		st := rep.Classes[c.String()]
		fmt.Printf("scrubloadgen: %-11s sent %6d accepted %6d shed %5d p50 %.2fms p99 %.2fms\n",
			c, st.Sent, st.Accepted, st.Shed, st.P50Ms, st.P99Ms)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("scrubloadgen: wrote %s\n", *out)
	} else {
		fmt.Println(string(blob))
	}
	return nil
}

// makeSpec draws one job from the load mix: a seed from the bounded
// unique pool (duplicates are the point), a priority from a 20/50/30
// interactive/normal/batch split, and sometimes a deadline. The
// miniature smoke geometry keeps a fresh simulation in the low
// milliseconds.
func makeSpec(rng *rand.Rand, cfg genConfig) (service.Spec, service.Class) {
	s := service.Spec{
		Mechanism:  "basic",
		Workload:   "db-oltp",
		HorizonSec: cfg.Horizon,
		Seed:       uint64(rng.Intn(cfg.Unique)) + 1,
		Replicas:   cfg.Replicas,
		Geometry: &mem.Geometry{
			Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
			RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
		},
	}
	class := service.ClassNormal
	switch r := rng.Float64(); {
	case r < 0.20:
		class = service.ClassInteractive
	case r >= 0.70:
		class = service.ClassBatch
	}
	s.Priority = class.String()
	if rng.Float64() < cfg.DeadlinePct {
		s.DeadlineAt = time.Now().Add(time.Duration(cfg.DeadlineSec * float64(time.Second))).Format(time.RFC3339Nano)
	}
	return s, class
}

// submit posts one batch (or a single job when the batch size is 1) and
// returns per-spec statuses plus dedup/cache-hit markers. A refused
// single submission is a status, not an error.
func submit(client *http.Client, base, tenant string, specs []service.Spec) (statuses []int, dedups, hits []bool, err error) {
	statuses = make([]int, len(specs))
	dedups = make([]bool, len(specs))
	hits = make([]bool, len(specs))
	hdr := http.Header{service.TenantHeader: {tenant}}
	if len(specs) == 1 {
		var sub service.Submission
		status, err := httpx.Call(context.Background(), client, http.MethodPost, base+"/v1/jobs", hdr, specs[0], &sub)
		var se *httpx.StatusError
		if err != nil && !errors.As(err, &se) {
			return nil, nil, nil, err
		}
		statuses[0], dedups[0], hits[0] = status, sub.Deduped, sub.CacheHit
		return statuses, dedups, hits, nil
	}
	var br service.BatchSubmitResponse
	_, err = httpx.Call(context.Background(), client, http.MethodPost, base+"/v1/jobs/batch", hdr,
		service.BatchSubmitRequest{Specs: specs}, &br)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("batch submit: %w", err)
	}
	if len(br.Results) != len(specs) {
		return nil, nil, nil, fmt.Errorf("batch submit: %d results for %d specs", len(br.Results), len(specs))
	}
	for i, r := range br.Results {
		statuses[i], dedups[i], hits[i] = r.Status, r.Deduped, r.CacheHit
	}
	return statuses, dedups, hits, nil
}

// pollAdmission reads /healthz's admission block.
func pollAdmission(base string) (state string, depth int) {
	var h service.Health
	if _, err := httpx.Call(context.Background(), nil, http.MethodGet, base+"/healthz", nil, nil, &h); err != nil || h.Admission == nil {
		return "", 0
	}
	return h.Admission.State, h.Admission.QueueDepth
}

// scrapeMetrics pulls the Prometheus exposition into a name → value map
// (unlabelled samples only, which is all scrubd emits).
func scrapeMetrics(base string) map[string]float64 {
	m := map[string]float64{}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return m
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return m
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var val float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &val); err == nil {
			m[name] = val
		}
	}
	return m
}

// percentile reads the q-th quantile from an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// selfHost boots a full scrubd core — priority queue, shedding at the
// default watermarks, journal group commit — behind a real listener, and
// returns its base URL plus a stop func.
func selfHost(cfg genConfig) (string, func(), error) {
	var jn *journal.Journal
	var rec *journal.Recovery
	jdir := ""
	if cfg.Journal {
		dir, err := os.MkdirTemp("", "scrubloadgen-journal-")
		if err != nil {
			return "", nil, err
		}
		jdir = dir
		jn, rec, err = journal.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return "", nil, err
		}
	}
	shed := service.DefaultShedConfig()
	aging, _ := time.ParseDuration(cfg.Aging)
	svc := service.New(service.Config{
		QueueCapacity: cfg.Queue,
		Workers:       cfg.Workers,
		CacheCapacity: 4096,
		Journal:       jn,
		Shed:          &shed,
		Aging:         aging,
	})
	// The local harness honours whatever -batch the run asked for; the
	// spec-count cap is a production-facing guard, not a harness limit.
	hcfg := service.HandlerConfig{Role: "standalone", MaxBatchSpecs: max(cfg.Batch, service.DefaultMaxBatchSpecs)}
	if jn != nil {
		hcfg.ExtraMetrics = func(out io.Writer) error { return jn.WritePrometheus(out, rec) }
	}
	handler := service.NewHandlerWith(svc, hcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln)
	stop := func() {
		srv.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(shCtx)
		if jn != nil {
			jn.Close()
		}
		if jdir != "" {
			os.RemoveAll(jdir)
		}
	}
	return "http://" + ln.Addr().String(), stop, nil
}
