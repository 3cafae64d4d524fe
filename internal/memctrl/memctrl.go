// Package memctrl is the analytic memory-controller timing model used to
// estimate the performance cost of scrub traffic: how much bank bandwidth
// patrol reads and write-backs consume, and how much demand requests slow
// down as a result. The reliability simulator (internal/engine) produces
// scrub operation *rates*; this package converts them into utilisation and
// slowdown figures (experiment F9).
package memctrl

import (
	"fmt"
	"math"
)

// Params holds device timing.
type Params struct {
	// ReadLatencyNs is the bank-occupancy time of one line read.
	ReadLatencyNs float64
	// WriteLatencyNs is the bank-occupancy time of one line write
	// (MLC PCM iterative program-and-verify: microseconds).
	WriteLatencyNs float64
	// Banks is the number of banks serving requests in parallel.
	Banks int
	// LineBytes is the transfer size per request.
	LineBytes int
}

// DefaultParams returns MLC-PCM-class timing: 150 ns reads, 1 µs writes,
// 8 banks, 64-byte lines.
func DefaultParams() Params {
	return Params{
		ReadLatencyNs:  150,
		WriteLatencyNs: 1000,
		Banks:          8,
		LineBytes:      64,
	}
}

// Validate checks the timing parameters.
func (p *Params) Validate() error {
	if p.ReadLatencyNs <= 0 || p.WriteLatencyNs <= 0 {
		return fmt.Errorf("memctrl: latencies must be positive")
	}
	if p.Banks < 1 {
		return fmt.Errorf("memctrl: need at least one bank")
	}
	if p.LineBytes < 1 {
		return fmt.Errorf("memctrl: LineBytes must be positive")
	}
	return nil
}

// Model evaluates utilisation and slowdown.
type Model struct {
	p Params
}

// NewModel validates params and builds a model.
func NewModel(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{p: p}, nil
}

// MustModel is NewModel that panics on error.
func MustModel(p Params) *Model {
	m, err := NewModel(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns a copy of the model's parameters.
func (m *Model) Params() Params { return m.p }

// Rates describes steady-state request rates in operations per second.
type Rates struct {
	DemandReads  float64
	DemandWrites float64
	ScrubReads   float64
	ScrubWrites  float64
}

// ScrubReadRate returns the patrol read rate (lines/sec) needed to sweep
// totalLines once per intervalSec.
func ScrubReadRate(totalLines int, intervalSec float64) float64 {
	if intervalSec <= 0 {
		return math.Inf(1)
	}
	return float64(totalLines) / intervalSec
}

// Utilization returns the aggregate bank utilisation in [0, ∞): the
// fraction of total bank-time the given request rates consume. Values
// above 1 mean the configuration is infeasible.
func (m *Model) Utilization(r Rates) float64 {
	readS := m.p.ReadLatencyNs * 1e-9
	writeS := m.p.WriteLatencyNs * 1e-9
	busy := (r.DemandReads+r.ScrubReads)*readS + (r.DemandWrites+r.ScrubWrites)*writeS
	return busy / float64(m.p.Banks)
}

// ScrubShare returns the fraction of total utilisation attributable to
// scrub traffic (0 if there is no traffic at all).
func (m *Model) ScrubShare(r Rates) float64 {
	total := m.Utilization(r)
	if total == 0 {
		return 0
	}
	scrubOnly := m.Utilization(Rates{ScrubReads: r.ScrubReads, ScrubWrites: r.ScrubWrites})
	return scrubOnly / total
}

// SojournNs returns the mean demand-request sojourn time (wait + service)
// under the given rates, using the M/G/1 Pollaczek–Khinchine formula per
// bank: W = λ·E[S²] / (2·(1-ρ)). Service times are deterministic per
// class (read vs write), which makes E[S²] the class-weighted second
// moment — the term that lets rare slow PCM writes dominate waiting time.
// Returns +Inf at or beyond saturation and 0 when there is no demand.
func (m *Model) SojournNs(r Rates) float64 {
	readS := m.p.ReadLatencyNs * 1e-9
	writeS := m.p.WriteLatencyNs * 1e-9
	demandRate := r.DemandReads + r.DemandWrites
	totalRate := demandRate + r.ScrubReads + r.ScrubWrites
	if totalRate == 0 || demandRate == 0 {
		return 0
	}
	// Per-bank arrival process (requests spread uniformly over banks).
	lambda := totalRate / float64(m.p.Banks)
	es := ((r.DemandReads+r.ScrubReads)*readS + (r.DemandWrites+r.ScrubWrites)*writeS) / totalRate
	es2 := ((r.DemandReads+r.ScrubReads)*readS*readS + (r.DemandWrites+r.ScrubWrites)*writeS*writeS) / totalRate
	rho := lambda * es
	if rho >= 1 {
		return math.Inf(1)
	}
	wait := lambda * es2 / (2 * (1 - rho))
	demandService := (r.DemandReads*readS + r.DemandWrites*writeS) / demandRate
	return (demandService + wait) * 1e9
}

// Slowdown estimates the demand-latency inflation caused by scrub traffic:
// the ratio of the P-K sojourn time with scrub to the sojourn time under
// demand alone. Returns +Inf when scrub (or demand alone) saturates the
// banks, and exactly 1 when there is no scrub traffic or no demand.
func (m *Model) Slowdown(r Rates) float64 {
	demandOnly := Rates{DemandReads: r.DemandReads, DemandWrites: r.DemandWrites}
	base := m.SojournNs(demandOnly)
	if base == 0 {
		return 1 // no demand to slow down
	}
	full := m.SojournNs(r)
	if math.IsInf(base, 1) || math.IsInf(full, 1) {
		return math.Inf(1)
	}
	return full / base
}

// BandwidthMBps converts a line rate (lines/sec) into MB/s of array traffic.
func (m *Model) BandwidthMBps(lineRate float64) float64 {
	return lineRate * float64(m.p.LineBytes) / 1e6
}

// MaxScrubRate returns the highest patrol read rate (lines/sec) that keeps
// total utilisation at or below maxUtil given the demand load, assuming
// scrub writes occur on a fraction writeFrac of patrol reads. Returns 0 if
// demand alone exceeds the budget.
func (m *Model) MaxScrubRate(demandReads, demandWrites, writeFrac, maxUtil float64) float64 {
	readS := m.p.ReadLatencyNs * 1e-9
	writeS := m.p.WriteLatencyNs * 1e-9
	demandBusy := demandReads*readS + demandWrites*writeS
	budget := maxUtil*float64(m.p.Banks) - demandBusy
	if budget <= 0 {
		return 0
	}
	perScrub := readS + writeFrac*writeS
	return budget / perScrub
}

// MinScrubInterval returns the shortest sweep interval (seconds) for
// totalLines that keeps utilisation within maxUtil — the feasibility bound
// every scrub policy must respect.
func (m *Model) MinScrubInterval(totalLines int, demandReads, demandWrites, writeFrac, maxUtil float64) float64 {
	rate := m.MaxScrubRate(demandReads, demandWrites, writeFrac, maxUtil)
	if rate <= 0 {
		return math.Inf(1)
	}
	return float64(totalLines) / rate
}
