package engine

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/scrub"
)

// resultFingerprint captures every deterministic counter of a run that the
// zero-fault identity guarantee covers.
type resultFingerprint struct {
	UEs, Corrected, Demand, Visits, Decodes, Probes, WriteBacks, Repairs int64
	Sweeps                                                               int
	MaxErrBits                                                           int
	SimSeconds, FinalInterval, ScrubEnergy, DemandEnergy                 float64
	Faults                                                               fault.Counts
}

func fingerprint(r *Result) resultFingerprint {
	return resultFingerprint{
		UEs: r.UEs, Corrected: r.CorrectedBits, Demand: r.DemandWrites,
		Visits: r.ScrubVisits, Decodes: r.ScrubDecodes, Probes: r.ScrubProbes,
		WriteBacks: r.ScrubWriteBacks, Repairs: r.RepairWrites,
		Sweeps: r.Sweeps, MaxErrBits: r.MaxErrBits,
		SimSeconds: r.SimSeconds, FinalInterval: r.FinalInterval,
		ScrubEnergy: r.ScrubEnergy.Total(), DemandEnergy: r.DemandEnergy.Total(),
		Faults: r.Faults,
	}
}

// TestZeroFaultPlanIsIdentity pins the tentpole's core guarantee: a nil
// plan and an all-zero plan produce byte-identical results.
func TestZeroFaultPlanIsIdentity(t *testing.T) {
	base, err := RunContext(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSpec()
	cfg.Fault = &fault.Plan{} // all-zero: must be indistinguishable from nil
	zero, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(base) != fingerprint(zero) {
		t.Errorf("zero-rate plan perturbed the run:\n nil  %+v\n zero %+v",
			fingerprint(base), fingerprint(zero))
	}
	if zero.Faults != (fault.Counts{}) {
		t.Errorf("zero plan recorded fault activity: %+v", zero.Faults)
	}
}

// TestZeroFaultPlanIdentityLightDetect repeats the identity check on the
// light-detect path, whose probe short-circuit is the riskiest site.
func TestZeroFaultPlanIdentityLightDetect(t *testing.T) {
	mk := func(p *fault.Plan) *Result {
		cfg := testSpec()
		cfg.Policy = scrub.LightBasic()
		cfg.Fault = p
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := fingerprint(mk(nil)), fingerprint(mk(&fault.Plan{})); a != b {
		t.Errorf("light-detect zero-plan identity broken:\n nil  %+v\n zero %+v", a, b)
	}
}

func TestFaultRunDeterminism(t *testing.T) {
	mk := func() resultFingerprint {
		cfg := testSpec()
		cfg.Fault = &fault.Plan{
			ReadFlipRate: 0.05, SweepSkipRate: 0.2, ProbeMissRate: 0.1,
			StuckCheckRate: 0.05, StallRate: 0.2,
		}
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("fault-enabled run not reproducible:\n%+v\n%+v", a, b)
	}
}

func TestInvalidFaultPlanRejected(t *testing.T) {
	cfg := testSpec()
	cfg.Fault = &fault.Plan{ReadFlipRate: 2}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted rate > 1")
	}
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Error("Run accepted rate > 1")
	}
}

// TestReadFlipFaultsMonotoneUEs checks the headline property of the
// injection layer: more scrub-read faults mean more (spurious) UEs. The
// max phantom burst is set beyond the ECC capability so faulty reads can
// actually defeat BCH-4.
func TestReadFlipFaultsMonotoneUEs(t *testing.T) {
	ues := func(rate float64) (int64, fault.Counts) {
		cfg := testSpec()
		cfg.Fault = &fault.Plan{ReadFlipRate: rate, ReadFlipMaxBits: 12}
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.UEs, res.Faults
	}
	u0, _ := ues(0)
	uLow, cLow := ues(0.01)
	uHigh, cHigh := ues(0.2)
	if !(u0 <= uLow && uLow <= uHigh) {
		t.Errorf("UEs not monotone in read-fault rate: %d, %d, %d", u0, uLow, uHigh)
	}
	if uHigh == u0 {
		t.Errorf("high fault rate produced no extra UEs (%d)", uHigh)
	}
	if cHigh.ReadFaultVisits <= cLow.ReadFaultVisits || cHigh.InducedUEs == 0 {
		t.Errorf("fault counters not tracking: low %+v high %+v", cLow, cHigh)
	}
	if cHigh.InducedUEs > uHigh {
		t.Errorf("induced UEs (%d) exceed total UEs (%d)", cHigh.InducedUEs, uHigh)
	}
}

// TestSweepSkipFaultsReduceVisits: interrupted sweeps must visit fewer
// lines, and the skip counters must account for the difference.
func TestSweepSkipFaultsReduceVisits(t *testing.T) {
	base, err := RunContext(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSpec()
	cfg.Fault = &fault.Plan{SweepSkipRate: 0.5}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrubVisits >= base.ScrubVisits {
		t.Errorf("visits %d not reduced from %d by interruptions", res.ScrubVisits, base.ScrubVisits)
	}
	if res.Faults.SweepsInterrupted == 0 {
		t.Error("no sweeps recorded interrupted at rate 0.5")
	}
	if res.ScrubVisits+res.Faults.LinesSkipped != base.ScrubVisits {
		t.Errorf("visits(%d) + skipped(%d) != baseline visits(%d)",
			res.ScrubVisits, res.Faults.LinesSkipped, base.ScrubVisits)
	}
}

// TestProbeMissFaultsSuppressDecodes: injected detector aliasing on the
// light-detect path must reduce decodes below the fault-free run.
func TestProbeMissFaultsSuppressDecodes(t *testing.T) {
	mk := func(rate float64) *Result {
		cfg := testSpec()
		cfg.Policy = scrub.LightBasic()
		cfg.Fault = &fault.Plan{ProbeMissRate: rate}
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean, faulty := mk(0), mk(0.5)
	if faulty.Faults.ProbeFalseCleans == 0 {
		t.Fatal("no probe false-cleans at rate 0.5")
	}
	if faulty.ScrubDecodes >= clean.ScrubDecodes {
		t.Errorf("decodes %d not suppressed from %d", faulty.ScrubDecodes, clean.ScrubDecodes)
	}
}

// TestStuckCheckFaultsErodeMargin: stuck ECC check bits must designate
// lines and raise UEs relative to the fault-free run.
func TestStuckCheckFaultsErodeMargin(t *testing.T) {
	mk := func(rate float64) *Result {
		cfg := testSpec()
		// 6 stuck bits exceed BCH-4's budget on their own, so every
		// decode of a stuck line fails — the aggressive end of the model.
		cfg.Fault = &fault.Plan{StuckCheckRate: rate, StuckCheckBits: 6}
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean, faulty := mk(0), mk(0.5)
	if faulty.Faults.StuckCheckLines == 0 {
		t.Fatal("no stuck-check lines at rate 0.5")
	}
	if faulty.UEs < clean.UEs {
		t.Errorf("stuck check bits lowered UEs: %d < %d", faulty.UEs, clean.UEs)
	}
	if faulty.UEs > clean.UEs && faulty.Faults.InducedUEs == 0 {
		t.Error("extra UEs present but none attributed to injection")
	}
}

// TestStallFaultsStretchRuntime: controller stalls stretch sweep spans,
// so the simulated clock must run past the fault-free end time.
func TestStallFaultsStretchRuntime(t *testing.T) {
	base, err := RunContext(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSpec()
	cfg.Fault = &fault.Plan{StallRate: 0.5, StallFactor: 3}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Stalls == 0 {
		t.Fatal("no stalls at rate 0.5")
	}
	// Any stall either stretches the clock past the baseline or burns the
	// horizon in fewer sweeps (both, usually).
	if res.SimSeconds <= base.SimSeconds && res.Sweeps >= base.Sweeps {
		t.Errorf("stalls had no effect: clock %g (base %g), sweeps %d (base %d)",
			res.SimSeconds, base.SimSeconds, res.Sweeps, base.Sweeps)
	}
	if res.Faults.StallSeconds <= 0 {
		t.Error("StallSeconds not accumulated")
	}
}
