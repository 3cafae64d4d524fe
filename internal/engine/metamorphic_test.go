package engine

import (
	"context"
	"testing"

	"repro/internal/ecc"
)

// Metamorphic relations: transformations of the configuration with known
// consequences, checked end to end.

func TestVisitsScaleExactlyWithGeometry(t *testing.T) {
	small := testSpec()
	big := testSpec()
	big.Geometry.RowsPerBank *= 2 // double the lines
	rSmall, err := RunContext(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := RunContext(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if rBig.Lines != 2*rSmall.Lines {
		t.Fatalf("lines: %d vs %d", rBig.Lines, rSmall.Lines)
	}
	if rBig.ScrubVisits != 2*rSmall.ScrubVisits {
		t.Errorf("visits should double exactly: %d vs %d", rBig.ScrubVisits, rSmall.ScrubVisits)
	}
	if rBig.Sweeps != rSmall.Sweeps {
		t.Errorf("sweep count should be geometry-independent: %d vs %d", rBig.Sweeps, rSmall.Sweeps)
	}
}

func TestShorterIntervalReducesUEs(t *testing.T) {
	base := testSpec()
	base.Scheme = ecc.NewSECDEDLine()
	base.Horizon = 240000
	base.Workload.WritesPerLinePerSec = 0
	run := func(interval float64) int64 {
		cfg := base
		cfg.Interval = interval
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.UEs
	}
	long := run(40000)
	short := run(10000)
	if long == 0 {
		t.Fatal("long-interval run produced no UEs; relation untestable")
	}
	if short >= long {
		t.Errorf("quartering the interval should slash UEs: %d (10000s) vs %d (40000s)", short, long)
	}
}

func TestLongerHorizonScalesActivity(t *testing.T) {
	base := testSpec()
	short := base
	long := base
	long.Horizon = base.Horizon * 3
	rShort, err := RunContext(context.Background(), short)
	if err != nil {
		t.Fatal(err)
	}
	rLong, err := RunContext(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if rLong.Sweeps != 3*rShort.Sweeps {
		t.Errorf("sweeps should triple: %d vs %d", rLong.Sweeps, rShort.Sweeps)
	}
	// Demand writes are Poisson with triple the exposure: within 5 sigma.
	want := 3 * float64(rShort.DemandWrites)
	got := float64(rLong.DemandWrites)
	if want > 20 {
		dev := got - want
		if dev < 0 {
			dev = -dev
		}
		if dev > 5*3*want/100+5*2*want/10 {
			t.Errorf("demand writes should ~triple: %v vs %v", got, want)
		}
	}
}

func TestStrongerECCNeverHurts(t *testing.T) {
	base := testSpec()
	base.Interval = 30000
	base.Horizon = 150000
	base.Workload.WritesPerLinePerSec = 0
	run := func(s ecc.Scheme) int64 {
		cfg := base
		cfg.Scheme = s
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.UEs
	}
	prev := int64(1 << 60)
	for _, s := range []ecc.Scheme{ecc.MustBCHLine(2), ecc.MustBCHLine(4), ecc.MustBCHLine(8)} {
		ues := run(s)
		if ues > prev {
			t.Errorf("%s has more UEs (%d) than the weaker code (%d)", s.Name(), ues, prev)
		}
		prev = ues
	}
}
