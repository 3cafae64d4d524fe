package service

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
)

// tinyGeometry keeps test simulations fast (128 lines).
func tinyGeometry() *mem.Geometry {
	return &mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
		RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
	}
}

// tinySpec is a valid, fast spec; seed distinguishes instances.
func tinySpec(seed uint64) Spec {
	return Spec{
		Mechanism:  "basic",
		Workload:   "db-oltp",
		HorizonSec: 20000,
		Seed:       seed,
		Geometry:   tinyGeometry(),
	}
}

func mustNormalize(t *testing.T, s Spec) Spec {
	t.Helper()
	n, err := s.Normalized()
	if err != nil {
		t.Fatalf("Normalized(%+v): %v", s, err)
	}
	return n
}

func TestNormalizedFillsDefaults(t *testing.T) {
	n := mustNormalize(t, Spec{Workload: "db-oltp"})
	if n.Mechanism != "combined" || n.Seed != 1 || n.Replicas != 1 {
		t.Errorf("defaults not materialised: %+v", n)
	}
	if n.HorizonSec == 0 || n.RiskTarget == 0 || n.Geometry == nil {
		t.Errorf("system defaults not materialised: %+v", n)
	}
}

func TestFingerprintExplicitDefaultsEqualOmitted(t *testing.T) {
	minimal := mustNormalize(t, Spec{Workload: "db-oltp"})
	explicit := mustNormalize(t, Spec{
		Mechanism: "combined", Workload: "db-oltp",
		Seed: 1, Replicas: 1, HorizonSec: 259200, RiskTarget: 1e-4,
	})
	if minimal.Fingerprint() != explicit.Fingerprint() {
		t.Error("spelling out defaults changed the fingerprint")
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	a := mustNormalize(t, tinySpec(7))
	b := mustNormalize(t, tinySpec(7))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical specs fingerprint differently")
	}
}

func TestFingerprintSensitiveToEveryField(t *testing.T) {
	base := mustNormalize(t, tinySpec(1)).Fingerprint()
	mutations := map[string]func(*Spec){
		"mechanism":   func(s *Spec) { s.Mechanism = "strong-ecc" },
		"scheme":      func(s *Spec) { s.Scheme = "BCH-4" },
		"policy":      func(s *Spec) { s.Policy = "threshold-3" },
		"interval":    func(s *Spec) { s.IntervalSec = 1234 },
		"workload":    func(s *Spec) { s.Workload = "kv-store" },
		"horizon":     func(s *Spec) { s.HorizonSec = 30000 },
		"seed":        func(s *Spec) { s.Seed = 2 },
		"replicas":    func(s *Spec) { s.Replicas = 2 },
		"aged":        func(s *Spec) { s.AgedWrites = 1000 },
		"substeps":    func(s *Spec) { s.Substeps = 4 },
		"risk_target": func(s *Spec) { s.RiskTarget = 1e-3 },
		"geometry":    func(s *Spec) { s.Geometry.RowsPerBank = 16 },
		"fault":       func(s *Spec) { s.Fault = &fault.Plan{SweepSkipRate: 0.1} },
	}
	for name, mutate := range mutations {
		s := tinySpec(1)
		s.Geometry = tinyGeometry() // fresh pointer per mutation
		mutate(&s)
		n, err := s.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n.Fingerprint() == base {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

func TestNormalizedDropsAllZeroFault(t *testing.T) {
	s := tinySpec(1)
	s.Fault = &fault.Plan{}
	n := mustNormalize(t, s)
	if n.Fault != nil {
		t.Error("all-zero fault plan survived normalisation")
	}
	if n.Fingerprint() != mustNormalize(t, tinySpec(1)).Fingerprint() {
		t.Error("all-zero fault plan changed the fingerprint")
	}
}

func TestNormalizedRejects(t *testing.T) {
	cases := map[string]Spec{
		"no workload":      {Mechanism: "basic"},
		"unknown workload": {Workload: "nope"},
		"unknown mech":     {Workload: "db-oltp", Mechanism: "nope"},
		"unknown scheme":   {Workload: "db-oltp", Scheme: "XYZ-1"},
		"unknown policy":   {Workload: "db-oltp", Policy: "nope"},
		"neg interval":     {Workload: "db-oltp", IntervalSec: -1},
		"replicas too big": {Workload: "db-oltp", Replicas: MaxReplicas + 1},
		"neg replicas":     {Workload: "db-oltp", Replicas: -1},
		"neg fault rate":   {Workload: "db-oltp", Fault: &fault.Plan{SweepSkipRate: -0.5}},
		"bad geometry":     {Workload: "db-oltp", Geometry: &mem.Geometry{Channels: 1}},
		"neg horizon":      {Workload: "db-oltp", HorizonSec: -5},
		"neg risk target":  {Workload: "db-oltp", RiskTarget: -0.5},
		"neg substeps":     {Workload: "db-oltp", Substeps: -1},
	}
	for name, s := range cases {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBuildAppliesOverrides(t *testing.T) {
	s := mustNormalize(t, Spec{
		Workload: "kv-store", Mechanism: "basic",
		Scheme: "BCH-4", Policy: "threshold-3", IntervalSec: 500,
		HorizonSec: 20000, Geometry: tinyGeometry(),
	})
	sys, mech, w, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "kv-store" {
		t.Errorf("workload = %q", w.Name)
	}
	if mech.Scheme.Name() != "BCH-4" || mech.Policy.Name() != "threshold-3" {
		t.Errorf("overrides not applied: scheme %q policy %q", mech.Scheme.Name(), mech.Policy.Name())
	}
	if mech.Interval != 500 {
		t.Errorf("interval = %v", mech.Interval)
	}
	if sys.Geometry.TotalLines() != 128 {
		t.Errorf("lines = %d", sys.Geometry.TotalLines())
	}
	if !strings.Contains(mech.Name, "BCH-4") {
		t.Errorf("mechanism name %q", mech.Name)
	}
}
