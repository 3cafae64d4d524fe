package scrub

import "testing"

func TestByName(t *testing.T) {
	cases := []struct {
		spec   string
		name   string
		detect Detection
	}{
		{"basic", "basic", FullDecode},
		{"always", "always-write", FullDecode},
		{"light", "basic+light", LightDetect},
		{"threshold-3", "threshold-3", FullDecode},
		{"combined-5", "combined", LightDetect},
	}
	for _, c := range cases {
		p, err := ByName(c.spec)
		if err != nil {
			t.Fatalf("ByName(%q): %v", c.spec, err)
		}
		if p.Name() != c.name {
			t.Errorf("ByName(%q).Name() = %q, want %q", c.spec, p.Name(), c.name)
		}
		if p.Detection() != c.detect {
			t.Errorf("ByName(%q) detection = %v, want %v", c.spec, p.Detection(), c.detect)
		}
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	for _, spec := range []string{"", "bogus", "threshold-", "threshold-x", "combined"} {
		if _, err := ByName(spec); err == nil {
			t.Errorf("ByName(%q) accepted", spec)
		}
	}
}

func TestByNameThresholdSemantics(t *testing.T) {
	p, err := ByName("threshold-4")
	if err != nil {
		t.Fatal(err)
	}
	if p.ShouldWriteBack(VisitInfo{ErrBits: 3}) {
		t.Error("threshold-4 wrote at 3 errors")
	}
	if !p.ShouldWriteBack(VisitInfo{ErrBits: 4}) {
		t.Error("threshold-4 refused at 4 errors")
	}
}
