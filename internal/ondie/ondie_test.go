package ondie

import "testing"

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  *Config
		ok   bool
	}{
		{"nil", nil, true},
		{"zero", &Config{}, true},
		{"secded", &Config{T: 1}, true},
		{"bch", &Config{T: 4, WeakT: 1, WeakFraction: 0.5}, true},
		{"maxT", &Config{T: MaxT}, true},
		{"negative", &Config{T: -1}, false},
		{"tooStrong", &Config{T: MaxT + 1}, false},
		{"weakWithoutT", &Config{WeakT: 1}, false},
		{"fracWithoutT", &Config{WeakFraction: 0.5}, false},
		{"weakAboveT", &Config{T: 2, WeakT: 3}, false},
		{"fracRange", &Config{T: 2, WeakFraction: 1.5}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if (&Config{T: 1}).Enabled() != true || (&Config{}).Enabled() != false || (*Config)(nil).Enabled() != false {
		t.Fatal("Enabled() wrong for basic configs")
	}
}

func TestLayerDisabledIsNil(t *testing.T) {
	for _, cfg := range []*Config{nil, {}} {
		l, err := NewLayer(cfg, 128)
		if err != nil || l != nil {
			t.Fatalf("NewLayer(%+v) = %v, %v; want nil, nil", cfg, l, err)
		}
	}
}

func TestVisibilityTransform(t *testing.T) {
	l, err := NewLayer(&Config{T: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// raw <= t hides everything; raw > t surfaces raw plus the
	// worst-case miscorrection penalty of t.
	cases := []struct{ raw, want int }{{0, 0}, {1, 0}, {2, 0}, {3, 5}, {4, 6}}
	for _, tc := range cases {
		if got := l.Observe(1, tc.raw); got != tc.want {
			t.Errorf("Observe(raw=%d) = %d, want %d", tc.raw, got, tc.want)
		}
	}
	if l.CorrectedBits() != 3 { // 0+1+2 hidden
		t.Errorf("CorrectedBits = %d, want 3", l.CorrectedBits())
	}
	if l.Overflows() != 2 { // raw=3, raw=4
		t.Errorf("Overflows = %d, want 2", l.Overflows())
	}
}

func TestAssignColdestFirst(t *testing.T) {
	l, err := NewLayer(&Config{T: 4, WeakT: 1, WeakFraction: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Lines 1 and 3 are coldest: they get WeakT.
	l.Assign([]uint32{9, 2, 8, 1})
	want := []int{4, 1, 4, 1}
	for i, w := range want {
		if got := l.Strength(i); got != w {
			t.Errorf("Strength(%d) = %d, want %d", i, got, w)
		}
	}
	if l.WeakLines() != 2 {
		t.Errorf("WeakLines = %d, want 2", l.WeakLines())
	}
	// BCH-4 over 64 bits costs 28 parity bits/word; SECDED costs 8.
	// 2 lines × 8 words × (28-8) = 320 bits reclaimed.
	if got := l.CheckBitsSaved(); got != 320 {
		t.Errorf("CheckBitsSaved = %d, want 320", got)
	}

	// Ties resolve to the lower index: all-equal counts weaken the
	// lowest-numbered lines deterministically.
	l2, _ := NewLayer(&Config{T: 4, WeakT: 1, WeakFraction: 0.5}, 4)
	l2.Assign([]uint32{5, 5, 5, 5})
	for i, w := range []int{1, 1, 4, 4} {
		if got := l2.Strength(i); got != w {
			t.Errorf("tie Strength(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestCodecShapes(t *testing.T) {
	if _, err := NewCodec(0); err == nil {
		t.Fatal("NewCodec(0) should fail")
	}
	for tt := 1; tt <= MaxT; tt++ {
		c, err := NewCodec(tt)
		if err != nil {
			t.Fatalf("NewCodec(%d): %v", tt, err)
		}
		if c.T() != tt {
			t.Fatalf("T() = %d, want %d", c.T(), tt)
		}
		if c.CheckBits() <= 0 || c.CodewordBytes() <= WordBytes {
			t.Fatalf("t=%d: degenerate shape CheckBits=%d CodewordBytes=%d",
				tt, c.CheckBits(), c.CodewordBytes())
		}
	}
	// The t=1 word code is the classical (72,64) SECDED.
	if c := MustCodec(1); c.CheckBits() != 8 {
		t.Fatalf("SECDED word CheckBits = %d, want 8", c.CheckBits())
	}
}
