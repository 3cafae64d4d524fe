package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultGeometryValid(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalLines() != 8*512*32 {
		t.Errorf("total lines = %d", g.TotalLines())
	}
	if g.TotalBytes() != int64(g.TotalLines())*64 {
		t.Errorf("total bytes = %d", g.TotalBytes())
	}
	if g.TotalBanks() != 8 {
		t.Errorf("total banks = %d", g.TotalBanks())
	}
}

func TestValidateRejectsZeroDims(t *testing.T) {
	g := DefaultGeometry()
	g.RowsPerBank = 0
	if err := g.Validate(); err == nil {
		t.Error("zero rows accepted")
	}
}

// TestValidateRejectsOverflow pins that a geometry whose line count or
// byte capacity wraps is refused, whatever the wrapped value would be.
func TestValidateRejectsOverflow(t *testing.T) {
	cases := map[string]Geometry{
		"lines wrap to zero":    {Channels: 1 << 32, RanksPerChan: 1 << 32, BanksPerRank: 1, RowsPerBank: 1, LinesPerRow: 1, LineBytes: 64},
		"lines wrap negative":   {Channels: 3, RanksPerChan: 1 << 62, BanksPerRank: 1, RowsPerBank: 1, LinesPerRow: 1, LineBytes: 64},
		"lines wrap positive":   {Channels: 1<<32 + 1, RanksPerChan: 1<<32 + 1, BanksPerRank: 1, RowsPerBank: 1, LinesPerRow: 1, LineBytes: 64},
		"late dimension wraps":  {Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 1 << 40, LinesPerRow: 1 << 40, LineBytes: 64},
		"bytes overflow int64":  {Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 1, LinesPerRow: 1 << 60, LineBytes: 64},
		"bytes overflow at one": {Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 1, LinesPerRow: 2, LineBytes: math.MaxInt64/2 + 1},
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted %+v (TotalLines %d)", name, g, g.TotalLines())
		}
	}
	// The largest representable capacity is still valid.
	edge := Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowsPerBank: 1, LinesPerRow: 1, LineBytes: math.MaxInt64}
	if err := edge.Validate(); err != nil {
		t.Errorf("max-capacity geometry rejected: %v", err)
	}
}

func TestComposeDecomposeRoundTrip(t *testing.T) {
	g := Geometry{Channels: 2, RanksPerChan: 2, BanksPerRank: 4, RowsPerBank: 8, LinesPerRow: 4, LineBytes: 64}
	prop := func(raw uint32) bool {
		line := int(raw) % g.TotalLines()
		c, err := g.Decompose(line)
		if err != nil {
			return false
		}
		back, err := g.Compose(c)
		return err == nil && back == line
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeExhaustiveSmall(t *testing.T) {
	g := Geometry{Channels: 2, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: 3, LinesPerRow: 2, LineBytes: 64}
	seen := map[Coord]bool{}
	for line := 0; line < g.TotalLines(); line++ {
		c, err := g.Decompose(line)
		if err != nil {
			t.Fatal(err)
		}
		if seen[c] {
			t.Fatalf("coordinate %+v repeated", c)
		}
		seen[c] = true
	}
	if len(seen) != g.TotalLines() {
		t.Fatalf("coordinates not unique: %d of %d", len(seen), g.TotalLines())
	}
}

func TestDecomposeOutOfRange(t *testing.T) {
	g := DefaultGeometry()
	if _, err := g.Decompose(-1); err == nil {
		t.Error("negative line accepted")
	}
	if _, err := g.Decompose(g.TotalLines()); err == nil {
		t.Error("line beyond end accepted")
	}
}

func TestComposeOutOfRange(t *testing.T) {
	g := DefaultGeometry()
	if _, err := g.Compose(Coord{Bank: g.BanksPerRank}); err == nil {
		t.Error("bank out of range accepted")
	}
	if _, err := g.Compose(Coord{Row: -1}); err == nil {
		t.Error("negative row accepted")
	}
}

func TestBankOfConsistentWithDecompose(t *testing.T) {
	g := DefaultGeometry()
	for _, line := range []int{0, 1, 31, 32, 16383, 16384, g.TotalLines() - 1} {
		c, err := g.Decompose(line)
		if err != nil {
			t.Fatal(err)
		}
		globalBank := (c.Channel*g.RanksPerChan+c.Rank)*g.BanksPerRank + c.Bank
		if got := g.BankOf(line); got != globalBank {
			t.Errorf("BankOf(%d) = %d, want %d", line, got, globalBank)
		}
	}
}

func TestScrubWalkerCoversAllLinesOnce(t *testing.T) {
	g := Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 4, RowsPerBank: 4, LinesPerRow: 2, LineBytes: 64}
	w := NewScrubWalker(g)
	seen := make([]bool, g.TotalLines())
	for i := 0; i < g.TotalLines(); i++ {
		line, wrapped := w.Next()
		if seen[line] {
			t.Fatalf("line %d visited twice in one sweep", line)
		}
		seen[line] = true
		wantWrap := i == g.TotalLines()-1
		if wrapped != wantWrap {
			t.Fatalf("wrap flag wrong at step %d", i)
		}
	}
	for line, ok := range seen {
		if !ok {
			t.Fatalf("line %d never visited", line)
		}
	}
}

func TestScrubWalkerInterleavesBanks(t *testing.T) {
	g := Geometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 4, RowsPerBank: 4, LinesPerRow: 2, LineBytes: 64}
	w := NewScrubWalker(g)
	for step := 0; step < 8; step++ {
		line, _ := w.Next()
		if got := g.BankOf(line); got != step%4 {
			t.Fatalf("step %d hit bank %d, want %d", step, got, step%4)
		}
	}
}

func TestScrubWalkerReset(t *testing.T) {
	g := DefaultGeometry()
	w := NewScrubWalker(g)
	first, _ := w.Next()
	w.Next()
	w.Reset()
	again, _ := w.Next()
	if first != again {
		t.Errorf("reset did not rewind: %d vs %d", first, again)
	}
}
