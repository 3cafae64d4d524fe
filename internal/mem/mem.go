// Package mem describes the physical organisation of the PCM main memory:
// channels, ranks, banks, rows and lines, with address mapping between a
// flat line index and its physical coordinates. The scrub scheduler walks
// lines in physical order (row-major within a bank, banks interleaved) the
// way a real memory controller's scrub engine does.
package mem

import (
	"fmt"
	"math"
)

// Geometry is the shape of the memory system.
type Geometry struct {
	Channels     int `json:"channels"`
	RanksPerChan int `json:"ranks_per_chan"`
	BanksPerRank int `json:"banks_per_rank"`
	RowsPerBank  int `json:"rows_per_bank"`
	LinesPerRow  int `json:"lines_per_row"`
	LineBytes    int `json:"line_bytes"`
}

// DefaultGeometry returns a deliberately small (simulation-sized) memory:
// 1 channel × 1 rank × 8 banks × 512 rows × 32 lines = 128 Ki lines
// (8 MiB of data), which is sampled and scaled to full-system capacities
// by the reporting layer.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:     1,
		RanksPerChan: 1,
		BanksPerRank: 8,
		RowsPerBank:  512,
		LinesPerRow:  32,
		LineBytes:    64,
	}
}

// Validate checks that every dimension is positive and that the line
// count and byte capacity fit their integer types: a product that wraps
// would size the simulated region from garbage.
func (g *Geometry) Validate() error {
	if g.Channels < 1 || g.RanksPerChan < 1 || g.BanksPerRank < 1 ||
		g.RowsPerBank < 1 || g.LinesPerRow < 1 || g.LineBytes < 1 {
		return fmt.Errorf("mem: all geometry dimensions must be >= 1: %+v", *g)
	}
	lines := 1
	for _, d := range []int{g.Channels, g.RanksPerChan, g.BanksPerRank, g.RowsPerBank, g.LinesPerRow} {
		if lines > math.MaxInt/d {
			return fmt.Errorf("mem: geometry line count overflows: %+v", *g)
		}
		lines *= d
	}
	if int64(lines) > math.MaxInt64/int64(g.LineBytes) {
		return fmt.Errorf("mem: geometry byte capacity overflows: %+v", *g)
	}
	return nil
}

// TotalBanks returns the number of banks across the system.
func (g *Geometry) TotalBanks() int {
	return g.Channels * g.RanksPerChan * g.BanksPerRank
}

// TotalLines returns the number of lines across the system.
func (g *Geometry) TotalLines() int {
	return g.TotalBanks() * g.RowsPerBank * g.LinesPerRow
}

// TotalBytes returns the data capacity in bytes.
func (g *Geometry) TotalBytes() int64 {
	return int64(g.TotalLines()) * int64(g.LineBytes)
}

// Coord is the physical location of one line.
type Coord struct {
	Channel, Rank, Bank, Row, Col int
}

// Decompose maps a flat line index to physical coordinates. The layout is
// line-index = ((((chan·R + rank)·B + bank)·rows + row)·cols + col), i.e.
// consecutive indices walk the columns of a row, then rows of a bank.
func (g *Geometry) Decompose(line int) (Coord, error) {
	if line < 0 || line >= g.TotalLines() {
		return Coord{}, fmt.Errorf("mem: line %d out of range [0,%d)", line, g.TotalLines())
	}
	c := Coord{}
	c.Col = line % g.LinesPerRow
	line /= g.LinesPerRow
	c.Row = line % g.RowsPerBank
	line /= g.RowsPerBank
	c.Bank = line % g.BanksPerRank
	line /= g.BanksPerRank
	c.Rank = line % g.RanksPerChan
	line /= g.RanksPerChan
	c.Channel = line
	return c, nil
}

// Compose maps physical coordinates back to a flat line index.
func (g *Geometry) Compose(c Coord) (int, error) {
	if c.Channel < 0 || c.Channel >= g.Channels ||
		c.Rank < 0 || c.Rank >= g.RanksPerChan ||
		c.Bank < 0 || c.Bank >= g.BanksPerRank ||
		c.Row < 0 || c.Row >= g.RowsPerBank ||
		c.Col < 0 || c.Col >= g.LinesPerRow {
		return 0, fmt.Errorf("mem: coordinate out of range: %+v", c)
	}
	idx := c.Channel
	idx = idx*g.RanksPerChan + c.Rank
	idx = idx*g.BanksPerRank + c.Bank
	idx = idx*g.RowsPerBank + c.Row
	idx = idx*g.LinesPerRow + c.Col
	return idx, nil
}

// BankOf returns the global bank number (0..TotalBanks-1) a line maps to.
func (g *Geometry) BankOf(line int) int {
	linesPerBank := g.RowsPerBank * g.LinesPerRow
	return line / linesPerBank
}

// ScrubWalker yields line indices in scrub order: a round-robin over banks
// so the scrub engine spreads its reads rather than hammering one bank,
// advancing one line per bank per step — the standard "patrol scrub" walk.
type ScrubWalker struct {
	g            Geometry
	linesPerBank int
	pos          int // position within the per-bank sequence
	bank         int // next bank to visit
}

// NewScrubWalker starts a walker at the beginning of memory.
func NewScrubWalker(g Geometry) *ScrubWalker {
	return &ScrubWalker{g: g, linesPerBank: g.RowsPerBank * g.LinesPerRow}
}

// Next returns the next line index in patrol order, wrapping at the end of
// memory. It also reports whether this call completed a full sweep.
func (w *ScrubWalker) Next() (line int, wrapped bool) {
	line = w.bank*w.linesPerBank + w.pos
	w.bank++
	if w.bank == w.g.TotalBanks() {
		w.bank = 0
		w.pos++
		if w.pos == w.linesPerBank {
			w.pos = 0
			wrapped = true
		}
	}
	return line, wrapped
}

// Reset rewinds the walker to the start of memory.
func (w *ScrubWalker) Reset() { w.pos, w.bank = 0, 0 }
