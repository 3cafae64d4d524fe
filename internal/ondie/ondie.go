// Package ondie models on-die ECC: a correction layer inside the memory
// chip that sits between the cell array and the controller-side codec.
// The chip silently corrects up to t errors per line and only surfaces
// the post-correction word, so the controller never sees raw error
// positions — the hidden-error regime HARP (Patel et al., 2021) studies.
// Hiding is a double-edged sword: correctable noise disappears for free,
// but when the raw count finally exceeds the on-die strength the decoder
// fails (and may miscorrect), surfacing a burst the controller code was
// never sized for.
//
// The package also carries Luo et al.'s (2017) capacity/reliability
// trade: cold lines can run a weaker on-die code, reclaiming check-bit
// storage, because their data is rewritten rarely enough that a scrub
// policy can compensate for the thinner margin.
//
// The layer's visibility transform is deliberately deterministic (no RNG
// draws), so enabling instrumentation or profiling around it never
// perturbs a run's random stream, and a disabled layer is byte-identical
// to a build without the package.
package ondie

import (
	"fmt"
	"sort"
)

// WordsPerLine is how many on-die codewords cover one 64-byte memory
// line: on-die ECC protects narrow words (here 64-bit), unlike the
// controller code that spans the whole line.
const WordsPerLine = 8

// MaxT bounds the per-word correction strength: BCH over GF(2^7) on a
// 64-bit payload runs out of parity room past 9 corrected bits.
const MaxT = 9

// Config selects the on-die ECC layout. The zero value (and nil) disable
// the layer entirely, leaving every run byte-identical to a build
// without it.
type Config struct {
	// T is the per-line on-die correction strength in bits: raw error
	// patterns of at most T bits are silently corrected before the
	// controller sees the line. 0 disables the layer.
	T int
	// WeakT is the weaker strength assigned to cold lines under the
	// Luo-style capacity trade (0 = no on-die protection on those lines).
	// Only meaningful when WeakFraction > 0.
	WeakT int
	// WeakFraction is the fraction of lines assigned WeakT, chosen
	// coldest-first by accumulated write count (ties resolve to the lower
	// line index, so assignment is deterministic).
	WeakFraction float64
}

// Enabled reports whether the layer does anything. nil-safe.
func (c *Config) Enabled() bool { return c != nil && c.T > 0 }

// Validate checks the configuration. nil-safe: a nil config is the
// disabled baseline.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.T < 0 || c.T > MaxT {
		return fmt.Errorf("ondie: T must be in [0,%d], got %d", MaxT, c.T)
	}
	if c.T == 0 {
		if c.WeakT != 0 || c.WeakFraction != 0 {
			return fmt.Errorf("ondie: WeakT/WeakFraction need T > 0")
		}
		return nil
	}
	if c.WeakT < 0 || c.WeakT > c.T {
		return fmt.Errorf("ondie: WeakT must be in [0,T=%d], got %d", c.T, c.WeakT)
	}
	if c.WeakFraction < 0 || c.WeakFraction > 1 {
		return fmt.Errorf("ondie: WeakFraction must be in [0,1], got %g", c.WeakFraction)
	}
	return nil
}

// Layer is the runtime on-die ECC state of one device: a per-line
// strength map plus the hidden-correction counters. It is not safe for
// concurrent use; the engine serialises access exactly as it does for
// the rest of the device state.
type Layer struct {
	cfg      Config
	strength []uint8

	// Per-line check-bit footprints of the two strengths, derived from
	// the real word codec so reported capacity savings match what an
	// implementation would actually reclaim.
	baseCheckBits int
	weakCheckBits int

	weakLines int

	corrected int64 // raw error bits silently hidden from the controller
	overflows int64 // observations whose raw count exceeded the strength
}

// NewLayer builds the layer for a device of the given line (slot) count.
// A nil or disabled config returns (nil, nil): callers treat a nil layer
// as "no on-die ECC" with zero overhead on the hot path.
func NewLayer(cfg *Config, lines int) (*Layer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if lines <= 0 {
		return nil, fmt.Errorf("ondie: line count must be positive, got %d", lines)
	}
	base, err := lineCheckBits(cfg.T)
	if err != nil {
		return nil, err
	}
	weak, err := lineCheckBits(cfg.WeakT)
	if err != nil {
		return nil, err
	}
	l := &Layer{
		cfg:           *cfg,
		strength:      make([]uint8, lines),
		baseCheckBits: base,
		weakCheckBits: weak,
	}
	for i := range l.strength {
		l.strength[i] = uint8(cfg.T)
	}
	return l, nil
}

// lineCheckBits returns the per-line storage cost of strength t, using
// the real word codec (t=1 is SECDED, t>=2 short BCH).
func lineCheckBits(t int) (int, error) {
	if t == 0 {
		return 0, nil
	}
	c, err := NewCodec(t)
	if err != nil {
		return 0, err
	}
	return WordsPerLine * c.CheckBits(), nil
}

// Strength returns line i's current on-die correction strength in bits.
func (l *Layer) Strength(i int) int { return int(l.strength[i]) }

// Observe applies the deterministic visibility transform — the error
// count the controller observes when line i holds raw erroneous bits —
// and folds the outcome into the layer's counters. The engine calls it
// once per scrub/patrol visit.
//
//   - raw <= strength: the on-die decoder corrects silently; the
//     controller sees a clean line.
//   - raw > strength: the decoder fails, and a bounded-distance decoder
//     that fails typically miscorrects — it "fixes" up to t positions
//     that were never wrong. The controller therefore sees the raw burst
//     plus a worst-case miscorrection penalty of t additional bits.
//
// The transform never touches an RNG: the penalty is the deterministic
// worst case, which keeps disabled-vs-enabled comparisons reproducible
// and the random stream identical across instrumentation choices.
func (l *Layer) Observe(i, raw int) int {
	t := int(l.strength[i])
	if raw <= t {
		l.corrected += int64(raw)
		return 0
	}
	if t > 0 {
		l.overflows++
	}
	return raw + t
}

// Assign re-derives the Luo-style strength map from accumulated per-line
// write counts: the coldest WeakFraction of lines run WeakT, the rest T.
// Ties resolve to the lower index, so the assignment is a pure function
// of the write census. A WeakFraction of 0 leaves every line at T.
func (l *Layer) Assign(writes []uint32) {
	if l.cfg.WeakFraction <= 0 {
		return
	}
	n := len(l.strength)
	if len(writes) < n {
		n = len(writes)
	}
	weak := int(l.cfg.WeakFraction*float64(n) + 0.5)
	if weak > n {
		weak = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return writes[idx[a]] < writes[idx[b]] })
	for i := 0; i < n; i++ {
		if i < weak {
			l.strength[idx[i]] = uint8(l.cfg.WeakT)
		} else {
			l.strength[idx[i]] = uint8(l.cfg.T)
		}
	}
	l.weakLines = weak
}

// CorrectedBits returns the raw error bits the layer silently hid.
func (l *Layer) CorrectedBits() int64 { return l.corrected }

// Overflows returns how many observations exceeded the on-die strength
// (each one surfaced a miscorrection-inflated burst to the controller).
func (l *Layer) Overflows() int64 { return l.overflows }

// WeakLines returns how many lines currently run the weaker code.
func (l *Layer) WeakLines() int { return l.weakLines }

// CheckBitsSaved returns the storage reclaimed by the weak assignment,
// in bits across the whole device.
func (l *Layer) CheckBitsSaved() int64 {
	return int64(l.weakLines) * int64(l.baseCheckBits-l.weakCheckBits)
}
