package bch

import (
	"bytes"
	"errors"
	"testing"
)

// diffCodes are the shapes the differential targets exercise: the on-die
// word code's field (GF(2^7), as bch.ForPayload(64, 2) selects) and the
// fuzz-sized GF(2^8) code at two strengths.
var diffCodes = []struct {
	m, t, msgBits int
}{
	{7, 2, 64},  // on-die word shape
	{8, 2, 100}, // shortened, odd bit count (partial final byte)
	{8, 4, 128}, // line-style strength
}

// FuzzBCHDecodeDifferential pins the kernel path to the scalar reference
// bit for bit: for every fuzzer-chosen message, error weight (0..t+2,
// crossing the capability boundary into the miscorrection regime the
// on-die layer depends on) and placement — including forced flips at the
// shortened-code support edges — Encode, Syndrome, Detect and Decode
// must agree between Code and CodeRef: same corrected-bit count, same
// verdict, byte-identical buffers.
func FuzzBCHDecodeDifferential(f *testing.F) {
	codes := make([]*Code, len(diffCodes))
	for i, d := range diffCodes {
		codes[i] = MustNew(d.m, d.t)
	}

	f.Add([]byte{0x00}, byte(0), uint64(1), byte(0))
	f.Add([]byte{0xff, 0x3c}, byte(1), uint64(2), byte(0))
	f.Add([]byte("edge-low"), byte(2), uint64(3), byte(2))       // forced flip at position 0
	f.Add([]byte("edge-high"), byte(2), uint64(4), byte(1))      // forced flip at support-1
	f.Add([]byte("edge-both"), byte(3), uint64(5), byte(3))      // both support edges
	f.Add([]byte("at-capability"), byte(4), uint64(42), byte(4)) // weight t on the t=4 shape
	f.Add([]byte("overflow-t1"), byte(5), uint64(7), byte(8))    // weight t+1
	f.Add([]byte("overflow-t2"), byte(6), uint64(0xbeef), byte(8))
	f.Fuzz(func(t *testing.T, msg []byte, nraw byte, posSeed uint64, edge byte) {
		for ci, d := range diffCodes {
			code := codes[ci]
			ref := code.Ref()
			msgBits := d.msgBits
			support := code.ParityBits() + msgBits

			buf := make([]byte, (msgBits+7)/8)
			copy(buf, msg)
			encFast, errF := code.Encode(buf, msgBits)
			encRef, errR := ref.Encode(buf, msgBits)
			if (errF == nil) != (errR == nil) {
				t.Fatalf("m=%d t=%d: encode verdicts differ: %v vs %v", d.m, d.t, errF, errR)
			}
			if errF != nil {
				continue
			}
			if !bytes.Equal(encFast, encRef) {
				t.Fatalf("m=%d t=%d: encode buffers differ\n fast %x\n ref  %x", d.m, d.t, encFast, encRef)
			}

			// Corrupt with weight 0..t+2, optionally pinning flips to the
			// shortened support's edge positions.
			nflips := int(nraw) % (code.T() + 3)
			rng := fuzzRNG(posSeed)
			cw := append([]byte(nil), encFast...)
			forced := 0
			if edge&1 != 0 {
				flipBit(cw, support-1)
				forced++
			}
			if edge&2 != 0 && support > 1 {
				flipBit(cw, 0)
				forced++
			}
			if extra := nflips - forced; extra > 0 {
				for _, p := range distinctPositions(&rng, extra, support) {
					flipBit(cw, p)
				}
			}

			sFast := code.Syndrome(cw, msgBits)
			sRef := ref.Syndrome(cw, msgBits)
			for j := range sFast {
				if sFast[j] != sRef[j] {
					t.Fatalf("m=%d t=%d: syndrome %d differs: %#x vs %#x", d.m, d.t, j, sFast[j], sRef[j])
				}
			}
			if df, dr := code.Detect(cw, msgBits), ref.Detect(cw, msgBits); df != dr {
				t.Fatalf("m=%d t=%d: detect verdicts differ: %v vs %v", d.m, d.t, df, dr)
			}

			cwFast := append([]byte(nil), cw...)
			cwRef := append([]byte(nil), cw...)
			nF, decF := code.Decode(cwFast, msgBits)
			nR, decR := ref.Decode(cwRef, msgBits)
			if (decF == nil) != (decR == nil) {
				t.Fatalf("m=%d t=%d: decode verdicts differ: %v vs %v", d.m, d.t, decF, decR)
			}
			if decF != nil {
				if !errors.Is(decF, ErrUncorrectable) || !errors.Is(decR, ErrUncorrectable) {
					t.Fatalf("m=%d t=%d: unexpected decode errors: %v vs %v", d.m, d.t, decF, decR)
				}
				continue // corrected buffers are unspecified on refusal
			}
			if nF != nR {
				t.Fatalf("m=%d t=%d: corrected-bit counts differ: %d vs %d", d.m, d.t, nF, nR)
			}
			if !bytes.Equal(cwFast, cwRef) {
				t.Fatalf("m=%d t=%d: corrected buffers differ\n fast %x\n ref  %x", d.m, d.t, cwFast, cwRef)
			}
		}
	})
}
