package ecc

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSECDEDDecodeDifferential pins the SECDED lookup kernels to the
// scalar reference bit for bit, at both the word and line level:
//
//   - word codec (72,64): Encode, Detect and Decode must agree between
//     SECDED and SECDEDRef on error weights 0..3 (t=1, so the sweep
//     crosses single-correct, double-detect and the triple-flip aliasing
//     regime) and on arbitrary corrupted buffers — same corrected-bit
//     count, same verdict, byte-identical buffers;
//   - line codec (8×(72,64)): DecodeLine vs DecodeLineRef on the same
//     corruption;
//   - the CRC-16 probe: slicing-by-8 Sum vs the serial SumRef.
func FuzzSECDEDDecodeDifferential(f *testing.F) {
	word := MustSECDED(64)
	line := NewSECDEDLine()
	crc := NewCRC16()

	f.Add([]byte{0x00}, byte(0), uint64(1))
	f.Add([]byte{0xff}, byte(1), uint64(2))         // single: corrects
	f.Add([]byte("double-bit"), byte(2), uint64(3)) // double: refuses
	f.Add([]byte("triple-bit"), byte(3), uint64(4)) // t+2: aliasing regime
	f.Add([]byte("edge-low"), byte(1), uint64(0))   // placement edges via seed
	f.Add([]byte{0xa5, 0x5a}, byte(3), uint64(0xbeef))
	f.Fuzz(func(t *testing.T, data []byte, nraw byte, posSeed uint64) {
		payload := fillLine(data)

		// Word-level differential.
		wordData := payload[:8]
		encFast, errF := word.Encode(wordData)
		encRef, errR := word.Ref().Encode(wordData)
		if (errF == nil) != (errR == nil) {
			t.Fatalf("word encode verdicts differ: %v vs %v", errF, errR)
		}
		if !bytes.Equal(encFast, encRef) {
			t.Fatalf("word encode buffers differ\n fast %x\n ref  %x", encFast, encRef)
		}

		nflips := int(nraw) % 4 // 0..3 crosses t=1 and t+2
		rng := fuzzRNG(posSeed)
		cw := append([]byte(nil), encFast...)
		for _, p := range fuzzDistinct(&rng, nflips, word.CodewordBits()) {
			fuzzFlip(cw, p)
		}
		diffSECDEDWord(t, word, cw)

		// Arbitrary buffers (not near any codeword) must agree too — this
		// reaches the out-of-range-syndrome refusal paths.
		raw := make([]byte, word.CodewordBytes())
		for i := range raw {
			raw[i] = byte(rng.next())
		}
		diffSECDEDWord(t, word, raw)

		// Line-level differential on the same flip budget per line.
		lcw, err := line.EncodeLine(payload)
		if err != nil {
			t.Fatalf("EncodeLine: %v", err)
		}
		for _, p := range fuzzDistinct(&rng, nflips, len(lcw)*8) {
			fuzzFlip(lcw, p)
		}
		lFast := append([]byte(nil), lcw...)
		lRef := append([]byte(nil), lcw...)
		nF, decF := line.DecodeLine(lFast)
		nR, decR := line.DecodeLineRef(lRef)
		if (decF == nil) != (decR == nil) || nF != nR {
			t.Fatalf("line decode differs: (%d, %v) vs (%d, %v)", nF, decF, nR, decR)
		}
		if decF == nil && !bytes.Equal(lFast, lRef) {
			t.Fatalf("line corrected buffers differ\n fast %x\n ref  %x", lFast, lRef)
		}

		// CRC probe differential over the corrupted line codeword.
		if sF, sR := crc.Sum(lcw), crc.SumRef(lcw); sF != sR {
			t.Fatalf("CRC sums differ: %#x vs %#x", sF, sR)
		}
		if sF, sR := crc.Sum(payload[:len(payload)-int(nraw%7)]), crc.SumRef(payload[:len(payload)-int(nraw%7)]); sF != sR {
			t.Fatalf("CRC sums differ on odd tail: %#x vs %#x", sF, sR)
		}
	})
}

// diffSECDEDWord checks one buffer through both word-codec paths.
func diffSECDEDWord(t *testing.T, word *SECDED, cw []byte) {
	t.Helper()
	if dF, dR := word.Detect(cw), word.Ref().Detect(cw); dF != dR {
		t.Fatalf("word detect verdicts differ: %v vs %v (cw %x)", dF, dR, cw)
	}
	cwFast := append([]byte(nil), cw...)
	cwRef := append([]byte(nil), cw...)
	nF, decF := word.Decode(cwFast)
	nR, decR := word.Ref().Decode(cwRef)
	if (decF == nil) != (decR == nil) {
		t.Fatalf("word decode verdicts differ: %v vs %v (cw %x)", decF, decR, cw)
	}
	if decF != nil {
		if !errors.Is(decF, ErrUncorrectable) || !errors.Is(decR, ErrUncorrectable) {
			t.Fatalf("unexpected word decode errors: %v vs %v", decF, decR)
		}
		return
	}
	if nF != nR {
		t.Fatalf("word corrected-bit counts differ: %d vs %d", nF, nR)
	}
	if !bytes.Equal(cwFast, cwRef) {
		t.Fatalf("word corrected buffers differ\n fast %x\n ref  %x", cwFast, cwRef)
	}
}
