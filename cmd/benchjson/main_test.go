package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wellFormed returns a report that passes every gate: the engine run at
// its budget and each gated codec family at or above its floor.
func wellFormed() Report {
	return Report{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkEngineRun-2", NsPerOp: 1.2e6, BytesPerOp: maxEngineBytes, AllocsPerOp: maxEngineAllocs},
		},
		Codecs: []CodecComparison{
			{Name: "BCHDecode/t=8", KernelNs: 100, RefNs: 500, Speedup: 5},
			{Name: "OnDieDecode/t=1", KernelNs: 100, RefNs: 150, Speedup: 1.5},
			{Name: "SECDEDLineDecode/line", KernelNs: 100, RefNs: 300, Speedup: 3},
		},
	}
}

func gateReport(t *testing.T, rep Report) error {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return gate(io.Discard, path, 5, 3)
}

func TestGatePassesWellFormedReport(t *testing.T) {
	if err := gateReport(t, wellFormed()); err != nil {
		t.Fatalf("well-formed report failed the gate: %v", err)
	}
}

func TestGateFailures(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Report)
		want string
	}{
		{"engine allocs over budget", func(r *Report) { r.Benchmarks[0].AllocsPerOp = maxEngineAllocs + 1 }, "allocation budget"},
		{"engine bytes over budget", func(r *Report) { r.Benchmarks[0].BytesPerOp = maxEngineBytes + 1 }, "allocation budget"},
		{"engine benchmark missing", func(r *Report) { r.Benchmarks = nil }, "missing"},
		{"engine run without -benchmem", func(r *Report) { r.Benchmarks[0].AllocsPerOp = -1 }, "-benchmem"},
		{"BCH speedup below floor", func(r *Report) { r.Codecs[0].Speedup = 4.99 }, "BCHDecode/t=8"},
		{"SECDED family missing", func(r *Report) { r.Codecs = r.Codecs[:2] }, "SECDEDLineDecode: 0"},
	}
	for _, tc := range cases {
		rep := wellFormed()
		tc.mut(&rep)
		err := gateReport(t, rep)
		if err == nil {
			t.Errorf("%s: gate passed", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
