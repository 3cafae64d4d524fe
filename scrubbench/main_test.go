package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestShortRunReportsEveryMetric runs every workload of BENCHMARK.json
// in both modes on a one-second budget and checks the result line: the
// outputs are correct, nothing failed, and every metric the mode names
// is present with its unit and a finite value.
func TestShortRunReportsEveryMetric(t *testing.T) {
	const path = "../BENCHMARK.json"
	c, err := readContract(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workloads {
		for trace, want := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{
					"-workload", w.Name, "-seed", "3", "-seconds", "1",
					"-trace", fmt.Sprint(trace), "-contract", path, "-work-dir", t.TempDir(),
				}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s in %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestTailOf(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending, so tailOf must sort
		}
		return s
	}
	for _, tc := range []struct {
		n     int
		want  float64
		label string
	}{
		{1, 1, "median of 1: too few samples for a tail"},
		{20, 10.5, "median of 20: too few samples for a tail"},
		{21, 11, "p52.4 of 21"},
		{100, 90, "p90.0 of 100"},
	} {
		got, label := tailOf(seq(tc.n))
		if got != tc.want || label != tc.label {
			t.Errorf("n=%d: got %v (%s), want %v (%s)", tc.n, got, label, tc.want, tc.label)
		}
	}
}
