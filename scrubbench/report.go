package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one named figure the benchmark prints.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (0 for a count or a
	// single measurement).
	N int `json:"n,omitempty"`
	// Note qualifies the value: a tail's percentile, or why a figure is
	// not exercised on this workload.
	Note string `json:"note,omitempty"`
}

// report collects every figure of one run in print order.
type report struct {
	metrics []metric
	index   map[string]int
}

func (r *report) add(name string, value float64, unit string, n int, note string) {
	if r.index == nil {
		r.index = make(map[string]int)
	}
	m := metric{Name: name, Value: value, Unit: unit, N: n, Note: note}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// addDist adds name.p50 and name.tail of a sample set, scaled by scale
// (e.g. 1e3 to print seconds as milliseconds).
func (r *report) addDist(name string, samples []float64, scale float64, unit string) {
	p50 := median(samples) * scale
	tail, label := tailOf(samples)
	r.add(name+".p50", p50, unit, len(samples), "")
	r.add(name+".tail", tail*scale, unit, len(samples), label)
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// median returns the middle of the samples (mean of the two middle ones
// for an even count); 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail.
const tailBeyond = 10

// tailOf returns the highest percentile that has at least tailBeyond
// samples above it, with its label. With 2*tailBeyond samples or fewer
// no percentile above the median has that many beyond it, so the median
// is reported and labelled as such; at 2*tailBeyond+1 samples the two
// definitions meet.
func tailOf(samples []float64) (float64, string) {
	n := len(samples)
	if n <= 2*tailBeyond {
		return median(samples), fmt.Sprintf("median of %d: too few samples for a tail", n)
	}
	s := sortedCopy(samples)
	i := n - tailBeyond - 1
	return s[i], fmt.Sprintf("p%.1f of %d", 100*float64(i+1)/float64(n), n)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a ratio over no attempts).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stamp identifies the machine, toolchain and inputs of a run.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func newStamp(cfg runConfig) stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     cfg.commit,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// outcome is the tally every workload returns alongside its figures.
type outcome struct {
	attempted int
	// failed counts ops that errored, panicked, were refused, or
	// produced a wrong output.
	failed int
	// wrong counts outputs that failed a check; problems says why.
	wrong    int
	problems []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) wrongOutput(format string, args ...any) {
	o.wrong++
	o.fail(format, args...)
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]resultMetrics `json:"metrics"`
}

type resultMetrics struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable table, the run stamp and full report
// as one JSON line, and finally the result line carrying exactly the
// metrics named in want.
func emit(w io.Writer, st stamp, rep *report, out outcome, want []contractMetric) error {
	fmt.Fprintf(w, "# scrubbench %s seed=%d seconds=%d trace=%d\n", st.Workload, st.Seed, st.Seconds, st.Trace)
	fmt.Fprintf(w, "# cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", st.CPU, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit)
	for _, m := range rep.metrics {
		line := fmt.Sprintf("%-44s %16.6g %-10s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	errRate := ratio(float64(out.failed), float64(out.attempted))
	fmt.Fprintf(w, "%-44s %16.6g %-10s n=%d\n", "error_rate", errRate, "fraction", out.attempted)
	for _, p := range out.problems {
		fmt.Fprintln(w, "# problem:", p)
	}
	full, err := json.Marshal(struct {
		Stamp     stamp    `json:"stamp"`
		ErrorRate float64  `json:"error_rate"`
		Metrics   []metric `json:"report"`
	}{st, errRate, rep.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(full))

	res := result{
		Correct:   out.wrong == 0 && out.attempted > out.failed,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]resultMetrics, len(want)),
	}
	for _, cm := range want {
		m, ok := rep.get(cm.Name)
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", cm.Name)
		case m.Unit != cm.Unit:
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", cm.Name, m.Unit, cm.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is not finite: %v", cm.Name, m.Value)
		}
		res.Metrics[cm.Name] = resultMetrics{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
