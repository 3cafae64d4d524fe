// Command scrubbench is the repository's benchmark. One invocation runs
// one workload for a fixed wall-clock budget, checks every output, and
// prints every figure by name and unit; its last line is a JSON object
// with the metrics BENCHMARK.json names for the mode (end-to-end with
// -trace 0, per-layer with -trace 1).
//
// Usage, from the repository root:
//
//	bash scrubbench/run.sh --workload paper-demand --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// what each layer figure predicts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's inputs.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	// workDir holds scratch files (the scrubd journal).
	workDir string
	// contract is the BENCHMARK.json naming the metrics to report.
	contract string
	commit   string
}

// runDeadline keeps a run inside the three minutes a run may take;
// requests still going when it passes are cancelled and count as failed.
const runDeadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	var cfg runConfig
	fs := flag.NewFlagSet("scrubbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: paper-demand, cold-patrol or scrubd-mix")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.IntVar(&cfg.seconds, "seconds", 25, "measuring budget in wall seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	fs.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for scratch files")
	fs.StringVar(&cfg.contract, "contract", "BENCHMARK.json", "benchmark definition naming the metrics")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit under test, for the run stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) || cfg.seed == 0 {
		fmt.Fprintln(stderr, "scrubbench: need -seconds >= 1, -trace 0|1 and -seed > 0")
		return 2
	}
	if err := bench(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "scrubbench:", err)
		return 1
	}
	return 0
}

// contract is the part of BENCHMARK.json the program reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

func bench(cfg runConfig, stdout io.Writer) error {
	c, err := readContract(cfg.contract)
	if err != nil {
		return err
	}
	known := false
	for _, w := range c.Workloads {
		known = known || w.Name == cfg.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	ref, err := newRefKernel()
	if err != nil {
		return err
	}
	defer ref.close()

	var rep report
	var out outcome
	switch cfg.workload {
	case "paper-demand":
		out, err = runLocal(ctx, paperDemand, cfg, ref, &rep)
	case "cold-patrol":
		out, err = runLocal(ctx, coldPatrol, cfg, ref, &rep)
	case "scrubd-mix":
		out, err = runMix(ctx, cfg, ref, &rep)
	default:
		err = fmt.Errorf("workload %q is not implemented", cfg.workload)
	}
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	// The kernel's buffers are resident before the workload starts, so
	// the high-water mark holds them in full.
	rep.add("peak_rss_mb", rss-ref.residentMB(), "MB", 0, "VmHWM less the reference kernel's buffers")
	rep.add("host.ref_ms", median(ref.walls)*1e3, "ms", len(ref.walls),
		fmt.Sprintf("reference kernel wall time; gated times are wall x %g ms / this", refNominal*1e3))

	want := c.EndToEnd
	if cfg.trace == 1 {
		want = c.PerLayer
	}
	return emit(stdout, newStamp(cfg), &rep, out, want)
}
