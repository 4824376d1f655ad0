// Command perfbench is the repository's end-to-end benchmark: it starts
// in-process parseld daemons (internal/serve on loopback), drives them
// closed-loop through parselclient and parselclient/cluster, checks
// every answer against a sorted copy of the generated data, and prints
// one JSON result line.
//
//	bash perfbench/run.sh --workload resident_large --seed 7 --seconds 45 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the traced pass instead and reports the
// per-layer metrics. The last line of standard output is the result
// object; the lines before it print every metric with its unit and
// sample count, and the host fingerprint. The exit status is non-zero
// when any answer is wrong or the run could not be completed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // build directory: spans, results and snapshot dirs go here
	// corruptOracle flips one oracle entry that every run reads, so
	// the self-test can show a wrong answer fails the run.
	corruptOracle bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run produced: the metrics, their sample counts for
// the human-readable lines, and the correctness tallies.
type report struct {
	metrics   map[string]metric
	samples   map[string]int64
	notes     []string
	attempted int64
	failed    int64
	correct   bool
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int64{}, correct: true}
}

func (r *report) set(name string, v float64, unit string, samples int64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and writes the result; it returns
// the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 45, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for spans, results and snapshot stores")
	fs.BoolVar(&cfg.corruptOracle, "corrupt-oracle", false, "self-test: corrupt one oracle entry so the run must fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	host := fingerprint()
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s git=%s\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.GoVersion, host.GitSHA)
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%g trace=%d clients=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, clientCount())

	rep := newReport()
	var err error
	if cfg.trace {
		err = runTraced(cfg, w, rep, stdout)
	} else {
		err = runEndToEnd(cfg, w, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Fprintf(stdout, "metric %-32s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, rep.samples[name])
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "WRONG: %s\n", p)
	}

	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, max(rep.attempted, 1), rep.failed, rep.metrics}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	saveResult(cfg, host, rep, line, stderr)
	fmt.Fprintln(stdout, string(line))
	if !rep.correct {
		return 1
	}
	return 0
}

// saveResult keeps a copy of the result with its fingerprint and seed
// under the build directory; a failure to write it is only reported.
func saveResult(cfg config, host hostInfo, rep *report, line []byte, stderr io.Writer) {
	rec := struct {
		Workload string           `json:"workload"`
		Seed     uint64           `json:"seed"`
		Seconds  float64          `json:"seconds"`
		Trace    bool             `json:"trace"`
		Host     hostInfo         `json:"host"`
		Samples  map[string]int64 `json:"samples"`
		Notes    []string         `json:"notes,omitempty"`
		Problems []string         `json:"problems,omitempty"`
		Result   json.RawMessage  `json:"result"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, host, rep.samples, rep.notes, rep.problems, line}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		dir := filepath.Join(cfg.out, "results")
		if err = os.MkdirAll(dir, 0o755); err == nil {
			name := fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
			err = os.WriteFile(filepath.Join(dir, name), data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: save result: %v\n", err)
	}
}
