package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"parsel"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs the benchmark in-process for one second and decodes
// its last output line.
func runShort(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--seconds", "1", "--seed", "3", "--out", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last line is not a result: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly,
// untraced and traced, and checks that every metric BENCHMARK.json
// names comes out with its unit and that every answer was right. It
// runs the hand-run workloads too, and checks that every workload
// BENCHMARK.json lists exists.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %s, which perfbench does not have", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				code, res, out := runShort(t, "--workload", name, "--trace", trace)
				if code != 0 || !res.Correct || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, attempted %d\n%s", code, res.Correct, res.Attempted, out)
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out, "metric "+m.Name+" ") {
						t.Errorf("metric %s not printed with its sample count", m.Name)
					}
				}
			})
		}
	}
}

// TestCorruptOracleFails flips one oracle entry that the serial list
// and every quantiles query read: the run must report wrong answers,
// lower ok_share and exit non-zero.
func TestCorruptOracleFails(t *testing.T) {
	code, res, out := runShort(t, "--workload", "resident_large", "--trace", "0", "--corrupt-oracle")
	if code == 0 || res.Correct {
		t.Fatalf("corrupted oracle: exit %d, correct %v\n%s", code, res.Correct, out)
	}
	if res.Failed < 1 {
		t.Errorf("failed = %d, want at least 1", res.Failed)
	}
	if ok := res.Metrics["ok_share"].Value; ok >= 1 {
		t.Errorf("ok_share = %v, want below 1", ok)
	}
	if !strings.Contains(out, "WRONG:") {
		t.Errorf("no wrong answer printed\n%s", out)
	}
}

// TestQuantileRankMatchesEngine checks the oracle's quantile-to-rank
// rule against the engine: over keys 0..n-1 the key at quantile q is
// its rank minus one.
func TestQuantileRankMatchesEngine(t *testing.T) {
	qs := append([]float64{0, 0.3, 1e-9, 0.999999, 1}, deciles...)
	for _, n := range []int{1, 7, 10, 1000, 100003} {
		shards := [][]int64{make([]int64, n/2), make([]int64, n-n/2)}
		for i := range n {
			if i < n/2 {
				shards[0][i] = int64(i)
			} else {
				shards[1][i-n/2] = int64(i)
			}
		}
		got, _, err := parsel.Quantiles(shards, qs, parsel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if want := quantileRank(int64(n), q) - 1; got[i] != want {
				t.Errorf("n=%d q=%g: engine key %d, oracle rank-1 %d", n, q, got[i], want)
			}
		}
	}
}

func TestParseStages(t *testing.T) {
	got := parseStages("queue_ns=5;checkout_ns=0;execute_ns=1200")
	want := []stage{{"serve.queue", 5}, {"serve.checkout", 0}, {"serve.execute", 1200}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stage %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if len(parseStages("")) != 0 {
		t.Error("empty header parsed to stages")
	}
}
