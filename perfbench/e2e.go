package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// warmupFor is the untimed closed-loop warm-up before a window: a tenth
// of it, between half a second and two.
func warmupFor(seconds float64) time.Duration {
	return time.Duration(min(max(seconds/10, 0.5), 2) * float64(time.Second))
}

// simPass runs the serial list once through the deployment's client
// path, checks every answer and returns the mean simulated time per
// query in ms.
func simPass(ctx context.Context, dep *deployment, data []*dataset, list []query, rep *report) (float64, error) {
	total := 0.0
	for _, q := range list {
		vals, r, err := ask(ctx, dep.targets[q.ds], q)
		rep.attempted++
		if err != nil {
			rep.failed++
			return 0, fmt.Errorf("serial list: %w", err)
		}
		if err := check(q, data[q.ds], vals); err != nil {
			rep.failed++
			rep.fail("serial list: %v", err)
			continue
		}
		total += r.SimSeconds * 1000
	}
	return total / float64(len(list)), nil
}

// subWindows splits the measured window; the time metrics are the
// median over the parts, so a burst of interference from outside the
// process moves one part, not the result.
const subWindows = 9

// runEndToEnd is the untraced run: timed set-up, the serial list, then
// the closed-loop window in subWindows parts.
func runEndToEnd(cfg config, w *workload, rep *report) error {
	ctx := context.Background()
	data := w.generate(cfg.seed)
	if cfg.corruptOracle {
		corruptOracle(data[0])
	}
	dep, setups, err := w.setupTimed(ctx, cfg, data, w.setupReps, deployOptions{})
	if err != nil {
		return err
	}
	defer dep.close()
	rep.set("setup_s", median(setups), "s", int64(len(setups)))

	list := serialList(cfg.seed, data, w.simCount)
	sim, err := simPass(ctx, dep, data, list, rep)
	if err != nil {
		return err
	}
	rep.set("sim_ms_per_query", sim, "ms", int64(len(list)))

	g := &loadGen{w: w, data: data, dep: dep, seed: cfg.seed}
	g.run(ctx, warmupFor(cfg.seconds), nil)
	part := time.Duration(cfg.seconds * float64(time.Second) / subWindows)
	var qps, p50, p90, cpu []float64
	t := &tally{}
	var elapsed time.Duration
	for k := 0; k < subWindows; k++ {
		runtime.GC()
		cpu0 := cpuTime()
		pt, el := g.run(ctx, part, nil)
		used := cpuTime() - cpu0
		qps = append(qps, float64(pt.answered)/el.Seconds())
		if len(pt.lat) > 0 {
			p50 = append(p50, percentile(pt.lat, 50))
			p90 = append(p90, percentile(pt.lat, 90))
		}
		cpu = append(cpu, float64(used.Nanoseconds())/1e6/float64(max(pt.attempted(), 1)))
		elapsed += el
		t.merge(pt)
	}
	heap := heapLiveMB()
	if len(p50) == 0 {
		return fmt.Errorf("no correct answers in the window (%d queries, %d faults, refusals %v)", t.queries, t.errors, t.refusals)
	}

	rep.attempted += t.attempted()
	rep.failed += t.failed()
	if t.wrong > 0 {
		rep.fail("%d wrong answers in the window", t.wrong)
	}
	rep.problems = append(rep.problems, t.problems...)
	n := int64(len(t.lat))
	rep.set("throughput_qps", median(qps), "1/s", t.answered)
	rep.set("ok_share", float64(t.ok())/float64(max(t.attempted(), 1)), "ratio", t.attempted())
	rep.set("cpu_ms_per_op", median(cpu), "ms", t.attempted())
	rep.set("heap_live_mb", heap, "MiB", 1)
	rep.notes = append(rep.notes,
		fmt.Sprintf("throughput and cpu per op are medians over %d sub-windows of %.3gs; throughput per sub-window %.4g",
			subWindows, part.Seconds(), qps),
		fmt.Sprintf("query_p50_ms = %.4g ms (median over the sub-windows; n=%d; printed, not gated)", median(p50), n),
		fmt.Sprintf("query_p90_ms = %.4g ms (median over the sub-windows; n=%d, %d samples above it; printed, not gated)",
			median(p90), n, n-int64(float64(n)*0.9)),
		fmt.Sprintf("query_p99_ms = %.4g ms over the whole window (n=%d, %d samples above it; printed, not gated)",
			percentile(t.lat, 99), n, n-int64(float64(n)*0.99)),
		"latencies are of correct answers only; refusals and faults lower ok_share instead",
		"cpu_ms_per_op is process CPU (getrusage) per operation and includes the closed-loop load generator, which shares the process with the daemons",
		fmt.Sprintf("window %.3fs, %d queries (%d correct), %d uploads (%d completed, %.4g MiB/s), %d faults, %d wrong",
			elapsed.Seconds(), t.queries, t.answered, t.uploads, t.uploaded, t.uploadRate(), t.errors, t.wrong))
	codes := make([]string, 0, len(t.refusals))
	for c := range t.refusals {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		rep.notes = append(rep.notes, fmt.Sprintf("refused %s: %d of %d operations", c, t.refusals[c], t.attempted()))
	}
	return nil
}
