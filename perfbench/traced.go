package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"parsel"
)

// runTraced is the traced pass: set-up, the serial list twice through
// the client and twice through the engine (both must repeat exactly),
// an untraced closed-loop window, the same window traced, and serial
// probes that time each layer's public functions from outside.
func runTraced(cfg config, w *workload, rep *report, stdout io.Writer) error {
	ctx := context.Background()
	data := w.generate(cfg.seed)
	if cfg.corruptOracle {
		corruptOracle(data[0])
	}
	tr := newTracer()
	col := &retryCounter{}
	dep, _, err := w.setupTimed(ctx, cfg, data, 1, deployOptions{wrap: tr.wrap, collector: col})
	if err != nil {
		return err
	}
	defer dep.close()
	budget := time.Duration(cfg.seconds * float64(time.Second))

	sel, err := parsel.NewSelector[int64](parsel.Options{})
	if err != nil {
		return err
	}
	defer sel.Close()
	if err := checkDeterminism(ctx, dep, data, serialList(cfg.seed, data, w.simCount), sel, rep); err != nil {
		return err
	}
	g := &loadGen{w: w, data: data, dep: dep, seed: cfg.seed}
	g.run(ctx, warmupFor(cfg.seconds), nil)
	plain := tracedWindows(ctx, g, tr, col, budget*3/10, rep)

	// Upload rate: the writer's in the untraced window, else serial
	// re-uploads of every dataset.
	if w.writer {
		rep.set("upload.mb_s", plain.uploadRate(), "MiB/s", plain.uploaded)
	} else {
		rate, uploads, err := reuploadRate(ctx, dep, data, budget/10)
		if err != nil {
			return err
		}
		rep.set("upload.mb_s", rate, "MiB/s", uploads)
	}

	// Serial probes, each given a slice of the budget.
	slice := budget / 25
	if err := probePool(ctx, dep, data, budget/10, rep); err != nil {
		return err
	}
	if err := probeLayers(ctx, cfg, w, dep, data, sel, slice, rep); err != nil {
		return err
	}

	path := filepath.Join(cfg.out, "trace", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.writeSpans(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans: %s\n", path)
	return nil
}

// rootName names the root span: the client call, or the routed call.
func rootName(w *workload) string {
	if w.routed {
		return "cluster.call"
	}
	return "client.call"
}

type statsSum struct{ uploads, persists int64 }

// daemonStats sums every node's /v1/stats upload and persist counters.
func daemonStats(ctx context.Context, dep *deployment) statsSum {
	var s statsSum
	for _, c := range dep.clients {
		st, err := c.Stats(ctx)
		if err != nil {
			continue
		}
		s.uploads += st.Datasets.Uploads
		s.persists += st.Snapshots.Persists
	}
	return s
}

func routerFailovers(dep *deployment) int64 {
	if dep.router == nil {
		return 0
	}
	return dep.router.Stats().Failovers
}

// checkDeterminism runs the serial list twice through the daemon and
// twice through sel, fails the run unless sim_ms_per_query and every
// engine count repeat exactly, and reports the engine counts.
func checkDeterminism(ctx context.Context, dep *deployment, data []*dataset, list []query, sel *parsel.Selector[int64], rep *report) error {
	sim1, err := simPass(ctx, dep, data, list, rep)
	if err != nil {
		return err
	}
	sim2, err := simPass(ctx, dep, data, list, rep)
	if err != nil {
		return err
	}
	ec1, err := engineList(sel, data, list)
	var ec2 engineCounts
	if err == nil {
		ec2, err = engineList(sel, data, list)
	}
	switch {
	case err != nil:
		rep.failed++
		rep.fail("engine serial list: %v", err)
	case ec1 != ec2:
		rep.fail("determinism: engine counts differ between two passes of the serial list: %+v vs %+v", ec1, ec2)
	case sim1 != sim2:
		rep.fail("determinism: sim_ms_per_query %v then %v on the same serial list", sim1, sim2)
	default:
		rep.notes = append(rep.notes, fmt.Sprintf("determinism: the serial list of %d queries repeated exactly, twice through the daemon (sim_ms_per_query %.6g) and twice through the engine (every engine.* count)", len(list), sim1))
	}
	if engineSimMS := ec1.simMS / float64(len(list)); engineSimMS != sim1 {
		rep.notes = append(rep.notes, fmt.Sprintf("sim_ms_per_query through the daemon %.9g, through a direct Selector %.9g", sim1, engineSimMS))
	}
	nq := float64(len(list))
	rep.set("engine.iterations", float64(ec1.iterations)/nq, "count", int64(nq))
	rep.set("engine.messages", float64(ec1.messages)/nq, "count", int64(nq))
	rep.set("engine.kbytes", float64(ec1.bytes)/1024/nq, "KiB", int64(nq))
	rep.set("engine.unsuccessful", float64(ec1.unsuccessful)/nq, "count", int64(nq))
	rep.set("engine.balance_sim_ms", ec1.balanceSeconds*1000/nq, "ms", int64(nq))
	return nil
}

// tracedWindows runs an untraced closed-loop window, then the same
// window traced, and reports the runtime, serving, client, wire and
// routing metrics. It returns the untraced window's tally.
func tracedWindows(ctx context.Context, g *loadGen, tr *tracer, col *retryCounter, window time.Duration, rep *report) *tally {
	dep := g.dep
	runtime.GC()
	rt0 := sampleRuntime()
	plain, plainElapsed := g.run(ctx, window, nil)
	rt1 := sampleRuntime()
	ops := float64(max(plain.attempted(), 1))
	rep.set("runtime.alloc_kb_per_op", float64(rt1.allocBytes-rt0.allocBytes)/1024/ops, "KiB", plain.attempted())
	rep.set("runtime.gc_per_kop", float64(rt1.gcs-rt0.gcs)*1000/ops, "count", plain.attempted())
	if busy := rt1.busyCPU - rt0.busyCPU; busy > 0 {
		rep.set("runtime.gc_cpu_share", (rt1.gcCPU-rt0.gcCPU)/busy, "ratio", plain.attempted())
	} else {
		rep.set("runtime.gc_cpu_share", 0, "ratio", plain.attempted())
	}

	statsBefore := daemonStats(ctx, dep)
	failovers0 := routerFailovers(dep)
	runtime.GC()
	tr.on.Store(true)
	traced, tracedElapsed := g.run(ctx, window, tr.around(rootName(g.w)))
	tr.on.Store(false)
	statsAfter := daemonStats(ctx, dep)
	for _, t := range []*tally{plain, traced} {
		rep.attempted += t.attempted()
		rep.failed += t.failed()
		if t.wrong > 0 {
			rep.fail("%d wrong answers in a closed-loop window", t.wrong)
		}
		rep.problems = append(rep.problems, t.problems...)
	}

	lt := tr.reduce()
	calls, trips := float64(max(lt.calls, 1)), float64(max(lt.trips, 1))
	staged := float64(max(lt.staged, 1))
	rep.set("client.rtt_ms", msOf(lt.tripNS)/trips, "ms", lt.trips)
	rep.set("client.self_ms", msOf(lt.callNS-lt.tripNS)/calls, "ms", lt.calls)
	rep.set("client.outside_server_ms", msOf(lt.tripNS-lt.stageTotal())/trips, "ms", lt.trips)
	for _, st := range []string{"queue", "checkout", "execute"} {
		rep.set("serve."+st+"_ms", msOf(lt.stageNS["serve."+st])/staged, "ms", lt.staged)
	}
	rep.set("trace.unaccounted_share", float64(lt.tripNS-lt.stageTotal())/float64(max(lt.callNS, 1)), "ratio", lt.calls)
	rep.set("serve.shed_share", float64(tr.shed.Load())/trips, "ratio", lt.trips)
	rep.set("serve.notfound_share", float64(tr.notFound.Load())/trips, "ratio", lt.trips)
	rep.set("wire.req_bytes_per_op", float64(tr.reqBytes.Load())/trips, "B", lt.trips)
	rep.set("wire.resp_bytes_per_op", float64(tr.respBytes.Load())/trips, "B", lt.trips)
	rep.set("client.retries_per_kop", float64(col.retries.Load())*1000/float64(max(col.ops.Load(), 1)), "count", col.ops.Load())
	rep.set("cluster.failovers", float64(routerFailovers(dep)-failovers0), "count", lt.calls)
	plainQPS := float64(plain.answered) / plainElapsed.Seconds()
	tracedQPS := float64(traced.answered) / tracedElapsed.Seconds()
	rep.set("trace.overhead_share", (plainQPS-tracedQPS)/plainQPS, "ratio", traced.answered)
	rep.notes = append(rep.notes,
		fmt.Sprintf("untraced window %.0f qps, traced window %.0f qps (%d spans, %d dropped)", plainQPS, tracedQPS, lt.spans, tr.dropped.Load()),
		fmt.Sprintf("of the mean client call (%.4g ms), %.1f%% is in no named layer: round trip minus the server's queue, checkout and execute stages",
			msOf(lt.callNS)/calls, 100*float64(lt.tripNS-lt.stageTotal())/float64(max(lt.callNS, 1))))
	if d := statsAfter.uploads - statsBefore.uploads; d > 0 {
		rep.set("snapshot.persists_per_upload", float64(statsAfter.persists-statsBefore.persists)/float64(d), "ratio", d)
	} else {
		rep.set("snapshot.persists_per_upload", float64(statsAfter.persists)/float64(max(statsAfter.uploads, 1)), "ratio", statsAfter.uploads)
	}
	return plain
}

// engineCounts are the serial list's simulated metrics, summed over the
// list, straight from the engine.
type engineCounts struct {
	simMS, balanceSeconds    float64
	iterations, unsuccessful int64
	messages, bytes          int64
}

func (c *engineCounts) add(r parsel.Report) {
	c.simMS += r.SimSeconds * 1000 // summed like simPass sums, so the means compare exactly
	c.balanceSeconds += r.BalanceSeconds
	c.iterations += int64(r.Iterations)
	c.unsuccessful += int64(r.Unsuccessful)
	c.messages += r.Messages
	c.bytes += r.Bytes
}

// engineList runs the serial list on a Selector configured like the
// daemons' pools, checking every answer.
func engineList(sel *parsel.Selector[int64], data []*dataset, list []query) (engineCounts, error) {
	var c engineCounts
	for _, q := range list {
		d := data[q.ds]
		var vals []int64
		var r parsel.Report
		if q.quantiles {
			v, rep, err := sel.Quantiles(d.shards, deciles)
			if err != nil {
				return c, err
			}
			vals, r = v, rep
		} else {
			res, err := sel.Select(d.shards, q.rank)
			if err != nil {
				return c, err
			}
			vals, r = []int64{res.Value}, res.Report
		}
		if err := check(q, d, vals); err != nil {
			return c, err
		}
		c.add(r)
	}
	return c, nil
}
