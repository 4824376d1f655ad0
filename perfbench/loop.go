package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"parsel/parselclient"
)

// refusal reports whether err is a typed refusal from the daemon — a
// wire code for work it declined (not found, shed, shutting down) —
// rather than a transport or server fault. Refusals are tallied by code
// and lower ok_share; they do not count as failed operations.
func refusal(err error) (code string, ok bool) {
	var ae *parselclient.APIError
	if !errors.As(err, &ae) {
		return "", false
	}
	switch ae.Code {
	case parselclient.CodeDatasetNotFound, parselclient.CodeQueueFull,
		parselclient.CodePoolTimeout, parselclient.CodeShuttingDown:
		return string(ae.Code), true
	}
	return "", false
}

// tally is what one closed-loop worker (or a merge of several) saw.
type tally struct {
	queries, answered int64     // query attempts, correct answers
	lat               []float64 // ms per correct answer
	uploads, uploaded int64     // upload attempts, completed uploads
	uploadBytes       int64     // raw key bytes of completed uploads
	uploadTime        time.Duration
	refusals          map[string]int64 // by wire code
	errors            int64            // transport and server faults
	wrong             int64            // answers the oracle rejected
	problems          []string         // the first few wrong answers and faults
}

func (t *tally) attempted() int64 { return t.queries + t.uploads }
func (t *tally) ok() int64        { return t.answered + t.uploaded }

// uploadRate is the raw key MiB/s of the completed uploads, over the
// time they took.
func (t *tally) uploadRate() float64 {
	if t.uploadTime <= 0 {
		return 0
	}
	return float64(t.uploadBytes) / (1 << 20) / t.uploadTime.Seconds()
}

// failed counts operations that failed: wrong answers and faults.
func (t *tally) failed() int64 { return t.wrong + t.errors }

func (t *tally) note(err error) {
	if code, ok := refusal(err); ok {
		if t.refusals == nil {
			t.refusals = map[string]int64{}
		}
		t.refusals[code]++
		return
	}
	t.errors++
	t.problem(err.Error())
}

// problem keeps the first few wrong answers and faults for the report.
func (t *tally) problem(msg string) {
	if len(t.problems) < 5 {
		t.problems = append(t.problems, msg)
	}
}

func (t *tally) merge(o *tally) {
	t.queries += o.queries
	t.answered += o.answered
	t.lat = append(t.lat, o.lat...)
	t.uploads += o.uploads
	t.uploaded += o.uploaded
	t.uploadBytes += o.uploadBytes
	t.uploadTime += o.uploadTime
	for c, n := range o.refusals {
		if t.refusals == nil {
			t.refusals = map[string]int64{}
		}
		t.refusals[c] += n
	}
	t.errors += o.errors
	t.wrong += o.wrong
	if room := 5 - len(t.problems); room > 0 {
		t.problems = append(t.problems, o.problems[:min(room, len(o.problems))]...)
	}
}

// wrapCall lets the traced pass wrap each query call: it runs call
// under a context it derives and records the call's span. nil runs the
// call directly.
type wrapCall func(ctx context.Context, call func(ctx context.Context) error) error

// loadGen is the closed-loop load of one deployment.
type loadGen struct {
	w    *workload
	data []*dataset
	dep  *deployment
	seed uint64
	// stream numbers the closed-loop windows, so each window draws a
	// fresh, seeded query stream.
	stream uint64
}

// readStep issues one query of the mix and checks it.
func (g *loadGen) readStep(ctx context.Context, rng *rand.Rand, i int, t *tally, wrap wrapCall) {
	q := drawQuery(rng, i, g.data)
	d := g.data[q.ds]
	var vals []int64
	start := time.Now()
	call := func(ctx context.Context) error {
		var err error
		vals, _, err = ask(ctx, g.dep.targets[q.ds], q)
		return err
	}
	var err error
	if wrap != nil {
		err = wrap(ctx, call)
	} else {
		err = call(ctx)
	}
	elapsed := time.Since(start)
	t.queries++
	if err != nil {
		t.note(err)
		return
	}
	if err := check(q, d, vals); err != nil {
		t.wrong++
		t.problem(err.Error())
		return
	}
	t.answered++
	t.lat = append(t.lat, float64(elapsed.Nanoseconds())/1e6)
}

// writerThink is the writer's pause after each upload. The writer is
// closed-loop like the readers, with a think time: it refreshes each
// dataset a few times a second, and keeps the snapshot fsyncs each
// upload triggers, whose latency follows the shared disk, from setting
// the reader's run-to-run spread.
const writerThink = 100 * time.Millisecond

// writeStep re-uploads the next dataset round-robin.
func (g *loadGen) writeStep(ctx context.Context, i int, t *tally) {
	d := g.data[i%len(g.data)]
	start := time.Now()
	info, err := g.dep.targets[i%len(g.data)].Upload(ctx, d.shards)
	elapsed := time.Since(start)
	t.uploads++
	if err != nil {
		t.note(err)
		return
	}
	if info.N != d.n {
		t.wrong++
		t.problem(fmt.Sprintf("upload %s: daemon holds %d keys, sent %d", d.id, info.N, d.n))
		return
	}
	t.uploaded++
	t.uploadBytes += d.rawBytes()
	t.uploadTime += elapsed
}

// run drives the closed loop for dur: clientCount workers, each
// sending its next operation only after the previous one returned. A
// writer workload runs one writer (worker 0) and one reader. It returns
// the merged tally and the wall time until every worker stopped.
func (g *loadGen) run(ctx context.Context, dur time.Duration, wrap wrapCall) (*tally, time.Duration) {
	g.stream++
	workers := clientCount()
	if g.w.writer {
		workers = 2 // one writer and one reader
	}
	tallies := make([]*tally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < workers; c++ {
		t := &tally{lat: make([]float64, 0, 4096)}
		tallies[c] = t
		rng := rand.New(rand.NewPCG(g.seed, g.stream<<8|uint64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if g.w.writer && c == 0 {
					g.writeStep(ctx, i, t)
					time.Sleep(min(writerThink, time.Until(deadline)))
				} else {
					g.readStep(ctx, rng, i, t, wrap)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	return total, elapsed
}
