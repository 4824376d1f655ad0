package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parsel"
	"parsel/internal/seq"
	"parsel/internal/snapshot"
	"parsel/parselclient"
	"parsel/parselclient/cluster"
)

// timeReps runs fn at least three times and then until reps runs or
// budget is spent, and returns each run's duration in ms. fn returns
// the duration it measured, so untimed preparation can sit inside it.
func timeReps(budget time.Duration, reps int, fn func(i int) (time.Duration, error)) ([]float64, error) {
	var out []float64
	start := time.Now()
	for i := 0; i < reps && (i < 3 || time.Since(start) < budget); i++ {
		d, err := fn(i)
		if err != nil {
			return nil, err
		}
		out = append(out, float64(d.Nanoseconds())/1e6)
	}
	return out, nil
}

// probeRanks is a fixed, seeded set of select ranks for the serial
// probes.
func probeRanks(seed uint64, n int64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x9b0be))
	out := make([]int64, 16)
	for i := range out {
		out[i] = 1 + rng.Int64N(n)
	}
	return out
}

// reuploadRate re-uploads every dataset serially, round after round,
// for at least dur and three rounds, and returns the raw key MiB/s over
// all of them with the upload count.
func reuploadRate(ctx context.Context, dep *deployment, data []*dataset, dur time.Duration) (float64, int64, error) {
	var bytes, uploads int64
	start := time.Now()
	for r := 0; r < 3 || time.Since(start) < dur; r++ {
		for i, d := range data {
			info, err := dep.targets[i].Upload(ctx, d.shards)
			if err != nil {
				return 0, 0, fmt.Errorf("re-upload %s: %w", d.id, err)
			}
			if info.N != d.n {
				return 0, 0, fmt.Errorf("re-upload %s: daemon holds %d keys, sent %d", d.id, info.N, d.n)
			}
			bytes += d.rawBytes()
			uploads++
		}
	}
	return float64(bytes) / (1 << 20) / time.Since(start).Seconds(), uploads, nil
}

// probePool drives the first daemon's pool directly with the closed
// loop's concurrency, observing checkout waits.
func probePool(ctx context.Context, dep *deployment, data []*dataset, dur time.Duration, rep *report) error {
	pool := dep.nodes[0].pool
	var waitNS, calls, wrong atomic.Int64
	octx := parsel.WithCheckoutObserver(ctx, func(wait time.Duration) { waitNS.Add(int64(wait)) })
	before := pool.Stats()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for c := 0; c < clientCount(); c++ {
		rng := rand.New(rand.NewPCG(uint64(c), 0x9001))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				d := data[rng.IntN(len(data))]
				rank := 1 + rng.Int64N(d.n)
				res, err := pool.SelectContext(octx, d.shards, rank)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				calls.Add(1)
				if res.Value != d.sorted[rank-1] {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("pool probe: %w", firstErr)
	}
	n := calls.Load()
	rep.attempted += n
	if w := wrong.Load(); w > 0 {
		rep.failed += w
		rep.fail("pool probe: %d wrong answers", w)
	}
	rep.set("pool.checkout_wait_ms", msOf(waitNS.Load())/float64(max(n, 1)), "ms", n)
	rep.set("pool.waits_per_kop", float64(pool.Stats().Waits-before.Waits)*1000/float64(max(n, 1)), "count", n)
	return nil
}

// probeLayers times each layer's public functions serially on the
// first dataset, from the sequential kernels up to routing and uploads.
func probeLayers(ctx context.Context, cfg config, w *workload, dep *deployment, data []*dataset, sel *parsel.Selector[int64], slice time.Duration, rep *report) error {
	d := data[0]
	ranks := probeRanks(cfg.seed, d.n)
	if err := probeSeq(cfg.seed, d, slice, rep); err != nil {
		return err
	}
	engineSelect, err := probeEngine(sel, d, ranks, slice, rep)
	if err != nil {
		return err
	}
	if err := probeDataset(dep, d, ranks, engineSelect, slice, rep); err != nil {
		return err
	}
	if err := probeRoute(ctx, w, dep, d, ranks, slice, rep); err != nil {
		return err
	}
	return probeUpload(ctx, dep, d, slice, rep)
}

// probeSeq times internal/seq's kernels on one shard.
func probeSeq(seed uint64, d *dataset, slice time.Duration, rep *report) error {
	shard := d.shards[0]
	sortedShard := slices.Sorted(slices.Values(shard))
	lo, hi := sortedShard[len(shard)/2-len(shard)/16], sortedShard[len(shard)/2+len(shard)/16]
	dst := make([]int64, len(shard))
	filter, err := timeReps(slice, 200, func(int) (time.Duration, error) {
		start := time.Now()
		seq.FilterWindowCount(dst, shard, lo, hi)
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e1))
	qs, err := timeReps(slice, 200, func(int) (time.Duration, error) {
		copy(dst, shard)
		start := time.Now()
		v, _ := seq.Quickselect(dst, len(dst)/2, rng)
		el := time.Since(start)
		if v != sortedShard[len(dst)/2] {
			return 0, fmt.Errorf("seq.Quickselect: got %d, want %d", v, sortedShard[len(dst)/2])
		}
		return el, nil
	})
	if err != nil {
		return err
	}
	perKey := 1e6 / float64(len(shard)) // ms per call -> ns per key
	rep.set("seq.filter_ns_per_key", median(filter)*perKey, "ns", int64(len(filter)))
	rep.set("seq.quickselect_ns_per_key", median(qs)*perKey, "ns", int64(len(qs)))
	return nil
}

// probeEngine times the engine through parsel.Selector: borrowed
// shards, in place on a fresh copy, and nine deciles in one run. It
// returns the median borrowed select in ms.
func probeEngine(sel *parsel.Selector[int64], d *dataset, ranks []int64, slice time.Duration, rep *report) (float64, error) {
	selectMS, err := timeReps(slice, 200, func(i int) (time.Duration, error) {
		start := time.Now()
		res, err := sel.Select(d.shards, ranks[i%len(ranks)])
		el := time.Since(start)
		if err == nil && res.Value != d.sorted[ranks[i%len(ranks)]-1] {
			err = fmt.Errorf("Selector.Select rank %d: got %d", ranks[i%len(ranks)], res.Value)
		}
		return el, err
	})
	if err != nil {
		return 0, err
	}
	scratch := make([][]int64, len(d.shards))
	for i, s := range d.shards {
		scratch[i] = make([]int64, len(s))
	}
	inplaceMS, err := timeReps(slice, 200, func(i int) (time.Duration, error) {
		for j, s := range d.shards {
			copy(scratch[j], s)
		}
		start := time.Now()
		res, err := sel.SelectInPlace(scratch, ranks[i%len(ranks)])
		el := time.Since(start)
		if err == nil && res.Value != d.sorted[ranks[i%len(ranks)]-1] {
			err = fmt.Errorf("Selector.SelectInPlace rank %d: got %d", ranks[i%len(ranks)], res.Value)
		}
		return el, err
	})
	if err != nil {
		return 0, err
	}
	decileRanks := make([]int64, len(deciles))
	for i, q := range deciles {
		decileRanks[i] = quantileRank(d.n, q)
	}
	multiMS, err := timeReps(slice, 100, func(int) (time.Duration, error) {
		start := time.Now()
		vals, _, err := sel.SelectRanks(d.shards, decileRanks)
		el := time.Since(start)
		if err == nil {
			err = check(query{quantiles: true}, d, vals)
		}
		return el, err
	})
	if err != nil {
		return 0, err
	}
	engineSelect := median(selectMS)
	rep.set("engine.select_ms", engineSelect, "ms", int64(len(selectMS)))
	rep.set("engine.inplace_ms", median(inplaceMS), "ms", int64(len(inplaceMS)))
	rep.set("engine.copyin_ms", engineSelect-median(inplaceMS), "ms", int64(len(inplaceMS)))
	rep.set("engine.multi_ms", median(multiMS), "ms", int64(len(multiMS)))
	return engineSelect, nil
}

// probeDataset times the in-process Dataset over the same shards.
func probeDataset(dep *deployment, d *dataset, ranks []int64, engineSelect float64, slice time.Duration, rep *report) error {
	pds, err := dep.nodes[0].pool.NewDataset(d.shards)
	if err != nil {
		return err
	}
	dsMS, err := timeReps(slice, 200, func(i int) (time.Duration, error) {
		start := time.Now()
		res, err := pds.Select(ranks[i%len(ranks)])
		el := time.Since(start)
		if err == nil && res.Value != d.sorted[ranks[i%len(ranks)]-1] {
			err = fmt.Errorf("Dataset.Select rank %d: got %d", ranks[i%len(ranks)], res.Value)
		}
		return el, err
	})
	pds.Close()
	if err != nil {
		return err
	}
	rep.set("dataset.select_ms", median(dsMS), "ms", int64(len(dsMS)))
	rep.set("dataset.self_ms", median(dsMS)-engineSelect, "ms", int64(len(dsMS)))
	return nil
}

// probeRoute times a routed call minus a direct call to the primary,
// in alternation. Single-node workloads get a one-node router.
func probeRoute(ctx context.Context, w *workload, dep *deployment, d *dataset, ranks []int64, slice time.Duration, rep *report) error {
	router := dep.router
	if router == nil {
		var err error
		router, err = cluster.New(cluster.Config{Nodes: []string{dep.nodes[0].url}, Replicas: 1},
			parselclient.WithHTTPClient(dep.hc), parselclient.WithBinary(w.binary))
		if err != nil {
			return err
		}
	}
	primary := router.Place(d.id)[0]
	direct := parselclient.Keyed[int64](router.Client(primary)).Dataset(d.id)
	routed := cluster.DatasetOf[int64](router, d.id)
	var routedMS, directMS []float64
	start := time.Now()
	for i := 0; i < 400 && (i < 6 || time.Since(start) < 2*slice); i++ {
		rank := ranks[i%len(ranks)]
		t0 := time.Now()
		res, err := routed.Select(ctx, rank)
		t1 := time.Now()
		res2, err2 := direct.Select(ctx, rank)
		t2 := time.Now()
		if err != nil || err2 != nil {
			return fmt.Errorf("route probe: %v %v", err, err2)
		}
		if res.Value != d.sorted[rank-1] || res2.Value != d.sorted[rank-1] {
			return fmt.Errorf("route probe rank %d: got %d and %d", rank, res.Value, res2.Value)
		}
		routedMS = append(routedMS, msOf(int64(t1.Sub(t0))))
		directMS = append(directMS, msOf(int64(t2.Sub(t1))))
	}
	rep.set("cluster.route_ms", median(routedMS)-median(directMS), "ms", int64(len(routedMS)))
	return nil
}

// probeUpload times one binary-frame upload to a scratch id, then the
// snapshot decoder on the same layout.
func probeUpload(ctx context.Context, dep *deployment, d *dataset, slice time.Duration, rep *report) error {
	up := parselclient.Keyed[int64](parselclient.New(dep.nodes[0].url,
		parselclient.WithHTTPClient(dep.hc), parselclient.WithBinary(true))).Dataset("perfbench-probe")
	upMS, err := timeReps(slice, 50, func(int) (time.Duration, error) {
		start := time.Now()
		info, err := up.Upload(ctx, d.shards)
		el := time.Since(start)
		if err == nil && info.N != d.n {
			err = fmt.Errorf("probe upload: daemon holds %d keys, sent %d", info.N, d.n)
		}
		return el, err
	})
	if err != nil {
		return err
	}
	if _, err := up.Delete(ctx); err != nil {
		return err
	}
	rep.set("upload.frame_ms", median(upMS), "ms", int64(len(upMS)))
	enc := snapshot.Encode(snapshot.Header{}, d.shards)
	decMS, err := timeReps(slice, 100, func(int) (time.Duration, error) {
		start := time.Now()
		dec, err := snapshot.NewStreamDecoder(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			return 0, err
		}
		shards, err := snapshot.ReadDataAs[int64](dec)
		el := time.Since(start)
		if err == nil && (len(shards) != len(d.shards) || shards[0][0] != d.shards[0][0]) {
			err = fmt.Errorf("snapshot decode: shards differ")
		}
		return el, err
	})
	if err != nil {
		return err
	}
	rep.set("snapshot.decode_mb_s", float64(d.rawBytes())/(1<<20)/(median(decMS)/1000), "MiB/s", int64(len(decMS)))
	return nil
}
