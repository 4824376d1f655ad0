package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"parsel"
	"parsel/parselclient"
	"parsel/parselclient/cluster"
)

// workload is one benchmark input: its generated datasets, how the
// daemons are deployed and how the load is split between readers and
// a writer. BENCHMARK.json records why each was chosen.
type workload struct {
	name      string
	datasets  int // generated datasets
	perShard  int // keys per shard; every dataset has shardsPerDataset shards
	nodes     int // in-process daemons
	routed    bool
	binary    bool // frame uploads and framed query responses
	snapshots bool // daemons persist to a snapshot directory
	writer    bool // one worker re-uploads instead of querying
	simCount  int  // length of the serial list behind sim_ms_per_query
	setupReps int  // timed set-ups per run; setup_s is their median
	// procs is GOMAXPROCS for the run; 0 keeps the runtime's default.
	procs int
}

var workloads = map[string]*workload{
	// One 2,097,152-key dataset (16 MiB, four times the 4 MiB of L2 on
	// both cores): the engine does almost all of the work.
	"resident_large": {name: "resident_large", datasets: 1, perShard: 262144, nodes: 1, binary: true, simCount: 160, setupReps: 31},
	// 32 datasets of 8,192 keys (2 MiB, within L2) on two nodes behind
	// the router with two replicas, over the JSON wire: serving,
	// encoding, client and routing dominate. It runs on one P: each
	// operation is a few hundred microseconds of CPU handed between
	// client, router and daemon goroutines, and with two Ps its CPU per
	// operation was higher and spread more between runs.
	"small_routed": {name: "small_routed", datasets: 32, perShard: 1024, nodes: 2, routed: true, simCount: 128, setupReps: 11, procs: 1},
	// 4 datasets of 262,144 keys (2 MiB each, 8 MiB total) with
	// snapshots on; one writer re-uploads them while one reader
	// queries them. It is run by hand, not from BENCHMARK.json: the
	// benchmark's time limit allows 45 s runs for two workloads but
	// only 20 to 25 s runs for three, and the shorter runs spread too
	// far between runs on a shared host.
	"refresh_mixed": {name: "refresh_mixed", datasets: 4, perShard: 32768, nodes: 1, binary: true, snapshots: true, writer: true, simCount: 128, setupReps: 21},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// clientCount is the closed loop's worker count: no more than nproc,
// and two where the host has them.
func clientCount() int { return min(2, runtime.NumCPU()) }

// generate draws the workload's datasets and their oracles.
func (w *workload) generate(seed uint64) []*dataset {
	out := make([]*dataset, w.datasets)
	for i := range out {
		out[i] = genDataset(fmt.Sprintf("%s-%02d", w.name, i), seed, i, shardsPerDataset, w.perShard)
	}
	return out
}

// remoteDataset is the query and upload surface the benchmark drives;
// parselclient.RemoteDatasetOf and cluster.Dataset both provide it.
type remoteDataset interface {
	Select(ctx context.Context, rank int64) (parsel.Result[int64], error)
	Quantiles(ctx context.Context, qs []float64) ([]int64, parsel.Report, error)
	Upload(ctx context.Context, shards [][]int64) (parselclient.DatasetInfo, error)
}

// deployment is one set-up instance: the daemons, the client side and
// one handle per dataset.
type deployment struct {
	nodes   []*node
	hc      *http.Client
	clients []*parselclient.Client // one direct client per node
	router  *cluster.Router        // routed workloads only
	targets []remoteDataset
	snapDir string
}

// deployOptions carries the traced pass's client-side instruments.
type deployOptions struct {
	wrap      func(http.RoundTripper) http.RoundTripper
	collector parselclient.Collector
}

// deploy starts the daemons, uploads every dataset and warms the pools:
// the work setup_s times.
func (w *workload) deploy(ctx context.Context, cfg config, data []*dataset, rep int, do deployOptions) (*deployment, error) {
	d := &deployment{hc: newHTTPClient(do.wrap)}
	if w.snapshots {
		d.snapDir = filepath.Join(cfg.out, "snap", fmt.Sprintf("%s-seed%d-%d", w.name, cfg.seed, rep))
		if err := os.RemoveAll(d.snapDir); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.nodes; i++ {
		dir := ""
		if d.snapDir != "" {
			dir = filepath.Join(d.snapDir, fmt.Sprint(i))
		}
		n, err := startNode(dir)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	opts := []parselclient.Option{parselclient.WithHTTPClient(d.hc), parselclient.WithBinary(w.binary)}
	if do.collector != nil {
		opts = append(opts, parselclient.WithCollector(do.collector))
	}
	urls := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		urls[i] = n.url
		d.clients = append(d.clients, parselclient.New(n.url, opts...))
	}
	if w.routed {
		r, err := cluster.New(cluster.Config{Nodes: urls, Replicas: 2, Collector: do.collector},
			parselclient.WithHTTPClient(d.hc), parselclient.WithBinary(w.binary))
		if err != nil {
			d.close()
			return nil, err
		}
		d.router = r
	}
	for _, ds := range data {
		if d.router != nil {
			d.targets = append(d.targets, cluster.DatasetOf[int64](d.router, ds.id))
		} else {
			d.targets = append(d.targets, parselclient.Keyed[int64](d.clients[0]).Dataset(ds.id))
		}
	}

	for i, ds := range data {
		info, err := d.targets[i].Upload(ctx, ds.shards)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("upload %s: %w", ds.id, err)
		}
		if info.N != ds.n {
			d.close()
			return nil, fmt.Errorf("upload %s: daemon holds %d keys, sent %d", ds.id, info.N, ds.n)
		}
	}
	for _, n := range d.nodes {
		if err := n.warm(); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// close stops every daemon and removes the snapshot directory.
func (d *deployment) close() {
	for _, n := range d.nodes {
		n.stop()
	}
	d.nodes = nil
	d.hc.CloseIdleConnections()
	if d.snapDir != "" {
		os.RemoveAll(d.snapDir)
	}
}

// ask runs one query through t.
func ask(ctx context.Context, t remoteDataset, q query) ([]int64, parsel.Report, error) {
	if q.quantiles {
		return t.Quantiles(ctx, deciles)
	}
	res, err := t.Select(ctx, q.rank)
	if err != nil {
		return nil, parsel.Report{}, err
	}
	return []int64{res.Value}, res.Report, nil
}

// setupTimed deploys reps times (each instance but the last torn down
// again) and returns the last deployment with every set-up time.
func (w *workload) setupTimed(ctx context.Context, cfg config, data []*dataset, reps int, do deployOptions) (*deployment, []float64, error) {
	var secs []float64
	var d *deployment
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
		}
		// Each set-up starts from a collected heap, so it reuses the
		// memory the last one freed instead of faulting in fresh pages
		// depending on when the collector last ran.
		runtime.GC()
		start := time.Now()
		var err error
		d, err = w.deploy(ctx, cfg, data, i, do)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return d, secs, nil
}
