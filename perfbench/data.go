package main

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"slices"
)

// deciles is the quantiles query of every workload's mix.
var deciles = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// quantilesEvery makes every such query of a stream (the last of each
// run of this many) a 9-decile quantiles, so each stream holds exactly
// one in quantilesEvery.
const quantilesEvery = 8

// dataset is one generated int64 dataset and its oracle.
type dataset struct {
	id     string
	shards [][]int64
	n      int64
	sorted []int64 // the oracle: every key, ascending
}

// rawBytes is the dataset's raw key size.
func (d *dataset) rawBytes() int64 { return d.n * 8 }

// genDataset draws procs shards of perShard uniform int64 keys from
// the seed and the dataset's index, and sorts a copy as the oracle.
func genDataset(id string, seed uint64, index, procs, perShard int) *dataset {
	rng := rand.New(rand.NewPCG(seed, uint64(index)+1))
	d := &dataset{id: id, shards: make([][]int64, procs), n: int64(procs * perShard)}
	d.sorted = make([]int64, 0, d.n)
	for i := range d.shards {
		s := make([]int64, perShard)
		for j := range s {
			s[j] = rng.Int64()
		}
		d.shards[i] = s
		d.sorted = append(d.sorted, s...)
	}
	slices.Sort(d.sorted)
	return d
}

// quantileRank is the daemon's documented quantile-to-rank rule:
// ceil(q*n), computed exactly, clamped to [1, n].
func quantileRank(n int64, q float64) int64 {
	x := new(big.Rat).SetFloat64(q)
	x.Mul(x, new(big.Rat).SetInt64(n))
	r := new(big.Int).Quo(x.Num(), x.Denom())
	if new(big.Rat).SetInt(r).Cmp(x) < 0 {
		r.Add(r, big.NewInt(1))
	}
	return min(max(r.Int64(), 1), n)
}

// query is one operation of a workload's mix: a select at rank, or
// the 9-decile quantiles when quantiles is set.
type query struct {
	ds        int
	rank      int64
	quantiles bool
}

// drawQuery draws the i-th query of a stream over datasets.
func drawQuery(rng *rand.Rand, i int, datasets []*dataset) query {
	q := query{ds: rng.IntN(len(datasets))}
	if i%quantilesEvery == quantilesEvery-1 {
		q.quantiles = true
	} else {
		q.rank = 1 + rng.Int64N(datasets[q.ds].n)
	}
	return q
}

// serialList is the fixed, seeded list behind sim_ms_per_query and
// the determinism check: count-1 selects at uniform ranks over the
// datasets, then one 9-decile quantiles on dataset 0, so every run
// reads that dataset's decile ranks. The quantiles query is kept to
// one: its simulated time is a single draw per seed and dataset, and
// weighted by the mix it would dominate the spread between seeds.
func serialList(seed uint64, datasets []*dataset, count int) []query {
	rng := rand.New(rand.NewPCG(seed, 0x5e71a1))
	list := make([]query, 0, count)
	for len(list) < count-1 {
		ds := rng.IntN(len(datasets))
		list = append(list, query{ds: ds, rank: 1 + rng.Int64N(datasets[ds].n)})
	}
	return append(list, query{ds: 0, quantiles: true})
}

// check compares an answer with the oracle.
func check(q query, d *dataset, vals []int64) error {
	if !q.quantiles {
		if len(vals) != 1 || vals[0] != d.sorted[q.rank-1] {
			return fmt.Errorf("%s select rank %d: got %v, want %d", d.id, q.rank, vals, d.sorted[q.rank-1])
		}
		return nil
	}
	if len(vals) != len(deciles) {
		return fmt.Errorf("%s quantiles: got %d values, want %d", d.id, len(vals), len(deciles))
	}
	for i, qv := range deciles {
		if want := d.sorted[quantileRank(d.n, qv)-1]; vals[i] != want {
			return fmt.Errorf("%s quantile %g: got %d, want %d", d.id, qv, vals[i], want)
		}
	}
	return nil
}

// corruptOracle flips the oracle entry at dataset 0's median decile,
// which the first query of every serial list reads.
func corruptOracle(d *dataset) {
	d.sorted[quantileRank(d.n, 0.5)-1] ^= 1
}
