package parsel_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"parsel"
	"parsel/internal/workload"
)

// TestPackageWrappersShareDefaultPool is the regression test for the
// shared default pool behind the package-level functions: concurrent
// and repeated Select calls with the same Options must reuse resident
// machines, never rebuild one per call (the pre-PR-3 wrappers built and
// tore down a machine every time).
func TestPackageWrappersShareDefaultPool(t *testing.T) {
	// A seed no other test uses, so this test owns its default pool; the
	// reset makes the counters start from zero under -count too.
	parsel.ResetDefaultPoolsForTest()
	opts := parsel.Options{Machine: parsel.Machine{Seed: 0xD00DF00D}}
	shards := workload.Generate(workload.Random, 20000, 6, 11)
	flat := workload.Flatten(shards)
	slices.Sort(flat)
	want := flat[9999]

	run := func(clients int) {
		t.Helper()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := parsel.Select(shards, 10000, opts)
				if err != nil {
					t.Errorf("Select: %v", err)
					return
				}
				if res.Value != want {
					t.Errorf("Select = %d, want %d", res.Value, want)
				}
			}()
		}
		wg.Wait()
	}

	// A cold sequential call builds exactly one machine in the shared
	// pool.
	run(1)
	if st := parsel.DefaultPoolStatsForTest(opts); st.Creates != 1 {
		t.Fatalf("cold wrapper built %d machines, want 1", st.Creates)
	}
	// Two concurrent calls need two resident machines. Leaving the
	// second to a racy cold burst would let a burst that happened to
	// serialize build one, and the warm burst below then legitimately
	// grow the pool (MaxMachines is at least 4), so the second machine
	// is provisioned deterministically.
	if err := parsel.WarmDefaultPoolForTest(opts, len(shards), 2); err != nil {
		t.Fatal(err)
	}
	st := parsel.DefaultPoolStatsForTest(opts)
	if st.Creates != 2 {
		t.Fatalf("warm-up left %d machines built, want 2", st.Creates)
	}
	cold := st.Creates

	// Every later call — concurrent or sequential — must hit a resident
	// machine; machine construction happens zero more times.
	run(2)
	if _, err := parsel.Median(shards, opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parsel.SelectRanks(shards, []int64{1, 20000}, opts); err != nil {
		t.Fatal(err)
	}
	st = parsel.DefaultPoolStatsForTest(opts)
	if st.Creates != cold {
		t.Errorf("warm wrappers rebuilt machines: %d creates, want %d", st.Creates, cold)
	}
	if st.Hits < 4 {
		t.Errorf("warm wrappers only reused a machine %d times, want >= 4", st.Hits)
	}

	// Distinct Options (different seed) get a distinct pool: stats start
	// over rather than aliasing the first pool.
	other := opts
	other.Machine.Seed = 0xBADCAB1E
	if _, err := parsel.Median(shards, other); err != nil {
		t.Fatal(err)
	}
	if st := parsel.DefaultPoolStatsForTest(other); st.Creates != 1 {
		t.Errorf("second Options pool has %d creates, want 1", st.Creates)
	}
}

// TestDefaultPoolShapeSharing pins the key normalization: calls that
// differ only in Machine.Procs (which the sharded entry points ignore)
// share one default pool.
func TestDefaultPoolShapeSharing(t *testing.T) {
	opts := parsel.Options{Machine: parsel.Machine{Seed: 0xFEEDFACE}}
	shards := workload.Generate(workload.Random, 5000, 4, 3)
	if _, err := parsel.Median(shards, opts); err != nil {
		t.Fatal(err)
	}
	withProcs := opts
	withProcs.Machine.Procs = 32 // ignored by sharded calls
	if _, err := parsel.Median(shards, withProcs); err != nil {
		t.Fatal(err)
	}
	st := parsel.DefaultPoolStatsForTest(opts)
	if st.Creates != 1 || st.Hits < 1 {
		t.Errorf("Procs-only Options variation split the pool: %+v", st)
	}
}

// TestDefaultPoolCacheBounded pins the fallback path: the shared cache
// never grows past its cap, and uncacheable Options (NaN tuning
// fields, or high-cardinality Options churn past the cap) still serve
// correct results through private throwaway pools instead of pinning
// machines and goroutines forever. The cache is deliberately saturated
// here, so it is reset on cleanup to keep the rest of the binary fast.
func TestDefaultPoolCacheBounded(t *testing.T) {
	t.Cleanup(parsel.ResetDefaultPoolsForTest)
	shards := [][]int64{{9, 1, 5}, {3, 7, 2}}

	// NaN options: opts != opts, so no cache entry may appear.
	before := parsel.DefaultPoolCountForTest()
	nan := parsel.Options{SampleExponent: math.NaN()}
	for i := 0; i < 3; i++ {
		res, err := parsel.Select(shards, 3, nan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 3 {
			t.Fatalf("NaN-options Select = %d, want 3", res.Value)
		}
	}
	if got := parsel.DefaultPoolCountForTest(); got != before {
		t.Errorf("NaN options grew the pool cache %d -> %d", before, got)
	}

	// Churn far more distinct Options than the cap: the cache saturates
	// at the cap, and every call past it still answers correctly.
	for i := 0; i < 80; i++ {
		res, err := parsel.Select(shards, 1, parsel.Options{
			Machine: parsel.Machine{Seed: 0xC0FFEE + uint64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 1 {
			t.Fatalf("churned Options Select = %d, want 1", res.Value)
		}
	}
	if got := parsel.DefaultPoolCountForTest(); got > 64 {
		t.Errorf("pool cache grew to %d entries, cap is 64", got)
	}
}
