package parsel

import "reflect"

// Test hooks for white-box tests of the engine internals.

// SetAgreementChecks toggles the cross-processor result assertion.
func SetAgreementChecks(on bool) { agreementChecks = on }

// Exported internals under test.
var (
	QuantileRankForTest = quantileRank
	DisagreementForTest = disagreement[int64]
)

// AcquireForTest marks the Selector as serving a call, exactly as a
// public method would, so tests can deterministically provoke
// ErrSelectorBusy.
func (s *Selector[K]) AcquireForTest() error { return s.acquire() }

// ReleaseForTest undoes AcquireForTest.
func (s *Selector[K]) ReleaseForTest() { s.release() }

// CheckoutForTest checks a procs-shaped Selector out of the pool exactly
// as a query would and returns a func that checks it back in, so tests
// can deterministically occupy pool capacity (e.g. to provoke
// ErrPoolTimeout without racing a real query).
func (pl *Pool[K]) CheckoutForTest(procs int) (release func(), err error) {
	sel, err := pl.checkout(nil, procs)
	if err != nil {
		return nil, err
	}
	return func() { pl.checkin(sel) }, nil
}

// DefaultPoolStatsForTest returns the stats of the shared default pool
// the package-level wrappers route through for (opts, int64), creating
// the pool if it does not exist yet. It panics if opts is not
// cacheable (the fallback pool is private to each call and has no
// observable stats).
func DefaultPoolStatsForTest(opts Options) PoolStats {
	pl, done, err := defaultPool[int64](opts)
	if err != nil {
		panic(err)
	}
	done()
	opts.Machine.Procs = 0
	defaultPoolsMu.Lock()
	_, shared := defaultPools[defaultPoolKey{opts: opts, typ: reflect.TypeFor[int64]()}]
	defaultPoolsMu.Unlock()
	if !shared {
		panic("DefaultPoolStatsForTest: opts not served by a shared pool")
	}
	return pl.Stats()
}

// WarmDefaultPoolForTest pre-provisions count procs-shaped machines in
// the shared default pool the package-level wrappers route through for
// (opts, int64), so a test can start from a known resident set instead
// of whatever a racy cold burst happened to build.
func WarmDefaultPoolForTest(opts Options, procs, count int) error {
	pl, done, err := defaultPool[int64](opts)
	if err != nil {
		return err
	}
	defer done()
	return pl.Warm(procs, count)
}

// DefaultPoolCountForTest reports how many shared default pools are
// resident (the cache the wrappers intern pools into).
func DefaultPoolCountForTest() int {
	defaultPoolsMu.Lock()
	defer defaultPoolsMu.Unlock()
	return len(defaultPools)
}

// ResetDefaultPoolsForTest closes and clears every shared default pool,
// so a test that deliberately saturates the cache does not degrade the
// rest of the test binary.
func ResetDefaultPoolsForTest() {
	defaultPoolsMu.Lock()
	pools := defaultPools
	defaultPools = make(map[defaultPoolKey]any)
	defaultPoolsMu.Unlock()
	for _, p := range pools {
		p.(interface{ Close() }).Close()
	}
}
