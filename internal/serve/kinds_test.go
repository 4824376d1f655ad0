package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// rawRequest sends an arbitrary method/path/body with extra headers and
// decodes the structured error, if any.
func rawRequest(t *testing.T, d *daemon, method, path, body string, headers map[string]string) (int, parselclient.ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(method, d.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	res, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var eb parselclient.ErrorBody
	_ = json.NewDecoder(res.Body).Decode(&eb)
	return res.StatusCode, eb
}

// float64Shards lifts an int64 catalogue shape into float64 with a
// fractional offset, so the values only exist in the float64 domain and
// any accidental int64 round-trip would corrupt them.
func float64Shards(shards [][]int64) [][]float64 {
	out := make([][]float64, len(shards))
	for i, s := range shards {
		if s == nil {
			continue
		}
		out[i] = make([]float64, len(s))
		for j, v := range s {
			out[i][j] = float64(v) + 0.25
		}
	}
	return out
}

// stringShards lifts an int64 catalogue shape into order-preserving
// fixed-width decimal strings (offset keeps every value non-negative).
func stringShards(shards [][]int64) [][]string {
	const offset = int64(1) << 41
	out := make([][]string, len(shards))
	for i, s := range shards {
		if s == nil {
			continue
		}
		out[i] = make([]string, len(s))
		for j, v := range s {
			out[i][j] = fmt.Sprintf("k%020d", v+offset)
		}
	}
	return out
}

// sortedKeys flattens and sorts a sharded population: the oracle for
// rank queries of any kind.
func sortedKeys[K parselclient.Key](shards [][]K) []K {
	var all []K
	for _, s := range shards {
		all = append(all, s...)
	}
	slices.Sort(all)
	return all
}

// TestDatasetKindDispatchValidation pins the HTTP status and wire code
// for every kind-dispatch error the registry can surface: unknown
// kinds on uploads and queries, body/header kind disagreement, a query
// kind that contradicts the resident dataset's kind, and dot-prefixed
// dataset ids. It also pins the happy paths those errors guard:
// header-only float64 uploads and case-insensitive frame content types.
func TestDatasetKindDispatchValidation(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()

	// Seed an int64 dataset for the kind-mismatch cases.
	if _, err := d.client.Dataset("base").Upload(context.Background(), [][]int64{{3, 1, 2}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		method  string
		path    string
		body    string
		headers map[string]string
		status  int
		code    parselclient.Code
	}{
		{
			name: "upload unknown key_kind", method: "PUT",
			path: "/v1/datasets/u1", body: `{"key_kind":"uint8","shards":[[1]]}`,
			status: 400, code: parselclient.CodeBadKind,
		},
		{
			name: "upload body/header kind disagreement", method: "PUT",
			path: "/v1/datasets/u2", body: `{"key_kind":"float64","shards":[[1.5]]}`,
			headers: map[string]string{"X-Parsel-Kind": "int64"},
			status:  400, code: parselclient.CodeBadKind,
		},
		{
			name: "upload unknown header kind", method: "PUT",
			path: "/v1/datasets/u3", body: `{"shards":[[1]]}`,
			headers: map[string]string{"X-Parsel-Kind": "decimal"},
			status:  400, code: parselclient.CodeBadKind,
		},
		{
			name: "query unknown key_kind", method: "POST",
			path: "/v1/datasets/base/query", body: `{"kind":"median","key_kind":"decimal"}`,
			status: 400, code: parselclient.CodeBadKind,
		},
		{
			name: "query kind contradicts dataset", method: "POST",
			path: "/v1/datasets/base/query", body: `{"kind":"median","key_kind":"float64"}`,
			status: 400, code: parselclient.CodeBadKind,
		},
		{
			name: "querymany one mismatched item", method: "POST",
			path:   "/v1/datasets/base/querymany",
			body:   `{"queries":[{"kind":"median"},{"kind":"median","key_kind":"string"}]}`,
			status: 400, code: parselclient.CodeBadKind,
		},
		{
			name: "one-shot unknown key_kind", method: "POST",
			path: "/v1/select", body: `{"key_kind":"int32","shards":[[1]],"rank":1}`,
			status: 400, code: parselclient.CodeBadKind,
		},
		{
			name: "dot-prefixed dataset id", method: "PUT",
			path: "/v1/datasets/.foo", body: `{"shards":[[1]]}`,
			status: 400, code: parselclient.CodeBadDatasetID,
		},
		{
			name: "all-dots dataset id", method: "PUT",
			path: "/v1/datasets/...", body: `{"shards":[[1]]}`,
			status: 400, code: parselclient.CodeBadDatasetID,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, eb := rawRequest(t, d, tc.method, tc.path, tc.body, tc.headers)
			if status != tc.status || eb.Error.Code != tc.code {
				t.Fatalf("got %d %q (%s), want %d %q",
					status, eb.Error.Code, eb.Error.Message, tc.status, tc.code)
			}
		})
	}

	// Header-only kind: a body without key_kind plus X-Parsel-Kind
	// must install a float64 dataset.
	req, err := http.NewRequest("PUT", d.ts.URL+"/v1/datasets/hdronly",
		strings.NewReader(`{"shards":[[1.5,2.5],[0.5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Parsel-Kind", "Float64") // header kinds are case-insensitive
	res, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("header-only float64 upload: status %d", res.StatusCode)
	}
	info, err := parselclient.Keyed[float64](d.client).Dataset("hdronly").Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.KeyKind != parselclient.KeyKindFloat64 || info.N != 3 {
		t.Fatalf("header-only upload info: %+v, want float64 kind, n=3", info)
	}

	// One-shot float64 select through raw JSON: the fractional median
	// only survives if the server really dispatched to the float64 pool.
	res, err = d.ts.Client().Post(d.ts.URL+"/v1/median", "application/json",
		strings.NewReader(`{"key_kind":"float64","shards":[[1.5,2.25,9.75]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var oneShot struct {
		Value   float64 `json:"value"`
		KeyKind string  `json:"key_kind"`
	}
	err = json.NewDecoder(res.Body).Decode(&oneShot)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 200 || oneShot.Value != 2.25 || oneShot.KeyKind != parselclient.KeyKindFloat64 {
		t.Fatalf("one-shot float64 median: status %d, %+v; want value 2.25 kind float64", res.StatusCode, oneShot)
	}

	// Frame uploads must accept the frame content type case-insensitively
	// (RFC 9110: media types are case-insensitive).
	frame := snapshot.Encode(snapshot.Header{}, [][]int64{{5, 1, 3}})
	req, err = http.NewRequest("PUT", d.ts.URL+"/v1/datasets/framecase", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "Application/X-Parsel-Frame")
	res, err = d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("uppercase frame content type: status %d, want 200", res.StatusCode)
	}
	got, err := d.client.Dataset("framecase").Median(context.Background())
	if err != nil || got.Value != 3 {
		t.Fatalf("frame-uploaded median: %v, %v; want 3", got, err)
	}
}

// TestDaemonFloat64DifferentialE2E replays the differential catalogue
// through the float64 registry path — JSON and binary frames — against
// an in-process float64 pool and a sorted-slice oracle. Every value
// carries a fractional part, so bit-exact equality proves the keys
// never collapsed through the int64 path.
func TestDaemonFloat64DifferentialE2E(t *testing.T) {
	shapes := e2eShapes()
	if testing.Short() {
		shapes = shapes[:6]
	}
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{})
	defer d.close()
	bin := binaryClient(d)

	oracle, err := parsel.NewPool[float64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	ctx := context.Background()
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			shards := float64Shards(sh.shards)
			sorted := sortedKeys(shards)
			n := int64(len(sorted))
			if n == 0 {
				return
			}
			for _, c := range []*parselclient.Client{d.client, bin} {
				kc := parselclient.Keyed[float64](c)

				rank := 1 + rand.Int64N(n)
				got, err := kc.Select(ctx, shards, rank)
				if err != nil {
					t.Fatal(err)
				}
				want, werr := oracle.Select(shards, rank)
				if werr != nil {
					t.Fatal(werr)
				}
				if got.Value != sorted[rank-1] || got.Value != want.Value ||
					simOf(got.Report) != simOf(want.Report) {
					t.Fatalf("select rank %d: got %v, oracle %v, sorted %v",
						rank, got.Value, want.Value, sorted[rank-1])
				}

				med, err := kc.Median(ctx, shards)
				if err != nil {
					t.Fatal(err)
				}
				if med.Value != sorted[(n-1)/2] {
					t.Fatalf("median: got %v, want %v", med.Value, sorted[(n-1)/2])
				}

				qs := []float64{0, 0.25, 0.5, 0.99, 1}
				vals, _, err := kc.Quantiles(ctx, shards, qs)
				if err != nil {
					t.Fatal(err)
				}
				wvals, _, werr2 := oracle.Quantiles(shards, qs)
				if werr2 != nil {
					t.Fatal(werr2)
				}
				if !slices.Equal(vals, wvals) {
					t.Fatalf("quantiles: got %v, oracle %v", vals, wvals)
				}

				k := int(min(n, 5))
				top, _, err := kc.TopK(ctx, shards, k)
				if err != nil {
					t.Fatal(err)
				}
				wtop := slices.Clone(sorted[n-int64(k):])
				slices.Reverse(wtop)
				if !slices.Equal(top, wtop) {
					t.Fatalf("topk: got %v, want %v", top, wtop)
				}

				sum, _, err := kc.Summary(ctx, shards)
				if err != nil {
					t.Fatal(err)
				}
				wsum, _, werr3 := oracle.Summary(shards)
				if werr3 != nil {
					t.Fatal(werr3)
				}
				if sum != wsum || sum.Min != sorted[0] || sum.Max != sorted[n-1] {
					t.Fatalf("summary: got %+v, oracle %+v", sum, wsum)
				}
			}

			// Resident dataset path, JSON and frames, plus QueryMany.
			rd := parselclient.Keyed[float64](bin).Dataset(dsID(sh.name))
			if _, err := rd.Upload(ctx, shards); err != nil {
				t.Fatal(err)
			}
			rank := 1 + rand.Int64N(n)
			results, err := rd.QueryMany(ctx, []parselclient.DatasetQuery{
				{Kind: "select", Rank: &rank},
				{Kind: "median"},
				{Kind: "summary"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 3 {
				t.Fatalf("querymany: %d results", len(results))
			}
			for i, r := range results {
				if r.Error != nil {
					t.Fatalf("querymany[%d]: %+v", i, r.Error)
				}
			}
			if results[0].Value == nil || *results[0].Value != sorted[rank-1] ||
				results[1].Value == nil || *results[1].Value != sorted[(n-1)/2] {
				t.Fatalf("querymany values: %v/%v, want %v/%v",
					results[0].Value, results[1].Value, sorted[rank-1], sorted[(n-1)/2])
			}
			if results[2].Summary == nil || results[2].Summary.Min != sorted[0] {
				t.Fatalf("querymany summary: %+v", results[2].Summary)
			}
			if _, err := rd.Delete(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDaemonStringDatasetE2E drives the serve-only string kind through
// uploads, the full query surface and QueryMany, against a sorted
// oracle. A Binary client exercises the server's refusal to frame
// variable-width keys: responses must silently fall back to JSON.
func TestDaemonStringDatasetE2E(t *testing.T) {
	shapes := e2eShapes()
	if testing.Short() {
		shapes = shapes[:4]
	} else {
		shapes = shapes[:10]
	}
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{})
	defer d.close()

	ctx := context.Background()
	for _, c := range []*parselclient.Client{d.client, binaryClient(d)} {
		kc := parselclient.Keyed[string](c)
		for _, sh := range shapes {
			shards := stringShards(sh.shards)
			sorted := sortedKeys(shards)
			n := int64(len(sorted))
			if n == 0 {
				continue
			}
			rd := kc.Dataset(dsID(sh.name))
			info, err := rd.Upload(ctx, shards)
			if err != nil {
				t.Fatalf("%s: upload: %v", sh.name, err)
			}
			if info.KeyKind != parselclient.KeyKindString {
				t.Fatalf("%s: uploaded kind %q", sh.name, info.KeyKind)
			}

			rank := 1 + rand.Int64N(n)
			got, err := rd.Select(ctx, rank)
			if err != nil {
				t.Fatalf("%s: select: %v", sh.name, err)
			}
			if got.Value != sorted[rank-1] {
				t.Fatalf("%s: select rank %d: got %q, want %q", sh.name, rank, got.Value, sorted[rank-1])
			}
			med, err := rd.Median(ctx)
			if err != nil || med.Value != sorted[(n-1)/2] {
				t.Fatalf("%s: median: %q, %v; want %q", sh.name, med.Value, err, sorted[(n-1)/2])
			}
			k := int(min(n, 4))
			top, _, err := rd.TopK(ctx, k)
			if err != nil {
				t.Fatalf("%s: topk: %v", sh.name, err)
			}
			wtop := slices.Clone(sorted[n-int64(k):])
			slices.Reverse(wtop)
			if !slices.Equal(top, wtop) {
				t.Fatalf("%s: topk: got %v, want %v", sh.name, top, wtop)
			}
			sum, _, err := rd.Summary(ctx)
			if err != nil || sum.Min != sorted[0] || sum.Max != sorted[n-1] {
				t.Fatalf("%s: summary: %+v, %v", sh.name, sum, err)
			}

			results, err := rd.QueryMany(ctx, []parselclient.DatasetQuery{
				{Kind: "median"}, {Kind: "summary"},
			})
			if err != nil {
				t.Fatalf("%s: querymany: %v", sh.name, err)
			}
			if len(results) != 2 || results[0].Error != nil || results[1].Error != nil {
				t.Fatalf("%s: querymany results: %+v", sh.name, results)
			}
			if results[0].Value == nil || *results[0].Value != sorted[(n-1)/2] {
				t.Fatalf("%s: querymany median: %v", sh.name, results[0].Value)
			}
			if _, err := rd.Delete(ctx); err != nil {
				t.Fatalf("%s: delete: %v", sh.name, err)
			}
		}
	}
}

// TestDaemonKindStorm hammers all three kind pools concurrently —
// uploads, queries, deletes interleaved across int64, float64 and
// string datasets — so the race detector can see the registry's
// locking under genuine cross-kind contention.
func TestDaemonKindStorm(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{
		QueueDepth: 64,
	})
	defer d.close()

	const workers = 6
	iters := 30
	if testing.Short() {
		iters = 8
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(99, uint64(w)))
			for i := 0; i < iters; i++ {
				n := 64 + rng.Int64N(192)
				base := make([]int64, n)
				for j := range base {
					base[j] = rng.Int64N(1 << 30)
				}
				shards := [][]int64{base[:n/2], base[n/2:]}
				id := fmt.Sprintf("storm-%d-%d", w, i%3)
				switch w % 3 {
				case 0:
					rd := d.client.Dataset(id)
					if _, err := rd.Upload(ctx, shards); err != nil {
						t.Error(err)
						return
					}
					if _, err := rd.Median(ctx); err != nil {
						t.Error(err)
						return
					}
				case 1:
					rd := parselclient.Keyed[float64](d.client).Dataset(id)
					if _, err := rd.Upload(ctx, float64Shards(shards)); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := rd.TopK(ctx, 3); err != nil {
						t.Error(err)
						return
					}
				default:
					rd := parselclient.Keyed[string](d.client).Dataset(id)
					if _, err := rd.Upload(ctx, stringShards(shards)); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := rd.Summary(ctx); err != nil {
						t.Error(err)
						return
					}
				}
				if i%5 == 4 {
					if _, err := d.client.Dataset(id).Delete(ctx); err != nil &&
						!errors.Is(err, parselclient.ErrDatasetNotFound) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := d.server.Stats()
	var kept int64
	// Every surviving dataset must still answer; the ledger must agree
	// with the registry.
	if st.Datasets.Count < 0 || st.Datasets.ResidentBytes < 0 {
		t.Fatalf("negative registry gauges: %+v", st.Datasets)
	}
	for w := 0; w < workers; w++ {
		for s := 0; s < 3; s++ {
			if _, err := d.client.Dataset(fmt.Sprintf("storm-%d-%d", w, s)).Info(ctx); err == nil {
				kept++
			}
		}
	}
	if kept != st.Datasets.Count {
		t.Fatalf("registry count %d, reachable %d", st.Datasets.Count, kept)
	}
}

// TestSnapshotKindRestart is the multi-kind durability contract: a
// daemon holding int64, float64 and string datasets drains; the
// restarted daemon must recover both fixed-width kinds bit-identically,
// refuse the string dataset (serve-only, never persisted), and skip —
// not quarantine — a manifest entry whose key_type it cannot restore.
func TestSnapshotKindRestart(t *testing.T) {
	dir := t.TempDir()
	po := parsel.PoolOptions{MaxMachines: 4}
	ctx := context.Background()

	ints := [][]int64{{9, 2, 5}, {7, 1}}
	floats := [][]float64{{2.5, 8.25}, {0.125, 7.75, 3.5}}
	strs := [][]string{{"pear", "apple"}, {"mango"}}

	d1 := newDaemon(t, parsel.Options{}, po, serve.Options{SnapshotDir: dir})
	if _, err := d1.client.Dataset("ki").Upload(ctx, ints); err != nil {
		t.Fatal(err)
	}
	if _, err := parselclient.Keyed[float64](d1.client).Dataset("kf").Upload(ctx, floats); err != nil {
		t.Fatal(err)
	}
	if _, err := parselclient.Keyed[string](d1.client).Dataset("ks").Upload(ctx, strs); err != nil {
		t.Fatal(err)
	}
	fmed, err := parselclient.Keyed[float64](d1.client).Dataset("kf").Median(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d1.server.Drain()
	d1.close()

	// The string dataset must have left nothing on disk.
	if _, err := os.Stat(filepath.Join(dir, "ks.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("string snapshot on disk: %v", err)
	}

	d2 := newDaemon(t, parsel.Options{}, po, serve.Options{SnapshotDir: dir})
	st := d2.server.Stats()
	if st.Snapshots.Restored != 2 || st.Snapshots.Quarantined != 0 {
		t.Fatalf("recovery: %+v, want 2 restored, 0 quarantined", st.Snapshots)
	}
	got, err := parselclient.Keyed[float64](d2.client).Dataset("kf").Median(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != fmed.Value || simOf(got.Report) != simOf(fmed.Report) {
		t.Fatalf("restored float64 median: %+v, want %+v", got, fmed)
	}
	imed, err := d2.client.Dataset("ki").Median(ctx)
	if err != nil || imed.Value != 5 {
		t.Fatalf("restored int64 median: %v, %v; want 5", imed.Value, err)
	}
	if _, err := parselclient.Keyed[string](d2.client).Dataset("ks").Info(ctx); !errors.Is(err, parselclient.ErrDatasetNotFound) {
		t.Fatalf("string dataset after restart: %v, want ErrDatasetNotFound", err)
	}
	d2.server.Drain()
	d2.close()

	// Tamper: declare the float64 manifest entry as string-kinded. The
	// restarted daemon cannot restore it and must skip (ErrKeyType),
	// never quarantine — the bytes on disk are intact.
	manifest := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Version  int               `json:"version"`
		Datasets []json.RawMessage `json:"datasets"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	for i, e := range mf.Datasets {
		var m map[string]any
		if err := json.Unmarshal(e, &m); err != nil {
			t.Fatal(err)
		}
		if m["id"] == "kf" {
			m["key_type"] = "string"
			mf.Datasets[i], err = json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	tampered, err := json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	d3 := newDaemon(t, parsel.Options{}, po, serve.Options{SnapshotDir: dir})
	defer d3.close()
	st3 := d3.server.Stats()
	if st3.Snapshots.Restored != 1 || st3.Snapshots.RestoreSkipped != 1 || st3.Snapshots.Quarantined != 0 {
		t.Fatalf("tampered recovery: %+v, want 1 restored / 1 skipped / 0 quarantined", st3.Snapshots)
	}
	// Skipped, not quarantined: the snapshot file survives on disk.
	if _, err := os.Stat(filepath.Join(dir, "kf.snap")); err != nil {
		t.Fatalf("skipped snapshot removed: %v", err)
	}
}

// TestTenantAdmission pins the tenant surface: bearer auth on every
// endpoint except /healthz, per-tenant byte budgets and dataset
// quotas with typed 413s, isolation between tenants, and the
// per-tenant stats blocks.
func TestTenantAdmission(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{
		Tenants: []serve.Tenant{
			{Name: "acme", Token: "tok-acme", MaxResidentBytes: 64, MaxDatasets: 2},
			{Name: "globex", Token: "tok-globex"},
		},
	})
	defer d.close()
	ctx := context.Background()

	// No token: 401 with the typed sentinel. /healthz stays open.
	if _, err := d.client.Median(ctx, [][]int64{{1, 2, 3}}); !errors.Is(err, parselclient.ErrUnknownTenant) {
		t.Fatalf("tokenless query: %v, want ErrUnknownTenant", err)
	}
	if _, err := d.client.Healthz(ctx); err != nil {
		t.Fatalf("tokenless healthz: %v", err)
	}
	wrong := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()))
	wrong.Token = "tok-nobody"
	if _, err := wrong.Median(ctx, [][]int64{{1}}); !errors.Is(err, parselclient.ErrUnknownTenant) {
		t.Fatalf("bad-token query: %v, want ErrUnknownTenant", err)
	}

	acme := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()))
	acme.Token = "tok-acme"
	globex := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client()))
	globex.Token = "tok-globex"

	med, err := acme.Median(ctx, [][]int64{{4, 9, 6}})
	if err != nil || med.Value != 6 {
		t.Fatalf("acme median: %v, %v", med.Value, err)
	}

	// acme's byte budget is 64 = eight int64 keys. Six keys fit...
	info, err := acme.Dataset("a1").Upload(ctx, [][]int64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Tenant != "acme" {
		t.Fatalf("uploaded tenant %q, want acme", info.Tenant)
	}
	// ...but nine more blow the budget, with the typed 413.
	if _, err := acme.Dataset("a2").Upload(ctx, [][]int64{{1, 2, 3, 4, 5, 6, 7, 8, 9}}); !errors.Is(err, parselclient.ErrTenantBudget) {
		t.Fatalf("over-budget upload: %v, want ErrTenantBudget", err)
	}
	// Two tiny datasets hit the quota instead.
	if _, err := acme.Dataset("a2").Upload(ctx, [][]int64{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := acme.Dataset("a3").Upload(ctx, [][]int64{{1}}); !errors.Is(err, parselclient.ErrTenantBudget) {
		t.Fatalf("over-quota upload: %v, want ErrTenantBudget", err)
	}
	// Replacing a resident id stays inside the quota.
	if _, err := acme.Dataset("a2").Upload(ctx, [][]int64{{7, 8}}); err != nil {
		t.Fatalf("same-id replace: %v", err)
	}

	// globex is unlimited and unaffected by acme's exhaustion.
	if _, err := globex.Dataset("g1").Upload(ctx, [][]int64{{10, 20, 30, 40, 50, 60, 70, 80, 90}}); err != nil {
		t.Fatal(err)
	}
	// Tenants cannot see each other's datasets charged to their ledger,
	// but the namespace is shared: globex replacing acme's id frees
	// acme's bytes.
	gmed, err := globex.Dataset("a1").Median(ctx)
	if err != nil || gmed.Value != 3 {
		t.Fatalf("cross-tenant read: %v, %v", gmed.Value, err)
	}

	st := d.server.Stats()
	ta, tg := st.Tenants["acme"], st.Tenants["globex"]
	if ta.Datasets != 2 || ta.ResidentBytes != 64 ||
		ta.MaxResidentBytes != 64 || ta.MaxDatasets != 2 {
		t.Fatalf("acme stats: %+v", ta)
	}
	if ta.Rejected != 2 {
		t.Fatalf("acme rejected: %d, want 2", ta.Rejected)
	}
	if tg.Datasets != 1 || tg.ResidentBytes != 72 || tg.MaxResidentBytes != 0 {
		t.Fatalf("globex stats: %+v", tg)
	}
	if ta.Requests == 0 || tg.Requests == 0 {
		t.Fatalf("request counters: acme %d, globex %d", ta.Requests, tg.Requests)
	}

	// Deleting frees the tenant's ledger.
	if _, err := acme.Dataset("a1").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := acme.Dataset("a2").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if ta := d.server.Stats().Tenants["acme"]; ta.Datasets != 0 || ta.ResidentBytes != 0 {
		t.Fatalf("acme after deletes: %+v", ta)
	}
}

// TestTenantLedgerReconcileStorm drives concurrent uploads, queries,
// replacements, deletes and TTL evictions against two budgeted tenants
// and then requires the ledgers to reconcile exactly: after deleting
// everything, every tenant gauge and the global registry must read
// zero.
func TestTenantLedgerReconcileStorm(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{
		DatasetTTL: 250 * time.Millisecond,
		Tenants: []serve.Tenant{
			{Name: "t1", Token: "tok1", MaxResidentBytes: 4096},
			{Name: "t2", Token: "tok2", MaxResidentBytes: 4096, MaxDatasets: 8},
		},
	})
	defer d.close()
	ctx := context.Background()

	clients := []*parselclient.Client{
		parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client())),
		parselclient.New(d.ts.URL, parselclient.WithHTTPClient(d.ts.Client())),
	}
	clients[0].Token = "tok1"
	clients[1].Token = "tok2"

	const workers = 6
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(7, uint64(w)))
			c := clients[w%2]
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("led-%d-%d", w%2, rng.IntN(6))
				n := 1 + rng.Int64N(40)
				shard := make([]int64, n)
				for j := range shard {
					shard[j] = rng.Int64N(1 << 20)
				}
				rd := c.Dataset(id)
				switch rng.IntN(4) {
				case 0, 1:
					if _, err := rd.Upload(ctx, [][]int64{shard}); err != nil &&
						!errors.Is(err, parselclient.ErrTenantBudget) {
						t.Error(err)
						return
					}
				case 2:
					if _, err := rd.Median(ctx); err != nil &&
						!errors.Is(err, parselclient.ErrDatasetNotFound) {
						t.Error(err)
						return
					}
				default:
					if _, err := rd.Delete(ctx); err != nil &&
						!errors.Is(err, parselclient.ErrDatasetNotFound) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Let the TTL expire everything the storm left behind, then touch
	// the registry so the sweep runs.
	time.Sleep(400 * time.Millisecond)
	for _, c := range clients {
		for s := 0; s < 6; s++ {
			for w := 0; w < 2; w++ {
				_, err := c.Dataset(fmt.Sprintf("led-%d-%d", w, s)).Delete(ctx)
				if err != nil && !errors.Is(err, parselclient.ErrDatasetNotFound) {
					t.Fatal(err)
				}
			}
		}
	}

	st := d.server.Stats()
	if st.Datasets.Count != 0 || st.Datasets.ResidentBytes != 0 {
		t.Fatalf("global ledger after storm: %+v, want empty", st.Datasets)
	}
	for name, ts := range st.Tenants {
		if ts.Datasets != 0 || ts.ResidentBytes != 0 {
			t.Fatalf("tenant %q ledger after storm: %+v, want zero gauges", name, ts)
		}
	}
}

// TestDatasetQueryManyFanOutUsesKindPool pins the querymany fan-out
// width to the queried dataset's own pool. A float64 pool of one
// machine beside a four-machine int64 pool must run a 16-item float64
// batch without a single checkout wait: every extra worker would only
// queue on the float64 pool's semaphore (and could hit pool_timeout
// under a short deadline).
func TestDatasetQueryManyFanOutUsesKindPool(t *testing.T) {
	f64, err := parsel.NewPool[float64](parsel.Options{}, parsel.PoolOptions{MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f64.Close()
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 4}, serve.Options{PoolFloat64: f64})
	defer d.close()

	ctx := context.Background()
	ds := parselclient.Keyed[float64](d.client).Dataset("narrow")
	if _, err := ds.Upload(ctx, [][]float64{{2.5, -1, 9.75}, {0.125, 3, 7.5}, {1e-3, 4}}); err != nil {
		t.Fatal(err)
	}
	queries := make([]parselclient.DatasetQuery, 16)
	for i := range queries {
		rank := int64(1 + i%8)
		queries[i] = parselclient.DatasetQuery{Kind: parselclient.KindSelect, Rank: &rank}
	}
	results, err := ds.QueryMany(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if err := results[i].Err(); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if st := f64.Stats(); st.Waits != 0 {
		t.Errorf("float64 pool saw %d checkout waits for a 16-item batch, want 0 (fan-out wider than its %d machine)",
			st.Waits, f64.MaxMachines())
	}
}
