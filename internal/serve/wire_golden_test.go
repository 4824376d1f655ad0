package serve_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"parsel"
	"parsel/internal/serve"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current daemon")

// wireRecorder is an http.RoundTripper that logs every exchange the
// client makes: the request exactly as the client built it (method,
// path, client-set headers, body) and the response status, Content-Type
// and body.
type wireRecorder struct {
	next http.RoundTripper
	log  strings.Builder
}

// wallSeconds matches the one host-time field of the wire: the report's
// wall clock. Everything else a query answers is deterministic.
var wallSeconds = regexp.MustCompile(`"wall_seconds":[^,}]*`)

func normalizeWall(b []byte) string {
	return wallSeconds.ReplaceAllString(string(b), `"wall_seconds":0`)
}

func (rec *wireRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	var reqBody []byte
	if req.Body != nil {
		var err error
		if reqBody, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(reqBody))
	}
	res, err := rec.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resBody, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	res.Body = io.NopCloser(bytes.NewReader(resBody))

	fmt.Fprintf(&rec.log, "> %s %s\n", req.Method, req.URL.RequestURI())
	var names []string
	for name := range req.Header {
		if name != serve.RequestIDHeader { // random per operation
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(&rec.log, "> %s: %s\n", name, strings.Join(req.Header.Values(name), ", "))
	}
	fmt.Fprintf(&rec.log, "> %s\n", reqBody)
	ctype := res.Header.Get("Content-Type")
	fmt.Fprintf(&rec.log, "< %d %s\n", res.StatusCode, ctype)
	if ctype != parselclient.ContentTypeFrame {
		fmt.Fprintf(&rec.log, "< %s", normalizeWall(resBody))
		return res, nil
	}
	entries, err := snapshot.DecodeFrame(resBody)
	if err != nil {
		return nil, fmt.Errorf("decode result frame: %w", err)
	}
	for i, e := range entries {
		fmt.Fprintf(&rec.log, "< frame[%d] meta %s\n", i, normalizeWall(e.Meta))
		fmt.Fprintf(&rec.log, "< frame[%d] values %v\n", i, e.Values)
	}
	return res, nil
}

// section starts a named block of the golden transcript.
func (rec *wireRecorder) section(name string) {
	fmt.Fprintf(&rec.log, "\n=== %s\n", name)
}

// wireGoldenShards is the population each key kind is replayed over:
// three shards of uneven length, so the k/rank/quantile answers differ.
func wireGoldenShards[K parselclient.Key]() [][]K {
	var z K
	var shards any
	switch any(z).(type) {
	case float64:
		shards = [][]float64{{2.5, -1, 9.75}, {0.125, 3, 7.5}, {1e-3, 4}}
	case string:
		shards = [][]string{{"pear", "fig", "kiwi"}, {"apple", "lime", "date"}, {"plum", "nut"}}
	default:
		shards = [][]int64{{9, 1, 5}, {3, 7, 2}, {8, 4}}
	}
	return shards.([][]K)
}

// recordKindWire replays the whole query surface of key kind K through
// c: the eight shard-carrying endpoints, then an upload and the same
// eight kinds through /query plus one /querymany batch, each with one
// out-of-range rank so the typed error shape is pinned too. Errors are
// part of the transcript, not failures.
func recordKindWire[K parselclient.Key](t *testing.T, rec *wireRecorder, c *parselclient.Client, label string) {
	t.Helper()
	ctx := context.Background()
	kc := parselclient.Keyed[K](c)
	shards := wireGoldenShards[K]()
	step := func(name string, op func() error) {
		rec.section(label + " " + name)
		_ = op()
	}
	step("select", func() error { _, err := kc.Select(ctx, shards, 4); return err })
	step("select rank_range", func() error { _, err := kc.Select(ctx, shards, 100); return err })
	step("median", func() error { _, err := kc.Median(ctx, shards); return err })
	step("quantile", func() error { _, err := kc.Quantile(ctx, shards, 0.3); return err })
	step("quantiles", func() error { _, _, err := kc.Quantiles(ctx, shards, []float64{0.25, 0.75}); return err })
	step("ranks", func() error { _, _, err := kc.SelectRanks(ctx, shards, []int64{1, 5, 8}); return err })
	step("topk", func() error { _, _, err := kc.TopK(ctx, shards, 3); return err })
	step("bottomk", func() error { _, _, err := kc.BottomK(ctx, shards, 2); return err })
	step("topk k=0", func() error { _, _, err := kc.TopK(ctx, shards, 0); return err })
	step("summary", func() error { _, _, err := kc.Summary(ctx, shards); return err })
	step("no_shards", func() error { _, err := kc.Median(ctx, [][]K{}); return err })

	ds := kc.Dataset("golden-" + parselclient.KeyKindOf[K]())
	if !c.Binary {
		// The frame pass queries the dataset this JSON upload made.
		step("dataset upload", func() error { _, err := ds.Upload(ctx, shards); return err })
	}
	step("dataset select", func() error { _, err := ds.Select(ctx, 4); return err })
	step("dataset select rank_range", func() error { _, err := ds.Select(ctx, 100); return err })
	step("dataset median", func() error { _, err := ds.Median(ctx); return err })
	step("dataset quantile", func() error { _, err := ds.Quantile(ctx, 0.3); return err })
	step("dataset quantiles", func() error { _, _, err := ds.Quantiles(ctx, []float64{0.25, 0.75}); return err })
	step("dataset ranks", func() error { _, _, err := ds.SelectRanks(ctx, []int64{1, 5, 8}); return err })
	step("dataset topk", func() error { _, _, err := ds.TopK(ctx, 3); return err })
	step("dataset bottomk", func() error { _, _, err := ds.BottomK(ctx, 2); return err })
	step("dataset summary", func() error { _, _, err := ds.Summary(ctx); return err })
	rank, big, q, k := int64(4), int64(100), 0.3, 3
	step("dataset querymany", func() error {
		_, err := ds.QueryMany(ctx, []parselclient.DatasetQuery{
			{Kind: parselclient.KindSelect, Rank: &rank},
			{Kind: parselclient.KindSelect, Rank: &big},
			{Kind: parselclient.KindMedian},
			{Kind: parselclient.KindQuantile, Q: &q},
			{Kind: parselclient.KindQuantiles, Qs: []float64{0.25, 0.75}},
			{Kind: parselclient.KindRanks, Ranks: []int64{1, 5, 8}},
			{Kind: parselclient.KindTopK, K: &k},
			{Kind: parselclient.KindBottomK, K: &k},
			{Kind: parselclient.KindSummary},
		})
		return err
	})
}

// TestDaemonWireGolden pins the daemon's wire byte for byte: the exact
// request bytes parselclient sends and the status, Content-Type and
// body the daemon answers, for every query endpoint — shard-carrying
// and resident — across the three key kinds, with JSON and with binary
// frame results, plus the structural errors of a hand-built body. Only
// report.wall_seconds, the host clock, is normalized. Regenerate with
// go test ./internal/serve -run TestDaemonWireGolden -update after a
// deliberate wire change.
func TestDaemonWireGolden(t *testing.T) {
	d := newDaemon(t, parsel.Options{}, parsel.PoolOptions{MaxMachines: 2}, serve.Options{})
	defer d.close()
	rec := &wireRecorder{next: d.ts.Client().Transport}
	hc := &http.Client{Transport: rec}

	for _, binary := range []bool{false, true} {
		c := parselclient.New(d.ts.URL, parselclient.WithHTTPClient(hc), parselclient.WithBinary(binary))
		enc := "json"
		if binary {
			enc = "frame"
		}
		recordKindWire[int64](t, rec, c, "int64 "+enc)
		recordKindWire[float64](t, rec, c, "float64 "+enc)
		recordKindWire[string](t, rec, c, "string "+enc)
	}

	// Structural refusals the typed client cannot produce.
	raw := []struct{ name, path, body string }{
		{"missing_field", "/v1/select", `{"shards":[[3,1],[2]]}`},
		{"bad_kind", "/v1/median", `{"key_kind":"complex","shards":[[3,1],[2]]}`},
		{"dataset missing_field", "/v1/datasets/golden-int64/query", `{"kind":"select"}`},
	}
	for _, tc := range raw {
		rec.section("raw " + tc.name)
		res, err := hc.Post(d.ts.URL+tc.path, parselclient.ContentTypeJSON, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res.Body.Close()
	}

	got := rec.log.String()
	path := filepath.Join("testdata", "wire_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("wire diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
