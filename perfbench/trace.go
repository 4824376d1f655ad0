package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsel/internal/serve"
	"parsel/parselclient"
)

// maxSpans caps the spans one traced pass keeps in memory.
const maxSpans = 1 << 20

// span is one timed interval of the traced pass. Spans of one query
// share ReqID, the X-Parsel-Request-Id the client sent; Parent is 0 for
// the root span around the client call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	ReqID  string `json:"req_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans around the calls the benchmark makes into the
// client library and, through its RoundTripper, around every HTTP
// round trip those calls make. The server's own stage durations come
// back in the X-Parsel-Stages response header and are recorded as child
// spans of the round trip. Spans stay in memory until writeSpans.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	roots map[string]int64 // request id -> root span id, while in flight

	dropped   atomic.Int64
	notFound  atomic.Int64 // 404 responses while on
	shed      atomic.Int64 // 429 and 503 responses while on
	reqBytes  atomic.Int64 // request body bytes while on
	respBytes atomic.Int64 // response body bytes while on
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped.Add(1)
		return
	}
	t.spans = append(t.spans, s)
}

func (t *tracer) rootOf(reqID string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots[reqID]
}

// around returns the closed loop's wrapCall: it gives each call its
// own request id and records the root span named name around it.
func (t *tracer) around(name string) wrapCall {
	return func(ctx context.Context, call func(ctx context.Context) error) error {
		id := t.nextID.Add(1)
		reqID := "perfbench-" + strconv.FormatInt(id, 10)
		t.mu.Lock()
		t.roots[reqID] = id
		t.mu.Unlock()
		start := t.now()
		err := call(parselclient.WithRequestID(ctx, reqID))
		end := t.now()
		t.mu.Lock()
		delete(t.roots, reqID)
		t.mu.Unlock()
		t.record(span{ID: id, Name: name, ReqID: reqID, Start: start, End: end})
		return err
	}
}

// wrap is the deployOptions hook that installs the tracing
// RoundTripper.
func (t *tracer) wrap(next http.RoundTripper) http.RoundTripper {
	return &traceTransport{t: t, next: next}
}

type traceTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	if !t.on.Load() {
		return tt.next.RoundTrip(req)
	}
	// Only round trips of a traced call are recorded: the writer's
	// uploads have no root span and pass through.
	reqID := req.Header.Get(parselclient.RequestIDHeader)
	parent := t.rootOf(reqID)
	if parent == 0 {
		return tt.next.RoundTrip(req)
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: "http.roundtrip", ReqID: reqID, Start: t.now()}
	if req.ContentLength > 0 {
		t.reqBytes.Add(req.ContentLength)
	}
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		s.End = t.now()
		t.record(s)
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		t.notFound.Add(1)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		t.shed.Add(1)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s, stages: resp.Header.Get(serve.StagesHeader)}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (tt *traceTransport) CloseIdleConnections() {
	if c, ok := tt.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// spanBody ends the round-trip span when the client has read the whole
// response (EOF or Close, whichever comes first), and records the
// server's stages as its children.
type spanBody struct {
	io.ReadCloser
	t      *tracer
	s      span
	stages string
	n      int64
	once   sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		t := b.t
		b.s.End = t.now()
		t.respBytes.Add(b.n)
		t.record(b.s)
		// The header carries durations only; the stages are laid end to
		// end from the round trip's start.
		at := b.s.Start
		for _, st := range parseStages(b.stages) {
			t.record(span{ID: t.nextID.Add(1), Parent: b.s.ID, Name: st.name, ReqID: b.s.ReqID, Start: at, End: at + st.ns})
			at += st.ns
		}
	})
}

type stage struct {
	name string
	ns   int64
}

// parseStages reads "queue_ns=..;checkout_ns=..;execute_ns=..".
func parseStages(h string) []stage {
	var out []stage
	for _, part := range strings.Split(h, ";") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		ns, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, stage{name: "serve." + strings.TrimSuffix(k, "_ns"), ns: ns})
	}
	return out
}

// layerTimes is the traced window's spans reduced to per-layer means.
type layerTimes struct {
	spans                int64
	calls, trips, staged int64
	callNS, tripNS       int64 // root and round-trip durations
	stageNS              map[string]int64
}

func (t *tracer) reduce() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTimes{spans: int64(len(t.spans)), stageNS: map[string]int64{}}
	for _, s := range t.spans {
		switch {
		case s.Parent == 0:
			lt.calls++
			lt.callNS += s.dur()
		case s.Name == "http.roundtrip":
			lt.trips++
			lt.tripNS += s.dur()
		default:
			lt.stageNS[s.Name] += s.dur()
			if s.Name == "serve.execute" {
				lt.staged++
			}
		}
	}
	return lt
}

func (lt layerTimes) stageTotal() int64 {
	var s int64
	for _, ns := range lt.stageNS {
		s += ns
	}
	return s
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// retryCounter is the client Collector of the traced pass.
type retryCounter struct{ ops, retries atomic.Int64 }

func (rc *retryCounter) ClientOp(op string, delta parselclient.RetryStats, err error) {
	if strings.HasPrefix(op, "cluster.") {
		return
	}
	rc.ops.Add(1)
	rc.retries.Add(delta.Retries)
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
