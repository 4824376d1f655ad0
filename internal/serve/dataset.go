package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsel"
	"parsel/internal/snapshot"
	"parsel/parselclient"
)

// The resident-dataset registry: upload once, query many. An upload
// (PUT /v1/datasets/{id}) ships the shards a single time into a
// parsel.Dataset — resident per-processor storage pinned to the upload's
// machine shape — and every later query (POST /v1/datasets/{id}/query)
// carries parameters only, checking an idle machine of matching shape
// out of the shared pool. Responses are bit-identical to posting the
// same shards per query.
//
// Two resource bounds keep resident state safe to expose:
//
//   - A resident-bytes budget (Options.MaxResidentBytes, plus an entry
//     count cap MaxDatasets): an upload that would exceed it is refused
//     with 413 "resident_budget" by a constant-time counter comparison —
//     live datasets are never evicted to make room.
//   - A TTL (Options.DatasetTTL): uploads and queries reset a dataset's
//     expiry; one left idle past the TTL is evicted by the lazy sweep
//     that runs on every registry touch (uploads, queries, deletes,
//     stats). Eviction is pure registry work — it never needs a machine,
//     so a wedged or saturated pool cannot pin expired memory.
//
// A query in flight when its dataset is deleted or evicted completes
// normally (the snapshot is reclaimed after the last reader returns);
// later queries get 404 "dataset_not_found".

// dsEntry is one resident dataset with its accounting state.
type dsEntry struct {
	// kind names the dataset's key kind (parselclient.KeyKind*); ds is
	// the matching *parsel.Dataset[K], dispatched by type switch at the
	// query sites. procs and n cache the dataset's shape so registry
	// bookkeeping never needs the typed handle.
	kind  string
	ds    any
	procs int
	n     int64
	// tenant names the tenant whose ledger holds this dataset's bytes;
	// empty on a daemon without tenants.
	tenant  string
	bytes   int64
	expires time.Time
	// gen is the upload generation (monotonic across the registry); the
	// snapshot store uses it to skip data rewrites and ignore stale
	// background persists.
	gen int64
	// persistedExpires is the TTL deadline last written to the snapshot
	// store. Query-driven TTL refreshes re-persist (metadata-only) once
	// the in-memory deadline has advanced at least half a TTL past it,
	// so a hard kill costs an actively-queried dataset at most half its
	// TTL of freshness — not the whole deadline — without an fsync per
	// query.
	persistedExpires time.Time
	// restored marks a dataset recovered from a snapshot at startup
	// rather than uploaded in this process's lifetime.
	restored bool
}

// closeDS releases the entry's typed dataset.
func (e *dsEntry) closeDS() {
	e.ds.(interface{ Close() }).Close()
}

// info shapes the entry's wire description. The key kind travels only
// for non-int64 datasets, keeping the historical wire byte-identical.
func (e *dsEntry) info(id string, now time.Time) parselclient.DatasetInfo {
	kind := e.kind
	if kind == parselclient.KeyKindInt64 {
		kind = ""
	}
	return parselclient.DatasetInfo{
		ID:          id,
		KeyKind:     kind,
		Tenant:      e.tenant,
		Procs:       e.procs,
		N:           e.n,
		Bytes:       e.bytes,
		ExpiresInMS: e.expires.Sub(now).Milliseconds(),
		Restored:    e.restored,
	}
}

// tenantLedger resolves a tenant name to its live ledger; nil for the
// empty name, an unconfigured name (a snapshot from a tenant since
// removed), or a daemon without tenants. Caller holds dsMu.
func (s *Server) tenantLedger(name string) *tenantEntry {
	if name == "" || s.tenantsByName == nil {
		return nil
	}
	return s.tenantsByName[name]
}

// dropLocked removes an entry from the ledger (global and per-tenant
// bytes and counts) without closing its dataset. Caller holds dsMu.
func (s *Server) dropLocked(id string, e *dsEntry) {
	delete(s.datasets, id)
	s.dsBytes -= e.bytes
	if te := s.tenantLedger(e.tenant); te != nil {
		te.bytes -= e.bytes
		te.datasets--
	}
}

// sweepLocked evicts every dataset whose TTL has lapsed. Caller holds
// dsMu. Closing the evicted datasets is a flag write (in-flight queries
// complete and the runtime reclaims the snapshots), so the sweep is
// cheap enough to run on every registry touch.
func (s *Server) sweepLocked(now time.Time) {
	for id, e := range s.datasets {
		if now.Before(e.expires) {
			continue
		}
		s.dropLocked(id, e)
		s.dstats.Expired++
		e.closeDS()
		s.markDirty(id) // the snapshotter removes the evicted id's file
	}
}

// handleDatasets routes /v1/datasets/{id}[/query] by path shape and
// method. Registered under the "/v1/datasets/" prefix.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/datasets/")
	id, op, _ := strings.Cut(rest, "/")
	if err := checkDatasetID(id); err != nil {
		// A malformed id is a routing mistake, reported like 404/405:
		// outside the request-accounting counters.
		pe := err.(*ParseError)
		writeError(w, http.StatusBadRequest, pe.Code, pe.Msg)
		return
	}
	switch op {
	case "":
		switch r.Method {
		case http.MethodPut:
			s.handleDatasetUpload(w, r, id)
		case http.MethodGet:
			s.handleDatasetInfo(w, r, id)
		case http.MethodDelete:
			s.handleDatasetDelete(w, r, id)
		default:
			w.Header().Set("Allow", "PUT, GET, DELETE")
			writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
				"datasets are PUT (upload), GET (info) or DELETE requests")
		}
	case "query", "querymany":
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
				"dataset queries are POST requests")
			return
		}
		s.handleDatasetQuery(w, r, id, op == "querymany")
	case "snapshot":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, parselclient.CodeMethodNotAllowed,
				"dataset snapshots are GET requests")
			return
		}
		s.handleDatasetSnapshot(w, r, id)
	default:
		writeError(w, http.StatusNotFound, parselclient.CodeNotFound,
			fmt.Sprintf("no dataset operation %q", op))
	}
}

// admitOrReject takes an admission token, or writes the constant-time
// 429 and returns false. The caller must release() on true.
func (s *Server) admitOrReject(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case s.admit <- struct{}{}:
		return func() { <-s.admit }, true
	default:
		s.countError(http.StatusTooManyRequests, parselclient.CodeQueueFull)
		s.logShed(r, http.StatusTooManyRequests, parselclient.CodeQueueFull,
			fmt.Sprintf("admission capacity exhausted (capacity %d)", cap(s.admit)))
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, parselclient.CodeQueueFull,
			fmt.Sprintf("admission capacity exhausted (%d requests in flight, capacity %d)",
				len(s.admit), cap(s.admit)))
		return nil, false
	}
}

// refuseIfDraining counts the request and writes the 503 if the daemon
// is draining; it returns true when the caller must stop.
func (s *Server) refuseIfDraining(w http.ResponseWriter) bool {
	s.mu.Lock()
	s.srv.Requests++
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.countError(http.StatusServiceUnavailable, parselclient.CodeShuttingDown)
		writeError(w, http.StatusServiceUnavailable, parselclient.CodeShuttingDown,
			"daemon is draining")
	}
	return draining
}

// handleDatasetUpload serves PUT /v1/datasets/{id}: the upload-once
// half of the resident contract. The shards are parsed, checked against
// the resident-bytes budget (a constant-time counter comparison — no
// eviction of live data, no machine work), copied into resident
// storage, and registered under the id, replacing any previous dataset
// there.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request, id string) {
	if s.refuseIfDraining(w) {
		return
	}
	release, ok := s.admitOrReject(w, r)
	if !ok {
		return
	}
	defer release()

	// Declared-oversize bodies are refused before a byte is read.
	if r.ContentLength > s.opts.Limits.MaxBodyBytes {
		s.writeRequestError(w, parseErrf(parselclient.CodeTooLarge,
			"declared body of %d bytes exceeds %d", r.ContentLength, s.opts.Limits.MaxBodyBytes))
		return
	}
	if isFrameContentType(r.Header.Get("Content-Type")) {
		s.handleFrameUpload(w, r, id)
		return
	}
	body, err := readBody(w, r, s.opts.Limits.MaxBodyBytes)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	kind, err := sniffKeyKind(body, r.Header.Get(parselclient.KindHeader))
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	switch kind {
	case parselclient.KeyKindFloat64:
		runUpload[float64](s, w, r, id, body)
	case parselclient.KeyKindString:
		runUpload[string](s, w, r, id, body)
	default:
		runUpload[int64](s, w, r, id, body)
	}
}

// runUpload is the kind-typed tail of a JSON upload.
func runUpload[K parselclient.Key](s *Server, w http.ResponseWriter, r *http.Request, id string, body []byte) {
	up, err := ParseDatasetUploadOf[K](body, s.opts.Limits)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	tenant := tenantOf(r)
	need := residentBytes(up.Shards)
	replacing, ok := s.reserveUpload(w, r, id, tenant, need)
	if !ok {
		return
	}
	ds, err := poolOf[K](s).NewDataset(up.Shards)
	if err != nil {
		s.unwindUpload(id, tenant, need, replacing)
		s.writeQueryError(w, err)
		return
	}
	commitUpload(s, w, id, tenant, ds, need, replacing)
}

// handleFrameUpload serves a PUT whose Content-Type negotiated the
// binary frame encoding: the body is the snapshot dataset format,
// byte-identical to the daemon's durable snapshots, decoded by the
// same streaming path a warm restart uses. The prologue (magic,
// version, header) arrives before any key does, so the machine-shape
// check and the resident-bytes reservation happen up front; the keys
// then stream in bounded chunks straight into one resident backing
// array that RestoreDataset adopts without copying — the body is never
// materialized whole.
func (s *Server) handleFrameUpload(w http.ResponseWriter, r *http.Request, id string) {
	body := http.MaxBytesReader(w, r.Body, s.opts.Limits.MaxBodyBytes)
	dec, err := snapshot.NewStreamDecoder(bufio.NewReaderSize(body, 1<<16), s.opts.Limits.MaxBodyBytes)
	if err != nil {
		s.writeFrameUploadError(w, err)
		return
	}
	h := dec.Header()
	// The stream header's key type is authoritative for the kind; an
	// X-Parsel-Kind header, if sent, must agree.
	if want := r.Header.Get(parselclient.KindHeader); want != "" &&
		!strings.EqualFold(strings.TrimSpace(want), h.KeyType) {
		s.writeRequestError(w, parseErrf(parselclient.CodeBadKind,
			"%s header %q disagrees with the stream's key type %q",
			parselclient.KindHeader, want, h.KeyType))
		return
	}
	if h.Procs > s.opts.Limits.MaxProcs {
		s.writeRequestError(w, parseErrf(parselclient.CodeLimitExceeded,
			"%d shards, limit %d simulated processors", h.Procs, s.opts.Limits.MaxProcs))
		return
	}
	if h.KeyType == snapshot.KeyTypeFloat64 {
		runFrameUpload[float64](s, w, r, id, dec, h.N)
		return
	}
	runFrameUpload[int64](s, w, r, id, dec, h.N)
}

// runFrameUpload is the kind-typed tail of a binary upload: reserve
// against the header's declared size, stream the keys into resident
// backing, commit.
func runFrameUpload[K snapshot.FixedKey](s *Server, w http.ResponseWriter, r *http.Request, id string, dec *snapshot.StreamDecoder, n int64) {
	tenant := tenantOf(r)
	need := n * 8
	replacing, ok := s.reserveUpload(w, r, id, tenant, need)
	if !ok {
		return
	}
	shards, err := snapshot.ReadDataAs[K](dec)
	if err != nil {
		s.unwindUpload(id, tenant, need, replacing)
		s.writeFrameUploadError(w, err)
		return
	}
	ds, err := poolOf[K](s).RestoreDataset(shards)
	if err != nil {
		s.unwindUpload(id, tenant, need, replacing)
		s.writeQueryError(w, err)
		return
	}
	commitUpload(s, w, id, tenant, ds, need, replacing)
}

// writeFrameUploadError reports a binary-upload decode failure. The
// transport's byte-limit overrun keeps its 413 too_large verdict
// (retryable semantics identical to the JSON path); every actual
// decode failure — truncation, bit flip, version skew, wrong magic —
// is a deterministic 400 bad_frame that no retry can change.
func (s *Server) writeFrameUploadError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeRequestError(w, parseErrf(parselclient.CodeTooLarge,
			"body exceeds %d bytes", mbe.Limit))
		return
	}
	s.countError(http.StatusBadRequest, parselclient.CodeBadFrame)
	writeError(w, http.StatusBadRequest, parselclient.CodeBadFrame,
		fmt.Sprintf("decode binary upload: %v", err))
}

// reserveUpload runs the admission half of an upload against the
// registry: sweep, the constant-time budget and count checks, then the
// need-byte reservation. Admission is a counter comparison under the
// registry lock; the key copy or stream runs unlocked (a near-budget
// upload must not stall queries and stats for the duration), against a
// reservation that commitUpload or unwindUpload settles. A replaced
// dataset leaves the registry here, so during the copy the id reads as
// not-found — the same window a DELETE + re-upload sequence has — and
// queries in flight on the old snapshot complete normally. On false
// the refusal is already written.
func (s *Server) reserveUpload(w http.ResponseWriter, r *http.Request, id, tenant string, need int64) (replacing, ok bool) {
	s.dsMu.Lock()
	now := s.now()
	s.sweepLocked(now)
	prev, replacing := s.datasets[id]
	freed := int64(0)
	if replacing {
		freed = prev.bytes
	}
	if s.dsBytes-freed+need > s.opts.MaxResidentBytes {
		held := s.dsBytes
		s.dstats.Rejected++
		s.dsMu.Unlock()
		s.countError(http.StatusRequestEntityTooLarge, parselclient.CodeResidentBudget)
		s.logShed(r, http.StatusRequestEntityTooLarge, parselclient.CodeResidentBudget,
			fmt.Sprintf("dataset %q needs %d bytes, %d of %d held", id, need, held, s.opts.MaxResidentBytes))
		w.Header().Set("Retry-After", "1") // a delete or TTL eviction may free room
		writeError(w, http.StatusRequestEntityTooLarge, parselclient.CodeResidentBudget,
			fmt.Sprintf("dataset needs %d resident bytes; %d of the %d-byte budget are held (live data is never evicted to make room)",
				need, held, s.opts.MaxResidentBytes))
		return false, false
	}
	if !replacing && len(s.datasets)+1 > s.opts.MaxDatasets {
		s.dstats.Rejected++
		s.dsMu.Unlock()
		s.countError(http.StatusRequestEntityTooLarge, parselclient.CodeResidentBudget)
		s.logShed(r, http.StatusRequestEntityTooLarge, parselclient.CodeResidentBudget,
			fmt.Sprintf("daemon already holds %d datasets, the limit", s.opts.MaxDatasets))
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusRequestEntityTooLarge, parselclient.CodeResidentBudget,
			fmt.Sprintf("daemon already holds %d datasets, the limit", s.opts.MaxDatasets))
		return false, false
	}
	// The tenant's own slice of the budget, after the daemon-wide
	// checks: bytes freed by replacing count only when the replaced
	// dataset is charged to the same tenant.
	if te := s.tenantLedger(tenant); te != nil {
		tfreed, tcount := int64(0), te.datasets
		if replacing && prev.tenant == tenant {
			tfreed = prev.bytes
			tcount--
		}
		var refusal string
		switch {
		case te.cfg.MaxResidentBytes > 0 && te.bytes-tfreed+need > te.cfg.MaxResidentBytes:
			refusal = fmt.Sprintf("dataset needs %d resident bytes; tenant %q holds %d of its %d-byte budget",
				need, tenant, te.bytes, te.cfg.MaxResidentBytes)
		case te.cfg.MaxDatasets > 0 && tcount+1 > int64(te.cfg.MaxDatasets):
			refusal = fmt.Sprintf("tenant %q already holds %d datasets, its quota", tenant, te.cfg.MaxDatasets)
		}
		if refusal != "" {
			te.rejected++
			s.dstats.Rejected++
			s.dsMu.Unlock()
			s.countError(http.StatusRequestEntityTooLarge, parselclient.CodeTenantBudget)
			s.logShed(r, http.StatusRequestEntityTooLarge, parselclient.CodeTenantBudget, refusal)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusRequestEntityTooLarge, parselclient.CodeTenantBudget, refusal)
			return false, false
		}
	}
	if replacing {
		s.dropLocked(id, prev)
		s.dstats.Replaced++
	}
	s.dsBytes += need // the reservation
	if te := s.tenantLedger(tenant); te != nil {
		te.bytes += need
	}
	s.dsMu.Unlock()
	if replacing {
		prev.closeDS()
	}
	return replacing, true
}

// unwindUpload releases a reservation whose dataset never materialized
// (a decode fault mid-stream, a closed pool).
func (s *Server) unwindUpload(id, tenant string, need int64, replacing bool) {
	s.dsMu.Lock()
	s.dsBytes -= need
	if te := s.tenantLedger(tenant); te != nil {
		te.bytes -= need
	}
	s.dsMu.Unlock()
	if replacing {
		// The id's previous dataset left the registry at reservation
		// time; reconcile its snapshot with that.
		s.markDirty(id)
	}
}

// commitUpload installs ds under id against a need-byte reservation,
// reconciling the estimate with the dataset's true resident size, and
// answers the request.
func commitUpload[K parselclient.Key](s *Server, w http.ResponseWriter, id, tenant string, ds *parsel.Dataset[K], need int64, replacing bool) {
	te := func() *tenantEntry { return s.tenantLedger(tenant) } // resolved under dsMu
	s.dsMu.Lock()
	if cur, ok := s.datasets[id]; ok {
		// A concurrent upload of the same id committed during our copy:
		// last writer wins, exactly as serialized PUTs would end.
		s.dropLocked(id, cur)
		s.dstats.Replaced++
		cur.closeDS()
	} else if !replacing && len(s.datasets)+1 > s.opts.MaxDatasets {
		// Concurrent uploads of distinct new ids can pass the count
		// check together; the loser unwinds here (the bytes budget
		// cannot oversubscribe the same way — it is reserved up front).
		s.dsBytes -= need
		if t := te(); t != nil {
			t.bytes -= need
		}
		s.dstats.Rejected++
		s.dsMu.Unlock()
		ds.Close()
		s.countError(http.StatusRequestEntityTooLarge, parselclient.CodeResidentBudget)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusRequestEntityTooLarge, parselclient.CodeResidentBudget,
			fmt.Sprintf("daemon already holds %d datasets, the limit", s.opts.MaxDatasets))
		return
	}
	if t := te(); t != nil && t.cfg.MaxDatasets > 0 && t.datasets+1 > int64(t.cfg.MaxDatasets) {
		// The same race, against the tenant's own quota.
		s.dsBytes -= need
		t.bytes -= need
		t.rejected++
		s.dstats.Rejected++
		s.dsMu.Unlock()
		ds.Close()
		s.countError(http.StatusRequestEntityTooLarge, parselclient.CodeTenantBudget)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusRequestEntityTooLarge, parselclient.CodeTenantBudget,
			fmt.Sprintf("tenant %q already holds %d datasets, its quota", tenant, t.cfg.MaxDatasets))
		return
	}
	now := s.now()
	e := &dsEntry{
		kind: parselclient.KeyKindOf[K](), ds: ds, procs: ds.Procs(), n: ds.N(),
		tenant: tenant, bytes: ds.Bytes(), expires: now.Add(s.opts.DatasetTTL),
		gen: s.snapGen.Add(1),
	}
	s.dsBytes += e.bytes - need // reconcile the estimate with the ledger's truth
	if t := te(); t != nil {
		t.bytes += e.bytes - need
		t.datasets++
	}
	s.datasets[id] = e
	s.dstats.Uploads++
	info := e.info(id, now)
	s.dsMu.Unlock()
	s.markDirty(id)

	s.mu.Lock()
	s.srv.OK++
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// residentBytes is the admission-time estimate of what the shards will
// occupy once resident, kept in one place so the budget check and the
// ledger (parsel.Dataset.Bytes, reconciled at commit) cannot drift:
// n slots of K's in-memory size — 8 bytes for the fixed-width kinds,
// the 16-byte string header for strings (whose backing arrays the
// budget deliberately does not meter, matching Dataset.Bytes).
func residentBytes[K parselclient.Key](shards [][]K) int64 {
	var n int64
	for _, sh := range shards {
		n += int64(len(sh))
	}
	return n * int64(reflect.TypeFor[K]().Size())
}

// handleDatasetInfo serves GET /v1/datasets/{id}: the description
// without touching the TTL (probes must not keep a dataset alive).
func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request, id string) {
	if s.refuseIfDraining(w) {
		return
	}
	s.dsMu.Lock()
	now := s.now()
	s.sweepLocked(now)
	e, ok := s.datasets[id]
	var info parselclient.DatasetInfo
	if ok {
		info = e.info(id, now)
	} else {
		s.dstats.NotFound++
	}
	s.dsMu.Unlock()
	if !ok {
		s.countError(http.StatusNotFound, parselclient.CodeDatasetNotFound)
		writeError(w, http.StatusNotFound, parselclient.CodeDatasetNotFound,
			fmt.Sprintf("no resident dataset %q", id))
		return
	}
	s.mu.Lock()
	s.srv.OK++
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// handleDatasetDelete serves DELETE /v1/datasets/{id}: the dataset
// leaves the registry and its budget is freed immediately; queries in
// flight complete normally.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request, id string) {
	if s.refuseIfDraining(w) {
		return
	}
	s.dsMu.Lock()
	now := s.now()
	s.sweepLocked(now)
	e, ok := s.datasets[id]
	var info parselclient.DatasetInfo
	if ok {
		s.dropLocked(id, e)
		s.dstats.Deletes++
		info = e.info(id, now)
	} else {
		s.dstats.NotFound++
	}
	s.dsMu.Unlock()
	if !ok {
		s.countError(http.StatusNotFound, parselclient.CodeDatasetNotFound)
		writeError(w, http.StatusNotFound, parselclient.CodeDatasetNotFound,
			fmt.Sprintf("no resident dataset %q", id))
		return
	}
	e.closeDS()
	s.markDirty(id) // the snapshotter removes the deleted id's file
	s.mu.Lock()
	s.srv.OK++
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// handleDatasetSnapshot serves GET /v1/datasets/{id}/snapshot: the
// resident dataset streamed out as the snapshot binary format — the
// exact bytes a frame upload of the same shards would carry, CRCs
// included — so a cluster router can replicate a dataset it did not
// upload (Dataset.View on this node, RestoreDataset on the receiver;
// the keys are never materialized a second time on either end). The
// export is TTL-neutral like Info: replication traffic must not keep
// an otherwise-idle dataset alive. String datasets have no snapshot
// encoding and answer 400 bad_kind — routers pin them to their
// primary or re-upload (the documented string-key caveat).
func (s *Server) handleDatasetSnapshot(w http.ResponseWriter, r *http.Request, id string) {
	if s.refuseIfDraining(w) {
		return
	}
	release, ok := s.admitOrReject(w, r)
	if !ok {
		return
	}
	defer release()

	// View runs under dsMu: an entry found in the registry cannot be
	// closed while the lock is held (sweeps, deletes and replacement
	// all remove it under this lock first), so the shard views stay
	// valid; they remain readable after release even if the dataset is
	// deleted mid-stream, like queries in flight.
	s.dsMu.Lock()
	now := s.now()
	s.sweepLocked(now)
	e, ok := s.datasets[id]
	var i64 [][]int64
	var f64 [][]float64
	var kind string
	var verr error
	if ok {
		kind = e.kind
		switch ds := e.ds.(type) {
		case *parsel.Dataset[int64]:
			i64, verr = ds.View()
		case *parsel.Dataset[float64]:
			f64, verr = ds.View()
		}
		if verr == nil && (i64 != nil || f64 != nil) {
			s.dstats.Exports++
		}
	} else {
		s.dstats.NotFound++
	}
	s.dsMu.Unlock()
	if !ok {
		s.countError(http.StatusNotFound, parselclient.CodeDatasetNotFound)
		writeError(w, http.StatusNotFound, parselclient.CodeDatasetNotFound,
			fmt.Sprintf("no resident dataset %q", id))
		return
	}
	if kind == parselclient.KeyKindString {
		s.writeRequestError(w, parseErrf(parselclient.CodeBadKind,
			"string datasets have no snapshot encoding; re-upload to replicate"))
		return
	}
	if verr != nil {
		s.writeQueryError(w, verr)
		return
	}
	s.mu.Lock()
	s.srv.OK++
	s.mu.Unlock()
	if f64 != nil {
		writeSnapshotOf(s, w, kind, f64)
		return
	}
	writeSnapshotOf(s, w, kind, i64)
}

// writeSnapshotOf streams one kind-typed snapshot export: exact
// Content-Length up front (EncodedSize), then the incremental
// CRC-chunked encoding — the dataset is never buffered whole.
func writeSnapshotOf[K snapshot.FixedKey](s *Server, w http.ResponseWriter, kind string, shards [][]K) {
	h := snapshot.Header{Options: s.optionsFP}
	w.Header().Set("Content-Type", parselclient.ContentTypeFrame)
	w.Header().Set("Content-Length", strconv.FormatInt(snapshot.EncodedSize(h, shards), 10))
	if kind != parselclient.KeyKindInt64 {
		w.Header().Set(parselclient.KindHeader, kind)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = snapshot.WriteTo(w, h, shards)
}

// handleDatasetQuery serves POST /v1/datasets/{id}/query and, with
// many set, POST /v1/datasets/{id}/querymany: the query-many half of
// the resident contract. The body carries query parameters only (one
// query, or a batch under one admission token and one shared admission
// deadline); the keys are already resident. A successful lookup resets
// the dataset's TTL.
func (s *Server) handleDatasetQuery(w http.ResponseWriter, r *http.Request, id string, many bool) {
	start := time.Now()
	if s.refuseIfDraining(w) {
		return
	}
	release, ok := s.admitOrReject(w, r)
	if !ok {
		return
	}
	defer release()

	body, err := readBody(w, r, s.opts.Limits.MaxBodyBytes)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	parse := parseDatasetQuery
	if many {
		parse = parseDatasetQueryMany
	}
	b := queryBatch{many: many, resident: true}
	if b.items, b.timeoutMS, err = parse(body, s.opts.Limits); err != nil {
		s.writeRequestError(w, err)
		return
	}

	e := s.touchDataset(w, id)
	if e == nil {
		return
	}
	for i := range b.items {
		if k := b.items[i].q.KeyKind; k != "" && k != e.kind {
			query := "the query"
			if many {
				query = fmt.Sprintf("query %d", i)
			}
			s.writeRequestError(w, parseErrf(parselclient.CodeBadKind,
				"dataset %q holds %s keys; %s asked for %s", id, e.kind, query, k))
			return
		}
	}
	markQueued(r, e.kind)
	switch ds := e.ds.(type) {
	case *parsel.Dataset[float64]:
		finishQueries(s, w, r, ds, b, start)
	case *parsel.Dataset[string]:
		finishQueries(s, w, r, ds, b, start)
	default:
		finishQueries(s, w, r, e.ds.(*parsel.Dataset[int64]), b, start)
	}
}

// touchDataset resolves a queried dataset id: sweep, look up, and reset
// the TTL (re-persisting the deadline when it has advanced far enough).
// A miss answers 404 dataset_not_found and returns nil.
func (s *Server) touchDataset(w http.ResponseWriter, id string) *dsEntry {
	s.dsMu.Lock()
	now := s.now()
	s.sweepLocked(now)
	e, ok := s.datasets[id]
	if ok {
		e.expires = now.Add(s.opts.DatasetTTL)
		if s.snap != nil && e.expires.Sub(e.persistedExpires) >= s.opts.DatasetTTL/2 {
			s.markDirty(id) // metadata-only re-persist of the advanced TTL
		}
	} else {
		s.dstats.NotFound++
	}
	s.dsMu.Unlock()
	if !ok {
		s.countError(http.StatusNotFound, parselclient.CodeDatasetNotFound)
		writeError(w, http.StatusNotFound, parselclient.CodeDatasetNotFound,
			fmt.Sprintf("no resident dataset %q", id))
		return nil
	}
	return e
}

// markQueued closes the request's queue stage (admission, body read,
// parse, dataset resolution) and labels the request with its key kind.
func markQueued(r *http.Request, kind string) {
	if tr := trackFrom(r.Context()); tr != nil {
		tr.kind = kind
		tr.markQueue()
	}
}

// queryItem is one validated query: its endpoint and its parameters.
type queryItem struct {
	ep Endpoint
	q  parselclient.DatasetQuery
}

// queryBatch is what the query tail runs against one dataset.
type queryBatch struct {
	items []queryItem
	// timeoutMS is the batch's one admission deadline.
	timeoutMS int64
	// many answers in the querymany shape, with per-item errors; a
	// single query answers its error as an HTTP status instead.
	many bool
	// resident marks a registered dataset, whose served queries count
	// toward datasets.queries; an ephemeral one's do not.
	resident bool
}

// finishQueries is the kind-typed tail every query ends in, single or
// batched, resident or shard-carrying: run the items, account for
// them, answer in the negotiated encoding. One item runs inline on the
// handler goroutine; a batch fans out across workers bounded by the
// dataset's pool machine count (the same worker pattern as the
// library's batch entry points). Per-item failures carry the same
// stable wire codes single queries map onto HTTP statuses, and one
// failing item never poisons the rest. Results align with the request.
func finishQueries[K parselclient.Key](s *Server, w http.ResponseWriter, r *http.Request, ds *parsel.Dataset[K], b queryBatch, start time.Time) {
	ctx, cancel := s.admissionContext(r, b.timeoutMS)
	defer cancel()
	tr := trackFrom(r.Context())
	if tr != nil {
		// observeCheckout adds atomically: batch workers all attribute
		// their pool waits to this one request.
		ctx = parsel.WithCheckoutObserver(ctx, tr.observeCheckout)
	}
	execStart := time.Now()
	results := make([]parselclient.QueryManyResultOf[K], len(b.items))
	var err error
	if workers := min(poolOf[K](s).MaxMachines(), len(b.items)); workers > 1 {
		fanOut(workers, len(b.items), func(i int) {
			_ = executeItem(ctx, ds, &b.items[i], &results[i]) // reported per item
		})
	} else {
		for i := range b.items {
			err = executeItem(ctx, ds, &b.items[i], &results[i])
		}
	}
	if tr != nil {
		tr.exec = time.Since(execStart)
	}
	if !b.many && err != nil {
		s.writeQueryError(w, err)
		return
	}

	// One 200 response, one latency observation; the simulated metrics
	// and the dataset query counter aggregate per successful item, so a
	// batch reads exactly like the same queries posted one at a time.
	var okItems int64
	var agg parselclient.Report
	for i := range results {
		if results[i].Error != nil {
			continue
		}
		okItems++
		agg.SimSeconds += results[i].Report.SimSeconds
		agg.Messages += results[i].Report.Messages
		agg.Bytes += results[i].Report.Bytes
	}
	if b.resident {
		s.dsMu.Lock()
		s.dstats.Queries += okItems
		s.dsMu.Unlock()
	}
	s.mu.Lock()
	s.srv.OK++
	s.sim.Queries += okItems
	s.sim.SimSeconds += agg.SimSeconds
	s.sim.Messages += agg.Messages
	s.sim.Bytes += agg.Bytes
	s.mu.Unlock()
	s.metrics.latency.Observe(time.Since(start).Seconds())
	if tr != nil {
		w.Header().Set(StagesHeader, tr.stagesValue())
	}

	switch {
	case wantsFrame(r) && parselclient.KeyKindOf[K]() != parselclient.KeyKindString:
		// String results have no frame encoding and are answered as JSON
		// regardless of Accept; negotiation is per response
		// Content-Type, so a framing client still decodes them.
		writeFrameResultsOf(w, results)
	case b.many:
		writeJSON(w, http.StatusOK, parselclient.QueryManyResponseOf[K]{Results: results})
	default:
		writeJSON(w, http.StatusOK, &results[0].ResponseOf)
	}
}

// fanOut calls do(i) for every i in [0, n) across workers goroutines
// and returns once all calls have.
func fanOut(workers, n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// executeItem runs one query into out. A failure becomes the item's
// wire error and is also returned, so a single query can answer it as
// an HTTP status.
func executeItem[K parselclient.Key](ctx context.Context, ds *parsel.Dataset[K], it *queryItem, out *parselclient.QueryManyResultOf[K]) error {
	resp, err := execute(ctx, ds, it.ep, &it.q)
	if err != nil {
		_, code := errorStatus(err)
		out.Error = &parselclient.ErrorDetail{Code: code, Message: err.Error()}
		return err
	}
	out.ResponseOf = resp
	return nil
}

// execute is the one query switch: it dispatches one validated query
// to the dataset and shapes the response.
func execute[K parselclient.Key](ctx context.Context, ds *parsel.Dataset[K], ep Endpoint, q *parselclient.DatasetQuery) (parselclient.ResponseOf[K], error) {
	var none parselclient.ResponseOf[K]
	switch ep {
	case EpSelect:
		res, err := ds.SelectContext(ctx, *q.Rank)
		if err != nil {
			return none, err
		}
		return scalarResponse(res), nil
	case EpMedian:
		res, err := ds.MedianContext(ctx)
		if err != nil {
			return none, err
		}
		return scalarResponse(res), nil
	case EpQuantile:
		res, err := ds.QuantileContext(ctx, *q.Q)
		if err != nil {
			return none, err
		}
		return scalarResponse(res), nil
	case EpQuantiles:
		vals, rep, err := ds.QuantilesContext(ctx, q.Qs)
		if err != nil {
			return none, err
		}
		return multiResponse(vals, rep), nil
	case EpRanks:
		vals, rep, err := ds.SelectRanksContext(ctx, q.Ranks)
		if err != nil {
			return none, err
		}
		return multiResponse(vals, rep), nil
	case EpTopK:
		vals, rep, err := ds.TopKContext(ctx, *q.K)
		if err != nil {
			return none, err
		}
		return multiResponse(vals, rep), nil
	case EpBottomK:
		vals, rep, err := ds.BottomKContext(ctx, *q.K)
		if err != nil {
			return none, err
		}
		return multiResponse(vals, rep), nil
	case EpSummary:
		fn, rep, err := ds.SummaryContext(ctx)
		if err != nil {
			return none, err
		}
		return parselclient.ResponseOf[K]{
			KeyKind: wireKindField[K](),
			Summary: &parselclient.SummaryOf[K]{
				Min: fn.Min, Q1: fn.Q1, Median: fn.Median, Q3: fn.Q3, Max: fn.Max,
			},
			Report: parselclient.WireReport(rep),
		}, nil
	}
	return none, fmt.Errorf("serve: unknown endpoint %d", int(ep))
}
