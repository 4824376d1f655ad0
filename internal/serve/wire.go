package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"parsel/parselclient"
)

// Endpoint identifies one query endpoint of the daemon.
type Endpoint int

const (
	EpSelect Endpoint = iota
	EpMedian
	EpQuantile
	EpQuantiles
	EpRanks
	EpTopK
	EpBottomK
	EpSummary
)

// endpoints maps URL paths to endpoints (the daemon's query surface).
var endpoints = map[string]Endpoint{
	"/v1/select":    EpSelect,
	"/v1/median":    EpMedian,
	"/v1/quantile":  EpQuantile,
	"/v1/quantiles": EpQuantiles,
	"/v1/ranks":     EpRanks,
	"/v1/topk":      EpTopK,
	"/v1/bottomk":   EpBottomK,
	"/v1/summary":   EpSummary,
}

// String names the endpoint by its path suffix.
func (e Endpoint) String() string {
	for path, ep := range endpoints {
		if ep == e {
			return path
		}
	}
	return fmt.Sprintf("Endpoint(%d)", int(e))
}

// kinds maps dataset-query kinds onto the same endpoints, so the
// dataset path shares the shard-carrying path's validation and
// dispatch.
var kinds = map[string]Endpoint{
	parselclient.KindSelect:    EpSelect,
	parselclient.KindMedian:    EpMedian,
	parselclient.KindQuantile:  EpQuantile,
	parselclient.KindQuantiles: EpQuantiles,
	parselclient.KindRanks:     EpRanks,
	parselclient.KindTopK:      EpTopK,
	parselclient.KindBottomK:   EpBottomK,
	parselclient.KindSummary:   EpSummary,
}

// Limits bounds what a single request may ask of the daemon. Zero
// fields take defaults.
type Limits struct {
	// MaxBodyBytes caps the request body (default 64 MiB). Enforced
	// with http.MaxBytesReader at the handler and re-checked by
	// ParseRequest.
	MaxBodyBytes int64
	// MaxProcs caps the shard count — each shard is one simulated
	// processor, i.e. goroutines and channel fabric (default 256).
	MaxProcs int
	// MaxRanks caps the rank/quantile count of a multi-rank request
	// (default 4096).
	MaxRanks int
	// MaxBatch caps the item count of a querymany batch (default 256).
	MaxBatch int
}

// withDefaults fills the zero-valued limits.
func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = 64 << 20
	}
	if l.MaxProcs == 0 {
		l.MaxProcs = 256
	}
	if l.MaxRanks == 0 {
		l.MaxRanks = 4096
	}
	if l.MaxBatch == 0 {
		l.MaxBatch = 256
	}
	return l
}

// maxTimeoutMS bounds timeout_ms on the wire: 24 hours, in
// milliseconds.
const maxTimeoutMS = 24 * 60 * 60 * 1000

// ParseError is a structured request-decoding failure; it maps onto the
// wire error body verbatim.
type ParseError struct {
	// Code is the stable wire code (parselclient.Code*).
	Code parselclient.Code
	// Msg is the human-readable detail.
	Msg string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// parseErrf builds a ParseError.
func parseErrf(code parselclient.Code, format string, args ...any) *ParseError {
	return &ParseError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// sniffKeyKind resolves a request's key kind before the typed parse:
// the body's "key_kind" field, the X-Parsel-Kind header (uploads), or
// the int64 default when neither is present. The two sources must
// agree when both are given. A malformed body sniffs as the default —
// the typed parse reports the JSON error with full context.
func sniffKeyKind(body []byte, header string) (string, error) {
	var probe struct {
		KeyKind string `json:"key_kind"`
	}
	if len(body) > 0 {
		_ = json.Unmarshal(body, &probe)
	}
	kind := probe.KeyKind
	if header != "" {
		h := strings.ToLower(strings.TrimSpace(header))
		if kind != "" && kind != h {
			return "", parseErrf(parselclient.CodeBadKind,
				"key_kind %q disagrees with %s header %q", kind, parselclient.KindHeader, header)
		}
		kind = h
	}
	switch kind {
	case "":
		return parselclient.KeyKindInt64, nil
	case parselclient.KeyKindInt64, parselclient.KeyKindFloat64, parselclient.KeyKindString:
		return kind, nil
	default:
		return "", parseErrf(parselclient.CodeBadKind,
			"unknown key kind %q (want int64, float64 or string)", kind)
	}
}

// checkKeyKind validates an optional "key_kind" wire field: empty
// (the int64 default) or one of the registry's kinds.
func checkKeyKind(kind string) error {
	switch kind {
	case "", parselclient.KeyKindInt64, parselclient.KeyKindFloat64, parselclient.KeyKindString:
		return nil
	}
	return parseErrf(parselclient.CodeBadKind,
		"unknown key kind %q (want int64, float64 or string)", kind)
}

// ParseRequestOf decodes and validates one query body for an endpoint
// under key kind K. It never panics on any input; every failure is a
// *ParseError carrying a stable wire code. Validation here is
// structural (required fields, configured limits, non-finite numbers);
// population-dependent checks (rank within [1, n]) stay in the engine,
// whose typed errors the handler maps to wire codes the same way.
func ParseRequestOf[K parselclient.Key](ep Endpoint, body []byte, lim Limits) (*parselclient.RequestOf[K], error) {
	lim = lim.withDefaults()
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, parseErrf(parselclient.CodeTooLarge,
			"body is %d bytes, limit %d", len(body), lim.MaxBodyBytes)
	}
	var req parselclient.RequestOf[K]
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, parseErrf(parselclient.CodeBadJSON, "decode request: %v", err)
	}
	if req.Shards == nil {
		return nil, parseErrf(parselclient.CodeMissingField, `"shards" is required`)
	}
	if len(req.Shards) > lim.MaxProcs {
		return nil, parseErrf(parselclient.CodeLimitExceeded,
			"%d shards, limit %d simulated processors", len(req.Shards), lim.MaxProcs)
	}
	if err := checkTimeout(req.TimeoutMS); err != nil {
		return nil, err
	}
	if err := checkParams(ep, queryParams{
		rank: req.Rank, ranks: req.Ranks, q: req.Q, qs: req.Qs, k: req.K,
	}, lim); err != nil {
		return nil, err
	}
	return &req, nil
}

// ParseRequest is ParseRequestOf for the historical int64 wire.
func ParseRequest(ep Endpoint, body []byte, lim Limits) (*parselclient.Request, error) {
	return ParseRequestOf[int64](ep, body, lim)
}

// checkTimeout bounds timeout_ms so the millisecond->Duration
// conversion can never overflow int64 nanoseconds (which would wrap the
// admission deadline negative or tiny, bypassing the server's
// MaxTimeout cap). Any server-side cap is far below 24h anyway.
func checkTimeout(ms int64) error {
	if ms < 0 {
		return parseErrf(parselclient.CodeLimitExceeded, "timeout_ms %d is negative", ms)
	}
	if ms > maxTimeoutMS {
		return parseErrf(parselclient.CodeLimitExceeded,
			"timeout_ms %d exceeds the maximum %d (24h)", ms, int64(maxTimeoutMS))
	}
	return nil
}

// queryParams are the per-endpoint query parameters, shared between the
// shard-carrying Request and the resident DatasetQuery so both wire
// paths validate identically.
type queryParams struct {
	rank  *int64
	ranks []int64
	q     *float64
	qs    []float64
	k     *int
}

// checkParams enforces the per-endpoint field requirements and limits.
func checkParams(ep Endpoint, p queryParams, lim Limits) error {
	switch ep {
	case EpSelect:
		if p.rank == nil {
			return parseErrf(parselclient.CodeMissingField, `"rank" is required for select`)
		}
	case EpQuantile:
		if p.q == nil {
			return parseErrf(parselclient.CodeMissingField, `"q" is required for quantile`)
		}
		if err := checkQuantile(*p.q); err != nil {
			return err
		}
	case EpQuantiles:
		if len(p.qs) == 0 {
			return parseErrf(parselclient.CodeMissingField, `"qs" must be a non-empty array`)
		}
		if len(p.qs) > lim.MaxRanks {
			return parseErrf(parselclient.CodeLimitExceeded,
				"%d quantiles, limit %d", len(p.qs), lim.MaxRanks)
		}
		for _, q := range p.qs {
			if err := checkQuantile(q); err != nil {
				return err
			}
		}
	case EpRanks:
		if len(p.ranks) == 0 {
			return parseErrf(parselclient.CodeMissingField, `"ranks" must be a non-empty array`)
		}
		if len(p.ranks) > lim.MaxRanks {
			return parseErrf(parselclient.CodeLimitExceeded,
				"%d ranks, limit %d", len(p.ranks), lim.MaxRanks)
		}
	case EpTopK, EpBottomK:
		if p.k == nil {
			return parseErrf(parselclient.CodeMissingField, `"k" is required`)
		}
	case EpMedian, EpSummary:
		// No parameters.
	default:
		return parseErrf(parselclient.CodeNotFound, "unknown endpoint %d", int(ep))
	}
	return nil
}

// ParseDatasetUploadOf decodes and validates a PUT /v1/datasets/{id}
// body under key kind K. Like ParseRequestOf it never panics and
// reports every failure as a *ParseError with a stable wire code.
func ParseDatasetUploadOf[K parselclient.Key](body []byte, lim Limits) (*parselclient.DatasetUploadOf[K], error) {
	lim = lim.withDefaults()
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, parseErrf(parselclient.CodeTooLarge,
			"body is %d bytes, limit %d", len(body), lim.MaxBodyBytes)
	}
	var up parselclient.DatasetUploadOf[K]
	if err := json.Unmarshal(body, &up); err != nil {
		return nil, parseErrf(parselclient.CodeBadJSON, "decode upload: %v", err)
	}
	if up.Shards == nil {
		return nil, parseErrf(parselclient.CodeMissingField, `"shards" is required`)
	}
	if len(up.Shards) > lim.MaxProcs {
		return nil, parseErrf(parselclient.CodeLimitExceeded,
			"%d shards, limit %d simulated processors", len(up.Shards), lim.MaxProcs)
	}
	return &up, nil
}

// parseDatasetQuery decodes and validates a POST
// /v1/datasets/{id}/query body as a one-item batch plus its timeout_ms,
// resolving its kind to the endpoint whose field rules it shares.
func parseDatasetQuery(body []byte, lim Limits) ([]queryItem, int64, error) {
	lim = lim.withDefaults()
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, 0, parseErrf(parselclient.CodeTooLarge,
			"body is %d bytes, limit %d", len(body), lim.MaxBodyBytes)
	}
	items := make([]queryItem, 1)
	q := &items[0].q
	if err := json.Unmarshal(body, q); err != nil {
		return nil, 0, parseErrf(parselclient.CodeBadJSON, "decode query: %v", err)
	}
	if q.Kind == "" {
		return nil, 0, parseErrf(parselclient.CodeMissingField, `"kind" is required`)
	}
	ep, ok := kinds[q.Kind]
	if !ok {
		return nil, 0, parseErrf(parselclient.CodeBadKind,
			"unknown query kind %q (want select, median, quantile, quantiles, ranks, topk, bottomk or summary)", q.Kind)
	}
	if err := checkKeyKind(q.KeyKind); err != nil {
		return nil, 0, err
	}
	if err := checkTimeout(q.TimeoutMS); err != nil {
		return nil, 0, err
	}
	if err := checkParams(ep, queryParams{
		rank: q.Rank, ranks: q.Ranks, q: q.Q, qs: q.Qs, k: q.K,
	}, lim); err != nil {
		return nil, 0, err
	}
	items[0].ep = ep
	return items, q.TimeoutMS, nil
}

// parseDatasetQueryMany decodes and validates a POST
// /v1/datasets/{id}/querymany body into its items and the batch's
// timeout_ms. Structural failures anywhere in the batch fail the whole
// request with a 400 — a malformed batch is a client bug, unlike
// per-item runtime failures (rank out of range, pool timeout), which
// the handler reports per item. Items align with the queries.
func parseDatasetQueryMany(body []byte, lim Limits) ([]queryItem, int64, error) {
	lim = lim.withDefaults()
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, 0, parseErrf(parselclient.CodeTooLarge,
			"body is %d bytes, limit %d", len(body), lim.MaxBodyBytes)
	}
	var qm parselclient.DatasetQueryMany
	if err := json.Unmarshal(body, &qm); err != nil {
		return nil, 0, parseErrf(parselclient.CodeBadJSON, "decode querymany: %v", err)
	}
	if len(qm.Queries) == 0 {
		return nil, 0, parseErrf(parselclient.CodeMissingField, `"queries" must be a non-empty array`)
	}
	if len(qm.Queries) > lim.MaxBatch {
		return nil, 0, parseErrf(parselclient.CodeLimitExceeded,
			"%d queries, limit %d per batch", len(qm.Queries), lim.MaxBatch)
	}
	if err := checkTimeout(qm.TimeoutMS); err != nil {
		return nil, 0, err
	}
	items := make([]queryItem, len(qm.Queries))
	for i := range qm.Queries {
		q := &qm.Queries[i]
		if q.TimeoutMS != 0 {
			return nil, 0, parseErrf(parselclient.CodeLimitExceeded,
				"queries[%d]: timeout_ms must be 0 — the batch shares one admission deadline", i)
		}
		if q.Kind == "" {
			return nil, 0, parseErrf(parselclient.CodeMissingField,
				`queries[%d]: "kind" is required`, i)
		}
		ep, ok := kinds[q.Kind]
		if !ok {
			return nil, 0, parseErrf(parselclient.CodeBadKind,
				"queries[%d]: unknown query kind %q (want select, median, quantile, quantiles, ranks, topk, bottomk or summary)", i, q.Kind)
		}
		if err := checkKeyKind(q.KeyKind); err != nil {
			pe := err.(*ParseError)
			return nil, 0, parseErrf(pe.Code, "queries[%d]: %s", i, pe.Msg)
		}
		if err := checkParams(ep, queryParams{
			rank: q.Rank, ranks: q.Ranks, q: q.Q, qs: q.Qs, k: q.K,
		}, lim); err != nil {
			pe := err.(*ParseError)
			return nil, 0, parseErrf(pe.Code, "queries[%d]: %s", i, pe.Msg)
		}
		items[i] = queryItem{ep: ep, q: *q}
	}
	return items, qm.TimeoutMS, nil
}

// maxDatasetIDLen bounds dataset ids on the wire.
const maxDatasetIDLen = 128

// checkDatasetID validates a dataset id from the URL: 1..128 characters
// out of [A-Za-z0-9._-], not beginning with a dot — "." and ".." are
// path navigation, and a leading dot would produce hidden-file snapshot
// names.
func checkDatasetID(id string) error {
	if id == "" {
		return parseErrf(parselclient.CodeBadDatasetID, "empty dataset id")
	}
	if id[0] == '.' {
		return parseErrf(parselclient.CodeBadDatasetID,
			"dataset id %q begins with a dot", id)
	}
	if len(id) > maxDatasetIDLen {
		return parseErrf(parselclient.CodeBadDatasetID,
			"dataset id is %d characters, limit %d", len(id), maxDatasetIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return parseErrf(parselclient.CodeBadDatasetID,
				"dataset id carries %q; allowed characters are [A-Za-z0-9._-]", c)
		}
	}
	return nil
}

// checkQuantile rejects quantiles the engine would also reject, plus
// non-finite values that cannot even arrive through valid JSON (the
// decoder is also exercised on adversarial bytes directly).
func checkQuantile(q float64) error {
	if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 || q > 1 {
		return parseErrf(parselclient.CodeBadQuantile, "quantile %v outside [0,1]", q)
	}
	return nil
}
