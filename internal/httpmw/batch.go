package httpmw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/puzzle"
)

// BatchRequest is one item of a batch decide/verify call: a request an
// upstream proxy or ingestion pipeline holds on behalf of a client. With
// a Solution it is a redemption attempt; without one it asks for a
// decision (bypass or challenge).
type BatchRequest struct {
	// IP identifies the client (required).
	IP string `json:"ip"`

	// Path is the requested path, fed to the behavior tracker and — in
	// routed mode — to pipeline routing.
	Path string `json:"path,omitempty"`

	// Tenant is the routing tenant key (routed mode only).
	Tenant string `json:"tenant,omitempty"`

	// Solution is a solution token to redeem (the X-PoW-Solution value).
	Solution string `json:"solution,omitempty"`

	// Failed marks the request as an application-level failure (4xx) for
	// behavioral tracking.
	Failed bool `json:"failed,omitempty"`
}

// BatchResult is the per-item outcome, in request order.
type BatchResult struct {
	// Status is "pass" (serve the resource: verified solution or
	// bypassed), "challenge" (solve the attached puzzle first), or
	// "rejected" (malformed input).
	Status string `json:"status"`

	// Challenge and Difficulty carry the puzzle when Status is
	// "challenge".
	Challenge  string `json:"challenge,omitempty"`
	Difficulty int    `json:"difficulty,omitempty"`

	// Error explains a rejection or why a presented solution earned a
	// fresh challenge instead of a pass.
	Error string `json:"error,omitempty"`
}

// batchRequestBody and batchResultBody are the endpoint's JSON envelopes.
type batchRequestBody struct {
	Requests []BatchRequest `json:"requests"`
}

type batchResultBody struct {
	Results []BatchResult `json:"results"`
}

// Batch result statuses.
const (
	BatchPass      = "pass"
	BatchChallenge = "challenge"
	BatchRejected  = "rejected"
)

// DefaultBatchLimit bounds how many items one batch call may carry.
const DefaultBatchLimit = 1024

// BatchHandler is the batch front door: one POST carries many requests,
// and the framework's batch entry points (ObserveBatch, DecideBatch,
// VerifyBatch) amortize the per-request fixed costs across them. In
// routed mode items are grouped by their routed pipeline first, so each
// framework sees one batch. Semantics per item match the Middleware flow:
// a valid solution passes, an invalid one earns a fresh challenge, and
// everything is observed by the behavior tracker exactly once.
//
// The wire codec costs no reflection on the common case. A body of the
// shape proxies send — {"requests":[…]} with the lower-case item keys,
// ASCII string values without escapes, and nothing after the document —
// is parsed by a hand-written scanner (scanBatch). Any other body, and
// any body over 1 MiB, goes to encoding/json over the same bytes, so the
// language the handler accepts and every error it writes are still the
// standard library's: the scanner never rejects, it only defers. The
// response is appended straight into a pooled buffer, challenge tokens
// encoded in place, with the bytes json.Encoder writes for
// batchResultBody. Per-call scratch comes from a pool.
type BatchHandler struct {
	fw     *core.Framework // single-pipeline mode; nil when routed
	router Router          // per-route mode; nil when single
	now    func() time.Time
	limit  int
}

// BatchOption customizes a BatchHandler.
type BatchOption func(*BatchHandler)

// WithBatchClock injects the handler's time source, for tests.
func WithBatchClock(now func() time.Time) BatchOption {
	return func(h *BatchHandler) { h.now = now }
}

// WithBatchLimit bounds the items per call (default DefaultBatchLimit).
func WithBatchLimit(n int) BatchOption {
	return func(h *BatchHandler) { h.limit = n }
}

// NewBatchHandler serves batch decide/verify calls against one fixed
// framework.
func NewBatchHandler(fw *core.Framework, opts ...BatchOption) (*BatchHandler, error) {
	if fw == nil {
		return nil, fmt.Errorf("httpmw: batch handler requires a framework")
	}
	return newBatchHandler(fw, nil, opts)
}

// NewRoutedBatchHandler serves batch calls with per-item pipeline routing
// (path prefix and tenant key, like NewRoutedMiddleware).
func NewRoutedBatchHandler(router Router, opts ...BatchOption) (*BatchHandler, error) {
	if router == nil {
		return nil, fmt.Errorf("httpmw: routed batch handler requires a router")
	}
	return newBatchHandler(nil, router, opts)
}

func newBatchHandler(fw *core.Framework, router Router, opts []BatchOption) (*BatchHandler, error) {
	h := &BatchHandler{fw: fw, router: router, now: time.Now, limit: DefaultBatchLimit}
	for _, opt := range opts {
		opt(h)
	}
	if h.limit <= 0 {
		return nil, fmt.Errorf("httpmw: non-positive batch limit %d", h.limit)
	}
	return h, nil
}

// ServeHTTP implements http.Handler: POST a batchRequestBody, receive a
// batchResultBody with one result per request, in order.
func (h *BatchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST a batch document"})
		return
	}
	sc := batchPool.Get().(*batchScratch)
	defer sc.release()
	reqs, err := sc.decode(r.Body, h.limit)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed batch document: " + err.Error()})
		return
	}
	switch {
	case len(reqs) == 0:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	case len(reqs) > h.limit:
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(reqs), h.limit)})
		return
	}
	for i := range reqs {
		if reqs[i].IP == "" {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("request %d without ip", i)})
			return
		}
	}

	sc.reset(len(reqs))
	for _, group := range h.group(sc, reqs) {
		if err := h.serveGroup(sc, group.fw, reqs, group.idx); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
	}
	out, err := appendResults(sc.out[:0], sc.results, sc.chals)
	sc.out = out
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "challenge encoding failed: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// Pooled scratch is dropped rather than kept once one call has grown it
// past these bounds, so a single huge batch does not pin its memory.
const (
	maxPooledBytes = 1 << 20
	maxPooledItems = 4 * DefaultBatchLimit
)

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchScratch is one call's working memory: the body and response
// buffers, the decoded items, per-item outcomes, and the per-group
// slices handed to the framework's batch entry points.
type batchScratch struct {
	body, out []byte
	reqs      []BatchRequest

	// Per item, indexed like the request: the result, its challenge (read
	// only where the result's Status is BatchChallenge), and its state.
	results []BatchResult
	chals   []puzzle.Challenge
	state   []itemState

	groups   []fwGroup
	sols     []puzzle.Solution
	solIdx   []int
	bindings []string
	verdicts []error
	obs      []features.RequestInfo
	decIdx   []int
	dreqs    []core.RequestContext
	decs     []core.Decision
}

// itemState tracks an item with a solution through one call.
type itemState uint8

const (
	itemMalformed itemState = 1 + iota // the token did not decode
	itemRejected                       // the solution failed verification
)

// decode reads the request body and parses it: with scanBatch when the
// whole body fits in the pooled buffer and has the canonical shape, and
// with encoding/json over the same stream otherwise.
func (sc *batchScratch) decode(body io.Reader, limit int) ([]BatchRequest, error) {
	var rest io.Reader
	sc.body, rest = readBody(sc.body, body)
	if rest == nil {
		reqs, ok := scanBatch(sc.body, sc.reqs[:0], limit)
		sc.reqs = reqs
		if ok {
			return reqs, nil
		}
	}
	src := io.Reader(bytes.NewReader(sc.body))
	if rest != nil {
		src = io.MultiReader(src, rest)
	}
	var doc batchRequestBody
	if err := json.NewDecoder(src).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Requests, nil
}

// reset sizes the per-item slices for n items. Every result is written
// before it is read; the state starts clear.
func (sc *batchScratch) reset(n int) {
	sc.results = grow(sc.results, n)
	sc.chals = grow(sc.chals, n)
	sc.state = grow(sc.state, n)
	clear(sc.state)
}

// release returns sc to the pool unless it outgrew the pooling bounds.
func (sc *batchScratch) release() {
	if cap(sc.body) > maxPooledBytes || cap(sc.out) > maxPooledBytes || cap(sc.results) > maxPooledItems {
		return
	}
	batchPool.Put(sc)
}

// grow returns s resized to n, reusing its backing array when it can.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fwGroup is the index set of one framework's items.
type fwGroup struct {
	fw  *core.Framework
	idx []int
}

// group partitions the batch by serving framework (a single group in
// single-pipeline mode), in order of first appearance and preserving
// request order within each group. A deployment has few pipelines, so
// the group is found by a linear scan.
func (h *BatchHandler) group(sc *batchScratch, reqs []BatchRequest) []fwGroup {
	groups := sc.groups[:0]
	for i := range reqs {
		fw := h.fw
		if h.router != nil {
			fw = h.router.Route(reqs[i].Path, reqs[i].Tenant)
		}
		g := 0
		for g < len(groups) && groups[g].fw != fw {
			g++
		}
		if g == len(groups) {
			if g < cap(groups) {
				groups = groups[:g+1]
				groups[g].fw, groups[g].idx = fw, groups[g].idx[:0]
			} else {
				groups = append(groups, fwGroup{fw: fw})
			}
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	sc.groups = groups
	return groups
}

// serveGroup runs one framework's share of the batch: observe everything,
// verify the presented solutions, then decide the rest — including items
// whose solution was rejected, which earn a fresh challenge exactly like
// the Middleware flow.
func (h *BatchHandler) serveGroup(sc *batchScratch, fw *core.Framework, reqs []BatchRequest, idx []int) error {
	now := h.now()
	results, state := sc.results, sc.state

	// One observation per item. A malformed solution token is a failed
	// presentation — behavioral signal, like the middleware's flow.
	sols, solIdx := sc.sols[:0], sc.solIdx[:0]
	for _, i := range idx {
		if reqs[i].Solution == "" {
			continue
		}
		var sol puzzle.Solution
		if err := sol.UnmarshalText([]byte(reqs[i].Solution)); err != nil {
			state[i] = itemMalformed
			results[i] = BatchResult{Status: BatchRejected, Error: "malformed solution token"}
			continue
		}
		sols = append(sols, sol)
		solIdx = append(solIdx, i)
	}
	sc.sols, sc.solIdx = sols, solIdx

	obs := sc.obs[:0]
	for _, i := range idx {
		obs = append(obs, features.RequestInfo{
			IP:     reqs[i].IP,
			Path:   reqs[i].Path,
			At:     now,
			Failed: reqs[i].Failed || state[i] == itemMalformed,
		})
	}
	sc.obs = obs
	// Best-effort, like Middleware.observe: tracking must not block serving.
	_ = fw.ObserveBatch(obs)

	if len(sols) > 0 {
		bindings := sc.bindings[:0]
		for _, i := range solIdx {
			bindings = append(bindings, reqs[i].IP)
		}
		sc.bindings = bindings
		verdicts, err := fw.VerifyBatch(sols, bindings, sc.verdicts)
		if err != nil {
			return fmt.Errorf("verify batch: %w", err)
		}
		sc.verdicts = verdicts
		for k, i := range solIdx {
			if verdicts[k] == nil {
				results[i] = BatchResult{Status: BatchPass}
			} else {
				state[i] = itemRejected
			}
		}
	}

	// Items needing a decision, in request order: plain requests, and
	// rejected solutions, which each earn a fresh challenge.
	decIdx := sc.decIdx[:0]
	for _, i := range idx {
		if reqs[i].Solution == "" || state[i] == itemRejected {
			decIdx = append(decIdx, i)
		}
	}
	sc.decIdx = decIdx
	if len(decIdx) == 0 {
		return nil
	}

	dreqs := sc.dreqs[:0]
	for _, i := range decIdx {
		dreqs = append(dreqs, core.RequestContext{IP: reqs[i].IP})
	}
	sc.dreqs = dreqs
	decs, err := fw.DecideBatch(dreqs, sc.decs)
	if err != nil {
		return fmt.Errorf("decide batch: %w", err)
	}
	sc.decs = decs
	for k, i := range decIdx {
		rejectedMsg := ""
		if reqs[i].Solution != "" {
			rejectedMsg = "solution rejected"
		}
		if decs[k].Bypassed {
			results[i] = BatchResult{Status: BatchPass, Error: rejectedMsg}
			continue
		}
		// The token is encoded straight into the response (appendResults).
		sc.chals[i] = decs[k].Challenge
		results[i] = BatchResult{
			Status:     BatchChallenge,
			Difficulty: decs[k].Difficulty,
			Error:      rejectedMsg,
		}
	}
	return nil
}
