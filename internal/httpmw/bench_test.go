package httpmw

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
)

// BenchmarkMiddlewareChallenge measures the server-side cost of the full
// challenge path: IP extraction, Decide, encoding, and the 428 response.
func BenchmarkMiddlewareChallenge(b *testing.B) {
	store, err := features.NewMapStore(map[string]float64{"threat": 6})
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.New(
		core.WithKey(testKey),
		core.WithScorer(attrScorer{}),
		core.WithPolicy(policy.Policy2()),
		core.WithSource(store),
	)
	if err != nil {
		b.Fatal(err)
	}
	mw, err := NewMiddleware(fw, okHandler())
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/api", nil)
	req.RemoteAddr = "192.0.2.10:4242"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		mw.ServeHTTP(rec, req)
		if rec.Code != StatusChallenge {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

// BenchmarkBatchHandler measures one routed POST /batch of 128 decide-only
// items in the shape proxies send: decode, route, observe, decide, and
// the encoded reply.
func BenchmarkBatchHandler(b *testing.B) {
	store, err := features.NewMapStore(map[string]float64{"threat": 6})
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.New(
		core.WithKey(testKey),
		core.WithScorer(attrScorer{}),
		core.WithPolicy(policy.Policy2()),
		core.WithSource(store),
	)
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewRoutedBatchHandler(mapRouter{fallback: fw})
	if err != nil {
		b.Fatal(err)
	}
	doc := canonicalBatch(128)
	body := bytes.NewReader(doc)
	req := httptest.NewRequest(http.MethodPost, "/batch", body)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(doc)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status = %d", w.code)
		}
	}
}
