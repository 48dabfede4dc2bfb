package httpmw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"aipow/internal/core"
	"aipow/internal/puzzle"
)

// canonicalBatch renders n decide-only items in the shape proxies send,
// with distinct addresses and a shared path.
func canonicalBatch(n int) []byte {
	b := []byte(`{"requests":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"ip":"198.51.%d.%d","path":"/"}`, i/256, i%256)
	}
	return append(b, "]}"...)
}

// TestScanBatchShapes pins which documents take the fast path. Accepted
// ones must decode exactly as encoding/json decodes them; everything else
// must be deferred, never rejected.
func TestScanBatchShapes(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"requests":[{"ip":"198.51.100.7","path":"/"}]}`, true},
		{" \t{ \"requests\" :\n[ {\"failed\":true,\"solution\":\"a.1\",\"tenant\":\"t\",\"path\":\"/p\",\"ip\":\"x\"} ,{} ] } \r\n", true},
		{`{"requests":[{"ip":"a","failed":false},{"ip":"b","path":"/p","tenant":"t"},{"ip":"c","path":"/p","tenant":"t"}]}`, true},
		{`{"requests":[{"ip":""}]}`, true},
		{`{"requests":[{"ip":"a~\u007f"}]}`, false},
		{"{\"requests\":[{\"ip\":\"a\x7f\"}]}", true},
		{`{"requests":[{"IP":"a"}]}`, false},
		{`{"requests":[{"ip":"a","ip":"b","failed":true,"failed":false}]}`, true},
		{`{"requests":[{"ip":null}]}`, false},
		{`{"requests":[{"ip":"a","failed":null}]}`, false},
		{`{"requests":[{"ip":"a","failed":1}]}`, false},
		{`{"requests":[{"ip":"a"}]}x`, false},
		{`{"requests":[{"ip":"a"}],"x":1}`, false},
		{`{"requests":[]}`, false},
		{`{"requests":null}`, false},
		{"{\"requests\":[{\"ip\":\"caf\xc3\xa9\"}]}", false},
		{"{\"requests\":[{\"ip\":\"a\tb\"}]}", false},
		{`{"requests":[{"ip":"a"},]}`, false},
		{`{"requests":[{"ip":"a"}`, false},
		{``, false},
	} {
		got, ok := scanBatch([]byte(tc.body), nil, DefaultBatchLimit)
		if ok != tc.fast {
			t.Errorf("scanBatch(%q) fast = %v, want %v", tc.body, ok, tc.fast)
			continue
		}
		if !ok {
			continue
		}
		var doc batchRequestBody
		if err := json.Unmarshal([]byte(tc.body), &doc); err != nil {
			t.Errorf("scanBatch accepted %q, encoding/json: %v", tc.body, err)
		} else if !reflect.DeepEqual(got, doc.Requests) {
			t.Errorf("scanBatch(%q) = %+v, encoding/json %+v", tc.body, got, doc.Requests)
		}
	}
	if _, ok := scanBatch(canonicalBatch(3), nil, 2); ok {
		t.Error("scanBatch took a batch over its limit")
	}
	if _, ok := scanBatch(canonicalBatch(2), nil, 2); !ok {
		t.Error("scanBatch deferred a batch at its limit")
	}
}

// encodeJSON is the reference encoder: what writeJSON sends for results.
func encodeJSON(t *testing.T, results []BatchResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(batchResultBody{Results: results}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchResultsWireIdentical holds appendResults to json.Encoder byte
// for byte: every status × difficulty × error × challenge combination,
// hostile error strings, and challenge tokens encoded in place.
func TestBatchResultsWireIdentical(t *testing.T) {
	var combos []BatchResult
	for _, status := range []string{BatchPass, BatchChallenge, BatchRejected, ""} {
		for _, d := range []int{0, 7, -1} {
			for _, msg := range []string{"", "solution rejected", "malformed solution token"} {
				for _, tok := range []string{"", "QUlQb1cvMQAB-_x"} {
					combos = append(combos, BatchResult{Status: status, Challenge: tok, Difficulty: d, Error: msg})
				}
			}
		}
	}
	for i := range combos {
		one := combos[i : i+1]
		if got, _ := appendResults(nil, one, nil); !bytes.Equal(got, encodeJSON(t, one)) {
			t.Errorf("%+v:\n got %s\nwant %s", one[0], got, encodeJSON(t, one))
		}
	}
	if got, _ := appendResults(nil, combos, nil); !bytes.Equal(got, encodeJSON(t, combos)) {
		t.Errorf("all combinations differ:\n got %s\nwant %s", got, encodeJSON(t, combos))
	}

	// Error strings drawn from the characters encoding/json treats
	// specially: HTML, quotes, control bytes, DEL, U+2028/9, multi-byte
	// runes, and bytes that are not UTF-8.
	alphabet := []string{"a", "Z", " ", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\n", "\t", "\b", "\f", "\x7f",
		"\u2028", "\u2029", "é", "日", "\xff", "\xc3", "\xe2\x80", "\ufffd", "/"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		r := []BatchResult{{Status: BatchChallenge, Challenge: sb.String(), Difficulty: i, Error: sb.String()}}
		if got, _ := appendResults(nil, r, nil); !bytes.Equal(got, encodeJSON(t, r)) {
			t.Fatalf("error %q:\n got %s\nwant %s", sb.String(), got, encodeJSON(t, r))
		}
	}

	// Tokens encoded in place match MarshalText's, v1 and v2 alike.
	fw := newTestFramework(t, 5)
	balloon, err := puzzle.NewBalloon(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw2 := newTestFramework(t, 5, core.WithPuzzleBackend(balloon))
	var results, want []BatchResult
	var chals []puzzle.Challenge
	for i, f := range []*core.Framework{fw, fw2, fw} {
		dec, err := f.Decide(core.RequestContext{IP: fmt.Sprintf("203.0.113.%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		tok, err := dec.Challenge.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		res := BatchResult{Status: BatchChallenge, Difficulty: dec.Difficulty}
		results = append(results, res, BatchResult{Status: BatchPass})
		res.Challenge = string(tok)
		want = append(want, res, BatchResult{Status: BatchPass})
		chals = append(chals, dec.Challenge, puzzle.Challenge{})
	}
	if got, err := appendResults(nil, results, chals); err != nil || !bytes.Equal(got, encodeJSON(t, want)) {
		t.Fatalf("in-place tokens (%v):\n got %s\nwant %s", err, got, encodeJSON(t, want))
	}
}

// FuzzBatchDecode checks the /batch decoder against encoding/json: the
// fast scanner either defers or decodes exactly what json.Decoder does,
// and the whole handler answers every body without panicking.
func FuzzBatchDecode(f *testing.F) {
	f.Add(canonicalBatch(4))
	f.Add([]byte(`{"requests":[{"ip":"198.51.100.7","solution":"x.1","failed":true}]}`))
	fw := newTestFramework(f, 5)
	h, err := NewBatchHandler(fw)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var doc batchRequestBody
		jsonErr := json.NewDecoder(bytes.NewReader(body)).Decode(&doc)
		if got, ok := scanBatch(body, nil, DefaultBatchLimit); ok {
			if jsonErr != nil {
				t.Fatalf("scanBatch accepted %q, encoding/json: %v", body, jsonErr)
			}
			if !reflect.DeepEqual(got, doc.Requests) {
				t.Fatalf("scanBatch(%q) = %+v, encoding/json %+v", body, got, doc.Requests)
			}
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var out batchResultBody
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Results) != len(doc.Requests) {
				t.Fatalf("200 for %q: %d results for %d items (%v)", body, len(out.Results), len(doc.Requests), err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusInternalServerError:
			// An address longer than a challenge binding may be (255
			// bytes) fails issuance, which the handler reports as 500.
			if !hasLongIP(doc.Requests) {
				t.Fatalf("500 for %q: %s", body, rec.Body.String())
			}
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
	})
}

func hasLongIP(reqs []BatchRequest) bool {
	for _, r := range reqs {
		if len(r.IP) > 255 {
			return true
		}
	}
	return false
}

// TestBatchHandlerDefersLongBodies feeds the decoder a body larger than
// the fast path reads, in small chunks: encoding/json then decodes the
// stream, and trailing bytes after the document stay ignored.
func TestBatchHandlerDefersLongBodies(t *testing.T) {
	fw := newTestFramework(t, 0, core.WithBypassBelow(1))
	h, err := NewBatchHandler(fw)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(`{"requests":[{"ip":"203.0.113.9"}]}`), bytes.Repeat([]byte(" "), maxFastBody)...)
	body = append(body, "trailing"...)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", io.LimitReader(bytes.NewReader(body), int64(len(body)))))
	if rec.Code != http.StatusOK || rec.Body.String() != `{"results":[{"status":"pass"}]}`+"\n" {
		t.Fatalf("long body → %d %q", rec.Code, rec.Body.String())
	}
}

// discardWriter is a reusable ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// TestBatchHandlerAllocs pins the handler's allocations: a warm
// 128-item decide-only batch allocates the decoded addresses and a small
// constant, nothing per item beyond that.
func TestBatchHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a build without -race")
	}
	fw := newTestFramework(t, 5)
	h, err := NewBatchHandler(fw)
	if err != nil {
		t.Fatal(err)
	}
	const items = 128
	doc := canonicalBatch(items)
	body := bytes.NewReader(doc)
	req := httptest.NewRequest(http.MethodPost, "/batch", body)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		body.Reset(doc)
		h.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
	if n := testing.AllocsPerRun(50, serve); n > items+16 {
		t.Fatalf("%v allocs per %d-item batch, want ≤ %d", n, items, items+16)
	}
}
