package httpmw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// raceScorer maps one tracked attribute so the concurrent path crosses the
// tracker on every decision.
type raceScorer struct{}

func (raceScorer) Score(attrs map[string]float64) (float64, error) {
	rate := attrs[features.AttrRequestRate]
	if rate > 5 {
		return 5, nil
	}
	return rate, nil
}

// TestMiddlewareTransportConcurrentClients drives the full HTTP protocol —
// challenge, client-side solve via the Transport, redemption, behavior
// tracking — from many concurrent clients with distinct IPs. It exists to
// run under -race: the middleware, framework, tracker, and replay cache
// all see genuine cross-goroutine contention here, end to end.
func TestMiddlewareTransportConcurrentClients(t *testing.T) {
	key := []byte("race-test-hmac-key-32-bytes-long")
	tracker, err := features.NewTracker(features.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	store, err := features.NewMapStore(map[string]float64{"static": 1})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := features.NewCombined(store, tracker)
	if err != nil {
		t.Fatal(err)
	}
	// Low difficulties keep real solving cheap; the crypto is identical.
	pol, err := policy.NewClamp(policy.Policy1(), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(
		core.WithKey(key),
		core.WithScorer(raceScorer{}),
		core.WithPolicy(pol),
		core.WithSource(combined),
		core.WithTracker(tracker),
	)
	if err != nil {
		t.Fatal(err)
	}

	var served atomic.Uint64
	mw, err := NewMiddleware(fw, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprint(w, "ok")
	}), WithTrustedIPHeader("X-Race-IP"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mw)
	defer srv.Close()

	const (
		clients  = 16
		requests = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client gets its own Transport (solver, token cache) and
			// identity; the server side is the shared contended state.
			client := &http.Client{
				Transport: &headerRoundTripper{
					header: "X-Race-IP",
					value:  fmt.Sprintf("198.51.100.%d", c+1),
					next:   NewTransport(),
				},
				Timeout: 30 * time.Second,
			}
			for i := 0; i < requests; i++ {
				resp, err := client.Get(srv.URL + fmt.Sprintf("/path/%d", i%3))
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", c, i, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %d", c, i, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := served.Load(); got != clients*requests {
		t.Errorf("served %d requests, want %d", got, clients*requests)
	}
	if tracked := tracker.Tracked(); tracked != clients {
		t.Errorf("tracker holds %d IPs, want %d", tracked, clients)
	}
}

// headerRoundTripper stamps the client identity header under the PoW
// transport, so the solve-retry carries it too.
type headerRoundTripper struct {
	header, value string
	next          http.RoundTripper
}

func (h *headerRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header.Set(h.header, h.value)
	return h.next.RoundTrip(req)
}

// routerFunc adapts a function to Router.
type routerFunc func(path, tenant string) *core.Framework

func (f routerFunc) Route(path, tenant string) *core.Framework { return f(path, tenant) }

// TestBatchHandlerConcurrent stresses the handler's pooled scratch: many
// callers post batches at once over real connections, each with its own
// addresses and a mix of decisions, redemptions, forged and malformed
// tokens, and items routed to a second pipeline. A scratch buffer shared
// between two calls would show as a result out of order, a count that
// does not match, or a challenge bound to another caller's address.
func TestBatchHandlerConcurrent(t *testing.T) {
	tracker, err := features.NewTracker(features.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	store, err := features.NewMapStore(map[string]float64{"static": 1})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := features.NewCombined(store, tracker)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewClamp(policy.Policy1(), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := core.New(
		core.WithKey(testKey),
		core.WithScorer(raceScorer{}),
		core.WithPolicy(pol),
		core.WithSource(combined),
		core.WithTracker(tracker),
	)
	if err != nil {
		t.Fatal(err)
	}
	open := newTestFramework(t, 0, core.WithBypassBelow(1))
	h, err := NewRoutedBatchHandler(routerFunc(func(path, _ string) *core.Framework {
		if strings.HasPrefix(path, "/open") {
			return open
		}
		return strict
	}))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	const (
		callers = 8
		rounds  = 4
		decides = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := batchCaller(srv.URL, c, rounds, decides); err != nil {
				errs <- fmt.Errorf("caller %d: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// batchCaller runs one caller's rounds. Each round asks for fresh
// decisions, sends one item down the bypassed route and one malformed
// token, and redeems the previous round's first challenge — once solved,
// once forged.
func batchCaller(url string, c, rounds, decides int) error {
	var pending []BatchRequest // redemptions for the next round
	var want []string          // expected status per item, "" for a challenge
	for r := 0; r < rounds; r++ {
		var reqs []BatchRequest
		want = want[:0]
		for k := 0; k < decides; k++ {
			reqs = append(reqs, BatchRequest{IP: fmt.Sprintf("10.%d.%d.%d", c, r, k), Path: "/a"})
			want = append(want, BatchChallenge)
		}
		reqs = append(reqs,
			BatchRequest{IP: fmt.Sprintf("10.%d.%d.200", c, r), Path: "/open/x"},
			BatchRequest{IP: fmt.Sprintf("10.%d.%d.201", c, r), Solution: "garbage.zz"})
		want = append(want, BatchPass, BatchRejected)
		for k, p := range pending {
			reqs = append(reqs, p)
			if k == 0 {
				want = append(want, BatchPass)
			} else {
				want = append(want, "rechallenge")
			}
		}

		body, err := json.Marshal(batchRequestBody{Requests: reqs})
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var out batchResultBody
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("round %d: status %d, %v", r, resp.StatusCode, err)
		}
		if len(out.Results) != len(reqs) {
			return fmt.Errorf("round %d: %d results for %d items", r, len(out.Results), len(reqs))
		}

		pending = pending[:0]
		for i, res := range out.Results {
			switch want[i] {
			case BatchPass, BatchRejected:
				if res.Status != want[i] || res.Challenge != "" {
					return fmt.Errorf("round %d item %d (%s): %+v, want %s", r, i, reqs[i].IP, res, want[i])
				}
				continue
			case "rechallenge":
				if res.Error != "solution rejected" {
					return fmt.Errorf("round %d item %d (%s): %+v, want a rejection note", r, i, reqs[i].IP, res)
				}
			}
			if res.Status != BatchChallenge {
				return fmt.Errorf("round %d item %d (%s): %+v, want a challenge", r, i, reqs[i].IP, res)
			}
			var ch puzzle.Challenge
			if err := ch.UnmarshalText([]byte(res.Challenge)); err != nil {
				return fmt.Errorf("round %d item %d: %w", r, i, err)
			}
			if ch.Binding != reqs[i].IP || ch.Difficulty != res.Difficulty {
				return fmt.Errorf("round %d item %d: challenge for %q at %d, item %q at %d",
					r, i, ch.Binding, ch.Difficulty, reqs[i].IP, res.Difficulty)
			}
			if i == 0 {
				sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
				if err != nil {
					return err
				}
				good, err := sol.MarshalText()
				if err != nil {
					return err
				}
				sol.Challenge.Tag[0] ^= 0xFF
				forged, err := sol.MarshalText()
				if err != nil {
					return err
				}
				pending = append(pending,
					BatchRequest{IP: reqs[i].IP, Solution: string(good)},
					BatchRequest{IP: reqs[i].IP, Solution: string(forged), Path: "/a"})
			}
		}
	}
	return nil
}
