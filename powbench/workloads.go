package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"aipow/internal/httpmw"
	"aipow/internal/puzzle"
)

// policy2 maps a score in [0, 10] to difficulty score+5, so every issued
// challenge lies in this range.
const policyLo, policyHi = 5, 15

// tally counts the outcomes the generator saw. Each worker keeps its own;
// they are merged after the phase.
type tally struct {
	attempted, failed int64 // operations (decisions on batch-churn)
	wrong             int64 // wrong outcomes: the correctness failures
	chanceValid       int64 // forged nonces that happened to meet the difficulty
	challenged        map[string]int64
	passed            map[string]int64
	workMal, workBen  float64 // sums of 2^difficulty issued by label
	nMal, nBen        int64
	attempts, solves  uint64 // client-side solving in set-up
	errs              []string
}

func newTally() *tally {
	return &tally{challenged: map[string]int64{}, passed: map[string]int64{}}
}

// fail records a failed operation; wrong marks a wrong outcome rather than
// a transport error or timeout.
func (t *tally) fail(wrong bool, format string, args ...any) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// issued records the difficulty of a challenge issued to a labelled IP.
func (t *tally) issued(malicious bool, difficulty int) {
	w := math.Ldexp(1, difficulty)
	if malicious {
		t.workMal += w
		t.nMal++
	} else {
		t.workBen += w
		t.nBen++
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.chanceValid += o.chanceValid
	for k, v := range o.challenged {
		t.challenged[k] += v
	}
	for k, v := range o.passed {
		t.passed[k] += v
	}
	t.workMal += o.workMal
	t.workBen += o.workBen
	t.nMal += o.nMal
	t.nBen += o.nBen
	t.attempts += o.attempts
	t.solves += o.solves
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// workRatio is mean 2^difficulty issued to malicious-labelled IPs over the
// mean issued to benign-labelled IPs.
func (t *tally) workRatio() float64 {
	if t.nMal == 0 || t.nBen == 0 {
		return 0
	}
	return (t.workMal / float64(t.nMal)) / (t.workBen / float64(t.nBen))
}

// checkChallenge decodes a challenge token the server issued to ip and
// checks its binding, its difficulty range and its puzzle backend.
func checkChallenge(token string, ip string, balloon bool) (puzzle.Challenge, error) {
	var ch puzzle.Challenge
	if err := ch.UnmarshalText([]byte(token)); err != nil {
		return ch, fmt.Errorf("challenge token does not decode: %v", err)
	}
	if ch.Binding != ip {
		return ch, fmt.Errorf("challenge bound to %q, sent from %q", ch.Binding, ip)
	}
	if ch.Difficulty < policyLo || ch.Difficulty > policyHi {
		return ch, fmt.Errorf("difficulty %d outside policy2's [%d, %d]", ch.Difficulty, policyLo, policyHi)
	}
	if isBalloon := ch.Version >= puzzle.Version2 && ch.Backend == puzzle.BackendBalloon; isBalloon != balloon {
		return ch, fmt.Errorf("challenge backend %v, want balloon=%v", ch.Backend, balloon)
	}
	return ch, nil
}

// get sends one protected request as client ip, with an optional solution.
func get(c *conn, path, ip, solution string) (int, http.Header, error) {
	hdrs := []string{"X-Real-IP", ip}
	if solution != "" {
		hdrs = append(hdrs, httpmw.HeaderSolution, solution)
	}
	resp, _, err := c.do(http.MethodGet, path, nil, hdrs...)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, nil
}

// challengeOf answers one challenge-bearing reply: it checks the 428, its
// token and the mirrored difficulty header.
func challengeOf(status int, h http.Header, ip string, balloon bool) (puzzle.Challenge, error) {
	if status != httpmw.StatusChallenge {
		return puzzle.Challenge{}, fmt.Errorf("status %d, want 428", status)
	}
	ch, err := checkChallenge(h.Get(httpmw.HeaderChallenge), ip, balloon)
	if err != nil {
		return ch, err
	}
	if d, err := strconv.Atoi(h.Get(httpmw.HeaderDifficulty)); err != nil || d != ch.Difficulty {
		return ch, fmt.Errorf("difficulty header %q disagrees with token difficulty %d", h.Get(httpmw.HeaderDifficulty), ch.Difficulty)
	}
	return ch, nil
}

// prepared is the set-up half of a single-request stream: for each
// operation that needs one, the token it presents.
type prepared struct {
	tokens []string           // redeem and forged operations
	chals  []puzzle.Challenge // forged operations: the challenge behind the token
}

// fetchChallenges fetches, in set-up, one challenge per redeem or forged
// operation of ops: it solves the hashcash ones and forges the balloon
// ones with the operation's garbage nonce. fetch(w, ip, path) returns a
// challenge for worker w: the server over HTTP in the e2e run, an
// in-process framework in the traced replay.
func fetchChallenges(p *plan, n int, fetch func(w int, ip, path string) (puzzle.Challenge, error), t *tally) (*prepared, error) {
	prep := &prepared{tokens: make([]string, n), chals: make([]puzzle.Challenge, n)}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solver := puzzle.NewSolver()
			local := newTally()
			defer func() { mu.Lock(); t.merge(local); mu.Unlock() }()
			for i := w; i < n; i += conns {
				o := p.ops[i]
				if o.kind == opChallenge {
					continue
				}
				ip := p.feed[o.ip].ip
				path := "/"
				if o.kind == opForged {
					path = "/login"
				}
				ch, err := fetch(w, ip, path)
				var sol puzzle.Solution
				if err == nil && o.kind == opForged {
					sol = puzzle.Solution{Challenge: ch, Nonce: o.nonce}
				} else if err == nil {
					var st puzzle.SolveStats
					sol, st, err = solver.Solve(context.Background(), ch)
					local.attempts += st.Attempts
					local.solves++
				}
				var tok []byte
				if err == nil {
					tok, err = sol.MarshalText()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("set-up of operation %d (%s %s): %w", i, ip, path, err)
					}
					mu.Unlock()
					return
				}
				prep.tokens[i], prep.chals[i] = string(tok), ch
			}
		}()
	}
	wg.Wait()
	return prep, firstErr
}

// httpFetch returns a set-up fetch that asks the running server for a
// challenge over HTTP.
func httpFetch(cs [conns]*conn) func(w int, ip, path string) (puzzle.Challenge, error) {
	return func(w int, ip, path string) (puzzle.Challenge, error) {
		status, h, err := get(cs[w], path, ip, "")
		if err != nil {
			return puzzle.Challenge{}, err
		}
		return challengeOf(status, h, ip, path == "/login")
	}
}

// singleOp sends operation i of a single-request workload and judges the
// reply.
func singleOp(c *conn, p *plan, prep *prepared, i int, t *tally) {
	o := p.ops[i]
	f := p.feed[o.ip]
	t.attempted++
	switch o.kind {
	case opChallenge:
		status, h, err := get(c, "/", f.ip, "")
		if err != nil {
			t.fail(false, "challenge %d: %v", i, err)
			return
		}
		ch, err := challengeOf(status, h, f.ip, false)
		if err != nil {
			t.fail(true, "challenge %d from %s: %v", i, f.ip, err)
			return
		}
		t.challenged["web"]++
		t.issued(f.malicious, ch.Difficulty)
	case opRedeem:
		status, _, err := get(c, "/", f.ip, prep.tokens[i])
		if err != nil {
			t.fail(false, "redeem %d: %v", i, err)
			return
		}
		if status != http.StatusOK {
			t.fail(true, "pre-solved redemption %d from %s: status %d, want 200", i, f.ip, status)
			return
		}
		t.passed["web"]++
	case opForged:
		status, h, err := get(c, "/login", f.ip, prep.tokens[i])
		if err != nil {
			t.fail(false, "forged %d: %v", i, err)
			return
		}
		if status == http.StatusOK {
			// Accepted: only right if the garbage nonce happens to meet
			// the difficulty.
			if !prep.chals[i].Meets(o.nonce) {
				t.fail(true, "forged redemption %d from %s accepted, but its nonce does not meet the challenge", i, f.ip)
				return
			}
			t.chanceValid++
			t.passed["login"]++
			return
		}
		ch, err := challengeOf(status, h, f.ip, true)
		if err != nil {
			t.fail(true, "forged redemption %d from %s: %v", i, f.ip, err)
			return
		}
		t.challenged["login"]++
		t.issued(f.malicious, ch.Difficulty)
	}
}

// batchReply is the POST /batch response document.
type batchReply struct {
	Results []httpmw.BatchResult `json:"results"`
}

// batchCall sends one decide-only batch and judges every result.
// Operations are decisions, so a failed call fails all of its items.
func batchCall(c *conn, token string, p *plan, items []batchItem, body []byte, t *tally) {
	batchCheck(c, p, items, batchSend(c, token, body), t)
}

// batchSend sends one POST /batch without waiting for its reply.
func batchSend(c *conn, token string, body []byte) sent {
	return c.send(http.MethodPost, "/batch", body,
		"Authorization", "Bearer "+token, "Content-Type", "application/json")
}

// batchCheck reads the reply to the POST /batch s sent earlier on c and
// checks it.
func batchCheck(c *conn, p *plan, items []batchItem, s sent, t *tally) {
	t.attempted += int64(len(items))
	resp, reply, err := c.recv(s)
	if err != nil {
		t.failed += int64(len(items)) - 1
		t.fail(false, "batch: %v", err)
		return
	}
	var doc batchReply
	err = json.Unmarshal(reply, &doc)
	if resp.StatusCode != http.StatusOK || err != nil || len(doc.Results) != len(items) {
		t.failed += int64(len(items)) - 1
		t.wrong += int64(len(items)) - 1
		t.fail(true, "batch: status %d, %d results for %d items (decode error %v)", resp.StatusCode, len(doc.Results), len(items), err)
		return
	}
	for k, r := range doc.Results {
		it := items[k]
		if r.Status != httpmw.BatchChallenge {
			t.fail(true, "batch item %s: status %q, want %q", it.ip, r.Status, httpmw.BatchChallenge)
			continue
		}
		ch, err := checkChallenge(r.Challenge, it.ip, false)
		if err == nil && ch.Difficulty != r.Difficulty {
			err = fmt.Errorf("difficulty field %d disagrees with token difficulty %d", r.Difficulty, ch.Difficulty)
		}
		if err != nil {
			t.fail(true, "batch item %s: %v", it.ip, err)
			continue
		}
		t.challenged["web"]++
		if it.feed >= 0 {
			t.issued(p.feed[it.feed].malicious, ch.Difficulty)
		}
	}
}
