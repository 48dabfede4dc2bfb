package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"aipow/internal/dataset"
	"aipow/internal/reputation"
)

// testFeed generates a small labelled feed the way dabr generate does.
func testFeed(t *testing.T, seed uint64, n int) ([]dataset.Sample, []feedIP) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.N, cfg.Seed = n, seed
	samples, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := make([]feedIP, len(samples))
	for i, s := range samples {
		feed[i] = feedIP{ip: s.IP, malicious: s.Malicious}
	}
	return samples, feed
}

// streamBytes serializes everything the generator would send for a
// workload: the operations, or the first batches and the warm-up.
func streamBytes(t *testing.T, workload string, seed uint64) []byte {
	t.Helper()
	_, feed := testFeed(t, seed, 500)
	p, err := newPlan(workload, seed, feed, 3000)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, f := range feed {
		fmt.Fprintf(&b, "%s %v\n", f.ip, f.malicious)
	}
	for _, o := range p.ops {
		b.WriteByte(o.kind)
		b.Write(binary.LittleEndian.AppendUint32(nil, uint32(o.ip)))
		b.Write(binary.LittleEndian.AppendUint64(nil, o.nonce))
	}
	if workload == batchChurn {
		for j := int64(0); j < 20; j++ {
			b.Write(appendBatchBody(nil, p.batchItems(j, nil)))
		}
		for _, items := range warmSets(p) {
			b.Write(appendBatchBody(nil, items))
		}
	}
	return b.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streamBytes(t, w, 7), streamBytes(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different streams", w)
		}
		if bytes.Equal(a, streamBytes(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
}

func TestFrontDoorSplitMatchesFeedLabels(t *testing.T) {
	_, feed := testFeed(t, 3, 2000)
	p, err := newPlan(frontDoor, 3, feed, 20000)
	if err != nil {
		t.Fatal(err)
	}
	malFeed := 0
	for _, f := range feed {
		if f.malicious {
			malFeed++
		}
	}
	var challenges, redeems, malChallenges int
	for _, o := range p.ops {
		switch o.kind {
		case opChallenge:
			challenges++
			if feed[o.ip].malicious {
				malChallenges++
			}
		case opRedeem:
			redeems++
			if feed[o.ip].malicious {
				t.Fatalf("redemption from malicious-labelled %s; pre-solved redemptions come from benign IPs", feed[o.ip].ip)
			}
		default:
			t.Fatalf("front-door planned operation kind %d", o.kind)
		}
	}
	if d := challenges - redeems; d < -600 || d > 600 {
		t.Errorf("%d challenges vs %d redemptions; want about half each", challenges, redeems)
	}
	want := float64(malFeed) / float64(len(feed))
	if got := float64(malChallenges) / float64(challenges); got < want-0.03 || got > want+0.03 {
		t.Errorf("malicious share of challenges %.3f, feed share %.3f", got, want)
	}
}

func TestBalloonMix(t *testing.T) {
	_, feed := testFeed(t, 3, 1000)
	p, err := newPlan(balloonForged, 3, feed, 12000)
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	for _, o := range p.ops {
		if o.kind == opForged {
			forged++
		} else if o.kind != opRedeem || feed[o.ip].malicious {
			t.Fatalf("balloon-forged planned kind %d from %+v", o.kind, feed[o.ip])
		}
	}
	if got := float64(forged) / float64(len(p.ops)); got < 0.80 || got > 0.87 {
		t.Errorf("forged share %.3f, want %d/%d", got, forgedRate, forgedRate+benignRate)
	}
}

func TestSprayNeverRepeats(t *testing.T) {
	seen := make(map[string]bool)
	for c := int64(-warmSpray); c < 400_000; c++ {
		ip := sprayIP(5, c)
		if seen[ip] {
			t.Fatalf("spray counter %d repeats %s", c, ip)
		}
		if !strings.HasPrefix(ip, "10.") {
			t.Fatalf("spray address %s outside 10.0.0.0/8", ip)
		}
		seen[ip] = true
	}
}

func TestWindowedP99(t *testing.T) {
	// 10 s at 1000/s: 1 ms everywhere except a 50 ms stall in second 3.
	var lat, at []time.Duration
	for i := 0; i < 10000; i++ {
		l := time.Millisecond
		if i >= 3000 && i < 3050 {
			l = 50 * time.Millisecond
		}
		lat, at = append(lat, l), append(at, time.Duration(i)*time.Millisecond)
	}
	p99, win := windowedP99(lat, at, 10)
	if win != 1 || p99 != 1 {
		t.Errorf("windowed p99 %v ms over %d s windows, want 1 ms over 1 s", p99, win)
	}
	if whole := quantile(lat, 0.99); whole != 1 {
		t.Logf("whole-run p99 %v ms", whole)
	}
	if _, win := windowedP99(lat[:2000], at[:2000], 10); win != 5 {
		t.Errorf("2000 samples over 10 s: %d s windows, want 5", win)
	}
}

// TestWrappersKeepFastPath builds the traced deployment and checks that
// requests through the middleware and the batch handler reach the timed
// components on the vector path only.
func TestWrappersKeepFastPath(t *testing.T) {
	samples, feed := testFeed(t, 4, 300)
	rs := make([]reputation.Sample, len(samples))
	for i, s := range samples {
		rs[i] = reputation.Sample{Attrs: s.Attrs, Malicious: s.Malicious}
	}
	model, err := reputation.Train(rs, reputation.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ti := &traceInputs{key: bytes.Repeat([]byte{7}, 32), feed: samples, model: model, spec: specFor(balloonForged)}
	l := &ledger{}
	x, err := newInproc(ti, l)
	if err != nil {
		t.Fatal(err)
	}
	defer x.gk.Close()
	l.on = true
	rec := &recorder{h: http.Header{}}
	for _, path := range []string{"/", "/login"} {
		req, _ := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
		req.Header.Set("X-Real-IP", feed[0].ip)
		rec.reset()
		x.mw.ServeHTTP(rec, req)
		if rec.status != http.StatusPreconditionRequired {
			t.Fatalf("GET %s: status %d: %s", path, rec.status, rec.body)
		}
	}
	items := []batchItem{{ip: feed[1].ip}, {ip: sprayIP(4, 1)}}
	req, _ := http.NewRequest(http.MethodPost, "http://bench/batch", bytes.NewReader(appendBatchBody(nil, items)))
	rec.reset()
	x.batch.ServeHTTP(rec, req)
	if rec.status != http.StatusOK || bytes.Count(rec.body, []byte(`"status":"challenge"`)) != len(items) {
		t.Fatalf("POST /batch: status %d: %s", rec.status, rec.body)
	}
	if n := l.mapPath.Load(); n != 0 {
		t.Errorf("%d map-path calls; the wrappers hid a fast-path interface", n)
	}
	for _, k := range []layer{lRoute, lFeatures, lScore, lPolicy} {
		if l.incl[k] == 0 {
			t.Errorf("no time recorded for %s", layerNames[k])
		}
	}
	if l.depth != 0 {
		t.Errorf("span stack depth %d after the calls returned", l.depth)
	}
}
