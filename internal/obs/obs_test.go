package obs

import (
	"sync"
	"testing"
	"time"
)

func TestEventLogAppendAndSnapshot(t *testing.T) {
	l := NewEventLog(4)
	base := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		l.Append(Event{At: base.Add(time.Duration(i) * time.Second), Kind: EventAdaptEscalate, To: i + 1})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.To != i+1 {
			t.Errorf("event %d out of order: To = %d, want %d", i, e.To, i+1)
		}
	}
	if l.Total() != 3 || l.Len() != 3 {
		t.Errorf("Total/Len = %d/%d, want 3/3", l.Total(), l.Len())
	}
}

func TestEventLogRotation(t *testing.T) {
	l := NewEventLog(4)
	for i := 1; i <= 10; i++ {
		l.Append(Event{Kind: EventSpecApply, To: i})
	}
	got := l.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	for i, e := range got {
		want := 7 + i // events 7..10 survive
		if e.To != want || e.Seq != uint64(want) {
			t.Errorf("slot %d = {Seq:%d To:%d}, want {Seq:%d To:%d}", i, e.Seq, e.To, want, want)
		}
	}
	if l.Total() != 10 {
		t.Errorf("Total = %d, want 10", l.Total())
	}
}

func TestEventLogDefaultCapacity(t *testing.T) {
	l := NewEventLog(0)
	for i := 0; i < DefaultEventLogSize+10; i++ {
		l.Append(Event{Kind: EventPeerJoin})
	}
	if l.Len() != DefaultEventLogSize {
		t.Fatalf("Len = %d, want %d", l.Len(), DefaultEventLogSize)
	}
}

func TestTraceRingRounding(t *testing.T) {
	tr := NewTraceRing(1000, 100)
	if tr.SampleEvery() != 1024 {
		t.Errorf("SampleEvery = %d, want 1024 (rounded up)", tr.SampleEvery())
	}
	if tr.Cap() != 128 {
		t.Errorf("Cap = %d, want 128 (rounded up)", tr.Cap())
	}
	if got := NewTraceRing(0, 0); got.SampleEvery() != 1 || got.Cap() != MinTraceRingSize {
		t.Errorf("clamped ring = %d/%d, want 1/%d", got.SampleEvery(), got.Cap(), MinTraceRingSize)
	}
}

func TestTraceRingSamplingRate(t *testing.T) {
	tr := NewTraceRing(8, 64)
	sampled := 0
	for i := 0; i < 800; i++ {
		if tr.Sampled() {
			sampled++
		}
	}
	if sampled != 100 {
		t.Fatalf("sampled %d of 800 at 1-in-8, want exactly 100", sampled)
	}
}

func TestTraceRingRecordAndSnapshot(t *testing.T) {
	tr := NewTraceRing(1, 16)
	at := time.Unix(5000, 12345)
	tr.RecordDecide(at, HashClient("10.0.0.9"), 7.25, 0.5, 1.5, 14, 2, 100, 200, 350)
	tr.RecordVerify(at.Add(time.Second), HashClient("10.0.0.9"), OutcomeFleetReplay, 14, 2, 90)

	got := tr.Snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(got))
	}
	d := got[0]
	if d.Kind != "decide" || d.Score != 7.25 || d.Confidence != 0.5 || d.Credit != 1.5 ||
		d.Difficulty != 14 || d.Rung != 2 || d.ScoreNs != 100 || d.IssueNs != 200 || d.TotalNs != 350 {
		t.Errorf("decide sample = %+v", d)
	}
	if !d.At.Equal(at) {
		t.Errorf("decide At = %v, want %v", d.At, at)
	}
	v := got[1]
	if v.Kind != "verify" || v.Outcome != "fleet_replay" || v.Difficulty != 14 || v.TotalNs != 90 {
		t.Errorf("verify sample = %+v", v)
	}
	if d.Client != v.Client || len(d.Client) != 16 {
		t.Errorf("client hashes differ or malformed: %q vs %q", d.Client, v.Client)
	}
}

func TestTraceRingWrap(t *testing.T) {
	tr := NewTraceRing(1, 16)
	for i := 0; i < 40; i++ {
		tr.RecordDecide(time.Unix(int64(i), 0), uint64(i), float64(i), 1, 0, int32(i%20), 0, 0, 0, 0)
	}
	got := tr.Snapshot()
	if len(got) != 16 {
		t.Fatalf("snapshot len = %d, want 16 after wrap", len(got))
	}
	if tr.Recorded() != 40 {
		t.Errorf("Recorded = %d, want 40", tr.Recorded())
	}
}

// TestTraceRingDropsHeldSlot: a writer that wraps onto a slot another
// writer still holds drops its sample and counts it, leaving the held
// record intact.
func TestTraceRingDropsHeldSlot(t *testing.T) {
	tr := NewTraceRing(1, 16)
	held := tr.begin() // slot 0, mid-write
	for i := 1; i <= 16; i++ {
		tr.RecordDecide(time.Unix(int64(i), 0), uint64(i), float64(i), 1, 0, int32(i), 0, 0, 0, int64(i))
	}
	if tr.Dropped() != 1 || tr.Recorded() != 16 {
		t.Fatalf("Dropped = %d, Recorded = %d, want 1 and 16", tr.Dropped(), tr.Recorded())
	}
	if got := len(tr.Snapshot()); got != 15 {
		t.Fatalf("snapshot len = %d with slot 0 mid-write, want 15", got)
	}
	held.difficulty.Store(7)
	held.score.Store(floatBits(7))
	held.totalNs.Store(7)
	held.seq.Add(1)
	for _, s := range tr.Snapshot() {
		if int32(s.Score) != int32(s.Difficulty) || s.TotalNs != int64(s.Difficulty) {
			t.Errorf("torn record: %+v", s)
		}
	}
}

func TestVerifyOutcomeStrings(t *testing.T) {
	for o := OutcomeOK; o <= OutcomeOther+1; o++ {
		if o.String() == "" {
			t.Errorf("outcome %d renders empty", o)
		}
	}
	if OutcomeReplayed.String() != "replayed" || OutcomeOther.String() != "other" {
		t.Errorf("unexpected renders: %q %q", OutcomeReplayed, OutcomeOther)
	}
}

// TestTraceRingConcurrent hammers writers against a snapshotting reader;
// run under -race this pins the lock-free ring's safety contract: no torn
// records are ever reported (every snapshot row must be internally
// consistent: score == difficulty as written below).
func TestTraceRingConcurrent(t *testing.T) {
	tr := NewTraceRing(1, 32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := int32(i % 30)
				// score mirrors difficulty so a reader can detect tearing.
				tr.RecordDecide(time.Unix(int64(i), 0), uint64(w), float64(d), 1, 0, d, 0, 0, 0, int64(d))
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, s := range tr.Snapshot() {
			if int32(s.Score) != int32(s.Difficulty) || s.TotalNs != int64(s.Difficulty) {
				t.Errorf("torn record: %+v", s)
			}
		}
	}
	close(stop)
	wg.Wait()
}
