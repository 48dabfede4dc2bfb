package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
)

// Workload names. Later changes refer to them by name; see README.md for
// why each exists.
const (
	frontDoor     = "front-door"
	batchChurn    = "batch-churn"
	balloonForged = "balloon-forged"
)

var workloads = []string{frontDoor, batchChurn, balloonForged}

// Sizing of the load. The rates are fixed so that server CPU per operation
// compares across runs: on this server it falls as the rate rises.
const (
	feedSize = 4000 // feed IPs; the hot set, well under the tracker's 65536 slots

	frontDoorRate = 2000 // req/s, about a quarter of closed-loop capacity

	batchSize     = 128      // decisions per POST /batch
	batchHotShare = 0.75     // items drawn from the feed; the rest are spray
	warmSpray     = 80 << 10 // spray items sent in set-up: more than the tracker holds

	forgedRate = 1000 // forged balloon redemptions per second on /login
	benignRate = 200  // benign pre-solved redemptions per second on /
)

// Operation kinds of the single-request workloads.
const (
	opChallenge = iota // GET / without a solution: the server decides and answers 428
	opRedeem           // GET / with a pre-solved hashcash solution: 200
	opForged           // GET /login with a real balloon challenge and a garbage nonce: 428 again
)

// op is one planned request. ip indexes the feed; nonce is the garbage
// nonce of a forged redemption.
type op struct {
	kind  uint8
	ip    int32
	nonce uint64
}

// feedIP is one feed entry as the generator sees it: its address and its
// ground-truth label.
type feedIP struct {
	ip        string
	malicious bool
}

// plan is the generator's request stream for one workload: a pure function
// of the workload name, the seed and the feed. Tokens the server issues are
// not part of it; they are random by design.
type plan struct {
	workload string
	seed     uint64
	feed     []feedIP
	benign   []int32 // indexes of benign-labelled feed IPs
	ops      []op    // single-request workloads
}

// rngFor returns the deterministic random stream of one named purpose.
func rngFor(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// newPlan lays out the stream of a single-request workload with n
// operations; batch-churn streams are generated per batch by batchItems.
func newPlan(workload string, seed uint64, feed []feedIP, n int) (*plan, error) {
	p := &plan{workload: workload, seed: seed, feed: feed}
	for i, f := range feed {
		if !f.malicious {
			p.benign = append(p.benign, int32(i))
		}
	}
	if len(p.benign) == 0 || len(p.benign) == len(feed) {
		return nil, fmt.Errorf("feed needs both benign and malicious IPs")
	}
	r := rngFor(seed, workload+"/ops")
	switch workload {
	case frontDoor:
		p.ops = make([]op, n)
		for i := range p.ops {
			if r.IntN(2) == 0 {
				p.ops[i] = op{kind: opChallenge, ip: int32(r.IntN(len(feed)))}
			} else {
				p.ops[i] = op{kind: opRedeem, ip: p.benign[r.IntN(len(p.benign))]}
			}
		}
	case balloonForged:
		p.ops = make([]op, n)
		for i := range p.ops {
			if r.IntN(forgedRate+benignRate) < forgedRate {
				p.ops[i] = op{kind: opForged, ip: int32(r.IntN(len(feed))), nonce: uint64(r.Uint32())}
			} else {
				p.ops[i] = op{kind: opRedeem, ip: p.benign[r.IntN(len(p.benign))]}
			}
		}
	case batchChurn:
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return p, nil
}

// batchItem is one decision of a batch: a feed IP (feed ≥ 0) or a spray
// address (feed < 0).
type batchItem struct {
	ip   string
	feed int32
}

// batchItems fills dst with batch j of the batch-churn stream. Batches are
// independent of each other, so either connection may send any batch.
// Spray addresses never repeat: slot k of batch j maps to the distinct
// counter j*batchSize+k. Warm-up batches use negative j.
func (p *plan) batchItems(j int64, dst []batchItem) []batchItem {
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], uint64(j))
	r := rngFor(p.seed, "batch-churn/"+string(key[:]))
	dst = dst[:0]
	for k := 0; k < batchSize; k++ {
		if j >= 0 && r.Float64() < batchHotShare {
			i := int32(r.IntN(len(p.feed)))
			dst = append(dst, batchItem{ip: p.feed[i].ip, feed: i})
			continue
		}
		dst = append(dst, batchItem{ip: sprayIP(p.seed, j*batchSize+int64(k)), feed: -1})
	}
	return dst
}

// sprayIP maps counter c to an address in 10.0.0.0/8 through a bijection
// of the 24-bit host space, so distinct counters below 2^24 give distinct
// addresses. The dataset generator draws feed IPs from public ranges.
func sprayIP(seed uint64, c int64) string {
	const mask = 1<<24 - 1
	x := uint32(c+1<<23) & mask // warm-up counters are negative
	x = (x*0x9E3779 + 0x5851F4) & mask
	x ^= uint32(seed) & mask
	x = (x * 0x2545F5) & mask // odd multipliers are bijections mod 2^24
	b := make([]byte, 0, 15)
	b = append(b, "10."...)
	b = strconv.AppendUint(b, uint64(x>>16), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(x>>8&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(x&0xff), 10)
	return string(b)
}

// appendBatchBody appends the JSON document of one POST /batch call.
// Addresses need no escaping.
func appendBatchBody(b []byte, items []batchItem) []byte {
	b = append(b, `{"requests":[`...)
	for k, it := range items {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ip":"`...)
		b = append(b, it.ip...)
		b = append(b, `","path":"/"}`...)
	}
	return append(b, "]}"...)
}
