package puzzle

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// The memory-hard backend is a self-contained balloon-hash variant
// (Boneh–Corrigan-Gibbs–Schechter): a buffer of `space` 32-byte blocks is
// filled sequentially from the preimage, then `time` rounds re-hash every
// block with its predecessor and balloonDelta data-dependent neighbours.
// The data-dependent indexing means the whole buffer must stay resident
// for the whole computation — the property that denies GPU/ASIC solvers
// the three-orders-of-magnitude discount they enjoy on plain SHA-256,
// because the cost is memory bandwidth, not compression-function
// throughput. Every primitive is crypto/sha256; no new dependencies.
//
// A solution to a d-difficult balloon challenge is a nonce such that
// balloon(canonical(challenge) ‖ nonce) has at least d leading zero bits
// — the same difficulty dial as hashcash, but each attempt costs
// space·(1+(delta+1)·time) hashes over a space·32-byte working set
// instead of one hash over 64 bytes. Every mixing hash spans two SHA-256
// blocks, so that is space·(1+2·(delta+1)·time) compressions.
const (
	// balloonBlockSize is the buffer block size (one SHA-256 digest).
	balloonBlockSize = sha256.Size

	// balloonDelta is the number of data-dependent neighbours mixed into
	// each block per round (the paper's δ=3).
	balloonDelta = 3

	// DefaultBalloonSpace and DefaultBalloonRounds are the production
	// defaults: 256 blocks × 32 B = 8 KiB working set, 2 mixing rounds,
	// 2304 hashes and ≈4350 SHA-256 compressions per attempt (≈2^11
	// hashcash attempts of two compressions each), so a d-difficult balloon
	// challenge prices like a (d+11)-difficult hashcash one on a CPU —
	// and far worse than that on hardware that discounts raw SHA-256.
	DefaultBalloonSpace  = 256
	DefaultBalloonRounds = 2

	// Parameter sanity bounds. Space and rounds ride inside the
	// HMAC-authenticated challenge, so a verifier only ever evaluates
	// parameters its own issuer signed; the bounds exist to keep a
	// misconfigured deployment from turning verification into a
	// self-inflicted memory DoS (2^16 blocks = 2 MiB per scratch).
	minBalloonSpace  = 2
	maxBalloonSpace  = 1 << 16
	minBalloonRounds = 1
	maxBalloonRounds = 64
)

// Every hash after the first has one of two fixed shapes: le64(cnt)‖a
// (40 B, one SHA-256 compression) and le64(cnt)‖a‖b (72 B, two). On
// amd64 with SHA-NI, balloonHash runs a compression kernel that builds
// the padded message in registers straight from the two blocks; elsewhere
// it stages the bytes and calls sha256.Sum256 (balloonHashStaged). Both
// produce the same digest.
const (
	expandLen = 8 + balloonBlockSize
	mixLen    = 8 + 2*balloonBlockSize
)

// balloonHashStaged is the portable balloonHash.
func balloonHashStaged(dst *[balloonBlockSize]byte, cnt uint64, a, b *[balloonBlockSize]byte) {
	var msg [mixLen]byte
	binary.LittleEndian.PutUint64(msg[:], cnt)
	copy(msg[8:], a[:])
	if b == nil {
		*dst = sha256.Sum256(msg[:expandLen])
		return
	}
	copy(msg[expandLen:], b[:])
	*dst = sha256.Sum256(msg[:])
}

// balloonScratch is the pooled working state of one balloon evaluation:
// the block buffer plus an input scratch for the first, variable-length
// message. Pooling it keeps repeated verifications allocation-free; the
// buffer grows to the largest space seen and stays there.
type balloonScratch struct {
	blocks []byte
	in     []byte
}

var balloonPool = sync.Pool{
	New: func() any {
		return &balloonScratch{
			blocks: make([]byte, DefaultBalloonSpace*balloonBlockSize),
			in:     make([]byte, 0, 8+binaryFixedSizeV2+64),
		}
	},
}

// balloonDigest evaluates the balloon function over preimage with the
// given cost parameters. Out-of-range parameters are clamped to the
// sanity bounds (authenticated challenges never carry any, see above).
func balloonDigest(preimage []byte, space, rounds uint32) [sha256.Size]byte {
	if space < minBalloonSpace {
		space = minBalloonSpace
	} else if space > maxBalloonSpace {
		space = maxBalloonSpace
	}
	if rounds < minBalloonRounds {
		rounds = minBalloonRounds
	} else if rounds > maxBalloonRounds {
		rounds = maxBalloonRounds
	}

	s := balloonPool.Get().(*balloonScratch)
	need := int(space) * balloonBlockSize
	if cap(s.blocks) < need {
		s.blocks = make([]byte, need)
	}
	blocks := s.blocks[:need]
	block := func(m uint32) *[balloonBlockSize]byte {
		return (*[balloonBlockSize]byte)(blocks[m*balloonBlockSize:])
	}

	// Expand: fill the buffer sequentially from the preimage. Every hash
	// is H(le64(cnt) ‖ …), cnt counting hashes from 0.
	in := binary.LittleEndian.AppendUint64(s.in[:0], 0)
	in = append(in, preimage...)
	s.in = in
	*block(0) = sha256.Sum256(in)
	cnt := uint64(1)
	for m := uint32(1); m < space; m++ {
		balloonHash(block(m), cnt, block(m-1), nil)
		cnt++
	}

	// Mix: every round re-hashes each block with its predecessor, then
	// with balloonDelta neighbours chosen by the block's own current
	// bytes — the data-dependent step that forces residency.
	for r := uint32(0); r < rounds; r++ {
		for m := uint32(0); m < space; m++ {
			dst := block(m)
			balloonHash(dst, cnt, block((m+space-1)%space), dst)
			cnt++
			for i := 0; i < balloonDelta; i++ {
				idx := uint32(binary.LittleEndian.Uint64(dst[i*8:]) % uint64(space))
				balloonHash(dst, cnt, dst, block(idx))
				cnt++
			}
		}
	}

	out := *block(space - 1)
	balloonPool.Put(s)
	return out
}
