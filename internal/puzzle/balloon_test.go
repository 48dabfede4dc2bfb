package puzzle

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"testing"
)

// balloonDigestRef is the straight-line balloon function: every hash is a
// sha256.Sum256 over a freshly appended le64(cnt)‖a‖b. balloonDigest must
// stay bit-identical to it on every path.
func balloonDigestRef(preimage []byte, space, rounds uint32) [sha256.Size]byte {
	space = min(max(space, minBalloonSpace), maxBalloonSpace)
	rounds = min(max(rounds, minBalloonRounds), maxBalloonRounds)

	blocks := make([]byte, int(space)*balloonBlockSize)
	var cnt uint64
	hashInto := func(dst, a, b []byte) {
		in := binary.LittleEndian.AppendUint64(nil, cnt)
		cnt++
		in = append(in, a...)
		in = append(in, b...)
		sum := sha256.Sum256(in)
		copy(dst, sum[:])
	}
	block := func(m uint32) []byte {
		return blocks[m*balloonBlockSize : (m+1)*balloonBlockSize]
	}

	hashInto(block(0), preimage, nil)
	for m := uint32(1); m < space; m++ {
		hashInto(block(m), block(m-1), nil)
	}
	for r := uint32(0); r < rounds; r++ {
		for m := uint32(0); m < space; m++ {
			prev := block((m + space - 1) % space)
			hashInto(block(m), prev, block(m))
			for i := 0; i < balloonDelta; i++ {
				idx := uint32(binary.LittleEndian.Uint64(block(m)[i*8:]) % uint64(space))
				hashInto(block(m), block(m), block(idx))
			}
		}
	}

	var out [sha256.Size]byte
	copy(out[:], block(space-1))
	return out
}

func seqBytes(n int, mul byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i) * mul
	}
	return b
}

// TestBalloonGoldenVectors pins balloon outputs recorded before the
// fixed-shape kernel existed, so a change to the function itself (not
// just a kernel/reference disagreement) fails here.
func TestBalloonGoldenVectors(t *testing.T) {
	cases := []struct {
		preimage      []byte
		space, rounds uint32
		want          string
	}{
		{[]byte("aipow balloon golden vector"), DefaultBalloonSpace, DefaultBalloonRounds,
			"5b2ee51b3bc676bdc95e036c6a8689aa9816105618f2c13dee061579d0ffa582"},
		{nil, 2, 1, "109f9cf72cf7c419c4312f118935046605b771e2d78d12389cbbf91b0df64db9"},
		{seqBytes(55, 1), 3, 1, "4e6fdf246fc3869310bd351f8ea8947e5fb9d703cc7cefb8b7fae71bcedbd4af"},
		{seqBytes(200, 7), 601, 3, "89b51950f3458a01323ca4eb7495fde8d0650c195afa2830e7869fe063239a0f"},
		{seqBytes(64, 13), 2048, 4, "5146a54f65070800c115bebb331c7e893ba6665352d00cf433219376533f36b6"},
	}
	for _, tc := range cases {
		for name, fn := range map[string]func([]byte, uint32, uint32) [sha256.Size]byte{
			"kernel": balloonDigest, "reference": balloonDigestRef,
		} {
			got := fn(tc.preimage, tc.space, tc.rounds)
			if hex.EncodeToString(got[:]) != tc.want {
				t.Errorf("%s(len=%d, space=%d, rounds=%d) = %x, want %s",
					name, len(tc.preimage), tc.space, tc.rounds, got, tc.want)
			}
		}
	}
}

// TestBalloonHashMatchesSum256 checks both fixed message shapes against
// sha256.Sum256 over the explicitly built message, including a
// destination that aliases an input.
func TestBalloonHashMatchesSum256(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	var a, b [balloonBlockSize]byte
	for i := 0; i < 500; i++ {
		for j := range a {
			a[j], b[j] = byte(rng.Uint32()), byte(rng.Uint32())
		}
		cnt := rng.Uint64()
		msg := binary.LittleEndian.AppendUint64(nil, cnt)
		msg = append(msg, a[:]...)

		var got [balloonBlockSize]byte
		balloonHash(&got, cnt, &a, nil)
		if want := sha256.Sum256(msg); got != want {
			t.Fatalf("40-byte message: balloonHash = %x, want %x", got, want)
		}
		msg = append(msg, b[:]...)
		want := sha256.Sum256(msg)
		balloonHash(&got, cnt, &a, &b)
		if got != want {
			t.Fatalf("72-byte message: balloonHash = %x, want %x", got, want)
		}
		balloonHash(&b, cnt, &a, &b)
		if b != want {
			t.Fatalf("72-byte message into b: balloonHash = %x, want %x", b, want)
		}
	}
}

// TestBalloonDigestMatchesReference compares the kernel and the
// reference on random preimages and cost parameters, including the
// clamped out-of-range ones.
func TestBalloonDigestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2022, 12))
	for i := 0; i < 200; i++ {
		pre := seqBytes(rng.IntN(301), byte(rng.Uint32()))
		space := uint32(rng.IntN(400))
		rounds := uint32(rng.IntN(5))
		if got, want := balloonDigest(pre, space, rounds), balloonDigestRef(pre, space, rounds); got != want {
			t.Fatalf("balloonDigest(len=%d, space=%d, rounds=%d) = %x, reference %x",
				len(pre), space, rounds, got, want)
		}
	}
}

// TestReferenceSolutionVerifies solves a v2 balloon challenge with the
// reference function alone and checks the Verifier, which runs the
// kernel, accepts it.
func TestReferenceSolutionVerifies(t *testing.T) {
	backend, err := NewBalloon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	iss := newTestIssuer(t, WithIssuerBackend(backend))
	ver := newTestVerifier(t, WithVerifierBackend(backend))
	ch, err := iss.Issue("198.51.100.12", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Version != Version2 || ch.Backend != BackendBalloon {
		t.Fatalf("issued version %d backend %v, want a v2 balloon challenge", ch.Version, ch.Backend)
	}
	for nonce := uint64(0); nonce < 1<<12; nonce++ {
		d := balloonDigestRef(appendNonce(ch.canonical(), nonce), ch.Space, ch.Rounds)
		if CountLeadingZeroBits(d[:]) < ch.Difficulty {
			continue
		}
		if err := ver.Verify(Solution{Challenge: ch, Nonce: nonce}, "198.51.100.12"); err != nil {
			t.Fatalf("reference solution nonce %d rejected: %v", nonce, err)
		}
		return
	}
	t.Fatal("no reference solution found in 4096 nonces")
}

// FuzzBalloonDigest checks the kernel equals the reference for any
// preimage, space in [2, 2048] and rounds in [1, 4].
func FuzzBalloonDigest(f *testing.F) {
	f.Add([]byte("aipow balloon golden vector"), uint16(254), uint8(1))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, preimage []byte, space uint16, rounds uint8) {
		s := 2 + uint32(space)%2047
		r := 1 + uint32(rounds)%4
		if got, want := balloonDigest(preimage, s, r), balloonDigestRef(preimage, s, r); got != want {
			t.Fatalf("balloonDigest(%x, %d, %d) = %x, reference %x", preimage, s, r, got, want)
		}
	})
}
