package puzzle

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// goldenTokens are challenge and solution tokens recorded from the
// encoder that predates AppendText, for challenges issued by
// goldenIssuer. AppendText and MarshalText must keep producing them byte
// for byte: every deployed client parses this format.
var goldenTokens = []struct {
	name      string
	balloon   bool
	binding   string
	d         int
	challenge string
}{
	{"v1", false, "198.51.100.7", 5,
		"QUlQb1cvMQABABEiM0RVZneImaq7zN3u_xeXnP49hc0VAAAAG_COsAAABQAMMTk4LjUxLjEwMC43Z7S1OhcV2U7yDX9OX_APZStHeRAlblk4EODhIrYZZ6M"},
	{"v1-ipv6", false, "2001:db8::1", 12,
		"QUlQb1cvMQABABEiM0RVZneImaq7zN3u_xeXnP49hc0VAAAAG_COsAAADAALMjAwMTpkYjg6OjEuOgKavagiJoWQVJM5GW1a0WR4z_ADT5ToCE-wpA-mXw"},
	{"v2-balloon", true, "203.0.113.9", 3,
		"QUlQb1cvMgACAgAAAAgAAAABABEiM0RVZneImaq7zN3u_xeXnP49hc0VAAAAG_COsAAAAwALMjAzLjAuMTEzLjn_lxyPK9Z8D38T1shnOy6YnCMnnjoO5INM-LfymJkhxw"},
}

// goldenIssuer issues with testKey, a fixed clock and fixed seed bytes,
// so its first challenge is the same on every run.
func goldenIssuer(t testing.TB, balloon bool) *Issuer {
	t.Helper()
	seeds := bytes.Repeat([]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}, 4)
	opts := []IssuerOption{
		WithIssuerNow(func() time.Time { return time.Unix(1700000000, 123456789).UTC() }),
		WithIssuerRand(bytes.NewReader(seeds)),
	}
	if balloon {
		b, err := NewBalloon(8, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithIssuerBackend(b))
	}
	iss, err := NewIssuer(testKey, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return iss
}

func TestTokenGolden(t *testing.T) {
	for _, g := range goldenTokens {
		t.Run(g.name, func(t *testing.T) {
			ch, err := goldenIssuer(t, g.balloon).Issue(g.binding, g.d)
			if err != nil {
				t.Fatal(err)
			}
			txt, err := ch.MarshalText()
			if err != nil || string(txt) != g.challenge {
				t.Fatalf("MarshalText = %q, %v\nwant %q", txt, err, g.challenge)
			}
			prefix := []byte("prefix:")
			app, err := ch.AppendText(prefix)
			if err != nil || string(app) != "prefix:"+g.challenge {
				t.Fatalf("AppendText = %q, %v", app, err)
			}
			for nonce, suffix := range map[uint64]string{0x2a: ".2a", 0x1_0000_beef: ".10000beef"} {
				sol, err := Solution{Challenge: ch, Nonce: nonce}.MarshalText()
				if err != nil || string(sol) != g.challenge+suffix {
					t.Fatalf("Solution.MarshalText = %q, %v\nwant %q", sol, err, g.challenge+suffix)
				}
			}
			// Decoding and re-encoding an issued token is the identity.
			var back Challenge
			if err := back.UnmarshalText([]byte(g.challenge)); err != nil {
				t.Fatal(err)
			}
			assertChallengeEqual(t, ch, back)
		})
	}
}

// TestAppendTextAllocs pins the in-place encoder: appending a token into
// a buffer with room for it allocates nothing.
func TestAppendTextAllocs(t *testing.T) {
	ch, err := goldenIssuer(t, true).Issue("203.0.113.9", 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = ch.AppendText(buf[:0])
	}); n != 0 {
		t.Fatalf("AppendText into a sized buffer: %v allocs, want 0", n)
	}
}

func TestAppendTextRejectsOversizedBinding(t *testing.T) {
	ch := Challenge{Version: Version1, Binding: string(make([]byte, maxBindingLen+1))}
	if _, err := ch.AppendText(nil); err != ErrBindingTooLong {
		t.Fatalf("err = %v, want ErrBindingTooLong", err)
	}
}

// FuzzSolutionToken feeds arbitrary text to the token decoders, which
// read attacker-controlled headers and /batch items. They never panic,
// and whatever they accept re-encodes (through AppendText) to a token
// that decodes to the same value and is its own re-encoding.
func FuzzSolutionToken(f *testing.F) {
	for _, g := range goldenTokens {
		f.Add([]byte(g.challenge + ".2a"))
		f.Add([]byte(g.challenge))
	}
	// A Version2 hashcash challenge: no issuer signs one, but the decoder
	// accepts the shape.
	v2 := Challenge{Version: Version2, Backend: BackendHashcash, Difficulty: 4,
		IssuedAt: time.Unix(0, 1).UTC(), TTL: time.Minute, Binding: "192.0.2.1"}
	v2tok, err := Solution{Challenge: v2, Nonce: 7}.MarshalText()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2tok)
	f.Add([]byte("QUlQb1cvMQ.zz"))
	f.Add([]byte("."))
	f.Fuzz(func(t *testing.T, text []byte) {
		var sol Solution
		if err := sol.UnmarshalText(text); err == nil {
			enc, err := sol.MarshalText()
			if err != nil {
				t.Fatalf("accepted %q does not re-encode: %v", text, err)
			}
			var back Solution
			if err := back.UnmarshalText(enc); err != nil {
				t.Fatalf("re-encoded %q does not decode: %v", enc, err)
			}
			if !reflect.DeepEqual(sol, back) {
				t.Fatalf("round trip of %q:\n got %+v\nwant %+v", text, back, sol)
			}
			if again, _ := back.MarshalText(); !bytes.Equal(again, enc) {
				t.Fatalf("re-encoding is not a fixed point: %q then %q", enc, again)
			}
		}
		var ch Challenge
		if err := ch.UnmarshalText(text); err == nil {
			enc, err := ch.AppendText([]byte("x"))
			if err != nil {
				t.Fatalf("accepted challenge %q does not re-encode: %v", text, err)
			}
			var back Challenge
			if err := back.UnmarshalText(enc[1:]); err != nil || !reflect.DeepEqual(ch, back) {
				t.Fatalf("challenge round trip of %q: %+v, %v", text, back, err)
			}
		}
	})
}
