package puzzle

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// solveOrDie solves ch with a default solver or fails the test.
func solveOrDie(t *testing.T, ch Challenge) Solution {
	t.Helper()
	sol, _, err := NewSolver().Solve(context.Background(), ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSolveFindsValidNonce(t *testing.T) {
	iss := newTestIssuer(t)
	for _, d := range []int{1, 4, 8, 12} {
		ch, err := iss.Issue("client", d)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := NewSolver().Solve(context.Background(), ch)
		if err != nil {
			t.Fatalf("Solve(d=%d): %v", d, err)
		}
		if !ch.Meets(sol.Nonce) {
			t.Fatalf("d=%d: returned nonce %d does not meet difficulty", d, sol.Nonce)
		}
		if stats.Attempts == 0 {
			t.Fatalf("d=%d: zero attempts reported", d)
		}
		if stats.Attempts != sol.Nonce+1 {
			t.Fatalf("d=%d: attempts %d != nonce+1 %d (sequential search)", d, stats.Attempts, sol.Nonce+1)
		}
	}
}

func TestSolveRespectsContextCancellation(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 32) // ~4e9 expected attempts: never finishes here
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := NewSolver().Solve(ctx, ch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Attempts > ctxCheckInterval {
		t.Fatalf("solver did %d attempts after cancellation", stats.Attempts)
	}
}

func TestSolveNonceLimit(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 30)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := NewSolver(WithNonceLimit(1000)).Solve(context.Background(), ch)
	if !errors.Is(err, ErrNonceExhausted) {
		t.Fatalf("err = %v, want ErrNonceExhausted", err)
	}
	if stats.Attempts != 1000 {
		t.Fatalf("attempts = %d, want exactly 1000", stats.Attempts)
	}
}

func TestSolveNonceLimitStillSolvesEasy(t *testing.T) {
	iss := newTestIssuer(t)
	ch, err := iss.Issue("client", 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := NewSolver(WithNonceLimit(1<<16)).Solve(context.Background(), ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !ch.Meets(sol.Nonce) {
		t.Fatal("solution does not meet difficulty")
	}
}

// Property: issue → solve → verify round-trips cleanly for random small
// difficulties and bindings.
func TestSolveVerifyRoundTripProperty(t *testing.T) {
	iss := newTestIssuer(t)
	ver, err := NewVerifier(testKey)
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver()
	rng := rand.New(rand.NewPCG(11, 13))
	f := func(bindingSeed uint16) bool {
		d := 1 + int(rng.Uint32()%8)
		binding := "ip-" + string(rune('a'+bindingSeed%26))
		ch, err := iss.Issue(binding, d)
		if err != nil {
			return false
		}
		sol, _, err := solver.Solve(context.Background(), ch)
		if err != nil {
			return false
		}
		return ver.Verify(sol, binding) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelSolveFindsValidNonce(t *testing.T) {
	iss := newTestIssuer(t)
	ver := newTestVerifier(t)
	solver := NewSolver(WithSolverWorkers(4))
	for _, d := range []int{1, 6, 12} {
		ch, err := iss.Issue("client", d)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := solver.Solve(context.Background(), ch)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !ch.Meets(sol.Nonce) {
			t.Fatalf("d=%d: nonce %d does not meet difficulty", d, sol.Nonce)
		}
		if stats.Attempts == 0 {
			t.Fatalf("d=%d: zero attempts reported", d)
		}
		if err := ver.Verify(sol, "client"); err != nil {
			t.Fatalf("d=%d: parallel solution rejected: %v", d, err)
		}
	}
}

func TestParallelSolveAgreesWithSequentialVerification(t *testing.T) {
	// The multi-worker search may find a different nonce than the
	// sequential one; both must satisfy the same predicate.
	iss := newTestIssuer(t)
	ch, err := iss.Issue("client", 10)
	if err != nil {
		t.Fatal(err)
	}
	seq := solveOrDie(t, ch)
	par, _, err := NewSolver(WithSolverWorkers(3)).Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Meets(seq.Nonce) || !ch.Meets(par.Nonce) {
		t.Fatal("one of the solutions does not meet the difficulty")
	}
}

func TestParallelSolveContextCancellation(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = NewSolver(WithSolverWorkers(2)).Solve(ctx, ch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestParallelSolveNonceLimit(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 30)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := NewSolver(WithSolverWorkers(2), WithNonceLimit(2000)).Solve(context.Background(), ch)
	if !errors.Is(err, ErrNonceExhausted) {
		t.Fatalf("err = %v, want ErrNonceExhausted", err)
	}
	if stats.Attempts == 0 || stats.Attempts > 2100 {
		t.Fatalf("attempts = %d, want ≈2000", stats.Attempts)
	}
}
