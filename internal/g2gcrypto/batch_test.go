package g2gcrypto

import (
	"math/rand"
	"testing"

	"give2get/internal/obs"
)

// TestHMACScratchMatchesReference is the metamorphic pin for the reusable
// scratch: a single scratch reused across calls of random shapes must stay
// bit-identical to both the package-level HeavyHMAC and the hmac.New
// reference. Reuse is the point — state leaking between calls is exactly the
// bug class a reused scratch can introduce.
func TestHMACScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scratch HMACScratch
	for i := 0; i < 200; i++ {
		// Lengths hover around the SHA-256 block (64) and output (32)
		// boundaries, where padding and key-hashing behavior changes.
		msg := make([]byte, rng.Intn(160))
		seed := make([]byte, rng.Intn(96))
		rng.Read(msg)
		rng.Read(seed)
		iterations := 1 + rng.Intn(8)

		got := scratch.HeavyHMAC(msg, seed, iterations)
		if want := referenceHeavyHMAC(msg, seed, iterations); got != want {
			t.Fatalf("case %d (len(msg)=%d len(seed)=%d iters=%d): scratch diverged from hmac.New:\n got %x\nwant %x",
				i, len(msg), len(seed), iterations, got, want)
		}
		if want := HeavyHMAC(msg, seed, iterations); got != want {
			t.Fatalf("case %d: scratch diverged from the package function", i)
		}
	}
}

// TestPoolMatchesSequential is the batched-path property test: random
// batches of compute and verify obligations — with deliberate duplicates, so
// coalescing is always exercised — must yield exactly the digests and
// verdicts of the unbatched HeavyHMAC/VerifyHeavyHMAC path.
func TestPoolMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := NewPool(nil, nil)
	for batch := 0; batch < 20; batch++ {
		type want struct {
			msg, seed  []byte
			iterations int
			expect     Digest
			verify     bool
		}
		n := 1 + rng.Intn(12)
		wants := make([]want, 0, n)
		tickets := make([]Ticket, 0, n)
		for i := 0; i < n; i++ {
			var w want
			if len(wants) > 0 && rng.Intn(3) == 0 {
				// Duplicate an earlier submission's content: the pool must
				// coalesce it onto one job without changing its answer.
				w = wants[rng.Intn(len(wants))]
			} else {
				w.msg = make([]byte, 1+rng.Intn(64))
				w.seed = make([]byte, rng.Intn(24))
				rng.Read(w.msg)
				rng.Read(w.seed)
				w.iterations = 1 + rng.Intn(6)
			}
			w.verify = rng.Intn(2) == 0
			if w.verify {
				w.expect = HeavyHMAC(w.msg, w.seed, w.iterations)
				if rng.Intn(2) == 0 {
					w.expect[0] ^= 0xff // a forged proof must be rejected
				}
				tickets = append(tickets, pool.SubmitVerify(w.msg, w.seed, w.iterations, w.expect))
			} else {
				tickets = append(tickets, pool.SubmitCompute(w.msg, w.seed, w.iterations))
			}
			wants = append(wants, w)
		}
		if got := pool.Pending(); got != n {
			t.Fatalf("batch=%d: Pending = %d, want %d", batch, got, n)
		}
		pool.Flush()
		if got := pool.Pending(); got != 0 {
			t.Fatalf("batch=%d: Pending after flush = %d", batch, got)
		}
		for i, w := range wants {
			if got, want := pool.Digest(tickets[i]), HeavyHMAC(w.msg, w.seed, w.iterations); got != want {
				t.Fatalf("batch=%d ticket=%d: digest diverged from the unbatched path", batch, i)
			}
			if got, want := pool.Verdict(tickets[i]), w.verify && VerifyHeavyHMAC(w.msg, w.seed, w.iterations, w.expect); got != want {
				t.Fatalf("batch=%d ticket=%d: verdict = %t, want %t", batch, i, got, want)
			}
		}
	}
}

// TestPoolCoalescesDuplicates pins the coalescing invariant directly: N
// obligations over identical content cost one job, and the telemetry
// reconciliation contract holds — iterations are counted once per obligation
// (usage parity), while only one job was computed.
func TestPoolCoalescesDuplicates(t *testing.T) {
	var stats obs.CryptoStats
	pool := NewPool(&stats, nil)
	msg, seed := []byte("stored message"), []byte("challenge")
	tickets := []Ticket{
		pool.SubmitCompute(msg, seed, 16),
		pool.SubmitVerify(msg, seed, 16, HeavyHMAC(msg, seed, 16)),
		pool.SubmitCompute(msg, seed, 16),
		pool.SubmitCompute(msg, []byte("other challenge"), 16),
	}
	pool.Flush()
	if len(pool.jobs) != 2 {
		t.Errorf("jobs = %d, want 2 (three identical submissions coalesce)", len(pool.jobs))
	}
	if got := stats.HeavyHMACIterations.Load(); got != 4*16 {
		t.Errorf("iterations counted = %d, want %d (once per obligation)", got, 4*16)
	}
	if pool.Digest(tickets[0]) != pool.Digest(tickets[2]) {
		t.Error("coalesced tickets disagree")
	}
	if !pool.Verdict(tickets[1]) {
		t.Error("valid proof rejected")
	}
	if pool.Verdict(tickets[0]) {
		t.Error("compute ticket reported a verify verdict")
	}
	if pool.Digest(tickets[3]) == pool.Digest(tickets[0]) {
		t.Error("distinct seeds coalesced")
	}
}

// TestPoolReuseAcrossBatches pins the reset contract: submitting after a
// flush starts a fresh batch with dense tickets from zero, and results stay
// correct with the recycled backing arrays.
func TestPoolReuseAcrossBatches(t *testing.T) {
	pool := NewPool(nil, nil)
	first := pool.SubmitCompute([]byte("first"), []byte("a"), 4)
	pool.Flush()
	d1 := pool.Digest(first)

	second := pool.SubmitCompute([]byte("second"), []byte("b"), 4)
	if second != 0 {
		t.Fatalf("ticket after reset = %d, want 0", second)
	}
	pool.Flush()
	if pool.Digest(second) != HeavyHMAC([]byte("second"), []byte("b"), 4) {
		t.Error("recycled batch produced a wrong digest")
	}
	if d1 != HeavyHMAC([]byte("first"), []byte("a"), 4) {
		t.Error("first batch digest was wrong")
	}
	// Double flush is a no-op, not a recompute or a panic.
	pool.Flush()
}

// FuzzBatchVerify hammers the pool with adversarial batch shapes: arbitrary
// message/seed bytes, clamped iteration counts, corrupted expectations, and
// duplicate submissions. Whatever the shape, the pool must never panic and
// every verdict must equal the unbatched VerifyHeavyHMAC oracle.
func FuzzBatchVerify(f *testing.F) {
	f.Add([]byte("message"), []byte("seed"), 4, false, uint8(0))
	f.Add([]byte{}, []byte{}, 0, true, uint8(3))
	f.Add([]byte("m"), []byte("a seed that is much longer than one SHA-256 block, to force key hashing"), -3, true, uint8(1))
	f.Add([]byte{0xff, 0x00, 0xff}, []byte{0x36, 0x5c}, 1, false, uint8(7))
	f.Fuzz(func(t *testing.T, msg, seed []byte, iterations int, corrupt bool, dupes uint8) {
		if iterations > 64 {
			iterations = 64 // keep the fuzz fast; clamping below 1 is the pool's job
		}
		expect := HeavyHMAC(msg, seed, iterations)
		if corrupt {
			expect[len(expect)-1] ^= 0x01
		}
		pool := NewPool(nil, nil)
		tickets := []Ticket{pool.SubmitVerify(msg, seed, iterations, expect)}
		for i := 0; i < int(dupes%4); i++ {
			tickets = append(tickets, pool.SubmitVerify(msg, seed, iterations, expect))
			tickets = append(tickets, pool.SubmitCompute(msg, seed, iterations))
		}
		pool.Flush()
		want := VerifyHeavyHMAC(msg, seed, iterations, expect)
		for i, tk := range tickets {
			verdict := pool.Verdict(tk)
			if i%2 == 0 && i > 0 {
				// Even tickets past the first are compute obligations: never a
				// verify verdict, whatever the digest.
				if verdict {
					t.Fatalf("compute ticket %d reported verdict true", i)
				}
				continue
			}
			if verdict != want {
				t.Fatalf("ticket %d: verdict = %t, oracle = %t", i, verdict, want)
			}
		}
	})
}
