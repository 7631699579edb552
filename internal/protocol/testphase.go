package protocol

import (
	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/wire"
)

// storedPrep is a challenged relay's deferred storage proof: the relay had no
// PoR pair, so it submitted the heavy HMAC over its stored copy to the batch
// pool and answers with a signed StoredResponse once the pool flushes.
//
// The batched test phase runs in three passes per session:
//
//	A (collect): challenges are issued in deterministic order; every
//	  storage-proof obligation — the relay's proof and the source's
//	  recomputation — is submitted to the Env's batch pool. All RNG draws
//	  happen here, in the exact per-test order of the sequential path.
//	B (barrier): Pool.Flush computes every distinct obligation once;
//	  coalescing lets an honest prover and its verifier share one
//	  keystream walk.
//	C (decide): verdicts are consumed in collection order, reproducing the
//	  sequential path's telemetry, observer, and PoM-broadcast order. The
//	  barrier sits before the relay phase, so a failed test still blacklists
//	  the relay in time for eligibleToRelay.
//
// Obligations of one session are data-independent by construction (each reads
// only immutable message bytes and the challenge seed), so deferring them to
// the barrier cannot change a digest or a verdict.
type storedPrep struct {
	hash   g2gcrypto.Digest
	seed   [16]byte
	ticket g2gcrypto.Ticket
}

// finishStoredResponse signs the StoredResponse for a prepared storage proof
// after the pool flushed its batch.
func (b *base) finishStoredResponse(now sim.Time, prep *storedPrep) wire.Signed {
	return b.signed(now, wire.StoredResponse{
		Hash: prep.hash, Seed: prep.seed, MAC: b.env.pool.Digest(prep.ticket),
	})
}
