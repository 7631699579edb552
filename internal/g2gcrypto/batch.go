package g2gcrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"give2get/internal/obs"
)

// Ticket identifies one obligation submitted to a Pool, valid from its
// Submit* call until the next Flush-then-Submit cycle resets the batch.
type Ticket int

// cryptoJob is one distinct heavy-HMAC computation of a batch. Obligations
// that submit identical (message, seed, iterations) content coalesce onto one
// job, so a prover and its verifier — who by construction hash the same bytes
// — cost the batch a single keystream walk.
type cryptoJob struct {
	msg        []byte
	seedOff    int // into Pool.seedBuf
	seedLen    int
	iterations int
	out        Digest
	dur        time.Duration
}

// obligation is one submitted ticket: which job answers it, and (for verify
// obligations) the expected digest.
type obligation struct {
	job    int
	expect Digest
	verify bool
	// primary marks the first obligation that created the job; telemetry
	// charges the job's wall time to it and zero to coalesced duplicates,
	// so the heavy-HMAC timer never double-counts one computation.
	primary bool
}

// Pool batches data-independent heavy-HMAC obligations and computes them at
// Flush, on the caller's goroutine. The contract that keeps runs
// deterministic:
//
//   - Submit order defines obligation (and job) order; tickets are dense
//     indices in that order.
//   - Flush is a barrier: it returns only when every job is computed, and
//     all telemetry is recorded in obligation order.
//   - Digest/Verdict read results by ticket, so consumers observe values in
//     whatever order they choose.
//
// Message slices are aliased (callers must not mutate them before Flush);
// seeds are copied into an internal arena at submit time. A Pool belongs to
// one single-threaded run, like the Env that owns it.
type Pool struct {
	stats *obs.CryptoStats
	// spans is the run's recorder: each job is timed as a crypto_hmac child
	// of whatever span the caller has open, so the caller's self time
	// excludes the keystream walk.
	spans *obs.SpanRecorder

	jobs        []cryptoJob
	obligations []obligation
	seedBuf     []byte
	// byKey maps the content hash of (msg, seed, iterations) to its job
	// index for coalescing.
	byKey   map[Digest]int
	flushed bool

	scratch HMACScratch
}

// NewPool returns an empty batch pool. stats and spans are the optional
// telemetry sinks; both may be nil.
func NewPool(stats *obs.CryptoStats, spans *obs.SpanRecorder) *Pool {
	return &Pool{stats: stats, spans: spans, byKey: make(map[Digest]int)}
}

// SetTelemetry attaches (or detaches, with nils) the telemetry sinks.
func (p *Pool) SetTelemetry(stats *obs.CryptoStats, spans *obs.SpanRecorder) {
	p.stats, p.spans = stats, spans
}

// Pending returns the number of obligations awaiting Flush. It is zero right
// after a flush, which is the engine's checkpoint-barrier invariant.
func (p *Pool) Pending() int {
	if p.flushed {
		return 0
	}
	return len(p.obligations)
}

// SubmitCompute registers a heavy-HMAC computation and returns its ticket.
// The digest becomes available after Flush via Digest.
func (p *Pool) SubmitCompute(msg, seed []byte, iterations int) Ticket {
	return p.submit(msg, seed, iterations, Digest{}, false)
}

// SubmitVerify registers a verification obligation: after Flush, Verdict
// reports whether the recomputed proof equals expect (constant-time compare,
// like VerifyHeavyHMAC).
func (p *Pool) SubmitVerify(msg, seed []byte, iterations int, expect Digest) Ticket {
	return p.submit(msg, seed, iterations, expect, true)
}

func (p *Pool) submit(msg, seed []byte, iterations int, expect Digest, verify bool) Ticket {
	if p.flushed {
		p.reset()
	}
	if iterations < 1 {
		iterations = 1
	}
	key := p.contentKey(msg, seed, iterations)
	j, ok := p.byKey[key]
	primary := !ok
	if !ok {
		off := len(p.seedBuf)
		p.seedBuf = append(p.seedBuf, seed...)
		j = len(p.jobs)
		p.jobs = append(p.jobs, cryptoJob{
			msg: msg, seedOff: off, seedLen: len(seed), iterations: iterations,
		})
		p.byKey[key] = j
	}
	p.obligations = append(p.obligations, obligation{
		job: j, expect: expect, verify: verify, primary: primary,
	})
	return Ticket(len(p.obligations) - 1)
}

// contentKey hashes the job content so identical submissions coalesce.
func (p *Pool) contentKey(msg, seed []byte, iterations int) Digest {
	h := sha256.New()
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(msg)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(seed)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(iterations))
	h.Write(hdr[:])
	h.Write(msg)
	h.Write(seed)
	var key Digest
	h.Sum(key[:0])
	return key
}

// Flush computes every pending job and records its telemetry. After Flush,
// every submitted ticket's Digest/Verdict is available; the next Submit
// starts a fresh batch.
func (p *Pool) Flush() {
	if p.flushed {
		return
	}
	if len(p.jobs) > 0 {
		timed := p.stats.Timed()
		for i := range p.jobs {
			p.runJob(&p.jobs[i], timed)
		}
		p.stats.NotePoolFlush(int64(len(p.jobs)))
	}
	// One heavy-HMAC note per obligation, in obligation order: iterations
	// are always counted (so usage and telemetry stay reconciled), while the
	// job's wall time is charged to the primary obligation only.
	for i := range p.obligations {
		ob := &p.obligations[i]
		j := &p.jobs[ob.job]
		var d time.Duration
		if ob.primary {
			d = j.dur
		}
		p.stats.NoteHeavyHMAC(d, j.iterations)
	}
	p.flushed = true
}

func (p *Pool) runJob(j *cryptoJob, timed bool) {
	seed := p.seedBuf[j.seedOff : j.seedOff+j.seedLen]
	p.spans.Enter(obs.SpanCrypto)
	if timed {
		start := time.Now()
		j.out = p.scratch.HeavyHMAC(j.msg, seed, j.iterations)
		j.dur = time.Since(start)
	} else {
		j.out = p.scratch.HeavyHMAC(j.msg, seed, j.iterations)
	}
	p.spans.Exit()
}

// Digest returns the computed proof of a flushed ticket.
func (p *Pool) Digest(t Ticket) Digest {
	return p.jobs[p.obligations[t].job].out
}

// Verdict reports whether a flushed verify ticket's recomputed proof matches
// the expectation it was submitted with.
func (p *Pool) Verdict(t Ticket) bool {
	ob := &p.obligations[t]
	out := p.jobs[ob.job].out
	return ob.verify && hmac.Equal(out[:], ob.expect[:])
}

// reset clears the batch for reuse, keeping the backing arrays.
func (p *Pool) reset() {
	for i := range p.jobs {
		p.jobs[i].msg = nil
	}
	p.jobs = p.jobs[:0]
	p.obligations = p.obligations[:0]
	p.seedBuf = p.seedBuf[:0]
	clear(p.byKey)
	p.flushed = false
}
