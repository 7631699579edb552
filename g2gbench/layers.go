package main

import (
	"fmt"
	"sort"
	"time"

	"give2get/internal/g2gcrypto"
	"give2get/internal/kclique"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// The outside layer passes time single layers on the workload's own inputs,
// from outside the program: a standalone cursor pass, a kernel replay of the
// contact schedule, and per-operation wire and crypto costs. The ledger
// multiplies each per-operation cost by the run's exact count, so a gap
// between the modelled seconds and the traced span self-time shows.

// passes holds what the outside passes measured.
type passes struct {
	// contacts is the number of contacts the runs' cursors yield (per run,
	// summed over runs); nextNS the cost of one Cursor.Next.
	contacts float64
	nextNS   float64
	// eventNS is the kernel cost of one fired event in a replay of the
	// contact schedule.
	eventNS float64
	// wireSignNS and wireVerifyNS are the envelope costs (encode plus
	// crypto) of the run's most frequent kinds, weighted by their counts;
	// wireKinds names them.
	wireSignNS, wireVerifyNS float64
	wireKinds                []string
	// signNS, verifyNS and hmacNS are the bare provider costs.
	signNS, verifyNS, hmacNS float64
	// detect is the k-clique community detection time over the sources.
	detect time.Duration
}

// repeat calls fn until budget has elapsed (at least once) and returns the
// median of its per-operation costs in ns. fn reports how many operations
// it performed.
func repeat(budget time.Duration, fn func() (int, error)) (float64, error) {
	var costs []float64
	start := time.Now()
	for len(costs) == 0 || time.Since(start) < budget {
		t0 := time.Now()
		ops, err := fn()
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if ops > 0 {
			costs = append(costs, float64(d)/float64(ops))
		}
		if len(costs) == 0 && time.Since(start) > budget {
			return 0, nil
		}
	}
	return median(costs), nil
}

// streamPrefix counts the contacts a run's cursor yields: the engine pulls
// until the first contact starting at or after the replay end.
func streamPrefix(cur trace.Cursor, endAt sim.Time) int {
	n := 0
	for {
		c, ok := cur.Next()
		if !ok {
			return n
		}
		n++
		if c.Start >= endAt {
			return n
		}
	}
}

// tracePass times Cursor.Next over each source's replayed prefix.
func tracePass(streams []stream, budget time.Duration) (contacts, nextNS float64, err error) {
	var total float64
	for _, s := range streams {
		var n int
		ns, err := repeat(budget, func() (int, error) {
			cur, err := s.src.Cursor()
			if err != nil {
				return 0, err
			}
			defer cur.Close()
			n = streamPrefix(cur, s.endAt)
			return n, cur.Err()
		})
		if err != nil {
			return 0, 0, fmt.Errorf("trace pass %s: %w", s.name, err)
		}
		c := float64(n * s.runs)
		contacts += c
		total += c * ns
	}
	if contacts > 0 {
		nextNS = total / contacts
	}
	return contacts, nextNS, nil
}

// Replay event ops.
const (
	opStart = iota + 1
	opEnd
)

// replayer feeds a contact schedule through the kernel with a no-op typed
// handler, keeping one pending start at a time as the engine does, so the
// queue holds what the engine's holds for contacts.
type replayer struct {
	contacts       []trace.Contact // the cursor prefix, in source order
	startAt, endAt sim.Time
	next           int
	fired          int
	err            error
}

func (r *replayer) HandleEvent(s *sim.Simulator, ev sim.Event) {
	r.fired++
	if ev.Op != opStart {
		return
	}
	c := r.contacts[ev.P]
	if err := s.ScheduleEvent(sim.Event{
		At: min(c.End, r.endAt), Pri: 2*int64(ev.P) + 1, H: r, Op: opEnd,
	}); err != nil && r.err == nil {
		r.err = err
	}
	if err := r.scheduleNext(s); err != nil && r.err == nil {
		r.err = err
	}
}

func (r *replayer) scheduleNext(s *sim.Simulator) error {
	for r.next < len(r.contacts) {
		i := r.next
		r.next++
		c := r.contacts[i]
		start, end := max(c.Start, r.startAt), min(c.End, r.endAt)
		if start >= end {
			continue
		}
		return s.ScheduleEvent(sim.Event{At: start, Pri: 2 * int64(i), H: r, Op: opStart, P: uint64(i)})
	}
	return nil
}

// replay runs the schedule once through a fresh kernel and returns the
// number of events fired.
func (r *replayer) replay() (int, error) {
	r.next, r.fired, r.err = 0, 0, nil
	s := sim.New()
	s.SetStats(&obs.SimStats{}) // the engine's kernel always counts
	if err := r.scheduleNext(s); err != nil {
		return 0, err
	}
	if _, err := s.RunUntil(r.endAt); err != nil {
		return 0, err
	}
	return r.fired, r.err
}

// kernelPass times one fired event of each source's contact schedule; the
// result is weighted by each schedule's events times its runs.
func kernelPass(streams []stream, budget time.Duration) (float64, error) {
	var events, total float64
	for _, s := range streams {
		cur, err := s.src.Cursor()
		if err != nil {
			return 0, err
		}
		r := &replayer{startAt: s.startAt, endAt: s.endAt}
		for {
			c, ok := cur.Next()
			if !ok || c.Start >= s.endAt {
				break
			}
			r.contacts = append(r.contacts, c)
		}
		err = cur.Err()
		cur.Close()
		if err != nil {
			return 0, fmt.Errorf("kernel pass %s: %w", s.name, err)
		}
		var fired int
		ns, err := repeat(budget, func() (int, error) {
			n, err := r.replay()
			fired = n
			return n, err
		})
		if err != nil {
			return 0, fmt.Errorf("kernel pass %s: %w", s.name, err)
		}
		w := float64(fired * s.runs)
		events += w
		total += w * ns
	}
	if events == 0 {
		return 0, nil
	}
	return total / events, nil
}

// sampleBodies builds one representative body per wire kind the benchmark
// can time (every kind but the PoM, which carries a whole evidence chain).
func sampleBodies(id g2gcrypto.Identity, sys g2gcrypto.System) (map[string]wire.Body, error) {
	h := g2gcrypto.Hash([]byte("g2gbench"))
	var seed [16]byte
	var key g2gcrypto.SessionKey
	sealed, err := sys.SealFor(1, make([]byte, 96))
	if err != nil {
		return nil, err
	}
	por := wire.ProofOfRelay{Hash: h, From: 0, To: 1, DPrime: 2, FM: message.Quality(3), FBD: message.Quality(5), Frame: 7}
	var sc wire.Scratch
	signedPOR := sc.Sign(id, sim.Minute, por)
	bodies := []wire.Body{
		wire.RelayRequest{Hash: h},
		wire.RelayOK{Hash: h},
		wire.RelayDecline{Hash: h},
		wire.RelayTransfer{Hash: h, FM: 3, GenAt: sim.Minute, Encrypted: sealed},
		por,
		wire.KeyReveal{Hash: h, Key: key},
		wire.PORChallenge{Hash: h, Seed: seed},
		wire.PORResponse{First: signedPOR, Second: signedPOR},
		wire.StoredResponse{Hash: h, Seed: seed, MAC: h},
		wire.FQRequest{Hash: h, DPrime: 2},
		wire.FQResponse{Responder: 1, DPrime: 2, FQ: 3, Frame: 7},
	}
	out := make(map[string]wire.Body, len(bodies))
	for _, b := range bodies {
		out[b.Kind().String()] = b
	}
	return out, nil
}

// topWireKinds is how many of the run's most frequent kinds the wire pass
// times.
const topWireKinds = 3

// cryptoPass times envelope sign/verify on the run's most frequent wire
// kinds and the bare provider operations, with the fast provider wrapped
// exactly as an untraced run wraps it (counts on, timers off).
func cryptoPass(p *passes, tel *obs.Snapshot, population, iterations int, budget time.Duration) error {
	stats := &obs.CryptoStats{}
	stats.DisableTiming()
	raw, err := g2gcrypto.NewFast(max(population, 3), 1)
	if err != nil {
		return err
	}
	sys := g2gcrypto.Instrument(raw, stats)
	id, err := sys.Identity(0)
	if err != nil {
		return err
	}
	bodies, err := sampleBodies(id, sys)
	if err != nil {
		return err
	}

	type kindCount struct {
		name  string
		count int64
	}
	var kinds []kindCount
	for name, w := range tel.Protocol.Wire {
		if _, ok := bodies[name]; ok && w.Count > 0 {
			kinds = append(kinds, kindCount{name, w.Count})
		}
	}
	sort.Slice(kinds, func(i, j int) bool {
		if kinds[i].count != kinds[j].count {
			return kinds[i].count > kinds[j].count
		}
		return kinds[i].name < kinds[j].name
	})
	if len(kinds) > topWireKinds {
		kinds = kinds[:topWireKinds]
	}
	var weight float64
	var sc wire.Scratch
	for _, k := range kinds {
		body := bodies[k.name]
		signed := sc.Sign(id, sim.Minute, body)
		const batch = 256
		signNS, err := repeat(budget/time.Duration(2*len(kinds)), func() (int, error) {
			for i := 0; i < batch; i++ {
				signed = sc.Sign(id, sim.Minute, body)
			}
			return batch, nil
		})
		if err != nil {
			return err
		}
		verifyNS, err := repeat(budget/time.Duration(2*len(kinds)), func() (int, error) {
			for i := 0; i < batch; i++ {
				if !sc.Verify(sys, signed) {
					return 0, fmt.Errorf("wire pass: %s envelope does not verify", k.name)
				}
			}
			return batch, nil
		})
		if err != nil {
			return err
		}
		w := float64(k.count)
		weight += w
		p.wireSignNS += w * signNS
		p.wireVerifyNS += w * verifyNS
		p.wireKinds = append(p.wireKinds, k.name)
	}
	if weight > 0 {
		p.wireSignNS /= weight
		p.wireVerifyNS /= weight
	}

	// The bare provider on a signing input the size of the most frequent
	// kind's (a RELAY_RQST when the run sent none).
	input := make([]byte, 1+4+8+32)
	if len(kinds) > 0 {
		input = bodies[kinds[0].name].MarshalBody(make([]byte, 13))
	}
	sig := id.Sign(input)
	const batch = 256
	if p.signNS, err = repeat(budget/4, func() (int, error) {
		for i := 0; i < batch; i++ {
			sig = id.Sign(input)
		}
		return batch, nil
	}); err != nil {
		return err
	}
	if p.verifyNS, err = repeat(budget/4, func() (int, error) {
		for i := 0; i < batch; i++ {
			if !sys.Verify(0, input, sig) {
				return 0, fmt.Errorf("crypto pass: signature does not verify")
			}
		}
		return batch, nil
	}); err != nil {
		return err
	}
	msg, seed := make([]byte, 96), make([]byte, 16)
	var hs g2gcrypto.HMACScratch
	p.hmacNS, err = repeat(budget/2, func() (int, error) {
		hs.HeavyHMAC(msg, seed, iterations)
		return 1, nil
	})
	return err
}

// maxDetectNodes bounds the populations the detection pass covers: the
// presets' tens of nodes. k-clique percolation is super-linear in the
// population (over a minute on the 20k-node trace, whose run never detects
// communities), so larger sources are left out.
const maxDetectNodes = 1000

// detectPass times k-clique community detection (k = 3, adaptive
// threshold, as the outsider deviation runs it) over each source of at
// most maxDetectNodes nodes.
func detectPass(streams []stream) (time.Duration, error) {
	var total time.Duration
	for _, s := range streams {
		if s.src.Nodes() > maxDetectNodes {
			continue
		}
		tr, err := trace.Materialize(s.src)
		if err != nil {
			return 0, fmt.Errorf("detect pass %s: %w", s.name, err)
		}
		t0 := time.Now()
		_, err = kclique.DetectAuto(tr, kclique.DefaultOptions().K)
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("detect pass %s: %w", s.name, err)
		}
	}
	return total, nil
}
