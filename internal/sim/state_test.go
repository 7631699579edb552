package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// mixedDraws exercises every RNG method with a deterministic call mix and
// serializes the results into one byte stream for comparison.
func mixedDraws(g *RNG, rounds int) []byte {
	var out bytes.Buffer
	buf := make([]byte, 5)
	for i := 0; i < rounds; i++ {
		switch i % 8 {
		case 0:
			out.WriteString(Time(g.Int63()).String())
		case 1:
			out.WriteByte(byte(g.Intn(200)))
		case 2:
			if g.Bool(0.4) {
				out.WriteByte(1)
			} else {
				out.WriteByte(0)
			}
		case 3:
			out.WriteString(g.Exp(Minute).String())
		case 4:
			// Intn rejects and redraws about half its samples at this
			// bound, so the call consumes a variable number of draws.
			out.WriteByte(byte(g.Intn(1<<30 + 1)))
		case 5:
			for _, v := range g.Perm(6) {
				out.WriteByte(byte(v))
			}
		case 6:
			g.Bytes(buf[:1+i%5])
			out.Write(buf[:1+i%5])
		case 7:
			sub := StreamFromSeed(g.Int63(), "probe")
			out.WriteByte(byte(sub.Intn(100)))
		}
	}
	return out.Bytes()
}

// TestRNGMatchesStdlib pins the counting wrapper to the plain stdlib
// generator: every method must draw the same values in the same order as
// rand.New(rand.NewSource(seed)), including the Read replica behind Bytes.
func TestRNGMatchesStdlib(t *testing.T) {
	g := NewRNG(1234)
	r := rand.New(rand.NewSource(1234))
	got, want := make([]byte, 13), make([]byte, 13)
	for i := 0; i < 500; i++ {
		switch i % 6 {
		case 0:
			if a, b := g.Int63(), r.Int63(); a != b {
				t.Fatalf("round %d: Int63 %d != stdlib %d", i, a, b)
			}
		case 1:
			if a, b := g.Float64(), r.Float64(); a != b {
				t.Fatalf("round %d: Float64 %v != stdlib %v", i, a, b)
			}
		case 2:
			if a, b := g.Intn(97), r.Intn(97); a != b {
				t.Fatalf("round %d: Intn %d != stdlib %d", i, a, b)
			}
		case 3:
			if a, b := g.Exp(Minute), Time(float64(Minute)*r.ExpFloat64()); a != b {
				t.Fatalf("round %d: Exp %v != stdlib %v", i, a, b)
			}
		case 4:
			n := 1 + i%len(got)
			g.Bytes(got[:n])
			r.Read(want[:n])
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("round %d: Bytes % x != stdlib % x", i, got[:n], want[:n])
			}
		case 5:
			a, b := g.Perm(9), r.Perm(9)
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("round %d: Perm %v != stdlib %v", i, a, b)
				}
			}
		}
	}
}

// TestRNGStateRoundTrip captures a stream mid-flight (including a partial
// Bytes remainder) and proves a fresh same-seed stream restored to that
// state continues byte-identically.
func TestRNGStateRoundTrip(t *testing.T) {
	for _, cut := range []int{0, 1, 7, 33, 100} {
		g := NewRNG(77)
		mixedDraws(g, cut)
		st := g.State()
		want := mixedDraws(g, 64)

		h := NewRNG(77)
		if err := h.Restore(st); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if got := mixedDraws(h, 64); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: restored stream diverged", cut)
		}
	}
}

func TestRNGRestorePastIsError(t *testing.T) {
	g := NewRNG(5)
	st := g.State()
	g.Int63()
	if err := g.Restore(st); !errors.Is(err, ErrRNGStatePast) {
		t.Fatalf("restore to past state: err = %v, want ErrRNGStatePast", err)
	}
}

func TestSetNow(t *testing.T) {
	s := New()
	if err := s.SetNow(42 * Second); err != nil {
		t.Fatalf("SetNow on fresh simulator: %v", err)
	}
	if s.Now() != 42*Second {
		t.Fatalf("Now = %v after SetNow", s.Now())
	}
	if err := s.SetNow(41 * Second); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("SetNow rewind: err = %v, want ErrPastEvent", err)
	}
	if err := s.ScheduleEvent(Event{At: 50 * Second, H: fn(func(*Simulator) {})}); err != nil {
		t.Fatalf("schedule after SetNow: %v", err)
	}
	if err := s.SetNow(60 * Second); err == nil {
		t.Fatal("SetNow with queued events succeeded, want error")
	}
}

// TestPendingEvents checks the snapshot walk: every queued event is visited
// once, in firing order — (At, Pri), then scheduling order — with its fields
// intact, and the walk leaves the queue as it was.
func TestPendingEvents(t *testing.T) {
	s := New()
	h := &recordingHandler{}
	// Scheduled out of firing order; P is each event's firing position.
	for _, ev := range []Event{
		{At: 7 * Second, P: 4},
		{At: 3 * Second, Pri: 4, Op: 9, A: 1, B: 2, P: 1},
		{At: 5 * Second, Pri: 2, P: 2},
		{At: 3 * Second, Pri: 1, P: 0},
		{At: 5 * Second, Pri: 2, P: 3}, // same (At, Pri) as P 2: scheduled later
	} {
		ev.H = h
		if err := s.ScheduleEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	var seen []Event
	s.PendingEvents(func(ev Event) { seen = append(seen, ev) })
	if len(seen) != 5 || s.queue.Len() != 5 {
		t.Fatalf("snapshot saw %d events, queue holds %d; want 5 and 5", len(seen), s.queue.Len())
	}
	for i, ev := range seen {
		if ev.P != uint64(i) {
			t.Fatalf("visit %d is event P=%d, want firing order: %+v", i, ev.P, seen)
		}
	}
	if ev := seen[1]; ev.At != 3*Second || ev.Pri != 4 || ev.H != Handler(h) ||
		ev.Op != 9 || ev.A != 1 || ev.B != 2 {
		t.Fatalf("event fields lost in snapshot: %+v", ev)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.fired) != 5 {
		t.Fatalf("fired %d events after the walk, want 5", len(h.fired))
	}
	for i, ev := range h.fired {
		if ev.P != uint64(i) {
			t.Fatalf("fired %d is event P=%d, want the visit order", i, ev.P)
		}
	}
}
