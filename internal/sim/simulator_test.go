package sim

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"
)

// fn adapts a test closure to Handler. Func values are pointer-shaped, so
// storing one in Event.H does not allocate.
type fn func(*Simulator)

func (f fn) HandleEvent(s *Simulator, _ Event) { f(s) }

// schedule enqueues f at instant at, failing the test on error.
func schedule(t testing.TB, s *Simulator, at Time, f fn) {
	t.Helper()
	if err := s.ScheduleEvent(Event{At: at, H: f}); err != nil {
		t.Fatalf("ScheduleEvent(%v): %v", at, err)
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{5 * Second, Second, 3 * Second, 2 * Second, 4 * Second} {
		schedule(t, s, at, func(s *Simulator) {
			got = append(got, s.Now())
		})
	}
	end, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 5*Second {
		t.Errorf("final time = %v, want 5s", end)
	}
	want := []Time{Second, 2 * Second, 3 * Second, 4 * Second, 5 * Second}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEqualTimestampsRunFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(t, s, Second, func(*Simulator) { order = append(order, i) })
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := New()
	schedule(t, s, 2*Second, func(*Simulator) {})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleEvent(Event{At: Second, H: fn(func(*Simulator) {})}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("scheduling in the past: err = %v, want ErrPastEvent", err)
	}
}

func TestEventsScheduleFollowUps(t *testing.T) {
	s := New()
	count := 0
	var tick fn
	tick = func(s *Simulator) {
		count++
		if count < 5 {
			if err := s.ScheduleEvent(Event{At: s.Now() + Minute, H: tick}); err != nil {
				t.Errorf("ScheduleEvent: %v", err)
			}
		}
	}
	schedule(t, s, 0, tick)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if end != 4*Minute {
		t.Errorf("end = %v, want 4m", end)
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		schedule(t, s, Time(i)*Second, func(s *Simulator) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if end != 3*Second {
		t.Errorf("end = %v, want 3s", end)
	}
	if s.queue.Len() != 7 {
		t.Errorf("pending = %d, want 7", s.queue.Len())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		schedule(t, s, Time(i)*Minute, func(*Simulator) { count++ })
	}
	end, err := s.RunUntil(5 * Minute)
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if end != 5*Minute {
		t.Errorf("end = %v, want 5m", end)
	}
	// Events past the horizon stay queued rather than being popped and
	// dropped, so a wider second horizon fires exactly the rest.
	if s.queue.Len() != 5 {
		t.Errorf("pending after RunUntil(5m) = %d, want 5", s.queue.Len())
	}
	end, err = s.RunUntil(10 * Minute)
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count after RunUntil(10m) = %d, want 10", count)
	}
	if end != 10*Minute {
		t.Errorf("end = %v, want 10m", end)
	}
}

// TestQueueProperty drains random schedules and checks the heap invariant
// after every push and that the pop order is the sorted order of the
// scheduled times.
func TestQueueProperty(t *testing.T) {
	property := func(raw []uint32) bool {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		s := New()
		want := make([]Time, 0, len(raw))
		for _, v := range raw {
			at := Time(v % 100000)
			want = append(want, at)
			if err := s.ScheduleEvent(Event{At: at, Pri: int64(v % 3)}); err != nil {
				return false
			}
			if !heapInvariantHolds(&s.queue) {
				return false
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := make([]Time, 0, len(raw))
		for {
			e, ok := s.queue.pop()
			if !ok {
				break
			}
			got = append(got, e.At)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func heapInvariantHolds(q *eventQueue) bool {
	for i := range q.items {
		left, right := 2*i+1, 2*i+2
		if left < len(q.items) && q.less(left, i) {
			return false
		}
		if right < len(q.items) && q.less(right, i) {
			return false
		}
	}
	return true
}
