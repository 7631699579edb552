package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{5 * Second, Second, 3 * Second, 2 * Second, 4 * Second} {
		at := at
		if _, err := s.Schedule(at, func(s *Simulator) {
			got = append(got, s.Now())
		}); err != nil {
			t.Fatalf("Schedule(%v): %v", at, err)
		}
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
		if _, err := s.Schedule(Second, func(*Simulator) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
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
	if _, err := s.Schedule(2*Second, func(*Simulator) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(Second, func(*Simulator) {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("scheduling in the past: err = %v, want ErrPastEvent", err)
	}
}

func TestEventsScheduleFollowUps(t *testing.T) {
	s := New()
	count := 0
	var tick func(s *Simulator)
	tick = func(s *Simulator) {
		count++
		if count < 5 {
			if _, err := s.After(Minute, tick); err != nil {
				t.Errorf("After: %v", err)
			}
		}
	}
	if _, err := s.Schedule(0, tick); err != nil {
		t.Fatal(err)
	}
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

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e, err := s.Schedule(Second, func(*Simulator) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if s.Cancel(e) {
		t.Error("double Cancel returned true")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event still fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var ran []int
	events := make([]EventRef, 0, 20)
	for i := 0; i < 20; i++ {
		i := i
		e, err := s.Schedule(Time(i)*Second, func(*Simulator) { ran = append(ran, i) })
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	// Cancel every third event.
	want := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		if i%3 == 0 {
			if !s.Cancel(events[i]) {
				t.Fatalf("Cancel(%d) failed", i)
			}
		} else {
			want = append(want, i)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != len(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran %v, want %v", ran, want)
		}
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		if _, err := s.Schedule(Time(i)*Second, func(s *Simulator) {
			count++
			if count == 3 {
				s.Stop()
			}
		}); err != nil {
			t.Fatal(err)
		}
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
	if s.Pending() != 7 {
		t.Errorf("pending = %d, want 7", s.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		if _, err := s.Schedule(Time(i)*Minute, func(*Simulator) { count++ }); err != nil {
			t.Fatal(err)
		}
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
	if s.Pending() != 5 {
		t.Errorf("pending after RunUntil(5m) = %d, want 5", s.Pending())
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

// TestQueueProperty drains random schedules and checks the pop order is the
// sorted order of the scheduled times.
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
			if _, err := s.Schedule(at, func(*Simulator) {}); err != nil {
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

// TestQueueRandomCancelProperty interleaves random schedules and cancels and
// checks heap integrity is preserved throughout.
func TestQueueRandomCancelProperty(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New()
		live := make([]EventRef, 0, 64)
		for op := 0; op < 500; op++ {
			if len(live) == 0 || r.Intn(3) != 0 {
				e, err := s.Schedule(Time(r.Intn(1_000_000)), func(*Simulator) {})
				if err != nil {
					return false
				}
				live = append(live, e)
			} else {
				i := r.Intn(len(live))
				s.Cancel(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if !heapInvariantHolds(&s.queue) {
				return false
			}
		}
		// Everything left must still drain in order.
		var prev Time = -1
		for {
			e, ok := s.queue.pop()
			if !ok {
				break
			}
			if e.At < prev {
				return false
			}
			prev = e.At
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func heapInvariantHolds(q *eventQueue) bool {
	for i := range q.items {
		if s := q.items[i].slot; s >= 0 && q.slots[s].pos != int32(i) {
			return false
		}
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
