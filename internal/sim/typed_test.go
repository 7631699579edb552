package sim

import (
	"testing"
	"unsafe"
)

// recordingHandler appends (Op, A, B, P) tuples as its events fire.
type recordingHandler struct {
	fired []Event
}

func (h *recordingHandler) HandleEvent(s *Simulator, ev Event) {
	h.fired = append(h.fired, ev)
}

func TestTypedEventsFireInOrder(t *testing.T) {
	s := New()
	h := &recordingHandler{}
	for i, at := range []Time{5 * Second, Second, 3 * Second} {
		if err := s.ScheduleEvent(Event{At: at, H: h, Op: uint32(i)}); err != nil {
			t.Fatalf("ScheduleEvent: %v", err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wantOps := []uint32{1, 2, 0}
	if len(h.fired) != len(wantOps) {
		t.Fatalf("fired %d events, want %d", len(h.fired), len(wantOps))
	}
	for i, want := range wantOps {
		if h.fired[i].Op != want {
			t.Errorf("event %d: op = %d, want %d", i, h.fired[i].Op, want)
		}
	}
}

func TestTypedEventPastRejected(t *testing.T) {
	s := New()
	h := &recordingHandler{}
	if err := s.ScheduleEvent(Event{At: 2 * Second, H: h}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleEvent(Event{At: Second, H: h}); err == nil {
		t.Error("scheduling a typed event in the past succeeded")
	}
}

// TestPriorityBandsOrderSameInstant checks that at a shared instant, events
// fire in ascending Pri regardless of scheduling order, and that an event in
// a high band comes after low-band events.
func TestPriorityBandsOrderSameInstant(t *testing.T) {
	s := New()
	h := &recordingHandler{}
	var highRanAfter bool
	// Schedule the high-band event first: despite the lower seq, its band
	// must place it after the typed events below.
	if err := s.ScheduleEvent(Event{At: Second, Pri: 1 << 62, H: fn(func(*Simulator) {
		highRanAfter = len(h.fired) == 3
	})}); err != nil {
		t.Fatal(err)
	}
	for _, pri := range []int64{40, 10, 20} {
		if err := s.ScheduleEvent(Event{At: Second, Pri: pri, H: h, P: uint64(pri)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 20, 40}
	for i, w := range want {
		if h.fired[i].P != w {
			t.Fatalf("band order %v, want %v", h.fired, want)
		}
	}
	if !highRanAfter {
		t.Error("high-band event ran before low-band typed events")
	}
}

// TestSamePriTieBreaksFIFO checks scheduling order decides within a band.
func TestSamePriTieBreaksFIFO(t *testing.T) {
	s := New()
	h := &recordingHandler{}
	for i := 0; i < 10; i++ {
		if err := s.ScheduleEvent(Event{At: Second, Pri: 7, H: h, P: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ev := range h.fired {
		if ev.P != uint64(i) {
			t.Fatalf("tie order broken at %d: %+v", i, h.fired)
		}
	}
}

// sinkHandler is an empty handler for allocation measurements.
type sinkHandler struct{}

func (sinkHandler) HandleEvent(*Simulator, Event) {}

// TestTypedSchedulePopAllocFree pins the tentpole guarantee: pushing and
// draining typed events allocates nothing once the heap's backing arrays are
// warm. A regression here reintroduces per-event garbage on the hottest path
// in the simulator.
func TestTypedSchedulePopAllocFree(t *testing.T) {
	s := New()
	h := sinkHandler{}
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		if err := s.ScheduleEvent(Event{At: Time(i), H: h}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		base := s.Now()
		for i := 0; i < 64; i++ {
			if err := s.ScheduleEvent(Event{At: base + Time(i), H: h, Op: 1, A: 2, B: 3, P: 4}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("typed schedule+run allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestEventSize pins the queue's element size on 64-bit platforms: every
// push, pop and sift moves whole Event values, so a new field is a cost on
// the hottest path in the simulator.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Errorf("sizeof(Event) = %d bytes, want 64", got)
	}
}
