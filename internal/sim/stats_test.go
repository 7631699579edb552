package sim

import (
	"testing"

	"give2get/internal/obs"
)

func TestSimulatorStats(t *testing.T) {
	s := New()
	var st obs.SimStats
	s.SetStats(&st)

	fired := 0
	for i := 1; i <= 3; i++ {
		schedule(t, s, Time(i)*Second, func(*Simulator) { fired++ })
	}
	schedule(t, s, 10*Second, func(*Simulator) { t.Fatal("event past the horizon ran") })
	if _, err := s.RunUntil(5 * Second); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
	if got := st.EventsScheduled.Load(); got != 4 {
		t.Fatalf("scheduled = %d, want 4", got)
	}
	if got := st.EventsFired.Load(); got != 3 {
		t.Fatalf("fired counter = %d, want 3", got)
	}
	if got := st.QueueHighWater.Load(); got != 4 {
		t.Fatalf("queue high water = %d, want 4", got)
	}
}

// TestSimulatorStatsDeterminism asserts that attaching stats does not change
// the execution order or final clock of a run.
func TestSimulatorStatsDeterminism(t *testing.T) {
	run := func(st *obs.SimStats) ([]int, Time) {
		s := New()
		s.SetStats(st)
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			at := Time((i * 7 % 5)) * Second
			schedule(t, s, at, func(*Simulator) { order = append(order, i) })
		}
		end, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return order, end
	}
	plainOrder, plainEnd := run(nil)
	instOrder, instEnd := run(&obs.SimStats{})
	if plainEnd != instEnd {
		t.Fatalf("end time differs: %v vs %v", plainEnd, instEnd)
	}
	if len(plainOrder) != len(instOrder) {
		t.Fatalf("order length differs")
	}
	for i := range plainOrder {
		if plainOrder[i] != instOrder[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, plainOrder, instOrder)
		}
	}
}
