package sim

import (
	"errors"
	"fmt"
	"time"

	"give2get/internal/obs"
)

// ErrPastEvent is returned by Schedule when an event is scheduled strictly
// before the current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Simulator owns the virtual clock and the event queue. It is single
// threaded: Run drains the queue in timestamp order, advancing the clock to
// each event before executing it.
type Simulator struct {
	now     Time
	queue   eventQueue
	nextSeq int64
	running bool
	stopped bool
	horizon Time // 0 means no horizon
	stats   *obs.SimStats
}

// New returns an empty simulator positioned at the virtual epoch.
func New() *Simulator {
	return &Simulator{}
}

// SetStats attaches a telemetry collector to the kernel. A nil collector
// (the default) makes every recording a single pointer test; instrumentation
// never influences event ordering or the clock.
func (s *Simulator) SetStats(st *obs.SimStats) { s.stats = st }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of events waiting in the queue.
func (s *Simulator) Pending() int { return s.queue.Len() }

// SetNow positions an idle simulator with an empty queue at virtual time t.
// Resuming a checkpointed run starts here: the clock jumps to the snapshot
// instant before the reconstructed future events are scheduled, so none of
// them can trip the no-rewind check. Any other use is an error.
func (s *Simulator) SetNow(t Time) error {
	if s.running {
		return errors.New("sim: SetNow called while running")
	}
	if s.queue.Len() != 0 {
		return errors.New("sim: SetNow needs an empty queue")
	}
	if t < s.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, t, s.now)
	}
	s.now = t
	return nil
}

// PendingEvents calls fn once per queued event with a copy of the event, in
// heap (arbitrary) order. Checkpointing uses it to snapshot the future event
// set; callers must not schedule or cancel from within fn.
func (s *Simulator) PendingEvents(fn func(Event)) {
	for i := range s.queue.items {
		fn(s.queue.items[i])
	}
}

// funcAdapter dispatches closure events scheduled with Schedule/After: the
// closure rides in Event.Data (func values are pointer-shaped, so the
// conversion does not allocate).
type funcAdapter struct{}

func (funcAdapter) HandleEvent(s *Simulator, ev Event) {
	ev.Data.(func(*Simulator))(s)
}

var theFuncAdapter funcAdapter

// ScheduleEvent enqueues a typed event. The caller fills At, Pri, H, and the
// argument fields; seq and bookkeeping are assigned here. Typed events carry
// no cancellation handle, which keeps the steady-state push/pop path free of
// allocations entirely. Scheduling in the past is an error: trace replays
// must never rewind the clock.
func (s *Simulator) ScheduleEvent(ev Event) error {
	if ev.At < s.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, ev.At, s.now)
	}
	ev.seq = s.nextSeq
	s.nextSeq++
	ev.slot = -1
	s.queue.push(ev)
	s.stats.NoteScheduled(s.queue.Len())
	return nil
}

// Schedule enqueues fn to run at instant at. It returns a handle which can
// later be passed to Cancel. Scheduling in the past is an error: trace
// replays must never rewind the clock.
func (s *Simulator) Schedule(at Time, fn func(s *Simulator)) (EventRef, error) {
	if at < s.now {
		return EventRef{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	slot, ref := s.queue.allocSlot(int32(s.queue.Len()))
	s.queue.push(Event{
		At:   at,
		Pri:  PriNormal,
		H:    theFuncAdapter,
		Data: fn,
		seq:  s.nextSeq,
		slot: slot,
	})
	s.nextSeq++
	s.stats.NoteScheduled(s.queue.Len())
	return ref, nil
}

// After enqueues fn to run d after the current virtual time.
func (s *Simulator) After(d Time, fn func(s *Simulator)) (EventRef, error) {
	return s.Schedule(s.now.Add(d), fn)
}

// Cancel removes a scheduled event from the queue. Cancelling an event that
// already fired or was already cancelled is a no-op and reports false.
func (s *Simulator) Cancel(ref EventRef) bool {
	pos := s.queue.lookup(ref)
	if pos < 0 {
		return false
	}
	s.queue.remove(int(pos))
	s.stats.NoteCancelled()
	return true
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run drains the event queue until it is empty, Stop is called, or the
// horizon (if set with RunUntil) is reached. It returns the virtual time at
// which the simulation settled.
func (s *Simulator) Run() (Time, error) {
	if s.running {
		return s.now, errors.New("sim: Run called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	for !s.stopped {
		if s.horizon > 0 && s.queue.Len() > 0 && s.queue.items[0].At > s.horizon {
			// Past the horizon: leave the clock at the horizon and keep the
			// event queued. A later Run/RunUntil with a wider (or no)
			// horizon picks it up — incremental advancement must not lose
			// events.
			s.now = s.horizon
			break
		}
		e, ok := s.queue.pop()
		if !ok {
			break
		}
		s.now = e.At
		s.stats.NoteFired(time.Duration(e.At))
		e.H.HandleEvent(s, e)
	}
	return s.now, nil
}

// RunUntil runs the simulation up to and including events at instant horizon,
// then returns. Events scheduled after the horizon stay queued for a later
// Run or RunUntil.
func (s *Simulator) RunUntil(horizon Time) (Time, error) {
	s.horizon = horizon
	defer func() { s.horizon = 0 }()
	return s.Run()
}
