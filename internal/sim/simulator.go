package sim

import (
	"errors"
	"fmt"

	"give2get/internal/obs"
)

// ErrPastEvent is returned by ScheduleEvent when an event is scheduled
// strictly before the current virtual time.
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

// ScheduleEvent enqueues a typed event. The caller fills At, Pri, H, and the
// argument fields; the scheduling order that breaks (At, Pri) ties is
// assigned here. The steady-state push/pop path allocates nothing.
// Scheduling in the past is an error: trace replays must never rewind the
// clock.
func (s *Simulator) ScheduleEvent(ev Event) error {
	if ev.At < s.now {
		return fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, ev.At, s.now)
	}
	ev.seq = s.nextSeq
	s.nextSeq++
	s.queue.push(ev)
	s.stats.NoteScheduled(s.queue.Len())
	return nil
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
		s.stats.NoteFired()
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
