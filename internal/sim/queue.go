package sim

// Handler consumes typed events. Implementations are long-lived objects (the
// trace engine, a workload generator), so scheduling a typed event stores a
// pre-existing pointer in the queue: the hot path never allocates per event.
type Handler interface {
	// HandleEvent runs the event body. It receives the owning simulator so
	// it can schedule follow-up events, and the event itself for its typed
	// arguments.
	HandleEvent(s *Simulator, ev Event)
}

// Event is a unit of work scheduled to run at a virtual instant. Events are
// stored in the queue BY VALUE: pushing and popping moves small structs
// around a slice-backed heap instead of chasing (and allocating) per-event
// pointers.
//
// Events sharing an instant fire in ascending (Pri, scheduling order). The
// Pri band lets producers that discover events lazily — the streaming
// contact scheduler — keep the exact same-instant ordering they would have
// had when pre-scheduling everything up front, which is what keeps audit
// digests stable across scheduling strategies.
type Event struct {
	// At is the virtual instant the event fires.
	At Time
	// Pri orders events that share an instant; lower fires first. The
	// kernel assigns no bands: each producer picks its own.
	Pri int64
	// H is the typed event handler.
	H Handler
	// Op is a handler-defined opcode discriminating event types.
	Op uint32
	// A and B are small integer arguments (node ids, indexes).
	A, B int32
	// P is an extra integer payload (a cursor position, an encoded time).
	P uint64

	seq int64 // scheduling order, breaks (At, Pri) ties deterministically
}

// eventQueue is a binary min-heap of Event values ordered by (At, Pri, seq).
// A hand-rolled heap (rather than container/heap) avoids interface boxing on
// the hot path: the trace replays push hundreds of thousands of events per
// run.
type eventQueue struct {
	items []Event
}

func (q *eventQueue) Len() int { return len(q.items) }

func (q *eventQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Pri != b.Pri {
		return a.Pri < b.Pri
	}
	return a.seq < b.seq
}

func (q *eventQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
}

func (q *eventQueue) push(e Event) {
	q.items = append(q.items, e)
	q.up(len(q.items) - 1)
}

// pop removes and returns the earliest event; ok is false on an empty queue.
func (q *eventQueue) pop() (e Event, ok bool) {
	n := len(q.items)
	if n == 0 {
		return Event{}, false
	}
	top := q.items[0]
	q.swap(0, n-1)
	q.items[n-1] = Event{} // release the handler reference held by the slot
	q.items = q.items[:n-1]
	if n > 1 {
		q.down(0)
	}
	return top, true
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts the item at index i toward the leaves.
func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
