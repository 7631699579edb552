package give2get

import (
	"io"

	"give2get/internal/obs"
)

// TraceSink receives one structured record per protocol event during a run.
// Implementations must be safe for concurrent use: a sink set on a
// SimulationConfig used in a RunSweep is shared by every concurrent repeat.
type TraceSink = obs.TraceSink

// TraceRecord is one trace event: simulation and wall timestamps, level,
// event name, and the event's message/node fields.
type TraceRecord = obs.Record

// TraceLevel classifies trace records by severity.
type TraceLevel = obs.Level

// The trace levels, from chattiest to most severe.
const (
	TraceDebug TraceLevel = obs.LevelDebug
	TraceInfo  TraceLevel = obs.LevelInfo
	TraceWarn  TraceLevel = obs.LevelWarn
)

// JSONTraceSink writes one JSON object per record. Its Err method returns
// the first write error; the sink writes nothing after one.
type JSONTraceSink = obs.JSONSink

// NewJSONTraceSink returns a sink writing one JSON object per record at or
// above min to w. At TraceDebug it writes every record of a run, wall
// timestamps included, as g2gsim -tracelog does.
func NewJSONTraceSink(w io.Writer, min TraceLevel) *JSONTraceSink {
	return obs.NewJSONSink(w, min)
}
