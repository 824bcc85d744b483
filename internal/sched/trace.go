package sched

import "cmpsched/internal/obs"

// TraceAware is implemented by schedulers that emit their scheduling
// decisions — steals, migrations, cache-level pins — into the simulator's
// task-lifecycle tracer.  The simulator sets the tracer (nil when tracing is
// off) before Reset, mirroring the MachineAware hook; the tracer carries the
// simulated clock, which the simulator advances before every scheduler
// interaction, so emitted events are stamped with the decision's simulated
// time.  All obs.Tracer emitters are no-ops on a nil tracer, so schedulers
// call them unconditionally.
type TraceAware interface {
	// SetTracer installs the event sink for the next run (nil disables).
	SetTracer(tr *obs.Tracer)
}

// SetTracer implements TraceAware.
func (w *WS) SetTracer(tr *obs.Tracer) { w.tr = tr }

// SetTracer implements TraceAware.
func (s *SpaceBounded) SetTracer(tr *obs.Tracer) { s.tr = tr }
