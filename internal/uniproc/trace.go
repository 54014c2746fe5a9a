package uniproc

import "repro/internal/obs"

// trace emits an event when tracing is enabled.
func (p *Processor) trace(ty obs.Kind, t *Thread, arg uint64) {
	if p.Tracer == nil {
		return
	}
	ev := obs.Event{Cycle: p.clock, Type: ty, Arg: arg}
	if t != nil {
		ev.Thread = t.ID
	}
	p.Tracer.Event(ev)
}
