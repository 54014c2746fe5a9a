package kernel

import "repro/internal/obs"

// trace emits an event if tracing is enabled.
func (k *Kernel) trace(ty obs.Kind, t *Thread, arg uint64) {
	if k.Tracer == nil {
		return
	}
	ev := obs.Event{Cycle: k.M.Stats.Cycles, Type: ty, Arg: arg, CPU: k.CPUID}
	if t != nil {
		ev.Thread = t.ID
		ev.PC = t.Ctx.PC
	}
	k.Tracer.Event(ev)
}
