package bench

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vmach/kernel"
)

// WBufRow is one line of the §5.1 write-buffer ablation: the cost of one
// critical section (enter/increment/leave) for a one-store mechanism (RAS)
// and a many-store mechanism (Lamport reservation) under different
// write-buffer configurations.
type WBufRow struct {
	Memory      string  `json:"memory"`
	RASMicros   float64 `json:"ras_micros"`
	LamportAMic float64 `json:"lamport_a_micros"`
	Ratio       float64 `json:"ratio"` // LamportA / RAS
}

// TableWriteBuffer reproduces §5.1's design remark: "a scheme requiring
// several writes will not work well on a memory system with a
// write-through cache and a shallow write-buffer". The reservation
// protocol issues five stores per critical section against RAS's two, so
// shallowing the write buffer hurts it disproportionately.
func TableWriteBuffer(h *Harness, iters int) ([]WBufRow, error) {
	mems := []struct {
		name  string
		depth int
		drain int
	}{
		{"no write buffer", 0, 0},
		{"deep buffer (8 x 6cy)", 8, 6},
		{"shallow buffer (2 x 12cy)", 2, 12},
	}
	// 40 ALU instructions of application work between critical sections:
	// enough for any buffer to drain between iterations, so the cost
	// difference isolates the stores burst inside the mechanism itself.
	const pad = 40
	var rows []WBufRow
	for _, mem := range mems {
		prof := arch.R3000()
		prof.ClassCycles[isa.ClassStore] = 1 // cost moves into the buffer model
		if mem.depth > 0 {
			prof = prof.WithWriteBuffer(mem.depth, mem.drain)
		}
		per := func(m guest.Mechanism) (float64, error) {
			strat, at := strategyFor(m)
			k, err := runGuest(h, prof, strat, at, noPreempt,
				guest.WriteBufferProbeProgram(m, iters, pad))
			if err != nil {
				return 0, err
			}
			return prof.Micros(k.M.Stats.Cycles) / float64(iters), nil
		}
		ras, err := per(guest.MechDesignated)
		if err != nil {
			return nil, err
		}
		lam, err := per(guest.MechLamportA)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WBufRow{mem.name, ras, lam, lam / ras})
	}
	return rows, nil
}

// FormatWriteBuffer renders the write-buffer ablation.
func FormatWriteBuffer(rows []WBufRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %14s %8s\n", "Memory system", "RAS (us)", "Lamport-a (us)", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10.2f %14.2f %8.2f\n", r.Memory, r.RASMicros, r.LamportAMic, r.Ratio)
	}
	return b.String()
}

// RangesRow is one line of the multi-range registration ablation: the same
// contended-counter workload, under a registration table of growing size.
type RangesRow struct {
	Ranges      int     `json:"ranges"`
	Micros      float64 `json:"micros"`
	CheckCycles int     `json:"check_cycles"` // kernel cycles per suspension check at this table size
	Restarts    uint64  `json:"restarts"`
}

// TableRegistrationRanges quantifies why Mach restricted each address
// space to a single registered sequence (§3.1: "This restriction
// simplifies the kernel's task"): with a table of N ranges the linear
// suspension-time check costs grow with N and the whole workload slows
// down, while the designated-sequence check stays O(1) regardless of how
// many sequences a program inlines.
func TableRegistrationRanges(h *Harness, workers, iters int) ([]RangesRow, error) {
	prof := arch.R3000()
	var rows []RangesRow
	for _, n := range []int{1, 8, 64, 256} {
		strat := kernel.NewMultiRegistration()
		// Decoy sequences registered by "other libraries" in the address
		// space; the workload's own sequence arrives via SysRasRegister.
		for i := 0; i < n-1; i++ {
			strat.AddRange(uint32(0x0010_0000+64*i), 12)
		}
		prog := guest.Assemble(guest.MutexCounterProgram(guest.MechRegistered, workers, iters))
		k := kernel.Boot(kernel.Config{Profile: prof, Strategy: strat,
			CheckAt: kernel.CheckAtSuspend, Quantum: 61}, prog, guest.StackTop(0))
		if err := h.Run(k); err != nil {
			return nil, err
		}
		if got := k.M.Mem.Peek(prog.MustSymbol("counter")); got != uint32(workers*iters) {
			return nil, fmt.Errorf("ranges=%d: counter %d, want %d", n, got, workers*iters)
		}
		rows = append(rows, RangesRow{
			Ranges:      n,
			Micros:      k.Micros(),
			CheckCycles: strat.CheckCost(prof),
			Restarts:    k.Stats.Restarts,
		})
	}
	return rows, nil
}

// FormatRanges renders the registration-table ablation.
func FormatRanges(rows []RangesRow, designatedCost int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %16s %10s\n", "Registered ranges", "Time (us)", "Check (cycles)", "Restarts")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20d %12.1f %16d %10d\n", r.Ranges, r.Micros, r.CheckCycles, r.Restarts)
	}
	fmt.Fprintf(&b, "%-20s %12s %16d\n", "designated (any N)", "-", designatedCost)
	return b.String()
}
