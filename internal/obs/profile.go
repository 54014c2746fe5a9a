package obs

import (
	"fmt"
	"sort"
	"strings"
)

// SampleKind tells the profiler how an instruction moved the control stack.
// The decode happens in the kernel (which already owns the ISA decoder);
// the profiler only maintains shadow stacks from the resulting kinds.
type SampleKind int

const (
	SampleOp     SampleKind = iota // ordinary instruction
	SampleCall                     // a call: after this instruction the thread is in a new frame
	SampleReturn                   // a return: after this instruction the current frame is gone
)

// Symbol is one entry of the guest program's symbol table: a name and the
// address of its first instruction.
type Symbol struct {
	Name string
	Addr uint32
}

// CycleProfiler attributes retired-instruction cycles to program counters
// and symbols on the ISA substrate. The kernel calls Sample once per
// retired guest instruction and NoteKernel once per kernel-time charge;
// the profiler keeps per-PC flat counts, per-symbol flat and cumulative
// counts, and per-thread shadow call stacks for folded (flamegraph-ready)
// output.
//
// Flat cycles belong to the symbol whose code was executing; cumulative
// cycles belong to every symbol on the thread's call stack at that moment.
// Kernel time is attributed to the pseudo-symbol "[kernel]".
type CycleProfiler struct {
	syms []Symbol // sorted by Addr

	pcFlat  map[uint32]uint64
	flat    map[string]uint64
	cum     map[string]uint64
	folded  map[string]uint64
	stacks  map[int][]string
	samples uint64
	cycles  uint64
	kernel  uint64
}

// NewCycleProfiler creates an empty profiler; call SetSymbols before
// sampling to get symbolic attribution (raw addresses otherwise).
func NewCycleProfiler() *CycleProfiler {
	return &CycleProfiler{
		pcFlat: make(map[uint32]uint64),
		flat:   make(map[string]uint64),
		cum:    make(map[string]uint64),
		folded: make(map[string]uint64),
		stacks: make(map[int][]string),
	}
}

// SetSymbols installs the guest symbol table (any order; copied and
// sorted). Of several symbols at one address, Resolve names the
// lexically smallest, so the profile does not depend on input order.
func (p *CycleProfiler) SetSymbols(syms []Symbol) {
	p.syms = append([]Symbol{}, syms...)
	sort.Slice(p.syms, func(i, j int) bool {
		a, b := p.syms[i], p.syms[j]
		return a.Addr < b.Addr || a.Addr == b.Addr && a.Name > b.Name
	})
}

// Resolve maps a PC to the name of the symbol containing it, or a raw
// address string when the table has no covering entry.
func (p *CycleProfiler) Resolve(pc uint32) string {
	i := sort.Search(len(p.syms), func(i int) bool { return p.syms[i].Addr > pc })
	if i == 0 {
		return fmt.Sprintf("0x%08x", pc)
	}
	return p.syms[i-1].Name
}

// Sample records one retired instruction: thread tid executed the
// instruction at pc for the given cycles; kind says whether it was a call
// or return, and nextPC is where control lands afterwards (the callee
// entry for calls; ignored otherwise).
func (p *CycleProfiler) Sample(tid int, pc uint32, cycles uint64, kind SampleKind, nextPC uint32) {
	p.samples++
	p.cycles += cycles
	p.pcFlat[pc] += cycles

	stack := p.stacks[tid]
	cur := p.Resolve(pc)
	if len(stack) == 0 {
		stack = append(stack, cur)
	} else if stack[len(stack)-1] != cur {
		// Control moved between symbols without a tracked call/return
		// (tail jump, rollback, or sampling started mid-call): relabel the
		// top frame rather than invent a frame that was never pushed.
		stack[len(stack)-1] = cur
	}

	// Attribute this instruction's cycles to the stack as it stood while
	// the instruction executed.
	p.flat[cur] += cycles
	seen := make(map[string]bool, len(stack))
	for _, f := range stack {
		if !seen[f] { // recursion: count a symbol's cum once per sample
			p.cum[f] += cycles
			seen[f] = true
		}
	}
	p.folded[strings.Join(stack, ";")] += cycles

	switch kind {
	case SampleCall:
		if len(stack) < 256 { // bound runaway recursion in broken guests
			stack = append(stack, p.Resolve(nextPC))
		}
	case SampleReturn:
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
	}
	p.stacks[tid] = stack
}

// NoteKernel attributes cycles of kernel time (dispatch, trap handling,
// emulation) to the "[kernel]" pseudo-symbol.
func (p *CycleProfiler) NoteKernel(cycles uint64) {
	p.kernel += cycles
	p.cycles += cycles
	p.flat["[kernel]"] += cycles
	p.cum["[kernel]"] += cycles
	p.folded["[kernel]"] += cycles
}

// ResetStacks forgets every thread's shadow call stack, for a new kernel
// whose threads reuse the IDs of one sampled before.
func (p *CycleProfiler) ResetStacks() { p.stacks = make(map[int][]string) }

// Samples returns the number of retired instructions sampled.
func (p *CycleProfiler) Samples() uint64 { return p.samples }

// Cycles returns the total cycles attributed (guest + kernel).
func (p *CycleProfiler) Cycles() uint64 { return p.cycles }

// FlatCycles returns the flat cycles attributed to a symbol name.
func (p *CycleProfiler) FlatCycles(sym string) uint64 { return p.flat[sym] }

// CumCycles returns the cumulative cycles attributed to a symbol name.
func (p *CycleProfiler) CumCycles(sym string) uint64 { return p.cum[sym] }

// Folded renders the profile in folded-stack format — one
// "frameA;frameB cycles" line per distinct stack, sorted — ready for
// flamegraph.pl or speedscope.
func (p *CycleProfiler) Folded() string {
	keys := make([]string, 0, len(p.folded))
	for k := range p.folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, p.folded[k])
	}
	return b.String()
}

// Report renders a top-N table of symbols by flat cycles, with cumulative
// cycles and percentages.
func (p *CycleProfiler) Report(top int) string {
	type row struct {
		sym       string
		flat, cum uint64
	}
	rows := make([]row, 0, len(p.flat))
	for s, f := range p.flat {
		rows = append(rows, row{s, f, p.cum[s]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].flat != rows[j].flat {
			return rows[i].flat > rows[j].flat
		}
		return rows[i].sym < rows[j].sym
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %6s %12s  %s\n", "flat(cyc)", "flat%", "cum(cyc)", "symbol")
	for _, r := range rows {
		pct := 0.0
		if p.cycles > 0 {
			pct = 100 * float64(r.flat) / float64(p.cycles)
		}
		fmt.Fprintf(&b, "%12d %5.1f%% %12d  %s\n", r.flat, pct, r.cum, r.sym)
	}
	return b.String()
}
