package percpu

import (
	"repro/internal/rseq"
	"repro/internal/uniproc"
)

// FreeList is a per-CPU size-class free-list allocator — Snippet 1's
// malloc fast path. Every size class keeps one intrusive free list per
// CPU plus a global reserve: Alloc pops from the home CPU's list with a
// single restartable sequence (no interlocked instruction, no shared
// line), refills a batch from the global reserve when the local list is
// dry, and steals from a sibling CPU as the last resort. Free pushes
// back onto the home CPU's list.
//
// Blocks are fixed handles over one backing arena; Span resolves a
// handle to its arena offset and size, so the allocator can be used for
// real payloads while the benchmark's interest is the path costs.
type FreeList struct {
	d       *Domain
	classes []int  // block size (words) per class
	local   []Word // per-CPU list heads, indexed [cpu*len(classes)+class]
	global  []Word // global reserve heads, one per class
	next    []Word // intrusive links, indexed by block handle
	offset  []int  // arena word offset per block handle
	class   []int  // size class per block handle
	arena   []Word

	stats FreeListStats
}

// FreeListStats splits allocations by the path that served them; the
// fast-path fraction is the allocator's whole argument.
type FreeListStats struct {
	FastAllocs uint64 // served from the home CPU's list
	Refills    uint64 // home list dry: batch moved from the global reserve
	Steals     uint64 // global reserve dry too: block taken from a sibling
	Failures   uint64 // every list empty
	Frees      uint64
}

// RefillBatch is how many blocks a refill moves from the global reserve
// to the home list: one slow path amortized over the next several
// allocations, as in librseq's malloc.
const RefillBatch = 8

// NewFreeList builds an allocator with the given size classes (in
// words) and perClass blocks of each class per CPU. All blocks start on
// the global reserve, so the first allocations on each CPU exercise the
// refill path and the rest stay local.
func NewFreeList(d *Domain, classes []int, perClass int) *FreeList {
	if len(classes) == 0 {
		classes = []int{4, 16, 64}
	}
	if perClass < 1 {
		perClass = 1
	}
	f := &FreeList{
		d:       d,
		classes: append([]int(nil), classes...),
		local:   make([]Word, d.CPUs()*len(classes)),
		global:  make([]Word, len(classes)),
	}
	words := 0
	for class, size := range f.classes {
		for i := 0; i < perClass*d.CPUs(); i++ {
			handle := len(f.offset)
			f.offset = append(f.offset, words)
			f.class = append(f.class, class)
			f.next = append(f.next, f.global[class])
			f.global[class] = Word(handle + 1)
			words += size
		}
	}
	f.arena = make([]Word, words)
	return f
}

// Stats returns a copy of the path counters.
func (f *FreeList) Stats() FreeListStats { return f.stats }

// SizeClass returns the smallest class index whose blocks hold size
// words, or -1 when the request exceeds every class.
func (f *FreeList) SizeClass(size int) int {
	for class, s := range f.classes {
		if size <= s {
			return class
		}
	}
	return -1
}

// Span resolves a handle to its arena span.
func (f *FreeList) Span(h int) []Word {
	return f.arena[f.offset[h] : f.offset[h]+f.classes[f.class[h]]]
}

// Alloc allocates a block of at least size words, reporting the handle
// and whether a block was available anywhere.
func (f *FreeList) Alloc(e *uniproc.Env, size int) (int, bool) {
	class := f.SizeClass(size)
	if class < 0 {
		f.stats.Failures++
		return 0, false
	}
	cpu := f.d.Home(e)
	head := &f.local[cpu*len(f.classes)+class]
	// Fast path: one restartable pop on this CPU's own list.
	if h, ok := rseq.ListPop(e, head, f.next); ok {
		f.stats.FastAllocs++
		return h, true
	}
	// Slow path 1: refill a batch from the global reserve — one slow
	// path buys the next RefillBatch-1 fast allocations. The first block
	// popped is returned directly; the rest land on the home list.
	if first, ok := rseq.ListPop(e, &f.global[class], f.next); ok {
		f.stats.Refills++
		for moved := 1; moved < RefillBatch; moved++ {
			h2, ok := rseq.ListPop(e, &f.global[class], f.next)
			if !ok {
				break
			}
			rseq.ListPush(e, head, f.next, h2)
		}
		return first, true
	}
	// Slow path 2: steal one block from a sibling CPU's list.
	for i := 1; i < f.d.CPUs(); i++ {
		victim := (cpu + i) % f.d.CPUs()
		if h, ok := rseq.ListPop(e, &f.local[victim*len(f.classes)+class], f.next); ok {
			f.stats.Steals++
			return h, true
		}
	}
	f.stats.Failures++
	return 0, false
}

// Free returns a block to the calling thread's home list.
func (f *FreeList) Free(e *uniproc.Env, h int) {
	cpu := f.d.Home(e)
	rseq.ListPush(e, &f.local[cpu*len(f.classes)+f.class[h]], f.next, h)
	f.stats.Frees++
}
