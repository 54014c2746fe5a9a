// Package parthenon is a resolution-based theorem prover for propositional
// logic that exploits or-parallelism with n worker threads, standing in for
// the Parthenon prover (Bose et al.) used in the paper's Table 3
// (parthenon-1 and parthenon-10).
//
// The synchronization structure matches the paper's description of the
// workload: the program "synchronizes often, but most synchronization
// operations guard short critical sections that simply increment a counter,
// or dequeue an item from a linked list" (§5.3). The shared agenda of
// clauses is a mutex-protected queue; statistics are spinlock-protected
// counters; workers coordinate idleness with a condition variable.
package parthenon

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cthreads"
	"repro/internal/uniproc"
)

// Literal is a propositional literal: variable v is v, its negation -v.
// Variables are positive integers.
type Literal int

// Clause is a disjunction of literals, kept sorted and deduplicated.
type Clause []Literal

// normalize sorts, deduplicates, and reports whether the clause is a
// tautology (contains both v and -v).
func normalize(c Clause) (Clause, bool) {
	sort.Slice(c, func(i, j int) bool {
		ai, aj := abs(c[i]), abs(c[j])
		if ai != aj {
			return ai < aj
		}
		return c[i] < c[j]
	})
	out := c[:0]
	var prev Literal
	for i, l := range c {
		if i > 0 && l == prev {
			continue
		}
		if i > 0 && l == -prev {
			return nil, true // tautology
		}
		out = append(out, l)
		prev = l
	}
	return out, false
}

func abs(l Literal) Literal {
	if l < 0 {
		return -l
	}
	return l
}

// key returns a canonical string form for duplicate detection.
func (c Clause) key() string {
	var b strings.Builder
	for i, l := range c {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", l)
	}
	return b.String()
}

// String renders the clause for diagnostics.
func (c Clause) String() string {
	if len(c) == 0 {
		return "⊥"
	}
	return "(" + c.key() + ")"
}

// resolve returns the resolvent of a and b on variable v (a contains v, b
// contains -v), and whether it is a tautology.
func resolve(a, b Clause, v Literal) (Clause, bool) {
	out := make(Clause, 0, len(a)+len(b)-2)
	for _, l := range a {
		if l != v {
			out = append(out, l)
		}
	}
	for _, l := range b {
		if l != -v {
			out = append(out, l)
		}
	}
	return normalize(out)
}

// Result summarizes a proof attempt.
type Result struct {
	Proved     bool   // the empty clause was derived (input unsatisfiable)
	Resolvents uint64 // resolvents generated
	Kept       uint64 // new clauses retained
	Workers    int
}

// Config parametrizes a run.
type Config struct {
	Pkg     *cthreads.Pkg
	Workers int // or-parallel worker threads (the paper's parthenon-n)
}

// prover is the shared state among workers.
type prover struct {
	mu     *cthreads.Mutex
	work   *cthreads.Cond
	agenda []Clause // clauses awaiting processing
	usable []Clause // clauses available as resolution partners
	seen   map[string]bool
	busy   int
	done   bool
	proved bool

	// Short-critical-section counters, each behind its own spinlock —
	// the §5.3 workload shape.
	statLock   *cthreads.SpinLock
	resolvents uint64
	kept       uint64
}

// Run proves (or saturates on) the given CNF with cfg.Workers threads. It
// must be called on a uniproc thread; it forks the workers and joins them.
func Run(e *uniproc.Env, cfg Config, input []Clause) Result {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	p := &prover{
		mu:       cfg.Pkg.NewMutex(),
		work:     cfg.Pkg.NewCond(),
		seen:     make(map[string]bool),
		statLock: cfg.Pkg.NewSpinLock(),
	}
	for _, c := range input {
		n, taut := normalize(append(Clause(nil), c...))
		if taut {
			continue
		}
		if len(n) == 0 {
			p.proved = true
		}
		if !p.seen[n.key()] {
			p.seen[n.key()] = true
			p.agenda = append(p.agenda, n)
		}
	}
	handles := make([]*cthreads.Handle, cfg.Workers)
	for i := range handles {
		handles[i] = cfg.Pkg.Fork(e, fmt.Sprintf("prover-%d", i), p.worker)
	}
	for _, h := range handles {
		h.Join(e)
	}
	return Result{Proved: p.proved, Resolvents: p.resolvents, Kept: p.kept, Workers: cfg.Workers}
}

// worker implements the given-clause loop.
func (p *prover) worker(e *uniproc.Env) {
	for {
		p.mu.Lock(e)
		for len(p.agenda) == 0 && !p.done {
			if p.busy == 0 {
				// Saturated: nobody is working and nothing is queued.
				p.done = true
				p.work.Broadcast(e)
				break
			}
			p.work.Wait(e, p.mu)
		}
		if p.done {
			p.mu.Unlock(e)
			return
		}
		given := p.agenda[0]
		p.agenda = p.agenda[1:]
		p.busy++
		// Snapshot the usable set; clauses appended later will meet this
		// one when they are the given clause themselves.
		partners := p.usable
		p.usable = append(p.usable, given)
		e.ChargeALU(8) // dequeue + bookkeeping
		p.mu.Unlock(e)

		p.process(e, given, partners)

		p.mu.Lock(e)
		p.busy--
		if p.busy == 0 && len(p.agenda) == 0 {
			p.done = true
			p.work.Broadcast(e)
		}
		p.mu.Unlock(e)
	}
}

// process resolves given against every partner clause.
func (p *prover) process(e *uniproc.Env, given Clause, partners []Clause) {
	for _, other := range partners {
		if p.isDone(e) {
			return
		}
		for _, l := range given {
			if !contains(other, -l) {
				continue
			}
			e.ChargeALU(4 * (len(given) + len(other))) // resolvent construction
			res, taut := resolve(given, other, l)
			p.bumpResolvents(e)
			if taut {
				continue
			}
			p.offer(e, res)
			if p.isDone(e) {
				return
			}
		}
	}
}

func contains(c Clause, l Literal) bool {
	for _, x := range c {
		if x == l {
			return true
		}
	}
	return false
}

// bumpResolvents is one of the paper's short counter critical sections.
func (p *prover) bumpResolvents(e *uniproc.Env) {
	p.statLock.Lock(e)
	p.resolvents++
	e.ChargeALU(2)
	p.statLock.Unlock(e)
}

// offer adds a new clause to the agenda if it has not been seen.
func (p *prover) offer(e *uniproc.Env, c Clause) {
	p.mu.Lock(e)
	defer p.mu.Unlock(e)
	if p.done {
		return
	}
	k := c.key()
	e.ChargeALU(2 * (1 + len(c))) // hash
	if p.seen[k] {
		return
	}
	p.seen[k] = true
	if len(c) == 0 {
		p.proved = true
		p.done = true
		p.work.Broadcast(e)
		return
	}
	p.agenda = append(p.agenda, c)
	p.statLock.Lock(e)
	p.kept++
	p.statLock.Unlock(e)
	p.work.Signal(e)
}

func (p *prover) isDone(e *uniproc.Env) bool {
	p.mu.Lock(e)
	d := p.done
	p.mu.Unlock(e)
	return d
}

// Pigeonhole returns the CNF asserting that pigeons pigeons fit into holes
// holes, one per hole — unsatisfiable whenever pigeons > holes. Variable
// p(i,j) = i*holes + j + 1 means "pigeon i sits in hole j".
func Pigeonhole(pigeons, holes int) []Clause {
	v := func(i, j int) Literal { return Literal(i*holes + j + 1) }
	var cnf []Clause
	for i := 0; i < pigeons; i++ {
		var c Clause
		for j := 0; j < holes; j++ {
			c = append(c, v(i, j))
		}
		cnf = append(cnf, c)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				cnf = append(cnf, Clause{-v(i, j), -v(k, j)})
			}
		}
	}
	return cnf
}

// Chain returns the unsatisfiable implication chain
// {x1, ¬x1∨x2, ..., ¬x(n-1)∨xn, ¬xn}: a cheap refutation of tunable size
// for generating synchronization load.
func Chain(n int) []Clause {
	cnf := []Clause{{1}}
	for i := 1; i < n; i++ {
		cnf = append(cnf, Clause{Literal(-i), Literal(i + 1)})
	}
	return append(cnf, Clause{Literal(-n)})
}

// Satisfiable returns a small satisfiable CNF (provers must saturate
// without finding the empty clause).
func Satisfiable() []Clause {
	return []Clause{{1, 2}, {-1, 3}, {-2, 3}}
}
