package kernel

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
)

// vet assembles src, loads it, and verifies the range [lo, hi) named by
// the two labels.
func vet(t *testing.T, cfg Config, src, lo, hi string) error {
	t.Helper()
	prog := guest.Assemble(src)
	k := New(cfg)
	k.Load(prog)
	a, b := prog.MustSymbol(lo), prog.MustSymbol(hi)
	return k.VerifySequence(a, b-a)
}

func TestVerifyAcceptsPaperSequences(t *testing.T) {
	// The Figure-3 registered TAS and the recoverable CAS sequence are the
	// well-formed shapes the whole repository runs on; the verifier must
	// keep accepting them.
	cases := []struct {
		name, src, lo, hi string
	}{
		{"figure3-tas", `
seq:
	lw   v0, 0(a0)
	ori  t0, zero, 1
	sw   t0, 0(a0)
end:
	jr   ra
`, "seq", "end"},
		{"designated-5-word", `
seq:
	lw   v0, 0(a0)
	ori  t0, zero, 1
	bne  v0, zero, out
	landmark
	sw   t0, 0(a0)
end:
out:
	jr   ra
`, "seq", "end"},
	}
	for _, c := range cases {
		if err := vet(t, Config{}, c.src, c.lo, c.hi); err != nil {
			t.Errorf("%s: rejected well-formed sequence: %v", c.name, err)
		}
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, src, lo, hi string
		want              error
	}{
		{"two-stores", `
seq:
	lw   t1, 0(a0)
	addi t1, t1, 1
	sw   t1, 0(a0)
	sw   t1, 4(a0)
end:
	jr   ra
`, "seq", "end", ErrRasMultipleStores},
		{"store-not-last", `
seq:
	lw   t1, 0(a0)
	sw   t1, 4(a0)
	addi t1, t1, 1
end:
	jr   ra
`, "seq", "end", ErrRasNoCommit},
		{"no-store", `
seq:
	lw   t1, 0(a0)
	addi t1, t1, 1
end:
	jr   ra
`, "seq", "end", ErrRasNoCommit},
		{"backward-branch", `
seq:
spin:
	lw   t1, 0(a0)
	bne  t1, zero, spin
	sw   t1, 0(a0)
end:
	jr   ra
`, "seq", "end", ErrRasBackwardBranch},
		{"self-jump", `
seq:
loop:
	j    loop
	sw   t1, 0(a0)
end:
	jr   ra
`, "seq", "end", ErrRasBackwardBranch},
		{"indirect-jump", `
seq:
	lw   t1, 0(a0)
	jr   t1
	sw   t1, 0(a0)
end:
	jr   ra
`, "seq", "end", ErrRasBackwardBranch},
		{"trap-inside", `
seq:
	lw   t1, 0(a0)
	syscall
	sw   t1, 0(a0)
end:
	jr   ra
`, "seq", "end", ErrRasBadRange},
		{"overlength", `
seq:
	lw   t1, 0(a0)
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	sw   t1, 0(a0)
end:
	jr   ra
`, "seq", "end", ErrRasOverlength},
	}
	for _, c := range cases {
		err := vet(t, Config{Strategy: &Registration{}}, c.src, c.lo, c.hi)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if !errors.Is(err, ErrRasRejected) {
			t.Errorf("%s: err = %v does not match ErrRasRejected", c.name, err)
		}
	}
}

func TestVerifyRejectsBadRanges(t *testing.T) {
	k := New(Config{Strategy: &Registration{}})
	for _, c := range []struct{ start, length uint32 }{
		{0x1000, 0}, // empty
		{0x1001, 8}, // misaligned start
		{0x1000, 6}, // misaligned length
	} {
		if err := k.VerifySequence(c.start, c.length); !errors.Is(err, ErrRasBadRange) {
			t.Errorf("VerifySequence(%#x, %d) = %v, want ErrRasBadRange", c.start, c.length, err)
		}
	}
}

// A guest whose registration is malformed sees the syscall fail (v0 = -1)
// — the §3.1 fallback signal — and nothing is recorded kernel-side.
func TestMalformedRegistrationFailsSyscall(t *testing.T) {
	prog := guest.Assemble(`
main:
	li   v0, 3
	la   a0, seq
	li   a1, 16
	syscall
	move a0, v0             # exit code = registration result
	li   v0, 0
	syscall
seq:
	lw   t1, 0(s1)
	addi t1, t1, 1
	sw   t1, 0(s1)
	sw   t1, 4(s1)          # second committing store: malformed
`)
	k := New(Config{Strategy: &Registration{}})
	k.Load(prog)
	k.Spawn(prog.MustSymbol("main"), guest.StackTop(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.Threads()[0].ExitCode; got != ^isa.Word(0) {
		t.Errorf("guest saw registration result %d, want -1", int32(got))
	}
	if len(k.ras) != 0 {
		t.Error("malformed sequence was recorded anyway")
	}
}

// RegisterSequence is the harness-level door; it refuses malformed ranges
// with the same typed errors and refuses strategies that take no
// registrations at all.
func TestRegisterSequenceTyped(t *testing.T) {
	prog := guest.Assemble(`
seq:
	lw   t1, 0(s1)
	sw   t1, 0(s1)
	sw   t1, 4(s1)
`)
	k := New(Config{Strategy: &Registration{}})
	k.Load(prog)
	start := prog.MustSymbol("seq")
	if err := k.RegisterSequence(0, start, 12); !errors.Is(err, ErrRasMultipleStores) {
		t.Errorf("err = %v, want ErrRasMultipleStores", err)
	}
	if err := k.RegisterSequence(0, start, 8); err != nil {
		t.Errorf("well-formed prefix rejected: %v", err)
	}
	kd := New(Config{Strategy: &Designated{}})
	kd.Load(prog)
	if err := kd.RegisterSequence(0, start, 8); err == nil {
		t.Error("Designated strategy accepted a registration")
	}
}

// The designated-sequence recognizer is the other face of the same
// contract: a suspension whose PC sits in a malformed (non-designated)
// sequence must NOT be rolled back. Two committing stores break the
// 5-word shape, so recognition rejects it and the thread resumes in
// place.
func TestDesignatedRecognitionRejectsMalformed(t *testing.T) {
	prog := guest.Assemble(`
seq:
	lw   v0, 0(a0)
	ori  t0, zero, 1
	sw   t0, 0(a0)          # store where bne belongs: not the shape
	landmark
	sw   t0, 0(a0)
`)
	k := New(Config{Strategy: &Designated{}})
	k.Load(prog)
	th := k.Spawn(prog.MustSymbol("seq"), guest.StackTop(0))
	th.Ctx.PC = prog.MustSymbol("seq") + 8 // "inside", before the landmark
	res := k.Strategy.Check(k, th)
	if res.Restarted {
		t.Error("malformed designated sequence was rolled back")
	}
	if th.Ctx.PC != prog.MustSymbol("seq")+8 {
		t.Error("PC moved despite rejection")
	}
}

// registerProgram registers its counter loop's sequence, keeps the
// syscall's result in result, then runs the loop.
const registerProgram = `
main:
	la   s1, counter
	li   s2, 100
	la   a0, seq
	li   a1, 16
	li   v0, 3
	syscall
	move s3, v0
	nop                     # where a designated rollback of seq lands
loop:
seq:
	lw   v0, 0(s1)
	addi v0, v0, 1
	landmark
	sw   v0, 0(s1)
	addi s2, s2, -1
	bgtz s2, loop
	la   t0, result
	sw   s3, 0(t0)
	li   v0, 0
	move a0, zero
	syscall

	.data
counter:
	.word 0
result:
	.word 0
`

// A kernel whose strategy takes no registrations fails the register
// syscall without vetting the range, and nothing else may show it: the
// guest reads v0 = -1, and the digest pins the run's stats, trace events
// and checkpoint bytes as they were when every range was vetted. A
// registering kernel still accepts the same range.
func TestRegisterSyscallFailsFastWithoutRegistrations(t *testing.T) {
	run := func(s Strategy) (*runResult, isa.Word) {
		k, prog := boot(t, Config{Strategy: s, Quantum: 150}, registerProgram)
		k.Spawn(prog.MustSymbol("main"), guest.StackTop(1))
		r := &runResult{}
		observe(k, prog, r)
		r.finish(k, k.Run())
		return r, k.M.Mem.Peek(prog.MustSymbol("result"))
	}
	if _, got := run(&Registration{}); got != 0 {
		t.Fatalf("registering kernel: syscall result %d, want 0", int32(got))
	}
	r, got := run(&Designated{})
	if got != ^isa.Word(0) {
		t.Fatalf("designated kernel: syscall result %d, want -1", int32(got))
	}
	const want = "dd3e9f922b38ddfca104789a81289643b75f57697e6d220cf7d08009ae4f6f5d"
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", *r)))); sum != want {
		t.Errorf("designated run digest %s, want %s: stats, trace or checkpoint moved", sum, want)
	}
}
