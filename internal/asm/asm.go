// Package asm implements a two-pass assembler and a disassembler for the
// guest instruction set defined in internal/isa.
//
// The dialect is deliberately close to MIPS assembly so the figures from the
// paper can be transcribed almost verbatim:
//
//	        .text
//	TestAndSet:
//	        lw   v0, 0(a0)        # v0 = contents of a0
//	        li   t0, 1            # temporary t0 gets 1
//	        sw   t0, 0(a0)        # store 1 in Test-And-Set location
//	        jr   ra               # return, result in v0
//
//	        .data
//	lockword: .word 0
//
// Supported directives: .text, .data, .word, .space, .align, .globl (no-op).
// Supported pseudo-instructions: nop, landmark, move, li, la, b, beqz, bnez,
// blt, bgt, ble, bge, not, neg, sub-immediate via addi.
package asm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/isa"
)

// Default load addresses. Text starts above a guard page so that a null
// pointer dereference faults.
const (
	DefaultTextBase = 0x0000_1000
	DefaultDataBase = 0x0001_0000
)

// Program is the output of the assembler: encoded text, initialized data,
// and the symbol table.
type Program struct {
	TextBase uint32
	DataBase uint32
	Text     []isa.Word // encoded instructions
	Data     []isa.Word // initialized data words
	Symbols  map[string]uint32
	// Lines maps a text-word index to its 1-based source line, for
	// diagnostics and tracing.
	Lines []int

	predecodeOnce sync.Once
	predecoded    []isa.Predecoded
}

// Predecoded returns the text predecoded by isa.Predecode. The table is
// built on the first call, safely for concurrent callers, and is shared
// read-only afterwards: every kernel or SMP system that loads the program
// fetches through the same table. A later edit of Text leaves the table
// stale, which is harmless to the machine — it uses an entry only while
// the entry's Raw word is the word in memory.
func (p *Program) Predecoded() []isa.Predecoded {
	p.predecodeOnce.Do(func() { p.predecoded = isa.Predecode(p.Text) })
	return p.predecoded
}

// SymbolAddr returns the address of a label, with ok reporting existence.
func (p *Program) SymbolAddr(name string) (uint32, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// MustSymbol returns the address of a label or panics; used by tests and
// benchmarks where a missing symbol is a programming error.
func (p *Program) MustSymbol(name string) uint32 {
	a, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q", name))
	}
	return a
}

// Error is an assembly error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secText section = iota
	secData
)

// item is an intermediate representation entry produced by pass one.
type item struct {
	line   int
	mnem   string
	args   []string
	addr   uint32 // assigned address
	isData bool
}

type assembler struct {
	textBase uint32
	dataBase uint32
	symbols  map[string]uint32
	items    []item
	dataLen  uint32 // bytes
	textLen  uint32 // bytes
}

// Assemble assembles source into a Program with default base addresses.
func Assemble(src string) (*Program, error) {
	return AssembleAt(src, DefaultTextBase, DefaultDataBase)
}

// AssembleAt assembles source with explicit text and data base addresses.
func AssembleAt(src string, textBase, dataBase uint32) (*Program, error) {
	a := &assembler{
		textBase: textBase,
		dataBase: dataBase,
		symbols:  make(map[string]uint32),
	}
	if err := a.passOne(src); err != nil {
		return nil, err
	}
	return a.passTwo()
}

// expand rewrites one pseudo-instruction into zero or more machine
// instructions (still in textual arg form); returns nil if mnem is not a
// pseudo-instruction.
func expand(mnem string, args []string) [][2]any {
	mk := func(m string, a ...string) [2]any { return [2]any{m, a} }
	switch mnem {
	case "move":
		if len(args) == 2 {
			return [][2]any{mk("or", args[0], args[1], "zero")}
		}
	case "not":
		if len(args) == 2 {
			return [][2]any{mk("nor", args[0], args[1], "zero")}
		}
	case "neg":
		if len(args) == 2 {
			return [][2]any{mk("sub", args[0], "zero", args[1])}
		}
	case "b":
		if len(args) == 1 {
			return [][2]any{mk("beq", "zero", "zero", args[0])}
		}
	case "beqz":
		if len(args) == 2 {
			return [][2]any{mk("beq", args[0], "zero", args[1])}
		}
	case "bnez":
		if len(args) == 2 {
			return [][2]any{mk("bne", args[0], "zero", args[1])}
		}
	case "blt":
		if len(args) == 3 {
			return [][2]any{
				mk("slt", "at", args[0], args[1]),
				mk("bne", "at", "zero", args[2]),
			}
		}
	case "bgt":
		if len(args) == 3 {
			return [][2]any{
				mk("slt", "at", args[1], args[0]),
				mk("bne", "at", "zero", args[2]),
			}
		}
	case "ble":
		if len(args) == 3 {
			return [][2]any{
				mk("slt", "at", args[1], args[0]),
				mk("beq", "at", "zero", args[2]),
			}
		}
	case "bge":
		if len(args) == 3 {
			return [][2]any{
				mk("slt", "at", args[0], args[1]),
				mk("beq", "at", "zero", args[2]),
			}
		}
	}
	return nil
}

// instWords returns how many machine words the (possibly pseudo)
// instruction occupies.
func instWords(mnem string, args []string) int {
	if exp := expand(mnem, args); exp != nil {
		return len(exp)
	}
	switch mnem {
	case "li", "la":
		// Worst case lui+ori; pass one reserves 2 words and pass two pads
		// with a nop when one suffices, keeping addresses stable.
		return 2
	}
	return 1
}

func (a *assembler) passOne(src string) error {
	sec := secText
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Peel off any leading labels ("name:").
		for {
			idx := strings.Index(line, ":")
			if idx < 0 || !isLabel(line[:idx]) {
				break
			}
			name := line[:idx]
			if _, dup := a.symbols[name]; dup {
				return &Error{lineNo + 1, fmt.Sprintf("duplicate label %q", name)}
			}
			if sec == secText {
				a.symbols[name] = a.textBase + a.textLen
			} else {
				a.symbols[name] = a.dataBase + a.dataLen
			}
			line = strings.TrimSpace(line[idx+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		mnem, args := splitInst(line)
		switch mnem {
		case ".text":
			sec = secText
			continue
		case ".data":
			sec = secData
			continue
		case ".globl", ".global", ".ent", ".end":
			continue
		case ".equ", ".set":
			if len(args) != 2 {
				return &Error{lineNo + 1, ".equ expects name, value"}
			}
			name := args[0]
			if !isLabel(name) {
				return &Error{lineNo + 1, fmt.Sprintf("bad .equ name %q", name)}
			}
			if _, dup := a.symbols[name]; dup {
				return &Error{lineNo + 1, fmt.Sprintf("duplicate symbol %q", name)}
			}
			v, err := parseImm(args[1])
			if err != nil {
				// Allow aliasing a previously defined constant.
				if prev, ok := a.symbols[args[1]]; ok {
					a.symbols[name] = prev
					continue
				}
				return &Error{lineNo + 1, fmt.Sprintf("bad .equ value %q", args[1])}
			}
			a.symbols[name] = uint32(v)
			continue
		case ".align":
			n, err := parseImm(argOr(args, 0, "2"))
			if err != nil {
				return &Error{lineNo + 1, "bad .align operand"}
			}
			mask := uint32(1)<<uint(n) - 1
			if sec == secText {
				a.textLen = (a.textLen + mask) &^ mask
			} else {
				a.dataLen = (a.dataLen + mask) &^ mask
			}
			continue
		case ".word":
			if sec != secData {
				return &Error{lineNo + 1, ".word outside .data"}
			}
			it := item{line: lineNo + 1, mnem: mnem, args: args, isData: true,
				addr: a.dataBase + a.dataLen}
			a.dataLen += 4 * uint32(len(args))
			a.items = append(a.items, it)
			continue
		case ".space":
			if sec != secData {
				return &Error{lineNo + 1, ".space outside .data"}
			}
			n, err := parseImm(argOr(args, 0, ""))
			if err != nil || n < 0 {
				return &Error{lineNo + 1, "bad .space operand"}
			}
			a.dataLen += (uint32(n) + 3) &^ 3
			continue
		}
		if strings.HasPrefix(mnem, ".") {
			return &Error{lineNo + 1, fmt.Sprintf("unknown directive %q", mnem)}
		}
		if sec != secText {
			return &Error{lineNo + 1, "instruction outside .text"}
		}
		it := item{line: lineNo + 1, mnem: mnem, args: args,
			addr: a.textBase + a.textLen}
		a.textLen += 4 * uint32(instWords(mnem, args))
		a.items = append(a.items, it)
	}
	return nil
}

func (a *assembler) passTwo() (*Program, error) {
	p := &Program{
		TextBase: a.textBase,
		DataBase: a.dataBase,
		Text:     make([]isa.Word, a.textLen/4),
		Data:     make([]isa.Word, a.dataLen/4),
		Symbols:  a.symbols,
		Lines:    make([]int, a.textLen/4),
	}
	for i := range p.Text {
		p.Text[i] = isa.Encode(isa.Nop())
	}
	for _, it := range a.items {
		if it.isData {
			off := (it.addr - a.dataBase) / 4
			for i, arg := range it.args {
				v, err := a.value(arg)
				if err != nil {
					return nil, &Error{it.line, err.Error()}
				}
				p.Data[off+uint32(i)] = v
			}
			continue
		}
		insts, err := a.encodeInst(it)
		if err != nil {
			return nil, err
		}
		off := (it.addr - a.textBase) / 4
		for i, w := range insts {
			p.Text[off+uint32(i)] = w
			p.Lines[off+uint32(i)] = it.line
		}
	}
	return p, nil
}

// imm resolves an immediate operand: a numeric literal or a symbol
// (typically a .equ constant).
func (a *assembler) imm(s string) (int64, error) {
	if v, err := parseImm(s); err == nil {
		return v, nil
	}
	if addr, ok := a.symbols[s]; ok {
		return int64(addr), nil
	}
	return 0, fmt.Errorf("bad immediate or undefined symbol %q", s)
}

// value resolves a numeric literal or symbol to a 32-bit value.
func (a *assembler) value(s string) (uint32, error) {
	if v, err := parseImm(s); err == nil {
		return uint32(v), nil
	}
	if addr, ok := a.symbols[s]; ok {
		return addr, nil
	}
	return 0, fmt.Errorf("undefined symbol or bad literal %q", s)
}

func (a *assembler) encodeInst(it item) ([]isa.Word, error) {
	fail := func(format string, args ...any) ([]isa.Word, error) {
		return nil, &Error{it.line, fmt.Sprintf(format, args...)}
	}
	if exp := expand(it.mnem, it.args); exp != nil {
		var out []isa.Word
		for i, e := range exp {
			sub := item{line: it.line, mnem: e[0].(string), args: e[1].([]string),
				addr: it.addr + 4*uint32(i)}
			ws, err := a.encodeInst(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, ws...)
		}
		return out, nil
	}

	reg := func(s string) (int, error) {
		r, ok := isa.RegByName(s)
		if !ok {
			return 0, fmt.Errorf("bad register %q", s)
		}
		return r, nil
	}
	need := func(n int) error {
		if len(it.args) != n {
			return fmt.Errorf("%s expects %d operands, got %d", it.mnem, n, len(it.args))
		}
		return nil
	}
	enc := func(i isa.Inst) ([]isa.Word, error) { return []isa.Word{isa.Encode(i)}, nil }

	switch it.mnem {
	case "nop":
		return enc(isa.Nop())
	case "landmark":
		return enc(isa.Landmark())
	case "syscall":
		return enc(isa.Syscall())
	case "break":
		return enc(isa.Break())

	case "add", "sub", "and", "or", "xor", "nor", "slt", "sltu":
		if err := need(3); err != nil {
			return fail("%v", err)
		}
		rd, err1 := reg(it.args[0])
		rs, err2 := reg(it.args[1])
		rt, err3 := reg(it.args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return fail("%v", err)
		}
		return enc(isa.R(rFunct(it.mnem), rd, rs, rt))

	case "sll", "srl", "sra":
		if err := need(3); err != nil {
			return fail("%v", err)
		}
		rd, err1 := reg(it.args[0])
		rt, err2 := reg(it.args[1])
		sh, err3 := parseImm(it.args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return fail("%v", err)
		}
		if sh < 0 || sh > 31 {
			return fail("shift amount %d out of range", sh)
		}
		return enc(isa.Shift(rFunct(it.mnem), rd, rt, int(sh)))

	case "jr":
		if err := need(1); err != nil {
			return fail("%v", err)
		}
		rs, err := reg(it.args[0])
		if err != nil {
			return fail("%v", err)
		}
		return enc(isa.Jr(rs))

	case "jalr":
		switch len(it.args) {
		case 1:
			rs, err := reg(it.args[0])
			if err != nil {
				return fail("%v", err)
			}
			return enc(isa.Inst{Op: isa.OpSpecial, Funct: isa.FnJALR, Rd: isa.RegRA, Rs: rs})
		case 2:
			rd, err1 := reg(it.args[0])
			rs, err2 := reg(it.args[1])
			if err := firstErr(err1, err2); err != nil {
				return fail("%v", err)
			}
			return enc(isa.Inst{Op: isa.OpSpecial, Funct: isa.FnJALR, Rd: rd, Rs: rs})
		}
		return fail("jalr expects 1 or 2 operands")

	case "addi", "slti", "sltiu":
		if err := need(3); err != nil {
			return fail("%v", err)
		}
		rt, err1 := reg(it.args[0])
		rs, err2 := reg(it.args[1])
		imm, err3 := a.imm(it.args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return fail("%v", err)
		}
		if imm < -32768 || imm > 32767 {
			return fail("immediate %d out of 16-bit signed range", imm)
		}
		return enc(isa.I(iOp(it.mnem), rt, rs, int32(imm)))

	case "andi", "ori", "xori":
		if err := need(3); err != nil {
			return fail("%v", err)
		}
		rt, err1 := reg(it.args[0])
		rs, err2 := reg(it.args[1])
		imm, err3 := a.imm(it.args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return fail("%v", err)
		}
		if imm < 0 || imm > 0xFFFF {
			return fail("immediate %d out of 16-bit unsigned range", imm)
		}
		return enc(isa.U(iOp(it.mnem), rt, rs, uint32(imm)))

	case "lui":
		if err := need(2); err != nil {
			return fail("%v", err)
		}
		rt, err1 := reg(it.args[0])
		imm, err2 := a.imm(it.args[1])
		if err := firstErr(err1, err2); err != nil {
			return fail("%v", err)
		}
		if imm < 0 || imm > 0xFFFF {
			return fail("lui immediate %d out of range", imm)
		}
		return enc(isa.Lui(rt, uint32(imm)))

	case "lw", "sw", "tas", "xchg", "faa", "ll", "sc":
		if err := need(2); err != nil {
			return fail("%v", err)
		}
		rt, err1 := reg(it.args[0])
		off, rs, err2 := parseMem(it.args[1])
		if err := firstErr(err1, err2); err != nil {
			return fail("%v", err)
		}
		return enc(isa.I(iOp(it.mnem), rt, rs, off))

	case "lockb":
		return enc(isa.Inst{Op: isa.OpLOCKB})

	case "flush":
		if err := need(1); err != nil {
			return fail("%v", err)
		}
		off, rs, err := parseMem(it.args[0])
		if err != nil {
			return fail("%v", err)
		}
		return enc(isa.Flush(rs, off))

	case "fence":
		return enc(isa.Fence())

	case "beq", "bne":
		if err := need(3); err != nil {
			return fail("%v", err)
		}
		rs, err1 := reg(it.args[0])
		rt, err2 := reg(it.args[1])
		if err := firstErr(err1, err2); err != nil {
			return fail("%v", err)
		}
		off, err := a.branchOffset(it.args[2], it.addr)
		if err != nil {
			return fail("%v", err)
		}
		return enc(isa.I(iOp(it.mnem), rt, rs, off))

	case "blez", "bgtz":
		if err := need(2); err != nil {
			return fail("%v", err)
		}
		rs, err1 := reg(it.args[0])
		if err1 != nil {
			return fail("%v", err1)
		}
		off, err := a.branchOffset(it.args[1], it.addr)
		if err != nil {
			return fail("%v", err)
		}
		return enc(isa.I(iOp(it.mnem), 0, rs, off))

	case "j", "jal":
		if err := need(1); err != nil {
			return fail("%v", err)
		}
		target, err := a.value(it.args[0])
		if err != nil {
			return fail("%v", err)
		}
		op := uint32(isa.OpJ)
		if it.mnem == "jal" {
			op = isa.OpJAL
		}
		return enc(isa.Jump(op, target))

	case "li", "la":
		if err := need(2); err != nil {
			return fail("%v", err)
		}
		rt, err1 := reg(it.args[0])
		v, err2 := a.value(it.args[1])
		if err := firstErr(err1, err2); err != nil {
			return fail("%v", err)
		}
		hi, lo := v>>16, v&0xFFFF
		// Always two words so that pass-one layout holds; a single-word
		// form is padded with a trailing nop.
		if hi == 0 {
			return []isa.Word{
				isa.Encode(isa.Ori(rt, isa.RegZero, lo)),
				isa.Encode(isa.Nop()),
			}, nil
		}
		return []isa.Word{
			isa.Encode(isa.Lui(rt, hi)),
			isa.Encode(isa.Ori(rt, rt, lo)),
		}, nil
	}
	return fail("unknown mnemonic %q", it.mnem)
}

// branchOffset computes the instruction-relative branch offset (in words,
// from the instruction following the branch) to a label or literal.
func (a *assembler) branchOffset(arg string, pc uint32) (int32, error) {
	if target, ok := a.symbols[arg]; ok {
		diff := int64(target) - int64(pc) - 4
		if diff%4 != 0 {
			return 0, fmt.Errorf("misaligned branch target %q", arg)
		}
		off := diff / 4
		if off < -32768 || off > 32767 {
			return 0, fmt.Errorf("branch to %q out of range", arg)
		}
		return int32(off), nil
	}
	v, err := parseImm(arg)
	if err != nil {
		return 0, fmt.Errorf("undefined branch target %q", arg)
	}
	return int32(v), nil
}

func rFunct(m string) uint32 {
	switch m {
	case "add":
		return isa.FnADD
	case "sub":
		return isa.FnSUB
	case "and":
		return isa.FnAND
	case "or":
		return isa.FnOR
	case "xor":
		return isa.FnXOR
	case "nor":
		return isa.FnNOR
	case "slt":
		return isa.FnSLT
	case "sltu":
		return isa.FnSLTU
	case "sll":
		return isa.FnSLL
	case "srl":
		return isa.FnSRL
	case "sra":
		return isa.FnSRA
	}
	panic("asm: no funct for " + m)
}

func iOp(m string) uint32 {
	switch m {
	case "addi":
		return isa.OpADDI
	case "slti":
		return isa.OpSLTI
	case "sltiu":
		return isa.OpSLTIU
	case "andi":
		return isa.OpANDI
	case "ori":
		return isa.OpORI
	case "xori":
		return isa.OpXORI
	case "lw":
		return isa.OpLW
	case "sw":
		return isa.OpSW
	case "tas":
		return isa.OpTAS
	case "xchg":
		return isa.OpXCHG
	case "faa":
		return isa.OpFAA
	case "ll":
		return isa.OpLL
	case "sc":
		return isa.OpSC
	case "beq":
		return isa.OpBEQ
	case "bne":
		return isa.OpBNE
	case "blez":
		return isa.OpBLEZ
	case "bgtz":
		return isa.OpBGTZ
	}
	panic("asm: no opcode for " + m)
}

// parseMem parses "off(reg)" or "(reg)" or "symbol-less off(reg)".
func parseMem(s string) (int32, int, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	offStr := strings.TrimSpace(s[:open])
	regStr := strings.TrimSpace(s[open+1 : len(s)-1])
	var off int64
	if offStr != "" {
		v, err := parseImm(offStr)
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset in %q", s)
		}
		off = v
	}
	if off < -32768 || off > 32767 {
		return 0, 0, fmt.Errorf("offset %d out of range", off)
	}
	r, ok := isa.RegByName(regStr)
	if !ok {
		return 0, 0, fmt.Errorf("bad base register in %q", s)
	}
	return int32(off), r, nil
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty immediate")
	}
	neg := false
	if s[0] == '-' {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

func stripComment(s string) string {
	for i, c := range s {
		if c == '#' || c == ';' {
			return s[:i]
		}
	}
	return s
}

func isLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitInst splits "mnem a, b, c" into mnemonic and comma-separated args.
func splitInst(line string) (string, []string) {
	fields := strings.SplitN(line, " ", 2)
	mnem := strings.ToLower(strings.TrimSpace(fields[0]))
	if len(fields) == 1 {
		return mnem, nil
	}
	rest := strings.TrimSpace(fields[1])
	if rest == "" {
		return mnem, nil
	}
	parts := strings.Split(rest, ",")
	args := make([]string, 0, len(parts))
	for _, p := range parts {
		args = append(args, strings.TrimSpace(p))
	}
	return mnem, args
}

func argOr(args []string, i int, def string) string {
	if i < len(args) {
		return args[i]
	}
	return def
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Disassemble renders the program text as readable assembly, one line per
// word, prefixed with addresses.
func Disassemble(p *Program) string {
	var b strings.Builder
	for i, w := range p.Text {
		addr := p.TextBase + uint32(i*4)
		for name, a := range p.Symbols {
			if a == addr {
				fmt.Fprintf(&b, "%s:\n", name)
			}
		}
		fmt.Fprintf(&b, "  %08x:  %08x  %s\n", addr, w, isa.Decode(w))
	}
	return b.String()
}
