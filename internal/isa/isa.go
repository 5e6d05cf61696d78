// Package isa defines the small RISC-style instruction set interpreted by
// the multiprocessor simulator, plus an assembler for writing workloads.
//
// The paper evaluates DeLorean on real binaries under SESC/Simics; this
// repository substitutes programs written in this ISA (see DESIGN.md).
// What matters for record/replay is that programs are *executable* — loads
// observe values produced by other processors, branches depend on those
// values, and squashed chunks genuinely re-execute — so replay determinism
// is a real property, not an artifact of trace playback.
//
// Registers are 16 general-purpose 64-bit registers r0..r15. By loader
// convention r15 holds the processor ID and r14 the processor count;
// programs may overwrite them. Memory is word-addressed (64-bit words);
// a cache line holds LineWords words.
package isa

import (
	"fmt"
	"sync/atomic"
)

// Memory geometry shared by the whole simulator.
const (
	WordBytes = 8
	LineBytes = 32
	LineWords = LineBytes / WordBytes
)

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// Op enumerates instruction opcodes.
type Op uint8

const (
	NOP Op = iota
	HALT
	// ALU
	LDI  // rd <- imm
	MOV  // rd <- rs
	ADD  // rd <- rs + rt
	SUB  // rd <- rs - rt
	MUL  // rd <- rs * rt
	AND  // rd <- rs & rt
	OR   // rd <- rs | rt
	XOR  // rd <- rs ^ rt
	SHL  // rd <- rs << (rt & 63)
	SHR  // rd <- uint64(rs) >> (rt & 63)
	ADDI // rd <- rs + imm
	MULI // rd <- rs * imm
	ANDI // rd <- rs & imm
	// Memory (address = rs + imm, in words)
	LD // rd <- mem[rs+imm]
	ST // mem[rs+imm] <- rt
	// Atomics (address = rs, performed indivisibly)
	SWAP // rd <- mem[rs]; mem[rs] <- rt
	FADD // rd <- mem[rs]; mem[rs] <- rd + rt
	CAS  // if mem[rs] == rt { mem[rs] <- imm-held? } — see doc below
	// Control (Imm is an absolute instruction index after assembly)
	JMP // pc <- imm
	JAL // rd <- pc+1; pc <- imm
	JR  // pc <- rs
	BEQ // if rs == rt: pc <- imm
	BNE // if rs != rt: pc <- imm
	BLT // if rs < rt (signed): pc <- imm
	BGE // if rs >= rt (signed): pc <- imm
	// Ordering
	FENCE // full fence (RC); no-op under chunked execution
	// Uncached I/O (truncate the running chunk deterministically)
	IORD // rd <- io[imm]  (port read; value supplied by device model)
	IOWR // io[imm] <- rs  (port write; initiates I/O)
	// Traps: synchronous, deterministic control transfers to the trap
	// vector; they do NOT truncate chunks (paper §4.2.1).
	TRAPNZ // if rs != 0: r12 <- pc+1; pc <- trap vector
	// IRET returns from an interrupt handler, restoring the full shadow
	// register bank and interrupted PC.
	IRET

	numOps
)

// CAS semantics: rd <- old value of mem[rs]; if old == rt then
// mem[rs] <- imm. (The new value is an immediate, which covers the lock
// and version-counter patterns the workloads need while keeping the
// three-register format.)

var opNames = [...]string{
	NOP: "nop", HALT: "halt",
	LDI: "ldi", MOV: "mov", ADD: "add", SUB: "sub", MUL: "mul",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	ADDI: "addi", MULI: "muli", ANDI: "andi",
	LD: "ld", ST: "st",
	SWAP: "swap", FADD: "fadd", CAS: "cas",
	JMP: "jmp", JAL: "jal", JR: "jr",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	FENCE: "fence", IORD: "iord", IOWR: "iowr",
	TRAPNZ: "trapnz", IRET: "iret",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op accesses cached shared memory.
func (o Op) IsMem() bool {
	switch o {
	case LD, ST, SWAP, FADD, CAS:
		return true
	}
	return false
}

// IsLoad reports whether the op reads memory (atomics both read and
// write).
func (o Op) IsLoad() bool {
	switch o {
	case LD, SWAP, FADD, CAS:
		return true
	}
	return false
}

// IsStore reports whether the op writes memory. CAS is treated as a
// store for dependence purposes even when the compare fails: the line is
// requested exclusively.
func (o Op) IsStore() bool {
	switch o {
	case ST, SWAP, FADD, CAS:
		return true
	}
	return false
}

// IsAtomic reports whether the op is an indivisible read-modify-write.
func (o Op) IsAtomic() bool {
	switch o {
	case SWAP, FADD, CAS:
		return true
	}
	return false
}

// IsUncached reports whether the op bypasses the cache (I/O space).
// Uncached accesses truncate the running chunk deterministically
// (paper Table 4).
func (o Op) IsUncached() bool { return o == IORD || o == IOWR }

// Inst is a decoded instruction. The simulator interprets these directly;
// there is no binary encoding.
type Inst struct {
	Op         Op
	Rd, Rs, Rt uint8
	Imm        int64
}

// String disassembles the instruction.
func (i Inst) String() string {
	switch i.Op {
	case NOP, HALT, FENCE, IRET:
		return i.Op.String()
	case LDI:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case MOV:
		return fmt.Sprintf("%s r%d, r%d", i.Op, i.Rd, i.Rs)
	case ADD, SUB, MUL, AND, OR, XOR, SHL, SHR:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs, i.Rt)
	case ADDI, MULI, ANDI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs, i.Imm)
	case LD:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Rs)
	case ST:
		return fmt.Sprintf("%s %d(r%d), r%d", i.Op, i.Imm, i.Rs, i.Rt)
	case SWAP, FADD:
		return fmt.Sprintf("%s r%d, (r%d), r%d", i.Op, i.Rd, i.Rs, i.Rt)
	case CAS:
		return fmt.Sprintf("%s r%d, (r%d), r%d, %d", i.Op, i.Rd, i.Rs, i.Rt, i.Imm)
	case JMP:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case JAL:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case JR:
		return fmt.Sprintf("%s r%d", i.Op, i.Rs)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rs, i.Rt, i.Imm)
	case IORD:
		return fmt.Sprintf("%s r%d, port%d", i.Op, i.Rd, i.Imm)
	case IOWR:
		return fmt.Sprintf("%s port%d, r%d", i.Op, i.Imm, i.Rs)
	case TRAPNZ:
		return fmt.Sprintf("%s r%d", i.Op, i.Rs)
	}
	return i.Op.String()
}

// Program is an assembled instruction sequence for one thread. Insts must
// not be mutated once the program has first run: the interpreter derives
// a per-program idiom table from it on first execution (see fastForward
// and SpinLoads) and shares that table between every processor running
// the program.
type Program struct {
	Insts []Inst
	// TrapVec is the instruction index of the trap handler entered by
	// TRAPNZ (return address in r12, returned to with JR r12). -1 if the
	// program has no trap handler.
	TrapVec int
	// IntrVec is the instruction index of the interrupt handler entered on
	// asynchronous interrupt delivery (full register state shadowed;
	// handler ends with IRET). -1 if the program takes no interrupts.
	IntrVec int

	idiomTab atomic.Pointer[idioms]
}

// ThreadState is the architectural state of one hardware context. It is a
// value type: chunk checkpoints and interrupt shadow banks copy it
// wholesale.
type ThreadState struct {
	PC     int
	Reg    [NumRegs]int64
	Halted bool

	// Interrupt shadow bank: on delivery the full state is saved here and
	// IRET restores it. Interrupts are masked while InIntr. IntrUrgent
	// records whether the interrupt being handled was high-priority
	// (architectural so that chunk checkpoints preserve it).
	InIntr     bool
	IntrUrgent bool
	IntrPC     int
	IntrReg    [NumRegs]int64
}

// EnterInterrupt saves the running state into the shadow bank, masks
// further interrupts, loads data into r13 and type into r11, and jumps to
// vec. urgent marks a high-priority interrupt (PicoLog handler chunks
// commit out of turn).
func (t *ThreadState) EnterInterrupt(vec int, intrType, data int64, urgent bool) {
	t.IntrPC = t.PC
	t.IntrReg = t.Reg
	t.InIntr = true
	t.IntrUrgent = urgent
	t.Reg[13] = data
	t.Reg[11] = intrType
	t.PC = vec
}

// ReturnFromInterrupt restores the shadow bank. It panics if no interrupt
// is active — executing IRET outside a handler is a program bug.
func (t *ThreadState) ReturnFromInterrupt() {
	if !t.InIntr {
		panic("isa: IRET outside interrupt handler")
	}
	t.Reg = t.IntrReg
	t.PC = t.IntrPC
	t.InIntr = false
	t.IntrUrgent = false
}
