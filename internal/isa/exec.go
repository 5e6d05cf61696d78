package isa

import "fmt"

// RunToMemOpTimed executes instructions starting at st.PC until it
// reaches one that requires external interaction — a cached memory
// access, an uncached I/O access, a FENCE, or HALT — or until limit
// instructions have executed. ALU, control flow, TRAPNZ and IRET are
// handled internally. It is the one interpreter entry point.
//
// It returns the number of instructions executed and the pending
// instruction, if any. The pending instruction has NOT been executed;
// st.PC still addresses it. The caller performs its memory/I-O semantics
// (see MemAddr, NewValue, Complete) with whatever buffering and timing the
// machine model requires, which is how the same interpreter serves the
// SC, RC and chunked engines.
//
// A nil pending with n == limit means the budget ran out mid-computation;
// a nil pending with st.Halted means the thread hit HALT previously.
//
// ready[r] holds the cycle at which register r's value becomes
// available, and ALU instructions propagate the maximum of their sources
// to their destination. This lets the timing model see load→ALU→address
// dependence chains: a memory op whose address was computed from a
// pending load's result stalls until that load completes.
// Immediate-producing instructions (LDI, JAL, TRAPNZ's link) mark their
// destination ready immediately. A caller without a timing model passes
// an array of its own and ignores it.
func RunToMemOpTimed(st *ThreadState, p *Program, limit int, ready *[NumRegs]uint64) (n int, pending *Inst) {
	if st.Halted {
		return 0, nil
	}
	insts := p.Insts
	ff := p.fastForwardTable()
	for n < limit {
		if st.PC < 0 || st.PC >= len(insts) {
			panic(fmt.Sprintf("isa: PC %d out of program bounds [0,%d)", st.PC, len(insts)))
		}
		i := &insts[st.PC]
		switch i.Op {
		case NOP:
			st.PC++
		case LDI:
			st.Reg[i.Rd] = i.Imm
			ready[i.Rd] = 0
			st.PC++
		case MOV:
			st.Reg[i.Rd] = st.Reg[i.Rs]
			ready[i.Rd] = ready[i.Rs]
			st.PC++
		case ADD:
			st.Reg[i.Rd] = st.Reg[i.Rs] + st.Reg[i.Rt]
			ready[i.Rd] = maxReady(ready[i.Rs], ready[i.Rt])
			st.PC++
		case SUB:
			st.Reg[i.Rd] = st.Reg[i.Rs] - st.Reg[i.Rt]
			ready[i.Rd] = maxReady(ready[i.Rs], ready[i.Rt])
			st.PC++
		case MUL:
			st.Reg[i.Rd] = st.Reg[i.Rs] * st.Reg[i.Rt]
			ready[i.Rd] = maxReady(ready[i.Rs], ready[i.Rt])
			st.PC++
		case AND:
			st.Reg[i.Rd] = st.Reg[i.Rs] & st.Reg[i.Rt]
			ready[i.Rd] = maxReady(ready[i.Rs], ready[i.Rt])
			st.PC++
		case OR:
			st.Reg[i.Rd] = st.Reg[i.Rs] | st.Reg[i.Rt]
			ready[i.Rd] = maxReady(ready[i.Rs], ready[i.Rt])
			st.PC++
		case XOR:
			st.Reg[i.Rd] = st.Reg[i.Rs] ^ st.Reg[i.Rt]
			ready[i.Rd] = maxReady(ready[i.Rs], ready[i.Rt])
			st.PC++
		case SHL:
			st.Reg[i.Rd] = st.Reg[i.Rs] << uint(st.Reg[i.Rt]&63)
			ready[i.Rd] = maxReady(ready[i.Rs], ready[i.Rt])
			st.PC++
		case SHR:
			st.Reg[i.Rd] = int64(uint64(st.Reg[i.Rs]) >> uint(st.Reg[i.Rt]&63))
			ready[i.Rd] = maxReady(ready[i.Rs], ready[i.Rt])
			st.PC++
		case ADDI:
			if e := ff[st.PC]; e.n != 0 {
				if m := fastForward(st, insts, ff, e, limit-n); m > 0 {
					n += m
					continue
				}
			}
			st.Reg[i.Rd] = st.Reg[i.Rs] + i.Imm
			ready[i.Rd] = ready[i.Rs]
			st.PC++
		case MULI:
			st.Reg[i.Rd] = st.Reg[i.Rs] * i.Imm
			ready[i.Rd] = ready[i.Rs]
			st.PC++
		case ANDI:
			st.Reg[i.Rd] = st.Reg[i.Rs] & i.Imm
			ready[i.Rd] = ready[i.Rs]
			st.PC++
		case JMP:
			st.PC = int(i.Imm)
		case JAL:
			st.Reg[i.Rd] = int64(st.PC + 1)
			ready[i.Rd] = 0
			st.PC = int(i.Imm)
		case JR:
			st.PC = int(st.Reg[i.Rs])
		case BEQ:
			if st.Reg[i.Rs] == st.Reg[i.Rt] {
				st.PC = int(i.Imm)
			} else {
				st.PC++
			}
		case BNE:
			if st.Reg[i.Rs] != st.Reg[i.Rt] {
				st.PC = int(i.Imm)
			} else {
				st.PC++
			}
		case BLT:
			if st.Reg[i.Rs] < st.Reg[i.Rt] {
				st.PC = int(i.Imm)
			} else {
				st.PC++
			}
		case BGE:
			if st.Reg[i.Rs] >= st.Reg[i.Rt] {
				st.PC = int(i.Imm)
			} else {
				st.PC++
			}
		case TRAPNZ:
			// Synchronous trap: deterministic control transfer, does not
			// truncate chunks (paper §4.2.1).
			if st.Reg[i.Rs] != 0 {
				if p.TrapVec < 0 {
					panic("isa: TRAPNZ taken with no trap vector")
				}
				st.Reg[12] = int64(st.PC + 1)
				ready[12] = 0
				st.PC = p.TrapVec
			} else {
				st.PC++
			}
		case IRET:
			st.ReturnFromInterrupt()
		case HALT, FENCE, LD, ST, SWAP, FADD, CAS, IORD, IOWR:
			return n, i
		default:
			panic(fmt.Sprintf("isa: unknown opcode %v at PC %d", i.Op, st.PC))
		}
		n++
	}
	return n, nil
}

// ffEntry describes the ADDI at one PC to fastForward:
//
//   - n > 1: a straight run of n ADDIs that all add an immediate to the
//     same register (ADDI r,r,imm) starts here; sum is the wrapping sum of
//     their immediates from here to the run's end.
//   - n < 0: the ADDI heads the counted loop L: ADDI r,r,k; BLT r,s,L
//     with k > 0 and s != r.
//   - n == 0: the instruction steps.
//
// The last ADDI of a run keeps its sum (only its n is zero, or negative
// if it heads a loop): a run cut short after m instructions subtracts
// ff[pc+m].sum, the part it did not execute.
type ffEntry struct {
	n   int
	sum int64
}

// loopHead marks a counted-loop head in ffEntry.n.
const loopHead = -1

// idioms is a program's idiom table: the closed-form ALU runs and loops
// fastForward retires, and the spin-wait loads the machines skip
// (SpinLoads). Both are derived from Insts alone.
type idioms struct {
	ff   []ffEntry
	spin []bool
}

// idioms returns the program's idiom table, building it on first use.
// Programs are shared by concurrent simulations; racing builders store
// identical tables, so whichever store lands last is as good as any.
func (p *Program) idioms() *idioms {
	if t := p.idiomTab.Load(); t != nil {
		return t
	}
	t := &idioms{ff: buildFastForward(p.Insts), spin: buildSpinLoads(p.Insts)}
	p.idiomTab.Store(t)
	return t
}

func (p *Program) fastForwardTable() []ffEntry { return p.idioms().ff }

// SpinLoads reports, per PC, whether the instruction heads a spin-wait
// loop: LD rX, imm(rA) followed by a conditional branch back to it that
// compares rX with a register rC, where rX differs from rA and rC. One
// iteration of the loop writes only rX and reads memory only at
// Reg[rA]+imm, so once two iterations load the same value from the same
// address, every later one repeats them until that word or the compared
// registers change. The slice is shared; callers must not modify it.
func (p *Program) SpinLoads() []bool { return p.idioms().spin }

func buildSpinLoads(insts []Inst) []bool {
	spin := make([]bool, len(insts))
	for pc := 0; pc+1 < len(insts); pc++ {
		ld, b := &insts[pc], &insts[pc+1]
		if ld.Op != LD || ld.Rd == ld.Rs || b.Imm != int64(pc) {
			continue
		}
		switch b.Op {
		case BEQ, BNE, BLT, BGE:
			spin[pc] = (b.Rs == ld.Rd) != (b.Rt == ld.Rd)
		}
	}
	return spin
}

func buildFastForward(insts []Inst) []ffEntry {
	ff := make([]ffEntry, len(insts))
	run := 0 // length of the same-register ADDI run starting at pc+1
	for pc := len(insts) - 1; pc >= 0; pc-- {
		i := &insts[pc]
		if i.Op != ADDI || i.Rd != i.Rs {
			run = 0
			continue
		}
		if run > 0 && insts[pc+1].Rd == i.Rd {
			run++
			ff[pc] = ffEntry{n: run, sum: i.Imm + ff[pc+1].sum}
			continue
		}
		run = 1
		ff[pc].sum = i.Imm
		if pc+1 < len(insts) {
			b := &insts[pc+1]
			if b.Op == BLT && b.Rs == i.Rd && b.Rt != i.Rd && b.Imm == int64(pc) && i.Imm > 0 {
				ff[pc].n = loopHead
			}
		}
	}
	return ff
}

// fastForward retires the idiom described by e, which starts at st.PC,
// in closed form: at most budget instructions, with the same final
// registers and PC as stepping them one by one. It returns the number
// retired; 0 means the ADDI must step. ready needs no update, since
// ADDI r,r carries ready[r] over to itself and BLT writes no register.
func fastForward(st *ThreadState, insts []Inst, ff []ffEntry, e ffEntry, budget int) int {
	pc := st.PC
	r := insts[pc].Rd
	if e.n > 0 {
		m := min(e.n, budget)
		d := e.sum
		if m < e.n {
			d -= ff[pc+m].sum
		}
		st.Reg[r] += d
		st.PC = pc + m
		return m
	}
	// Counted loop: each iteration adds k > 0 and branches back while
	// r < s. Entered with r < s, it exits after the first iteration that
	// reaches s, and no iteration before that one can wrap. Entered with
	// r >= s, one iteration runs. Either way the final r is computed
	// modulo 2^64, as the stepped wrapping adds leave it, and the PC
	// follows from the comparison stepping makes last.
	if budget < 2 {
		return 0
	}
	k := uint64(insts[pc].Imm)
	s := st.Reg[insts[pc+1].Rt]
	v := st.Reg[r]
	iters := uint64(1)
	if v < s {
		iters = (uint64(s)-uint64(v)-1)/k + 1
	}
	iters = min(iters, uint64(budget/2))
	v = int64(uint64(v) + iters*k)
	st.Reg[r] = v
	if v < s {
		st.PC = pc
	} else {
		st.PC = pc + 2
	}
	return int(2 * iters)
}

// MemAddr returns the word address accessed by a memory instruction,
// resolved against the thread's registers.
func (i *Inst) MemAddr(st *ThreadState) uint32 {
	switch i.Op {
	case LD, ST:
		return uint32(st.Reg[i.Rs] + i.Imm)
	case SWAP, FADD, CAS:
		return uint32(st.Reg[i.Rs])
	}
	panic(fmt.Sprintf("isa: MemAddr on non-memory op %v", i.Op))
}

// NewValue returns the value a store-class instruction writes, given the
// old memory value (ignored for plain ST). For a failed CAS the returned
// value equals old, making the write a functional no-op while the line is
// still treated as written for coherence and conflict purposes.
func (i *Inst) NewValue(st *ThreadState, old uint64) uint64 {
	switch i.Op {
	case ST:
		return uint64(st.Reg[i.Rt])
	case SWAP:
		return uint64(st.Reg[i.Rt])
	case FADD:
		return old + uint64(st.Reg[i.Rt])
	case CAS:
		if int64(old) == st.Reg[i.Rt] {
			return uint64(i.Imm)
		}
		return old
	}
	panic(fmt.Sprintf("isa: NewValue on non-store op %v", i.Op))
}

// Complete retires a pending memory or I/O instruction: it writes the
// destination register (loaded carries the old memory value for loads and
// atomics, the port value for IORD) and advances the PC.
func (i *Inst) Complete(st *ThreadState, loaded uint64) {
	switch i.Op {
	case LD, SWAP, FADD, CAS, IORD:
		st.Reg[i.Rd] = int64(loaded)
	case ST, IOWR:
		// no register result
	default:
		panic(fmt.Sprintf("isa: Complete on op %v", i.Op))
	}
	st.PC++
}

// LineOf maps a word address to its cache line address (line index).
func LineOf(addr uint32) uint32 { return addr / LineWords }

func maxReady(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
