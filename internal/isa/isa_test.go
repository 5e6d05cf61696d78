package isa

import (
	"strings"
	"testing"
)

// miniRun interprets prog to completion against a map-backed memory,
// exercising the same RunToMemOpTimed/MemAddr/NewValue/Complete contract the
// simulator uses. maxInsts guards against runaway programs.
func miniRun(t *testing.T, prog *Program, st *ThreadState, mem map[uint32]uint64, maxInsts int) int {
	t.Helper()
	total := 0
	var ready [NumRegs]uint64
	for total < maxInsts {
		n, pend := RunToMemOpTimed(st, prog, maxInsts-total, &ready)
		total += n
		if pend == nil {
			if st.Halted {
				return total
			}
			if total >= maxInsts {
				t.Fatalf("program exceeded %d instructions", maxInsts)
			}
			continue
		}
		switch pend.Op {
		case HALT:
			st.Halted = true
			return total + 1
		case FENCE:
			st.PC++
		case LD:
			pend.Complete(st, mem[pend.MemAddr(st)])
		case ST, SWAP, FADD, CAS:
			addr := pend.MemAddr(st)
			old := mem[addr]
			mem[addr] = pend.NewValue(st, old)
			pend.Complete(st, old)
		case IORD:
			pend.Complete(st, 0xabcd)
		case IOWR:
			pend.Complete(st, 0)
		}
		total++
	}
	t.Fatalf("program exceeded %d instructions", maxInsts)
	return total
}

func TestALUOps(t *testing.T) {
	a := NewAsm()
	a.Ldi(1, 6).Ldi(2, 7)
	a.Add(3, 1, 2) // 13
	a.Sub(4, 1, 2) // -1
	a.Mul(5, 1, 2) // 42
	a.Xor(6, 1, 2) // 1
	a.And(7, 1, 2) // 6
	a.Or(8, 1, 2)  // 7
	a.Ldi(9, 2)
	a.Shl(11, 1, 9) // 24
	a.Shr(12, 1, 9) // 1
	a.Addi(13, 1, 100)
	a.Muli(0, 2, 3)    // 21
	a.Andi(1, 13, 0xf) // 106 & 15 = 10
	a.Halt()
	st := &ThreadState{}
	miniRun(t, a.Assemble(), st, map[uint32]uint64{}, 100)
	want := map[int]int64{3: 13, 4: -1, 5: 42, 6: 1, 7: 6, 8: 7, 11: 24, 12: 1, 13: 106, 0: 21, 1: 10}
	for r, v := range want {
		if st.Reg[r] != v {
			t.Errorf("r%d = %d, want %d", r, st.Reg[r], v)
		}
	}
}

func TestLoadStore(t *testing.T) {
	a := NewAsm()
	a.Ldi(1, 100) // base
	a.Ldi(2, 55)
	a.St(1, 4, 2) // mem[104] = 55
	a.Ld(3, 1, 4) // r3 = mem[104]
	a.Halt()
	st := &ThreadState{}
	mem := map[uint32]uint64{}
	miniRun(t, a.Assemble(), st, mem, 100)
	if mem[104] != 55 {
		t.Errorf("mem[104] = %d, want 55", mem[104])
	}
	if st.Reg[3] != 55 {
		t.Errorf("r3 = %d, want 55", st.Reg[3])
	}
}

func TestBranchLoop(t *testing.T) {
	a := NewAsm()
	a.Ldi(1, 0).Ldi(2, 10).Ldi(3, 0)
	a.Label("loop")
	a.Addi(3, 3, 5)
	a.Addi(1, 1, 1)
	a.Blt(1, 2, "loop")
	a.Halt()
	st := &ThreadState{}
	miniRun(t, a.Assemble(), st, map[uint32]uint64{}, 1000)
	if st.Reg[3] != 50 {
		t.Errorf("r3 = %d, want 50", st.Reg[3])
	}
}

func TestJalJr(t *testing.T) {
	a := NewAsm()
	a.Jal(5, "sub")
	a.Ldi(2, 99)
	a.Halt()
	a.Label("sub")
	a.Ldi(1, 42)
	a.Jr(5)
	st := &ThreadState{}
	miniRun(t, a.Assemble(), st, map[uint32]uint64{}, 100)
	if st.Reg[1] != 42 || st.Reg[2] != 99 {
		t.Errorf("r1=%d r2=%d, want 42, 99", st.Reg[1], st.Reg[2])
	}
}

func TestSwapSemantics(t *testing.T) {
	a := NewAsm()
	a.Ldi(1, 200).Ldi(2, 7)
	a.Swap(3, 1, 2)
	a.Halt()
	st := &ThreadState{}
	mem := map[uint32]uint64{200: 5}
	miniRun(t, a.Assemble(), st, mem, 100)
	if st.Reg[3] != 5 || mem[200] != 7 {
		t.Errorf("swap: r3=%d mem=%d, want 5, 7", st.Reg[3], mem[200])
	}
}

func TestFaddSemantics(t *testing.T) {
	a := NewAsm()
	a.Ldi(1, 300).Ldi(2, 10)
	a.Fadd(3, 1, 2)
	a.Fadd(4, 1, 2)
	a.Halt()
	st := &ThreadState{}
	mem := map[uint32]uint64{300: 1}
	miniRun(t, a.Assemble(), st, mem, 100)
	if st.Reg[3] != 1 || st.Reg[4] != 11 || mem[300] != 21 {
		t.Errorf("fadd: r3=%d r4=%d mem=%d, want 1, 11, 21", st.Reg[3], st.Reg[4], mem[300])
	}
}

func TestCasSemantics(t *testing.T) {
	a := NewAsm()
	a.Ldi(1, 400).Ldi(2, 5)
	a.Cas(3, 1, 2, 99) // succeeds: mem[400]==5
	a.Cas(4, 1, 2, 77) // fails: mem[400]==99 != 5
	a.Halt()
	st := &ThreadState{}
	mem := map[uint32]uint64{400: 5}
	miniRun(t, a.Assemble(), st, mem, 100)
	if st.Reg[3] != 5 || st.Reg[4] != 99 || mem[400] != 99 {
		t.Errorf("cas: r3=%d r4=%d mem=%d, want 5, 99, 99", st.Reg[3], st.Reg[4], mem[400])
	}
}

func TestTrapNZ(t *testing.T) {
	a := NewAsm()
	a.SetTrapVec("trap")
	a.Ldi(1, 0)
	a.Trapnz(1) // not taken
	a.Ldi(1, 3)
	a.Trapnz(1) // taken
	a.Ldi(4, 1000)
	a.Halt()
	a.Label("trap")
	a.Addi(5, 5, 1) // count trap entries
	a.Jr(12)
	st := &ThreadState{}
	miniRun(t, a.Assemble(), st, map[uint32]uint64{}, 100)
	if st.Reg[5] != 1 {
		t.Errorf("trap count = %d, want 1", st.Reg[5])
	}
	if st.Reg[4] != 1000 {
		t.Errorf("execution did not resume after trap")
	}
}

func TestInterruptShadowBank(t *testing.T) {
	a := NewAsm()
	a.SetIntrVec("ih")
	a.Ldi(1, 7)
	a.Halt()
	a.Label("ih")
	a.Ldi(1, 1234) // clobber; must be restored by IRET
	a.Ldi(2, 500)
	a.St(2, 0, 13) // store interrupt data to mem[500]
	a.Iret()
	prog := a.Assemble()

	st := &ThreadState{}
	// Execute first instruction, then deliver an interrupt.
	var ready [NumRegs]uint64
	n, pend := RunToMemOpTimed(st, prog, 1, &ready)
	if n != 1 || pend != nil {
		t.Fatalf("setup: n=%d pend=%v", n, pend)
	}
	st.EnterInterrupt(prog.IntrVec, 2, 0xbeef, false)
	if st.Reg[11] != 2 || st.Reg[13] != 0xbeef {
		t.Fatalf("interrupt regs not loaded: r11=%d r13=%#x", st.Reg[11], st.Reg[13])
	}
	mem := map[uint32]uint64{}
	miniRun(t, prog, st, mem, 100)
	if mem[500] != 0xbeef {
		t.Errorf("handler store missing: mem[500]=%#x", mem[500])
	}
	if st.Reg[1] != 7 {
		t.Errorf("r1 = %d after IRET, want 7 (shadow bank restore)", st.Reg[1])
	}
	if st.InIntr {
		t.Error("InIntr still set after IRET")
	}
}

func TestIretOutsideHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st := &ThreadState{}
	st.ReturnFromInterrupt()
}

func TestLockMacroMutualExclusionSingleThread(t *testing.T) {
	// Single-threaded sanity: lock acquire on a free lock succeeds without
	// spinning forever, unlock clears it.
	a := NewAsm()
	a.LockInit()
	a.Ldi(1, 64) // lock address
	a.Lock(1, 2, "a")
	a.Ld(3, 1, 0) // read lock word: must be 1 while held
	a.Unlock(1)
	a.Ld(4, 1, 0) // must be 0 after release
	a.Halt()
	st := &ThreadState{}
	mem := map[uint32]uint64{}
	miniRun(t, a.Assemble(), st, mem, 1000)
	if st.Reg[3] != 1 {
		t.Errorf("lock word while held = %d, want 1", st.Reg[3])
	}
	if st.Reg[4] != 0 {
		t.Errorf("lock word after release = %d, want 0", st.Reg[4])
	}
}

func TestRunToMemOpLimit(t *testing.T) {
	a := NewAsm()
	for i := 0; i < 10; i++ {
		a.Addi(1, 1, 1)
	}
	a.Halt()
	st := &ThreadState{}
	prog := a.Assemble()
	var ready [NumRegs]uint64
	n, pend := RunToMemOpTimed(st, prog, 4, &ready)
	if n != 4 || pend != nil {
		t.Fatalf("n=%d pend=%v, want 4, nil", n, pend)
	}
	n, pend = RunToMemOpTimed(st, prog, 100, &ready)
	if n != 6 || pend == nil || pend.Op != HALT {
		t.Fatalf("n=%d pend=%v, want 6, HALT", n, pend)
	}
}

func TestRunToMemOpHaltedThread(t *testing.T) {
	st := &ThreadState{Halted: true}
	var ready [NumRegs]uint64
	n, pend := RunToMemOpTimed(st, &Program{Insts: []Inst{{Op: HALT}}}, 10, &ready)
	if n != 0 || pend != nil {
		t.Fatalf("halted thread executed: n=%d pend=%v", n, pend)
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewAsm()
	a.Label("x")
	a.Label("x")
}

func TestUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewAsm()
	a.Jmp("nowhere")
	a.Assemble()
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: LDI, Rd: 1, Imm: 5}, "ldi r1, 5"},
		{Inst{Op: LD, Rd: 2, Rs: 3, Imm: 8}, "ld r2, 8(r3)"},
		{Inst{Op: ST, Rs: 1, Rt: 2, Imm: 0}, "st 0(r1), r2"},
		{Inst{Op: BNE, Rs: 1, Rt: 2, Imm: 7}, "bne r1, r2, 7"},
		{Inst{Op: HALT}, "halt"},
		{Inst{Op: IORD, Rd: 4, Imm: 2}, "iord r4, port2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in.Op, got, c.want)
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !LD.IsMem() || !LD.IsLoad() || LD.IsStore() {
		t.Error("LD classification wrong")
	}
	if !ST.IsMem() || ST.IsLoad() || !ST.IsStore() {
		t.Error("ST classification wrong")
	}
	for _, op := range []Op{SWAP, FADD, CAS} {
		if !op.IsMem() || !op.IsLoad() || !op.IsStore() || !op.IsAtomic() {
			t.Errorf("%v classification wrong", op)
		}
	}
	if !IORD.IsUncached() || !IOWR.IsUncached() || LD.IsUncached() {
		t.Error("uncached classification wrong")
	}
	if ADD.IsMem() || JMP.IsMem() {
		t.Error("non-memory op classified as memory")
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(3) != 0 || LineOf(4) != 1 || LineOf(7) != 1 {
		t.Error("LineOf mapping wrong for 4-word lines")
	}
}

func TestBarrierMacroAssembles(t *testing.T) {
	a := NewAsm()
	a.LockInit()
	a.Ldi(1, 1000) // barrier base
	a.Ldi(2, 1)    // participant count: just us
	a.Barrier(1, 2, 3, 4, 5, "b0")
	a.Halt()
	st := &ThreadState{}
	mem := map[uint32]uint64{}
	miniRun(t, a.Assemble(), st, mem, 1000)
	if mem[1001] != 1 {
		t.Errorf("generation = %d, want 1", mem[1001])
	}
	if mem[1000] != 0 {
		t.Errorf("count = %d, want 0", mem[1000])
	}
}

func TestOutOfRangeRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAsm().Ldi(16, 0)
}

func TestProgramVectorsDefaultMinusOne(t *testing.T) {
	p := NewAsm().Halt().Assemble()
	if p.TrapVec != -1 || p.IntrVec != -1 {
		t.Errorf("vectors = %d, %d, want -1, -1", p.TrapVec, p.IntrVec)
	}
}

func TestStringHasAllMnemonics(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d missing mnemonic", op)
		}
	}
}
