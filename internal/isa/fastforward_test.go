package isa

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"delorean/internal/rng"
)

// stepRef is the one-instruction-at-a-time interpreter the fast path must
// match, for the opcodes the generated programs use. Its ADDI and BLT
// cases are RunToMemOpTimed's without the idiom table.
func stepRef(st *ThreadState, p *Program, limit int, ready *[NumRegs]uint64) (n int, pending *Inst) {
	if st.Halted {
		return 0, nil
	}
	for n < limit {
		i := &p.Insts[st.PC]
		switch i.Op {
		case NOP:
			st.PC++
		case LDI:
			st.Reg[i.Rd] = i.Imm
			ready[i.Rd] = 0
			st.PC++
		case ADDI:
			st.Reg[i.Rd] = st.Reg[i.Rs] + i.Imm
			ready[i.Rd] = ready[i.Rs]
			st.PC++
		case JMP:
			st.PC = int(i.Imm)
		case BLT:
			if st.Reg[i.Rs] < st.Reg[i.Rt] {
				st.PC = int(i.Imm)
			} else {
				st.PC++
			}
		case LD, HALT:
			return n, i
		default:
			panic(fmt.Sprintf("stepRef: unexpected op %v", i.Op))
		}
		n++
	}
	return n, nil
}

// checkAgainstStepping runs p from registers regs under both interpreters,
// cycling through budgets, and fails on the first call after which the
// retired count, the pending instruction, the thread state or the
// readiness array differ. Loads complete with a value derived from the
// running count; the run stops at HALT or after maxInsts instructions.
func checkAgainstStepping(t testing.TB, p *Program, regs [NumRegs]int64, budgets []int, maxInsts int) {
	t.Helper()
	got, want := &ThreadState{Reg: regs}, &ThreadState{Reg: regs}
	var gotReady [NumRegs]uint64
	for r := range gotReady {
		gotReady[r] = uint64(100 + r)
	}
	wantReady := gotReady
	total := 0
	for call := 0; total < maxInsts; call++ {
		b := budgets[call%len(budgets)]
		before := *want
		gn, gp := RunToMemOpTimed(got, p, b, &gotReady)
		wn, wp := stepRef(want, p, b, &wantReady)
		if gn != wn || gp != wp || *got != *want || gotReady != wantReady {
			t.Fatalf("call %d (budget %d) from PC %d regs %v:\n got n=%d pending=%v state=%+v ready=%v\nwant n=%d pending=%v state=%+v ready=%v\nprogram:\n%s",
				call, b, before.PC, before.Reg, gn, gp, *got, gotReady, wn, wp, *want, wantReady, listing(p))
		}
		total += gn
		switch {
		case gp == nil:
		case gp.Op == HALT:
			return
		default:
			gp.Complete(got, uint64(total))
			wp.Complete(want, uint64(total))
			total++
		}
	}
}

func listing(p *Program) string {
	var b strings.Builder
	for pc, i := range p.Insts {
		fmt.Fprintf(&b, "%4d  %v\n", pc, i)
	}
	return b.String()
}

func prog(insts ...Inst) *Program {
	return &Program{Insts: insts, TrapVec: -1, IntrVec: -1}
}

func addi(rd, rs int, imm int64) Inst {
	return Inst{Op: ADDI, Rd: uint8(rd), Rs: uint8(rs), Imm: imm}
}

func blt(rs, rt int, target int) Inst {
	return Inst{Op: BLT, Rs: uint8(rs), Rt: uint8(rt), Imm: int64(target)}
}

var (
	halt = Inst{Op: HALT}
	ld   = Inst{Op: LD, Rd: 7, Rs: 6}
)

func jmp(target int) Inst { return Inst{Op: JMP, Imm: int64(target)} }

func regsWith(kv ...int64) [NumRegs]int64 {
	var r [NumRegs]int64
	for i := 0; i+1 < len(kv); i += 2 {
		r[kv[i]] = kv[i+1]
	}
	return r
}

func TestFastForwardTable(t *testing.T) {
	p := prog(
		addi(1, 1, 5), addi(1, 1, 7), addi(1, 1, 3), // run of 3 ending in a loop head
		blt(1, 2, 2),
		addi(3, 3, 1), addi(4, 4, 1), // two singleton runs of different registers
		addi(5, 6, 9),               // rd != rs: never fused
		addi(5, 5, 0), blt(5, 5, 7), // BLT r,r: not a counted loop
		addi(8, 8, -2), blt(8, 2, 9), // k < 0: not a counted loop
		halt,
	)
	want := []ffEntry{
		{3, 15}, {2, 10}, {loopHead, 3},
		{}, {0, 1}, {0, 1}, {}, {0, 0}, {}, {0, -2}, {}, {},
	}
	got := p.fastForwardTable()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("table\n got %v\nwant %v", got, want)
	}
	if &p.fastForwardTable()[0] != &got[0] {
		t.Fatal("table rebuilt on second use")
	}
}

func TestFastForwardMatchesStepping(t *testing.T) {
	const max64, min64 = math.MaxInt64, math.MinInt64
	run := []Inst{addi(1, 1, 4), addi(1, 1, -9), addi(1, 1, max64), addi(1, 1, 2), addi(1, 1, min64), addi(1, 1, 11), ld, halt}
	cases := []struct {
		name string
		p    *Program
		regs [NumRegs]int64
	}{
		{"straight run", prog(run...), regsWith(1, 17)},
		{"counted loop", prog(addi(1, 1, 3), blt(1, 2, 0), ld, halt), regsWith(1, 0, 2, 100)},
		{"loop entered with r >= s", prog(addi(1, 1, 3), blt(1, 2, 0), halt), regsWith(1, 50, 2, 10)},
		{"loop entered at MaxInt64 wraps once", prog(addi(1, 1, 3), blt(1, 2, 0), halt), regsWith(1, max64, 2, 10)},
		{"loop from MinInt64", prog(addi(1, 1, 1<<40), blt(1, 2, 0), halt), regsWith(1, min64, 2, max64-1<<40)},
		{"loop bound within k of MaxInt64", prog(addi(1, 1, 3), blt(1, 2, 0), halt), regsWith(1, max64-40, 2, max64-1)},
		{"loop exit wraps past MaxInt64", prog(addi(1, 1, 3), blt(1, 2, 0), halt), regsWith(1, max64-41, 2, max64-1)},
		{"loop with k = MaxInt64", prog(addi(1, 1, max64), blt(1, 2, 0), halt), regsWith(1, min64, 2, max64)},
		{"negative k", prog(addi(1, 1, -3), blt(1, 2, 0), halt), regsWith(1, 0, 2, 100)},
		{"zero k", prog(addi(1, 1, 0), blt(1, 2, 0), halt), regsWith(1, 0, 2, 1)},
		{"BLT r,r", prog(addi(1, 1, 3), blt(1, 1, 0), halt), regsWith(1, 0)},
		{"jump into the middle of a run", prog(append([]Inst{jmp(3)}, run...)...), regsWith(1, 5)},
		{"run ending in a loop head", prog(addi(1, 1, 5), addi(1, 1, 7), addi(1, 1, 3), blt(1, 2, 2), ld, halt), regsWith(1, 1, 2, 200)},
		{"loop over a run", prog(addi(1, 1, 1), addi(1, 1, 2), addi(1, 1, 3), blt(1, 2, 0), halt), regsWith(1, 0, 2, 500)},
		{"rd != rs", prog(addi(1, 2, 1), addi(2, 1, 1), addi(1, 2, 1), halt), regsWith(2, 9)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for b := 1; b <= 2*len(c.p.Insts)+3; b++ {
				checkAgainstStepping(t, c.p, c.regs, []int{b}, 2000)
			}
			checkAgainstStepping(t, c.p, c.regs, []int{1, 2, 3, 5, 64, 1000}, 2000)
		})
	}

	// Random programs mixing the idioms with branches into their middles.
	s := rng.New(15)
	for trial := 0; trial < 2000; trial++ {
		p, regs := randomProgram(s)
		budgets := []int{1 + s.Intn(9), 1 + s.Intn(40), 1 + s.Intn(300)}
		checkAgainstStepping(t, p, regs, budgets, 3000)
	}
}

// TestFastForwardTableConcurrentBuild: processors sharing a program race
// to build its idiom table on first run (run under -race); every one of
// them must see a correct table.
func TestFastForwardTableConcurrentBuild(t *testing.T) {
	p := prog(addi(1, 1, 2), addi(1, 1, 3), addi(2, 2, 3), blt(2, 3, 2), halt)
	want := &ThreadState{Reg: regsWith(3, 90)}
	var ready [NumRegs]uint64
	stepRef(want, p, 1000, &ready)
	var wg sync.WaitGroup
	got := make([]ThreadState, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g].Reg = regsWith(3, 90)
			var ready [NumRegs]uint64
			RunToMemOpTimed(&got[g], p, 1000, &ready)
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != *want {
			t.Fatalf("goroutine %d: state %+v, want %+v", g, got[g], *want)
		}
	}
}

var interesting = []int64{0, 1, -1, 2, 3, 7, -3, 1 << 40, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MaxInt64 - 3, math.MinInt64 + 1, 100, -100, 1000}

// randomProgram emits straight runs, counted loops, rd != rs ADDIs,
// loads and jumps over registers r0..r3, so registers collide often.
func randomProgram(s *rng.Source) (*Program, [NumRegs]int64) {
	var insts []Inst
	pick := func() int64 { return interesting[s.Intn(len(interesting))] }
	reg := func() int { return s.Intn(4) }
	for len(insts) < 4+s.Intn(20) {
		switch s.Intn(6) {
		case 0, 1:
			r := reg()
			for j := 1 + s.Intn(6); j > 0; j-- {
				insts = append(insts, addi(r, r, pick()))
			}
		case 2:
			r := reg()
			head := len(insts)
			insts = append(insts, addi(r, r, pick()), blt(r, reg(), head))
		case 3:
			insts = append(insts, addi(reg(), reg(), pick()))
		case 4:
			insts = append(insts, Inst{Op: LDI, Rd: uint8(reg()), Imm: pick()})
		case 5:
			if s.Intn(2) == 0 {
				insts = append(insts, ld)
			} else {
				insts = append(insts, jmp(-1)) // target patched below
			}
		}
	}
	insts = append(insts, halt)
	for pc := range insts {
		if insts[pc].Op == JMP {
			insts[pc].Imm = int64(pc + 1 + s.Intn(len(insts)-pc-1))
		}
	}
	var regs [NumRegs]int64
	for r := 0; r < 4; r++ {
		regs[r] = pick()
	}
	return prog(insts...), regs
}

// FuzzRunToMemOp builds a program from the fuzzed bytes, four bytes an
// instruction, and checks the interpreter against stepRef.
func FuzzRunToMemOp(f *testing.F) {
	f.Add([]byte{0, 1, 1, 3, 0, 1, 1, 4, 4, 1, 2, 0, 5, 2, 0, 9}, uint8(3))
	f.Add([]byte{0, 1, 1, 5, 4, 1, 2, 0, 6, 0, 0, 1}, uint8(1))
	f.Add([]byte{0, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0, 2, 6, 0, 0, 1}, uint8(7))
	f.Fuzz(func(t *testing.T, code []byte, budget uint8) {
		if len(code) > 4*64 {
			return
		}
		var insts []Inst
		for i := 0; i+3 < len(code); i += 4 {
			op, a, b, c := code[i]%8, int(code[i+1]%4), int(code[i+2]%4), code[i+3]
			imm := interesting[int(c)%len(interesting)]
			switch op {
			case 0, 1, 2:
				insts = append(insts, addi(a, a, imm))
			case 3:
				insts = append(insts, addi(a, b, imm))
			case 4:
				target := len(insts) - 1 // loop back onto the previous ADDI
				if c&1 == 1 || target < 0 {
					target = int(c) // patched into range below
				}
				insts = append(insts, blt(a, b, target))
			case 5:
				insts = append(insts, Inst{Op: LDI, Rd: uint8(a), Imm: imm})
			case 6:
				insts = append(insts, jmp(int(c)))
			case 7:
				insts = append(insts, ld)
			}
		}
		insts = append(insts, halt)
		for pc := range insts {
			if op := insts[pc].Op; op == JMP || op == BLT {
				insts[pc].Imm %= int64(len(insts))
			}
		}
		var regs [NumRegs]int64
		for r := 0; r < 4 && r < len(code); r++ {
			regs[r] = interesting[int(code[len(code)-1-r])%len(interesting)]
		}
		budgets := []int{1 + int(budget%13), 2 + int(budget%5), 64, 1 + int(budget)}
		checkAgainstStepping(t, prog(insts...), regs, budgets, 4000)
	})
}
