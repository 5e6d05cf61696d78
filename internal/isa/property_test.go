package isa

import (
	"testing"
	"testing/quick"

	"delorean/internal/rng"
)

// Property: ALU semantics match Go's native 64-bit arithmetic for
// arbitrary operand pairs.
func TestQuickALUSemantics(t *testing.T) {
	f := func(x, y int64) bool {
		a := NewAsm()
		a.Ldi(1, x)
		a.Ldi(2, y)
		a.Add(3, 1, 2)
		a.Sub(4, 1, 2)
		a.Mul(5, 1, 2)
		a.And(6, 1, 2)
		a.Or(7, 1, 2)
		a.Xor(8, 1, 2)
		a.Shl(9, 1, 2)
		a.Shr(0, 1, 2)
		a.Halt()
		st := &ThreadState{}
		var ready [NumRegs]uint64
		RunToMemOpTimed(st, a.Assemble(), 100, &ready)
		sh := uint(y & 63)
		return st.Reg[3] == x+y &&
			st.Reg[4] == x-y &&
			st.Reg[5] == x*y &&
			st.Reg[6] == x&y &&
			st.Reg[7] == x|y &&
			st.Reg[8] == x^y &&
			st.Reg[9] == x<<sh &&
			st.Reg[0] == int64(uint64(x)>>sh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunToMemOpTimed is insensitive to batch size — executing a
// program in many small steps produces exactly the same architectural
// state as one big step.
func TestQuickBatchSizeInvariance(t *testing.T) {
	f := func(seed uint64, chunk uint8) bool {
		s := rng.New(seed)
		a := NewAsm()
		a.Ldi(1, int64(s.Intn(100)))
		a.Ldi(2, int64(1+s.Intn(50)))
		a.Ldi(3, 0)
		a.Label("loop")
		a.Addi(3, 3, 1)
		a.Mul(1, 1, 3)
		a.Andi(1, 1, 0xffff)
		a.Add(1, 1, 2)
		a.Blt(3, 2, "loop")
		a.Halt()
		prog := a.Assemble()

		big := &ThreadState{}
		var ready [NumRegs]uint64
		RunToMemOpTimed(big, prog, 1_000_000, &ready)

		small := &ThreadState{}
		step := 1 + int(chunk%7)
		for i := 0; i < 1_000_000; i++ {
			n, pend := RunToMemOpTimed(small, prog, step, &ready)
			if pend != nil {
				break // HALT reached
			}
			if n == 0 {
				break
			}
		}
		return small.Reg == big.Reg && small.PC == big.PC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
