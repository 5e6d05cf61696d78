package isa_test

import (
	"fmt"
	"testing"

	"delorean/internal/isa"
	"delorean/internal/workload"
)

func spinPCs(p *isa.Program) []int {
	var pcs []int
	for pc, ok := range p.SpinLoads() {
		if ok {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// spinLoops disassembles the loops SpinLoads finds.
func spinLoops(p *isa.Program) []string {
	var out []string
	for _, pc := range spinPCs(p) {
		out = append(out, fmt.Sprintf("%v; %v", p.Insts[pc], p.Insts[pc+1]))
	}
	return out
}

func TestSpinTable(t *testing.T) {
	// Positives. The workloads' barrier: processor 0 waits for each
	// arrival flag in turn (the flag address is in r1), everyone else
	// spins on the generation word (r0); both compare with the target
	// generation in r3.
	ocean := workload.Get("ocean", workload.Params{NProcs: 4, Scale: 1000, Seed: 1}).Progs[0]
	want := []string{"ld r8, 0(r1); blt r8, r3, %d", "ld r8, 0(r0); blt r8, r3, %d"}
	got := spinLoops(ocean)
	pcs := spinPCs(ocean)
	if len(got) != len(want) {
		t.Fatalf("ocean's spin loops: %q, want the barrier's gather wait and spin", got)
	}
	for i := range want {
		if w := fmt.Sprintf(want[i], pcs[i]); got[i] != w {
			t.Errorf("ocean's spin loop %d: %q, want %q", i, got[i], w)
		}
	}
	// Asm.Lock's test half (its swap half is not a spin).
	a := isa.NewAsm()
	a.LockInit()
	a.Ldi(1, 64)
	a.Lock(1, 2, "l")
	a.Unlock(1)
	a.Halt()
	if got := spinLoops(a.Assemble()); fmt.Sprint(got) != "[ld r2, 0(r1); bne r2, r10, 2]" {
		t.Errorf("Asm.Lock's spin loops: %q", got)
	}

	// Negatives: none of these is a two-instruction loop whose load
	// feeds only the branch's comparison with another register.
	negatives := map[string]func(a *isa.Asm){
		"rX == rA": func(a *isa.Asm) {
			a.Label("l")
			a.Ld(1, 1, 0)
			a.Blt(1, 3, "l")
		},
		"rX == the compare register": func(a *isa.Asm) {
			a.Label("l")
			a.Ld(8, 1, 0)
			a.Beq(8, 8, "l")
		},
		"branch elsewhere": func(a *isa.Asm) {
			a.Nop()
			a.Label("l")
			a.Ld(8, 1, 0)
			a.Blt(8, 3, "m")
			a.Label("m")
		},
		"branch on another register": func(a *isa.Asm) {
			a.Label("l")
			a.Ld(8, 1, 0)
			a.Blt(2, 3, "l")
		},
		"unconditional jump": func(a *isa.Asm) {
			a.Label("l")
			a.Ld(8, 1, 0)
			a.Jmp("l")
		},
		"three-instruction loop": func(a *isa.Asm) {
			a.Label("l")
			a.Ld(8, 1, 0)
			a.Nop()
			a.Bge(8, 3, "l")
		},
		"store inside the loop": func(a *isa.Asm) {
			a.Label("l")
			a.Ld(8, 1, 0)
			a.St(2, 0, 8)
			a.Bne(8, 3, "l")
		},
		"ALU op inside the loop": func(a *isa.Asm) {
			a.Label("l")
			a.Ld(8, 1, 0)
			a.Addi(3, 3, 1)
			a.Blt(8, 3, "l")
		},
	}
	for name, emit := range negatives {
		a := isa.NewAsm()
		emit(a)
		a.Halt()
		if got := spinLoops(a.Assemble()); len(got) != 0 {
			t.Errorf("%s: found spin loops %q", name, got)
		}
	}
}
