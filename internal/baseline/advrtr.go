package baseline

import (
	"delorean/internal/bitio"
	"delorean/internal/lz77"
	"delorean/internal/sim"
)

// AdvancedRTR implements Xu et al.'s TSO extension of RTR (the paper's
// §2.1 "Advanced" support — listed in its Table 1 with unmeasured cost,
// one of the open questions this reproduction can answer).
//
// Under TSO a load may bypass the processor's pending stores, so the
// dependence FDR/RTR would log (assuming SC) can be wrong. The hardware
// detects loads that may have violated SC — here: a load issued while
// older stores were still buffered, reading a line another processor
// wrote recently — and, instead of logging the dependence, logs the
// VALUE the load obtained; the replayer feeds the value directly. All
// other dependences are handled exactly as in Basic RTR.
type AdvancedRTR struct {
	*RTR
	// recentWindow is how recently (in cycles) another processor must
	// have written the line for a bypassing load to count as a possible
	// SC violation.
	recentWindow uint64

	valueEntries int
	vw           bitio.Writer
	prevValue    uint64
}

// NewAdvancedRTR builds the recorder. window is the recency bound for
// violation detection (0 uses 400 cycles, roughly a memory round trip).
func NewAdvancedRTR(nprocs int, window uint64) *AdvancedRTR {
	if window == 0 {
		window = 400
	}
	return &AdvancedRTR{
		RTR:          NewRTR(nprocs),
		recentWindow: window,
	}
}

// Name implements Recorder.
func (a *AdvancedRTR) Name() string { return "AdvancedRTR" }

// OnAccess implements sim.Observer: violating loads log their value;
// everything else flows into the Basic RTR machinery.
func (a *AdvancedRTR) OnAccess(e sim.AccessEvent) {
	if e.Read && !e.Write && e.StoresPending {
		// The line's last writer: RTR.OnAccess stamps writerProc and
		// writerTime on every write.
		ls := a.lines.get(e.Line)
		// Known defect (ROADMAP): a preceding write stamped after e.Time
		// wraps the unsigned subtraction, so the load goes unflagged.
		if ls.writerProc >= 0 && int(ls.writerProc) != e.Proc && e.Time-ls.writerTime <= a.recentWindow {
			// Possible SC violation: log the load's value (xor-delta
			// against the previous logged value — loaded values repeat
			// heavily, and the encoding should see that).
			a.valueEntries++
			a.vw.WriteBits(uint64(e.Proc), 4)
			a.vw.WriteUvarint(e.Value ^ a.prevValue)
			a.prevValue = e.Value
			// The dependence itself is NOT logged (the value substitutes
			// for it), but the access still updates the line state so
			// later dependences resolve correctly.
			a.noteOnly(e)
			return
		}
	}
	a.RTR.OnAccess(e)
}

// noteOnly updates line metadata without dependence logging.
func (a *AdvancedRTR) noteOnly(e sim.AccessEvent) {
	ls := a.RTR.lines.get(e.Line)
	ls.readerInst[e.Proc] = e.Inst
	a.RTR.curInst[e.Proc] = e.Inst
}

// ValueEntries returns the number of load values logged.
func (a *AdvancedRTR) ValueEntries() int { return a.valueEntries }

// RawBits implements Recorder: dependence log plus value log.
func (a *AdvancedRTR) RawBits() int {
	return a.RTR.RawBits() + a.vw.Len()
}

// CompressedBits implements Recorder.
func (a *AdvancedRTR) CompressedBits() int {
	return a.RTR.CompressedBits() + lz77.CompressedBits(a.vw.Bytes())
}

// Entries implements Recorder.
func (a *AdvancedRTR) Entries() int { return a.RTR.Entries() + a.valueEntries }

var _ Recorder = (*AdvancedRTR)(nil)
