// Package arbiter implements the chunk-commit arbiter: the module that
// observes (and during replay, enforces) the total order of chunk
// commits.
//
// The arbiter receives commit requests carrying the chunk's signatures,
// serializes conflicting commits, bounds the number of concurrent
// commits, and applies a commit-ordering Policy. The policies are where
// DeLorean's execution modes differ:
//
//   - FreeOrder: grants in arrival order (recording under Order&Size,
//     OrderOnly, and plain BulkSC). The grant sequence IS the PI log.
//   - RoundRobin: a predefined order — the PicoLog mode. A commit token
//     circulates; processor i+1's commit cannot initiate before i's.
//   - LogOrder: replay for Order&Size/OrderOnly — grants strictly in the
//     PI log's recorded sequence.
//   - RoundRobinReplay: replay for PicoLog — the same predefined order,
//     plus recorded commit slots at which DMA transfers and out-of-turn
//     (high-priority interrupt) commits must be interleaved.
package arbiter

import (
	"fmt"

	"delorean/internal/signature"
	"delorean/internal/trace"
)

// Request is one chunk's (or DMA transfer's) pending commit.
type Request struct {
	Proc int // committing processor, or the DMA pseudo-ID (NProcs)
	// Arrive is when the request reaches the arbiter (completion time +
	// arbitration latency); Ready is when the chunk finished executing.
	Arrive uint64
	Ready  uint64
	// RSig/WSig are the chunk's footprint signatures; WLines its exact
	// written lines (for the exact-conflict oracle and for invalidations).
	RSig, WSig *signature.Sig
	WLines     []uint32
	// Urgent requests (DMA; high-priority interrupt handler chunks in
	// PicoLog) bypass the round-robin token.
	Urgent bool
	// Split marks the continuation piece of a replay-split chunk (a chunk
	// that unexpectedly overflowed during replay commits as two pieces
	// consuming a single log slot); it is granted immediately after its
	// first piece without consuming an ordering-policy turn.
	Split bool
	// Slot is filled in at grant time with the global commit index this
	// request consumed.
	Slot uint64
	// Tag is opaque engine state (the chunk).
	Tag any
}

// Policy decides whose commit may initiate next.
type Policy interface {
	// MayGrant reports whether r may be granted now, given the number of
	// commits granted so far.
	MayGrant(r *Request, globalCommits uint64) bool
	// Granted notifies the policy of a grant.
	Granted(r *Request, now uint64, globalCommits uint64)
	// MarkDone excludes a finished processor from future turns.
	MarkDone(proc int)
	// Head returns the processor that must commit next, if the policy is
	// strictly ordered (ok=false for FreeOrder).
	Head(globalCommits uint64) (proc int, ok bool)
}

// Arbiter holds the commit pipeline state.
type Arbiter struct {
	Lat       uint64 // request→arbiter latency is charged by the engine; kept for reference
	CommitDur uint64
	MaxConcur int
	Policy    Policy
	// Exact selects exact-line conflict checks instead of signatures
	// (the ablation oracle).
	Exact bool
	// Trace, when non-nil, receives occupancy samples and deny events;
	// the engine points it at the trace sink's global stream.
	Trace *trace.Stream

	queue    []*Request
	inflight []inflightCommit
	commits  uint64

	// Stats integrals for Table 6.
	lastSample       uint64
	readyIntegral    float64 // ∫ (#ready requests) dt
	inflightIntegral float64 // ∫ (#inflight commits) dt
	busyTime         uint64  // time with ≥1 inflight commit
	grantCount       uint64
}

type inflightCommit struct {
	proc   int
	end    uint64
	wsig   *signature.Sig
	wlines []uint32
}

// New builds an arbiter.
func New(lat, commitDur uint64, maxConcur int, p Policy) *Arbiter {
	return &Arbiter{Lat: lat, CommitDur: commitDur, MaxConcur: maxConcur, Policy: p}
}

// GlobalCommits returns the number of commits granted since start — the
// "commit slot" counter PicoLog records DMA and urgent-interrupt slots
// against.
func (a *Arbiter) GlobalCommits() uint64 { return a.commits }

// StartCommits presets the global commit counter (interval replay from a
// checkpoint: absolute commit-slot references must keep resolving).
func (a *Arbiter) StartCommits(n uint64) { a.commits = n }

// Pending returns the number of queued requests.
func (a *Arbiter) Pending() int { return len(a.queue) }

// InFlight returns the number of commits currently propagating.
func (a *Arbiter) InFlight() int { return len(a.inflight) }

func (a *Arbiter) sample(now uint64) {
	if now < a.lastSample {
		panic(fmt.Sprintf("arbiter: time moved backwards %d -> %d", a.lastSample, now))
	}
	dt := float64(now - a.lastSample)
	ready := 0
	for _, r := range a.queue {
		if r.Arrive <= now {
			ready++
		}
	}
	a.readyIntegral += float64(ready) * dt
	a.inflightIntegral += float64(len(a.inflight)) * dt
	if len(a.inflight) > 0 {
		a.busyTime += now - a.lastSample
	}
	a.lastSample = now
}

// Submit enqueues a commit request. The engine calls this at the
// request's arrival time.
func (a *Arbiter) Submit(now uint64, r *Request) {
	a.sample(now)
	a.queue = append(a.queue, r)
	if a.Trace != nil {
		a.Trace.Emit(trace.Event{Time: now, Proc: -1, Kind: trace.ArbQueue,
			A: uint64(len(a.queue)), B: uint64(len(a.inflight))})
	}
}

// Withdraw removes any queued requests whose Tag matches one of tags
// (their chunks were squashed before committing).
func (a *Arbiter) Withdraw(now uint64, squashed func(tag any) bool) {
	a.sample(now)
	k := 0
	for _, r := range a.queue {
		if !squashed(r.Tag) {
			a.queue[k] = r
			k++
		}
	}
	a.queue = a.queue[:k]
}

func (a *Arbiter) expire(now uint64) {
	k := 0
	for _, c := range a.inflight {
		if c.end > now {
			a.inflight[k] = c
			k++
		}
	}
	a.inflight = a.inflight[:k]
}

func (a *Arbiter) sameProcEarlier(r *Request, idx int) bool {
	for _, c := range a.inflight {
		if c.proc == r.Proc {
			return true
		}
	}
	for j := 0; j < idx; j++ {
		if a.queue[j].Proc == r.Proc {
			return true
		}
	}
	return false
}

func (a *Arbiter) conflictsInflight(r *Request) bool {
	for _, c := range a.inflight {
		if a.Exact {
			for _, l := range c.wlines {
				for _, rl := range r.WLines {
					if l == rl {
						return true
					}
				}
			}
			// Exact read-set checks need the chunk; signatures carry the
			// read side even in exact mode.
		}
		if r.RSig != nil && r.RSig.Intersects(c.wsig) {
			return true
		}
		if r.WSig != nil && r.WSig.Intersects(c.wsig) {
			return true
		}
	}
	return false
}

// TryGrant grants every request that may commit at time now, in request
// order with split continuations first. The returned requests have been
// removed from the queue and entered the in-flight set; the engine
// applies their functional effects. Callers should invoke TryGrant in a
// loop until it returns nothing (a grant can unblock the next).
func (a *Arbiter) TryGrant(now uint64) []*Request {
	a.sample(now)
	a.expire(now)
	var grants []*Request
	// A grant can unblock an earlier-queued request (an ordered policy's
	// turn advancing), so scan repeatedly until a full round makes no
	// progress. Split continuations are considered before ordinary
	// requests in every round.
	for progressed := true; progressed; {
		progressed = false
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < len(a.queue); i++ {
				r := a.queue[i]
				if (pass == 0) != r.Split {
					continue
				}
				if r.Arrive > now {
					continue
				}
				if len(a.inflight) >= a.MaxConcur {
					return grants
				}
				if !r.Split && !a.Policy.MayGrant(r, a.commits) {
					continue
				}
				// Same-processor chunks must commit in program order: an
				// earlier queued or in-flight commit from the same
				// processor blocks this one.
				if a.sameProcEarlier(r, i) {
					continue
				}
				if a.conflictsInflight(r) {
					// Conflicting commits serialize; an ordered policy's
					// blocked head blocks everyone behind it.
					if _, ordered := a.Policy.Head(a.commits); ordered {
						return grants
					}
					continue
				}
				// Grant.
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				i--
				a.inflight = append(a.inflight, inflightCommit{
					proc: r.Proc, end: now + a.CommitDur, wsig: r.WSig, wlines: r.WLines,
				})
				a.grantCount++
				r.Slot = a.commits
				if !r.Split {
					a.Policy.Granted(r, now, a.commits)
				}
				a.commits++
				grants = append(grants, r)
				progressed = true
			}
		}
	}
	if a.Trace != nil {
		a.Trace.Emit(trace.Event{Time: now, Proc: -1, Kind: trace.ArbQueue,
			A: uint64(len(a.queue)), B: uint64(len(a.inflight))})
		if len(grants) == 0 {
			if reason, ready := a.denyReason(now); ready > 0 && reason != 0 {
				a.Trace.Emit(trace.Event{Time: now, Proc: -1, Kind: trace.ArbDeny,
					A: reason, B: uint64(ready)})
			}
		}
	}
	return grants
}

// denyReason reports why the head-most ready request cannot be granted at
// time now, mirroring TryGrant's decision order (concurrency bound, then
// ordering policy, then same-processor program order, then write-set
// conflict), plus the total ready request count. Reason 0 means nothing
// was ready or nothing was blocked.
func (a *Arbiter) denyReason(now uint64) (reason uint64, ready int) {
	for i, r := range a.queue {
		if r.Arrive > now {
			continue
		}
		ready++
		if reason != 0 {
			continue
		}
		switch {
		case len(a.inflight) >= a.MaxConcur:
			reason = trace.DenyConcurrency
		case !r.Split && !a.Policy.MayGrant(r, a.commits):
			reason = trace.DenyPolicy
		case a.sameProcEarlier(r, i):
			reason = trace.DenyProcOrder
		case a.conflictsInflight(r):
			reason = trace.DenyConflict
		}
	}
	return reason, ready
}

// NextEventAfter returns the earliest future time at which the arbiter's
// state changes by itself (an in-flight commit finishing or a queued
// request arriving), if any.
func (a *Arbiter) NextEventAfter(now uint64) (uint64, bool) {
	var best uint64
	ok := false
	consider := func(t uint64) {
		if t > now && (!ok || t < best) {
			best, ok = t, true
		}
	}
	for _, c := range a.inflight {
		consider(c.end)
	}
	for _, r := range a.queue {
		consider(r.Arrive)
	}
	return best, ok
}

// Stats reports the arbiter-side Table 6 metrics.
type Stats struct {
	// ReadyProcsAvg is the time-averaged number of processors with
	// fully-executed, ready-to-commit chunks.
	ReadyProcsAvg float64
	// ActualCommitAvg is the average number of chunks committing
	// simultaneously, over the periods when at least one is committing.
	ActualCommitAvg float64
	// Grants is the total number of commits granted.
	Grants uint64
}

// StatsAt finalizes and returns the integrals at time now.
func (a *Arbiter) StatsAt(now uint64) Stats {
	a.sample(now)
	s := Stats{Grants: a.grantCount}
	if now > 0 {
		s.ReadyProcsAvg = a.readyIntegral / float64(now)
	}
	if a.busyTime > 0 {
		s.ActualCommitAvg = a.inflightIntegral / float64(a.busyTime)
	}
	return s
}
