package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// TestRecordCancelPreArmed: a context already cancelled before Record
// starts must return promptly with an error wrapping context.Canceled —
// never a convergence failure, never a partial recording.
func TestRecordCancelPreArmed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	progs := replicateProgs(systemProgram(5_000), 4)
	start := time.Now()
	rec, err := Record(testConfig(4, 300), OrderOnly, progs, nil, nil, RecordOptions{Ctx: ctx})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("pre-cancelled record took %v", elapsed)
	}
	if rec != nil {
		t.Fatal("cancelled record returned a partial recording")
	}
	assertCancelError(t, err)
}

// TestRecordCancelMidRun: cancelling while the engine is running stops
// it within a chunk window, not at the end of the run.
func TestRecordCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	progs := replicateProgs(systemProgram(90_000), 4)
	start := time.Now()
	rec, err := Record(testConfig(4, 300), OrderOnly, progs, nil, nil, RecordOptions{Ctx: ctx})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled record took %v — engine ignored the cancel", elapsed)
	}
	if err == nil {
		t.Skip("workload finished before the cancel landed") // can't happen on any plausible host
	}
	if rec != nil {
		t.Fatal("cancelled record returned a partial recording")
	}
	assertCancelError(t, err)
}

// TestReplayCancelSequential: a cancelled sequential replay reports
// context.Canceled — not a divergence — and the recording replays
// deterministically afterwards.
func TestReplayCancelSequential(t *testing.T) {
	cfg := testConfig(4, 300)
	progs := replicateProgs(systemProgram(400), 4)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{Ctx: ctx})
	assertCancelError(t, err)

	// The recording is untouched: an undisturbed replay still matches.
	res := replayMatches(t, rec, cfg, progs, ReplayOptions{})
	if !res.Matches(rec) {
		t.Fatal("replay diverged after a cancelled replay of the same recording")
	}
}

// TestReplayCancelSegmented: cancelling a segmented replay cancels every
// interval worker, reports context.Canceled, and leaves the pooled
// MemSys state reusable — the same recording then replays
// deterministically both segmented and sequentially, and re-recording
// the workload still serializes byte-identically.
func TestReplayCancelSegmented(t *testing.T) {
	cfg := testConfig(4, 250)
	progs := replicateProgs(systemProgram(400), 4)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{CheckpointEvery: 25})
	if len(rec.Checkpoints) == 0 {
		t.Fatal("workload took no checkpoints; segmented replay not exercised")
	}
	var before bytes.Buffer
	if _, err := rec.WriteTo(&before); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Replay(rec, ReplayConfig(cfg), progs, ReplayOptions{ReplayParallel: 3, Ctx: ctx})
	assertCancelError(t, err)

	// Pooled per-interval engine state survived the cancel: segmented and
	// sequential replays both still verify.
	res := replayMatches(t, rec, cfg, progs, ReplayOptions{ReplayParallel: 3})
	if !res.Matches(rec) {
		t.Fatal("segmented replay diverged after a cancelled segmented replay")
	}
	res = replayMatches(t, rec, cfg, progs, ReplayOptions{})
	if !res.Matches(rec) {
		t.Fatal("sequential replay diverged after a cancelled segmented replay")
	}

	// And the recording itself reserializes byte-identically: nothing the
	// cancelled run touched leaked into the logs.
	var after bytes.Buffer
	if _, err := rec.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("recording bytes changed across a cancelled segmented replay")
	}

	// Re-recording the same workload from scratch (the record path shares
	// the engine machinery the cancel interrupted) is also byte-identical.
	rec2 := record(t, cfg, OrderOnly, progs, nil, RecordOptions{CheckpointEvery: 25})
	var again bytes.Buffer
	if _, err := rec2.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), again.Bytes()) {
		t.Fatal("re-recording after a cancelled replay is not byte-identical")
	}
}

// TestIntervalReplayCancel: ReplayFromCheckpoint honors Ctx too.
func TestIntervalReplayCancel(t *testing.T) {
	cfg := testConfig(4, 250)
	progs := replicateProgs(systemProgram(400), 4)
	rec := record(t, cfg, OrderOnly, progs, nil, RecordOptions{CheckpointEvery: 25})
	if len(rec.Checkpoints) == 0 {
		t.Fatal("no checkpoints")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReplayFromCheckpoint(rec, 0, ReplayConfig(cfg), progs, ReplayOptions{Ctx: ctx})
	assertCancelError(t, err)
}

// assertCancelError: the error must wrap context.Canceled and must NOT
// be a divergence — cancellation is a host-side event, not a verdict
// about the recording.
func assertCancelError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled in the chain", err)
	}
	var div *DivergenceError
	if errors.As(err, &div) {
		t.Fatalf("cancelled run misclassified as divergence: %v", div)
	}
	if errors.Is(err, ErrCorruptLog) {
		t.Fatalf("cancelled run misclassified as corrupt log: %v", err)
	}
}
