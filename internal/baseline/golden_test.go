package baseline

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delorean/internal/sim"
	"delorean/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/logs.sha256 from the live logs")

const logsGolden = "logs.sha256"

// TestRecorderLogsGolden pins every recorder's raw log byte for byte on
// every workload at quick scale: FDR, RTR, Strata and Strata-noWAR from
// one SC run, AdvancedRTR from a TSO run, one SHA-256 per log. The
// figures only see compressed sizes; this catches a change that moves a
// log without moving its size. Regenerate with
// `go test ./internal/baseline -run TestRecorderLogsGolden -update` only
// when a change to the recorders is intended.
func TestRecorderLogsGolden(t *testing.T) {
	p := workload.Params{NProcs: 4, Scale: 8_000, Seed: 1}
	cfg := testConfig(p.NProcs)
	cfg.MaxInsts = 2_000_000_000
	live := map[string]string{}
	var order []string
	note := func(name string, r Recorder) {
		key := name + "/" + r.Name()
		sum := sha256.Sum256(r.Log())
		live[key] = hex.EncodeToString(sum[:])
		order = append(order, key)
	}
	for _, name := range workload.Names() {
		w := workload.Get(name, p)
		sc := []Recorder{NewFDR(p.NProcs), NewRTR(p.NProcs), NewStrata(p.NProcs, false), NewStrata(p.NProcs, true)}
		if st := Run(cfg, w.Progs, w.InitMem(), w.Devs, sc...); !st.Converged {
			t.Fatalf("%s: SC run did not converge", name)
		}
		adv := NewAdvancedRTR(p.NProcs, 0)
		if st := RunModel(cfg, sim.TSO, w.Progs, w.InitMem(), w.Devs, adv); !st.Converged {
			t.Fatalf("%s: TSO run did not converge", name)
		}
		for _, r := range append(sc, adv) {
			note(name, r)
		}
	}
	path := filepath.Join("testdata", logsGolden)
	if *update {
		var b strings.Builder
		for _, key := range order {
			fmt.Fprintf(&b, "%s %s\n", key, live[key])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readHashes(t, path)
	for _, key := range order {
		if want[key] == "" {
			t.Errorf("%s: no committed hash (regenerate with -update)", key)
		} else if want[key] != live[key] {
			t.Errorf("%s: log hash %s, golden %s", key, live[key], want[key])
		}
	}
	if len(want) != len(order) {
		t.Errorf("golden holds %d logs, live run produced %d", len(want), len(order))
	}
}

// readHashes parses a "name hex" per line golden file.
func readHashes(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
