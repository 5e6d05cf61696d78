package experiments

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
)

var update = flag.Bool("update", false, "rewrite testdata/tables.sha256 from the live tables")

const tablesGolden = "tables.sha256"

// goldenTables renders every simulated table at Quick scale, in the
// order delorean-exp prints them. Figure 12 runs on the reduced sweep
// of TestFig12SweepSmall: its full quick sweep is far too slow for
// tier-1.
func goldenTables(c Config) []struct{ name, text string } {
	type table = struct{ name, text string }
	logSize := func(title string, f func(Config) ([]LogSizeRow, error)) func() (string, error) {
		return func() (string, error) {
			rows, err := f(c)
			return RenderLogSize(title, rows), err
		}
	}
	gens := []struct {
		name string
		f    func() (string, error)
	}{
		{"table5", func() (string, error) {
			m := sim.Default8()
			m.NProcs = c.Procs
			return RenderTable5(m), nil
		}},
		{"fig6", logSize("Figure 6: OrderOnly PI+CS logs", Fig6)},
		{"fig7", logSize("Figure 7: PicoLog CS log (no PI log)", Fig7)},
		{"fig8", logSize("Figure 8: Order&Size PI+size logs", Fig8)},
		{"fig9", func() (string, error) { rows, err := Fig9(c); return RenderFig9(rows), err }},
		{"fig10", func() (string, error) { rows, err := Fig10(c); return RenderFig10(rows), err }},
		{"fig11", func() (string, error) { rows, err := Fig11(c); return RenderFig11(rows), err }},
		{"fig12-small", func() (string, error) {
			cc := c
			cc.Scale = 4000
			rows, err := Fig12(cc, []int{2, 4}, []int{500, 1000}, []int{1, 2})
			return RenderFig12(rows), err
		}},
		{"table6", func() (string, error) { rows, err := Table6(c); return RenderTable6(rows), err }},
		{"baselines", func() (string, error) { rows, err := Baselines(c); return RenderBaselines(rows), err }},
		{"tso", func() (string, error) { rows, err := TSOStudy(c); return RenderTSO(rows), err }},
		{"table1", func() (string, error) { d, err := Table1(c); return RenderTable1(d), err }},
	}
	out := make([]table, 0, len(gens))
	for _, g := range gens {
		text, err := g.f()
		if err != nil {
			text = "error: " + err.Error()
		}
		out = append(out, table{g.name, text})
	}
	return out
}

// TestTablesGolden pins every simulated table byte for byte: one SHA-256
// per rendered table at Quick scale. The shape tests check orderings;
// this one catches any change to the simulated numbers. Regenerate with
// `go test ./internal/experiments -run TestTablesGolden -update` only
// when a change to the simulation is intended.
func TestTablesGolden(t *testing.T) {
	c := quick(t)
	c.Cache = &Cache{}
	live := map[string]string{}
	var order []string
	for _, tb := range goldenTables(c) {
		sum := sha256.Sum256([]byte(tb.text))
		live[tb.name] = hex.EncodeToString(sum[:])
		order = append(order, tb.name)
		if strings.HasPrefix(tb.text, "error: ") {
			t.Errorf("%s: %s", tb.name, tb.text)
		}
	}
	path := filepath.Join("testdata", tablesGolden)
	if *update {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, live[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readHashes(t, path)
	for _, name := range order {
		if want[name] == "" {
			t.Errorf("%s: no committed hash (regenerate with -update)", name)
		} else if want[name] != live[name] {
			t.Errorf("%s: rendered table hash %s, golden %s", name, live[name], want[name])
		}
	}
	if len(want) != len(order) {
		t.Errorf("golden holds %d tables, live run rendered %d", len(want), len(order))
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
