package wsdalg_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pw/internal/sym"
	"pw/internal/wsdalg"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Rows sort by interned ID, so choiceof's canonical pick — and with it
// the actuals below it — follows the global interner's order, which
// depends on which tests ran first. Interning the corpus constants
// before any test runs makes the golden independent of -run.
func init() {
	for i := 0; i < 10; i++ {
		sym.Const(fmt.Sprintf("c%d", i))
	}
}

// TestExplainCorpusGolden pins what planning and EXPLAIN report across
// the WSDAlg and WSAlgebra differential corpora: for every case, the
// planning record (both forms, both predicted costs), the evaluation
// error if any, and the EXPLAIN text with wall-clock figures zeroed.
// Estimates, planner costs and actuals are all deterministic, so any
// drift in the cost model or the walk shows up as a byte diff.
func TestExplainCorpusGolden(t *testing.T) {
	var b bytes.Buffer
	for _, c := range evalCorpus(t) {
		w, q := c.WSD, c.Q()
		out, pl, err := wsdalg.EvalOptimized(w, q, nil)
		fmt.Fprintf(&b, "=== %s\n", c.Tag)
		if pl != nil && pl.Planner != nil {
			pi := pl.Planner
			fmt.Fprintf(&b, "naive  %d  %s\nchosen %d  %s\n", pi.NaiveCost, pi.Naive, pi.ChosenCost, pi.Chosen)
		} else {
			b.WriteString("planner <nil>\n")
		}
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		} else {
			fmt.Fprintf(&b, "worlds %s\n", out.Count())
		}
		b.WriteString(planText(pl))
	}
	golden := filepath.Join("testdata", "explain_corpus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("output drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("output drifted from %s: %d lines, want %d", golden, len(got), len(wantLines))
	}
}
