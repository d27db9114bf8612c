// Planning and evaluation share one base evaluator per EvalOptimized
// call: every costing pass and the evaluation itself run on forks that
// read one scan cache, whose tabulated parts alias the input
// decomposition's interned tuples. These tests pin that sharing to the
// unshared composition (Optimize, then EvalPlanned on a fresh
// evaluator), check that the aliased input is never written, and race
// concurrent evaluations over one shared decomposition.
package wsdalg_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pw/internal/difftest"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// evalCorpus returns the cases of the WSDAlg and the 150-case
// WSAlgebra differential suites, seeded exactly as difftest.Run seeds
// them.
func evalCorpus(t *testing.T) []*difftest.Case {
	t.Helper()
	var out []*difftest.Case
	take := func(gen func(int64) (*difftest.Case, bool), n int, maxSeed int64) {
		got := 0
		for seed := int64(1); got < n && seed <= maxSeed; seed++ {
			if c, ok := gen(seed); ok {
				out = append(out, c)
				got++
			}
		}
		if got < n {
			t.Fatalf("only %d corpus cases within the seed budget, want %d", got, n)
		}
	}
	take(wsdalgCase, 150, 40*150)
	take(wsaCase, 150, wsaMaxSeed)
	return out
}

// planText renders a plan's EXPLAIN text with every wall-clock figure
// zeroed, so two runs of the same plan compare byte for byte.
func planText(p *wsdalg.Plan) string {
	if p == nil {
		return "<nil>"
	}
	p.DurUS = 0
	if p.Normalize != nil {
		p.Normalize.DurUS = 0
	}
	walkPlan(p, func(n *wsdalg.PlanNode) { n.Act.DurUS = 0 })
	var b bytes.Buffer
	p.WriteText(&b)
	return b.String()
}

// result is one evaluation's observable output: the canonical answer
// print (or the error), the planning record and the masked EXPLAIN text.
type result struct {
	answer  string
	planner string
	explain string
}

func resultOf(out *wsd.WSD, pl *wsdalg.Plan, err error) result {
	r := result{explain: planText(pl)}
	if err != nil {
		r.answer = "error: " + err.Error()
	} else {
		r.answer = out.String()
	}
	if pl != nil && pl.Planner != nil {
		r.planner = fmt.Sprintf("%+v", *pl.Planner)
	}
	return r
}

// unshared is EvalOptimized composed from its public halves, each on a
// fresh evaluator.
func unshared(w *wsd.WSD, q query.Query) result {
	opt, info := wsdalg.Optimize(w, q)
	out, pl, err := wsdalg.EvalPlanned(w, opt, nil)
	if pl != nil {
		pl.Planner = info
		pl.Query = q.Label()
	}
	return resultOf(out, pl, err)
}

// TestEvalOptimizedSharedScanMatchesUnshared: across the WSDAlg and
// WSAlgebra corpora (choiceof included), EvalOptimized's shared scan
// gives the same canonical answer, planning record and masked EXPLAIN
// text as Optimize followed by EvalPlanned on fresh evaluators, and
// leaves the input decomposition's canonical print byte-identical.
func TestEvalOptimizedSharedScanMatchesUnshared(t *testing.T) {
	choice := 0
	for _, c := range evalCorpus(t) {
		w, q := c.WSD, c.Q()
		if strings.Contains(fmt.Sprint(q), "choiceof") {
			choice++
		}
		before := w.String()
		out, pl, err := wsdalg.EvalOptimized(w, q, nil)
		got := resultOf(out, pl, err)
		if after := w.String(); after != before {
			t.Fatalf("%s: evaluation changed its input\nbefore:\n%s\nafter:\n%s", c.Tag, before, after)
		}
		want := unshared(w, q)
		if got.answer != want.answer {
			t.Fatalf("%s: shared-scan answer\n%s\nunshared\n%s", c.Tag, got.answer, want.answer)
		}
		if got.planner != want.planner {
			t.Fatalf("%s: planning record %s, unshared %s", c.Tag, got.planner, want.planner)
		}
		if got.explain != want.explain {
			t.Fatalf("%s: EXPLAIN\n%s\nunshared\n%s", c.Tag, got.explain, want.explain)
		}
		if w.String() != before {
			t.Fatalf("%s: unshared evaluation changed its input", c.Tag)
		}
	}
	if choice == 0 {
		t.Fatal("corpus has no choiceof query")
	}
}

// TestEvalOptimizedConcurrent races EvalOptimized over the corpus
// queries from 8 goroutines on one shared normalized decomposition
// (run it under -race): every goroutine must see the sequential
// results.
func TestEvalOptimizedConcurrent(t *testing.T) {
	w, err := gen.RandomWSD(5, 6, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	var qs []query.Query
	for _, c := range evalCorpus(t) {
		qs = append(qs, c.Q())
	}
	want := make([]result, len(qs))
	for i, q := range qs {
		want[i] = resultOf(wsdalg.EvalOptimized(w, q, nil))
	}
	before := w.String()
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range qs {
				i := (k + g*len(qs)/workers) % len(qs) // stagger the goroutines
				if got := resultOf(wsdalg.EvalOptimized(w, qs[i], nil)); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d query %d (%s): got %+v, want %+v", g, i, qs[i].Label(), got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if w.String() != before {
		t.Fatal("concurrent evaluation changed the shared decomposition")
	}
}
