package wsdalg

import (
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// sensorsWithDim extends the two-sensor world set with a certain
// location table D(s, loc), giving joins something to bind against.
func sensorsWithDim(t *testing.T) *wsd.WSD {
	return mustWSD(t, table.Schema{{Name: "R", Arity: 2}, {Name: "D", Arity: 2}},
		[]wsd.Alt{alt(f("R", "hub", "ok"))},
		[]wsd.Alt{alt(f("R", "s0", "lo")), alt(f("R", "s0", "hi"))},
		[]wsd.Alt{alt(f("R", "s1", "lo")), alt(f("R", "s1", "hi"))},
		[]wsd.Alt{alt(f("D", "s0", "roof"), f("D", "s1", "cellar"), f("D", "hub", "closet"))},
	)
}

func scanD() algebra.Expr { return algebra.Scan("D", "s", "loc") }

// checkOptimized runs q through the planner and verifies the evaluated
// result against the explicit-worlds oracle; it returns the plan so
// callers can inspect the planning record.
func checkOptimized(t *testing.T, w *wsd.WSD, q query.Query) *Plan {
	t.Helper()
	got, pl, err := EvalOptimized(w, q, obs.NewCost())
	if err != nil {
		t.Fatalf("EvalOptimized: %v", err)
	}
	want := oracleWSAnswers(t, w, q)
	if c := got.Count(); !c.IsInt64() || c.Int64() != int64(len(want)) {
		t.Fatalf("Count = %s, oracle has %d distinct answers", c, len(want))
	}
	for wi, a := range want {
		if !got.Member(a) {
			t.Fatalf("oracle answer %d not in rep(EvalOptimized):\n%s\nresult:\n%s", wi, a, got)
		}
	}
	return pl
}

func TestPushSelectionsBelowJoin(t *testing.T) {
	// #v = hi mentions only R's side: the conjunct must sink there.
	e := algebra.Where(algebra.Join{L: scanR(), R: scanD()},
		algebra.EqP(algebra.Col("v"), algebra.Lit("hi")))
	pushed := pushSelections(e)
	j, ok := pushed.(algebra.Join)
	if !ok {
		t.Fatalf("want Join at top after pushdown, got %T (%s)", pushed, pushed)
	}
	if _, ok := j.L.(algebra.Select); !ok {
		t.Fatalf("want σ on the join's left input, got %s", pushed)
	}
	if _, ok := j.R.(algebra.Select); ok {
		t.Fatalf("σ on v must not land on D's side: %s", pushed)
	}
}

func TestPushSelectionsSharedColumnGoesBothSides(t *testing.T) {
	// #s = s0 mentions the join column: filtering both inputs is valid
	// and cheapest.
	e := algebra.Where(algebra.Join{L: scanR(), R: scanD()},
		algebra.EqP(algebra.Col("s"), algebra.Lit("s0")))
	j, ok := pushSelections(e).(algebra.Join)
	if !ok {
		t.Fatalf("want Join at top, got %s", pushSelections(e))
	}
	if _, ok := j.L.(algebra.Select); !ok {
		t.Fatalf("σ missing on left: %s", j)
	}
	if _, ok := j.R.(algebra.Select); !ok {
		t.Fatalf("σ missing on right: %s", j)
	}
}

func TestPushSelectionsChoiceOfIsBarrier(t *testing.T) {
	e := algebra.Where(algebra.ChoiceOf{E: scanR()},
		algebra.EqP(algebra.Col("v"), algebra.Lit("hi")))
	pushed := pushSelections(e)
	if _, ok := pushed.(algebra.Select); !ok {
		t.Fatalf("σ must stay above choiceof, got %T (%s)", pushed, pushed)
	}
}

func TestPruneNarrowsScans(t *testing.T) {
	// π[loc] over the join needs only s (to join) and loc: both scans
	// should be projected down before joining.
	e := algebra.Project{E: algebra.Join{L: scanR(), R: scanD()}, Cols: []string{"loc"}}
	pruned := pruneExpr(e, []string{"loc"})
	s := pruned.String()
	if !strings.Contains(s, "R(s,v)") && !strings.Contains(s, "R(s, v)") {
		// R must lose v: accept either spelling of a projected scan.
		if strings.Contains(s, "v") {
			t.Fatalf("R's v column should be pruned away: %s", s)
		}
	}
	cols, err := pruned.Schema()
	if err != nil {
		t.Fatalf("pruned schema: %v", err)
	}
	if len(cols) != 1 || cols[0] != "loc" {
		t.Fatalf("pruned schema = %v, want [loc]", cols)
	}
}

func TestOptimizeLowersPredictedCost(t *testing.T) {
	w := sensorsWithDim(t)
	q := query.NewAlgebra("whereis", query.Out{Name: "A",
		Expr: algebra.Project{
			E: algebra.Where(algebra.Join{L: scanR(), R: scanD()},
				algebra.EqP(algebra.Col("v"), algebra.Lit("hi"))),
			Cols: []string{"s", "loc"},
		}})
	_, info := Optimize(w, q)
	if info == nil {
		t.Fatal("Optimize returned no planning record for an algebra query")
	}
	if info.ChosenCost > info.NaiveCost {
		t.Fatalf("chosen cost %d exceeds naive %d", info.ChosenCost, info.NaiveCost)
	}
	if !info.Changed() {
		t.Fatalf("σ-pushdown should rewrite this query: %s", info.Naive)
	}
	pl := checkOptimized(t, w, q)
	if pl.Planner == nil || !pl.Planner.Changed() {
		t.Fatal("plan must carry the planning record")
	}
	var b strings.Builder
	pl.WriteText(&b)
	if !strings.Contains(b.String(), "planner") {
		t.Fatalf("WriteText misses the planner line:\n%s", b.String())
	}
}

func TestOptimizeNeverCostlier(t *testing.T) {
	w := sensorsWithDim(t)
	exprs := []algebra.Expr{
		selHi(scanR()),
		algebra.Where(algebra.Join{L: scanR(), R: scanD()},
			algebra.EqP(algebra.Col("v"), algebra.Lit("hi"))),
		algebra.Join{L: algebra.Join{L: scanR(), R: scanD()},
			R: algebra.Rename{E: algebra.Scan("D", "s", "loc2"), From: []string{"loc2"}, To: []string{"where"}}},
		algebra.Possible{E: selHi(scanR())},
		algebra.Certain{E: algebra.Union{L: scanR(), R: scanR()}},
		algebra.Diff{L: scanR(), R: selHi(scanR())},
		algebra.ChoiceOf{E: algebra.Possible{E: scanR()}},
		algebra.Certain{E: algebra.Possible{E: selHi(scanR())}},
	}
	unchanged := 0
	for i, e := range exprs {
		q := query.NewAlgebra("q", query.Out{Name: "A", Expr: e})
		opt, info := Optimize(w, q)
		if info == nil {
			t.Fatalf("case %d: no planning record", i)
		}
		if info.ChosenCost > info.NaiveCost {
			t.Fatalf("case %d (%s): chosen %d > naive %d", i, e, info.ChosenCost, info.NaiveCost)
		}
		if !info.Changed() {
			// An unchanged form is priced once; pricing it again agrees.
			if c, err := staticCost(newEvaluator(w), opt.(query.Algebra)); err != nil || c != info.ChosenCost {
				t.Fatalf("case %d (%s): unchanged form reprices to %d (%v), record says %d", i, e, c, err, info.ChosenCost)
			}
			unchanged++
		}
		// Whatever was chosen must mean the same thing.
		checkOptimized(t, w, q)
	}
	if unchanged == 0 {
		t.Fatal("no case left the written form unchanged")
	}
}

func TestOptimizeRefusesNonAlgebra(t *testing.T) {
	w := sensorsWithDim(t)
	q, info := Optimize(w, query.Identity{})
	if info != nil {
		t.Fatal("identity queries have nothing to plan")
	}
	if _, ok := q.(query.Identity); !ok {
		t.Fatalf("query must pass through, got %T", q)
	}
}

func TestJoinReorderKeepsColumnOrder(t *testing.T) {
	w := sensorsWithDim(t)
	e := algebra.Join{
		L: algebra.Join{L: scanR(), R: scanD()},
		R: algebra.Rename{E: algebra.Scan("R", "s", "v2"), From: []string{"v2"}, To: []string{"peer"}},
	}
	wantCols, err := e.Schema()
	if err != nil {
		t.Fatal(err)
	}
	got := reorderJoins(newEvaluator(w), e)
	cols, err := got.Schema()
	if err != nil {
		t.Fatalf("reordered schema: %v", err)
	}
	if len(cols) != len(wantCols) {
		t.Fatalf("schema %v, want %v", cols, wantCols)
	}
	for i := range cols {
		if cols[i] != wantCols[i] {
			t.Fatalf("schema %v, want %v", cols, wantCols)
		}
	}
	q := query.NewAlgebra("tri", query.Out{Name: "A", Expr: e})
	checkOptimized(t, w, q)
}

func TestDryCostMatchesEstimateScale(t *testing.T) {
	// The cost model must price the naive sensors query at least as high
	// as the σ-pushed one: pushing #v=hi below the join drops the lo
	// branches before they multiply with D.
	w := sensorsWithDim(t)
	naive := query.NewAlgebra("q", query.Out{Name: "A",
		Expr: algebra.Where(algebra.Join{L: scanR(), R: scanD()},
			algebra.EqP(algebra.Col("v"), algebra.Lit("hi")))})
	pushed := query.NewAlgebra("q", query.Out{Name: "A",
		Expr: algebra.Join{L: selHi(scanR()), R: scanD()}})
	cn, err := staticCost(newEvaluator(w), naive)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := staticCost(newEvaluator(w), pushed)
	if err != nil {
		t.Fatal(err)
	}
	if cp > cn {
		t.Fatalf("pushed form priced higher: pushed=%d naive=%d", cp, cn)
	}
}

// TestOptimizedMatchesNaiveEverywhere is the planner's semantic safety
// net: for a spread of operator shapes, the chosen plan's world set is
// exactly the naive evaluation's.
func TestOptimizedMatchesNaiveEverywhere(t *testing.T) {
	w := sensorsWithDim(t)
	exprs := []algebra.Expr{
		algebra.Project{E: algebra.Where(algebra.Join{L: scanR(), R: scanD()},
			algebra.EqP(algebra.Col("v"), algebra.Lit("hi"))), Cols: []string{"loc"}},
		algebra.Possible{E: algebra.Where(algebra.Join{L: scanR(), R: scanD()},
			algebra.NeqP(algebra.Col("v"), algebra.Lit("lo")))},
		algebra.Diff{L: algebra.Possible{E: scanR()}, R: algebra.Certain{E: scanR()}},
		algebra.Where(algebra.ChoiceOf{E: selHi(scanR())},
			algebra.NeqP(algebra.Col("s"), algebra.Lit("hub"))),
	}
	for i, e := range exprs {
		q := query.NewAlgebra("q", query.Out{Name: "A", Expr: e})
		naive, err := Eval(w, q)
		if err != nil {
			t.Fatalf("case %d: naive Eval: %v", i, err)
		}
		opt, pl, err := EvalOptimized(w, q, obs.NewCost())
		if err != nil {
			t.Fatalf("case %d: EvalOptimized: %v", i, err)
		}
		if pl == nil || pl.Planner == nil {
			t.Fatalf("case %d: missing planning record", i)
		}
		if naive.Count().Cmp(opt.Count()) != 0 {
			t.Fatalf("case %d: naive %s worlds vs optimized %s", i, naive.Count(), opt.Count())
		}
		naive.Each(func(inst *rel.Instance) bool {
			if !opt.Member(inst) {
				t.Fatalf("case %d: optimized result misses a naive world:\n%s", i, inst)
			}
			return false
		})
	}
}
