package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/value"
	"pw/internal/worlds"
)

func v(n string) value.Value { return value.Var(n) }
func k(n string) value.Value { return value.Const(n) }

func sampleInstance() *rel.Instance {
	i := rel.NewInstance()
	r := i.EnsureRelation("R", 2)
	r.AddRow("1", "2")
	r.AddRow("2", "3")
	r.AddRow("3", "3")
	s := i.EnsureRelation("S", 1)
	s.AddRow("2")
	s.AddRow("9")
	return i
}

func evalFacts(t *testing.T, e Expr, i *rel.Instance) []rel.Fact {
	t.Helper()
	_, fs, err := EvalInstance(e, i)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return fs
}

func TestScan(t *testing.T) {
	fs := evalFacts(t, Scan("R", "a", "b"), sampleInstance())
	if len(fs) != 3 {
		t.Errorf("scan = %v", fs)
	}
}

func TestScanArityMismatch(t *testing.T) {
	if _, _, err := EvalInstance(Scan("R", "a"), sampleInstance()); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, _, err := EvalInstance(Scan("Z", "a"), sampleInstance()); err == nil {
		t.Error("unknown relation must error")
	}
}

func TestProject(t *testing.T) {
	fs := evalFacts(t, Project{E: Scan("R", "a", "b"), Cols: []string{"b"}}, sampleInstance())
	if len(fs) != 2 { // {2, 3} deduplicated
		t.Errorf("project = %v", fs)
	}
	// Reordering columns.
	fs = evalFacts(t, Project{E: Scan("R", "a", "b"), Cols: []string{"b", "a"}}, sampleInstance())
	if fs[0][0] != "2" || fs[0][1] != "1" {
		t.Errorf("column reorder broken: %v", fs)
	}
	if _, _, err := EvalInstance(Project{E: Scan("R", "a", "b"), Cols: []string{"zz"}}, sampleInstance()); err == nil {
		t.Error("unknown projected column must error")
	}
}

func TestSelect(t *testing.T) {
	fs := evalFacts(t, Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("2"))), sampleInstance())
	if len(fs) != 1 || fs[0][0] != "2" {
		t.Errorf("select = %v", fs)
	}
	fs = evalFacts(t, Where(Scan("R", "a", "b"), EqP(Col("a"), Col("b"))), sampleInstance())
	if len(fs) != 1 || fs[0][0] != "3" {
		t.Errorf("select a=b = %v", fs)
	}
	fs = evalFacts(t, Where(Scan("R", "a", "b"), NeqP(Col("a"), Col("b"))), sampleInstance())
	if len(fs) != 2 {
		t.Errorf("select a≠b = %v", fs)
	}
}

func TestJoin(t *testing.T) {
	// R(a,b) ⋈ S(b): natural join on b.
	fs := evalFacts(t, Join{L: Scan("R", "a", "b"), R: Scan("S", "b")}, sampleInstance())
	if len(fs) != 1 || fs[0][0] != "1" || fs[0][1] != "2" {
		t.Errorf("join = %v", fs)
	}
	// Cartesian product when no shared columns: 3 × 2 = 6.
	fs = evalFacts(t, Join{L: Scan("R", "a", "b"), R: Scan("S", "c")}, sampleInstance())
	if len(fs) != 6 {
		t.Errorf("product size = %d", len(fs))
	}
}

func TestUnion(t *testing.T) {
	u := Union{
		L: Project{E: Scan("R", "a", "b"), Cols: []string{"a"}},
		R: Scan("S", "a"),
	}
	fs := evalFacts(t, u, sampleInstance())
	if len(fs) != 4 { // {1,2,3} ∪ {2,9}
		t.Errorf("union = %v", fs)
	}
	bad := Union{L: Scan("R", "a", "b"), R: Scan("S", "a")}
	if _, _, err := EvalInstance(bad, sampleInstance()); err == nil {
		t.Error("arity mismatch union must error")
	}
}

func TestRename(t *testing.T) {
	e := Join{
		L: Scan("R", "a", "b"),
		R: Rename{E: Scan("R", "a", "b"), From: []string{"a", "b"}, To: []string{"b", "c"}},
	}
	// R(a,b) ⋈ R(b,c): composition, pairs (a,c) with a->b->c.
	fs := evalFacts(t, Project{E: e, Cols: []string{"a", "c"}}, sampleInstance())
	want := map[string]bool{"1\x003": true, "2\x003": true, "3\x003": true}
	if len(fs) != len(want) {
		t.Fatalf("composition = %v", fs)
	}
	for _, f := range fs {
		if !want[f.Key()] {
			t.Errorf("unexpected %v", f)
		}
	}
}

func TestPositivity(t *testing.T) {
	if !Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("1"))).Positive() {
		t.Error("equality select is positive")
	}
	if Where(Scan("R", "a", "b"), NeqP(Col("a"), Lit("1"))).Positive() {
		t.Error("inequality select is not positive")
	}
}

func TestConstsCollected(t *testing.T) {
	e := Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("7")), NeqP(Col("b"), Lit("8")))
	cs := SortedConsts(e)
	if len(cs) != 2 || cs[0] != "7" || cs[1] != "8" {
		t.Errorf("consts = %v", cs)
	}
}

func TestDuplicateColumnRejected(t *testing.T) {
	if _, err := Scan("R", "a", "a").Schema(); err == nil {
		t.Error("duplicate scan columns must error")
	}
	r := Rename{E: Scan("R", "a", "b"), From: []string{"a"}, To: []string{"b"}}
	if _, err := r.Schema(); err == nil {
		t.Error("rename creating duplicates must error")
	}
}

// TestMapChildren pins the rewrite helper on every expression kind: the
// identity function rebuilds an equal expression, and f sees exactly
// the direct children, left before right.
func TestMapChildren(t *testing.T) {
	r, s := Scan("R", "a", "b"), Scan("S", "a", "b")
	cases := []struct {
		e        Expr
		children []Expr
	}{
		{Values("a", "1", "2"), nil},
		{r, nil},
		{Project{E: r, Cols: []string{"b"}}, []Expr{r}},
		{Where(r, EqP(Col("a"), Lit("1")), NeqP(Col("b"), Col("a"))), []Expr{r}},
		{Rename{E: r, From: []string{"a"}, To: []string{"c"}}, []Expr{r}},
		{Join{L: r, R: s}, []Expr{r, s}},
		{Union{L: r, R: s}, []Expr{r, s}},
		{Diff{L: r, R: s}, []Expr{r, s}},
		{Possible{E: r}, []Expr{r}},
		{Certain{E: s}, []Expr{s}},
		{ChoiceOf{E: r}, []Expr{r}},
	}
	for _, c := range cases {
		var seen []Expr
		got := MapChildren(c.e, func(x Expr) Expr {
			seen = append(seen, x)
			return x
		})
		if got.String() != c.e.String() {
			t.Errorf("identity map of %s = %s", c.e, got)
		}
		if len(seen) != len(c.children) {
			t.Fatalf("%s: f called on %v, want %v", c.e, seen, c.children)
		}
		for i := range seen {
			if seen[i].String() != c.children[i].String() {
				t.Errorf("%s: child %d = %s, want %s", c.e, i, seen[i], c.children[i])
			}
		}
	}
	// The rebuilt node carries f's results, not the old children.
	got := MapChildren(Join{L: r, R: s}, func(Expr) Expr { return Scan("T", "x") })
	if want := "(T(x) ⋈ T(x))"; got.String() != want {
		t.Errorf("mapped join = %s, want %s", got, want)
	}
}

// --- Lifted evaluation ---

func liftedWorlds(t *testing.T, e Expr, d *table.Database) map[string]bool {
	t.Helper()
	out, err := EvalToTable(e, d, "Q")
	if err != nil {
		t.Fatalf("lift %s: %v", e, err)
	}
	res := map[string]bool{}
	ld := table.DB(out)
	worlds.Each(ld, sharedDomain(d, e), func(i *rel.Instance) bool {
		res[i.Key()] = true
		return false
	})
	return res
}

func directWorlds(t *testing.T, e Expr, d *table.Database) map[string]bool {
	t.Helper()
	res := map[string]bool{}
	worlds.Each(d, sharedDomain(d, e), func(i *rel.Instance) bool {
		r, err := EvalToRelation(e, i, "Q")
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		o := rel.NewInstance()
		o.AddRelation(r)
		res[o.Key()] = true
		return false
	})
	return res
}

// sharedDomain gives both sides of the property the same valuation domain:
// the constants of the database and the expression plus one fresh constant
// per database variable (the lifted table mentions no variables beyond
// d's, so this is the canonical Δ ∪ Δ′ for both).
func sharedDomain(d *table.Database, e Expr) []sym.ID {
	seen := map[sym.ID]bool{}
	cs := d.ConstIDs(nil, seen)
	for _, c := range e.Consts() {
		id := sym.Const(c)
		if !seen[id] {
			seen[id] = true
			cs = append(cs, id)
		}
	}
	vars := d.VarNames()
	prefix := table.FreshPrefixIDs(cs)
	for _, n := range value.FreshNames(prefix, len(vars)) {
		cs = append(cs, sym.Const(n))
	}
	return cs
}

func sampleDatabase() *table.Database {
	r := table.New("R", 2)
	r.AddTuple(k("1"), v("x"))
	r.AddTuple(v("y"), k("3"))
	s := table.New("S", 1)
	s.AddTuple(v("z"))
	return table.DB(r, s)
}

// TestLiftedMatchesDirect is the representation-system property on a fixed
// battery of expressions: rep(q(T)) = q(rep(T)).
func TestLiftedMatchesDirect(t *testing.T) {
	exprs := []Expr{
		Scan("R", "a", "b"),
		Project{E: Scan("R", "a", "b"), Cols: []string{"a"}},
		Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("1"))),
		Where(Scan("R", "a", "b"), EqP(Col("a"), Col("b"))),
		Where(Scan("R", "a", "b"), NeqP(Col("a"), Col("b"))),
		Join{L: Scan("R", "a", "b"), R: Scan("S", "b")},
		Join{L: Scan("R", "a", "b"), R: Scan("S", "c")},
		Union{L: Project{E: Scan("R", "a", "b"), Cols: []string{"a"}}, R: Scan("S", "a")},
		Join{L: Scan("R", "a", "b"),
			R: Rename{E: Scan("R", "a", "b"), From: []string{"a", "b"}, To: []string{"b", "c"}}},
	}
	d := sampleDatabase()
	for _, e := range exprs {
		got := liftedWorlds(t, e, d)
		want := directWorlds(t, e, d)
		if len(got) != len(want) {
			t.Errorf("%s: lifted %d worlds, direct %d", e, len(got), len(want))
			continue
		}
		for kk := range want {
			if !got[kk] {
				t.Errorf("%s: direct world missing from lifted set", e)
			}
		}
	}
}

// TestLiftedMatchesDirectRandom drives the same property over random
// c-tables (with conditions) and random small expressions.
func TestLiftedMatchesDirectRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomCTableDB(rng)
		e := randomExpr(rng)
		got := liftedWorlds(t, e, d)
		want := directWorlds(t, e, d)
		if len(got) != len(want) {
			return false
		}
		for kk := range want {
			if !got[kk] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randomCTableDB(rng *rand.Rand) *table.Database {
	vals := []value.Value{k("1"), k("2"), v("x"), v("y"), v("z")}
	pick := func() value.Value { return vals[rng.Intn(len(vals))] }
	r := table.New("R", 2)
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		row := table.Row{Values: value.NewTuple(pick(), pick())}
		if rng.Intn(2) == 0 {
			op := cond.Eq
			if rng.Intn(2) == 0 {
				op = cond.Neq
			}
			row.Cond = cond.Conj(cond.Atom{Op: op, L: pick(), R: pick()})
		}
		r.Add(row)
	}
	if rng.Intn(3) == 0 {
		r.Global = cond.Conj(cond.NeqAtom(v("x"), k("1")))
	}
	s := table.New("S", 1)
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		s.Add(table.Row{Values: value.NewTuple(pick())})
	}
	return table.DB(r, s)
}

func randomExpr(rng *rand.Rand) Expr {
	switch rng.Intn(6) {
	case 0:
		return Scan("R", "a", "b")
	case 1:
		return Project{E: Scan("R", "a", "b"), Cols: []string{"b"}}
	case 2:
		return Where(Scan("R", "a", "b"), EqP(Col("a"), Lit("1")))
	case 3:
		return Where(Scan("R", "a", "b"), NeqP(Col("b"), Lit("2")))
	case 4:
		return Join{L: Scan("R", "a", "b"), R: Scan("S", "b")}
	default:
		return Union{
			L: Project{E: Scan("R", "a", "b"), Cols: []string{"a"}},
			R: Scan("S", "a"),
		}
	}
}

func TestEvalToTableCarriesGlobal(t *testing.T) {
	d := sampleDatabase()
	d.Table("R").Global = cond.Conj(cond.NeqAtom(v("x"), k("9")))
	out, err := EvalToTable(Scan("R", "a", "b"), d, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Global) != 1 {
		t.Errorf("global not carried: %v", out.Global)
	}
}

func TestLiftedJoinPrunesContradictions(t *testing.T) {
	// Joining rows (1,x) and (2,y) on the first column forces 1=2: pruned.
	r := table.New("R", 2)
	r.AddTuple(k("1"), v("x"))
	d := table.DB(r)
	e := Join{
		L: Scan("R", "a", "b"),
		R: Rename{E: Scan("R", "a", "b"), From: []string{"a", "b"}, To: []string{"b", "c"}},
	}
	_, rows, err := EvalTables(e, d)
	if err != nil {
		t.Fatal(err)
	}
	// (1,x)⋈(1,x) on b: needs x=1, kept with condition; result rows must
	// all have satisfiable conditions.
	for _, row := range rows {
		if !row.Cond.Satisfiable() {
			t.Errorf("unsatisfiable row survived: %v", row)
		}
	}
}
