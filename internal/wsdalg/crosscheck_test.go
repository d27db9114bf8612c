// Differential validation of the lifted evaluator through the shared
// metamorphic harness (internal/difftest): seeded (decomposition,
// positive query) pairs answered by Eval — decisions on the answer
// world-set, Expand, and the possible/certain answer sets — against the
// per-world oracle; seeded conditioned-table databases compiled to
// decompositions and answered through Eval against the lifted c-table
// path (domain-restricted to the constants both engines enumerate);
// and native containment against the brute-force pair oracle.
package wsdalg_test

import (
	"fmt"
	"testing"

	"pw/internal/difftest"
	"pw/internal/gen"
	"pw/internal/query"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/worlds"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// TestDifferentialWSDAlg is the primary suite: random mixed-granularity
// decompositions under random positive-algebra queries, every decision
// and answer-set procedure of the lifted evaluator checked against the
// per-world oracle.
func TestDifferentialWSDAlg(t *testing.T) {
	difftest.Run(t, difftest.Config{
		Tag:   "wsdalg",
		Cases: 150,
		Gen:   wsdalgCase,
		Backends: []difftest.Backend{
			difftest.WSDBackend("wsdalg"),
			// The same cases through the query server's HTTP path: the
			// prepared-query and answer caches must be invisible in the
			// answers (each answer set is requested twice; the repeat
			// must be a cache hit and must still match the oracle).
			difftest.ServerBackend("server", 2),
		},
	})
}

// TestDifferentialWSAlgebra is the world-set-algebra suite: seeded
// decompositions under random queries drawn from the extended pool —
// nested possible/certain, choiceof (≤2 occurrences), difference and ≠
// selections — cross-validated against the explicit-worlds world-set
// oracle. Three provenances answer each case: the native evaluator, the
// re-factorized world list, and the evaluator behind the cost-based
// planner (so every planner rewrite is checked for equivalence on every
// case). The generator pre-screens refusals (entanglement on either
// decomposition provenance, oracle answer-world blowups): refusal
// behavior has its own tests; this suite is about agreement where the
// fragment is decidable.
func TestDifferentialWSAlgebra(t *testing.T) {
	difftest.Run(t, difftest.Config{
		Tag:     "wsdalg-wsa",
		Cases:   150,
		MaxSeed: wsaMaxSeed,
		Gen:     wsaCase,
		Backends: []difftest.Backend{
			difftest.WSDBackend("wsdalg"),
			difftest.FromWorldsBackend(),
			difftest.PlannedWSDBackend(),
		},
	})
}

// wsdalgCase generates TestDifferentialWSDAlg's cases: a random
// mixed-granularity decomposition of at most 400 worlds under a random
// positive query.
func wsdalgCase(seed int64) (*difftest.Case, bool) {
	consts := 4 + int(seed)%3
	w, err := gen.RandomWSD(seed, 3+int(seed)%2, 3, 2, consts)
	if err != nil {
		return nil, false
	}
	if !w.Count().IsInt64() || w.Count().Int64() > 400 {
		return nil, false
	}
	q := gen.RandomPositiveQuery(seed, table.Schema{{Name: "R", Arity: 2}}, consts, 2+int(seed)%2)
	return &difftest.Case{
		Tag:    fmt.Sprintf("wsdalg seed %d (%s)", seed, q.Label()),
		Worlds: w.Expand(0),
		WSD:    w,
		Query:  q,
	}, true
}

// wsaMaxSeed is TestDifferentialWSAlgebra's generation budget.
const wsaMaxSeed = 20000

// wsaCase generates TestDifferentialWSAlgebra's cases: a random
// decomposition of at most 120 worlds under a random query that uses
// at least one extended operator, pre-screened to evaluate on both
// provenances with a bounded oracle.
func wsaCase(seed int64) (*difftest.Case, bool) {
	consts := 3 + int(seed)%3
	w, err := gen.RandomWSD(seed, 3+int(seed)%2, 3, 2, consts)
	if err != nil {
		return nil, false
	}
	if !w.Count().IsInt64() || w.Count().Int64() > 120 {
		return nil, false
	}
	q := gen.RandomWSAQuery(seed, table.Schema{{Name: "R", Arity: 2}}, consts, 2+int(seed)%2)
	if !query.HasExtendedOps(q) {
		return nil, false // plain positive roll: TestDifferentialWSDAlg's ground
	}
	if _, err := wsdalg.Eval(w, q); err != nil {
		return nil, false
	}
	ws := w.Expand(0)
	if ans, err := query.EvalOnWorldSet(q, ws); err != nil || len(ans) > 1500 {
		return nil, false
	}
	wf, err := wsd.FromWorlds(ws)
	if err != nil {
		return nil, false
	}
	if _, err := wsdalg.Eval(wf, q); err != nil {
		return nil, false // the refactorized provenance entangles differently
	}
	return &difftest.Case{
		Tag:    fmt.Sprintf("wsdalg-wsa seed %d (%s)", seed, q.Label()),
		Worlds: ws,
		WSD:    w,
		Query:  q,
	}, true
}

// TestPlannerNeverExceedsNaive is the planner property test: across
// random world-set-algebra queries, the chosen plan's predicted cost
// never exceeds the written (naive) form's, the chosen form still
// evaluates wherever the naive form does, and both produce the same
// world count. (Member-level equivalence is the differential suite's
// PlannedWSDBackend.)
func TestPlannerNeverExceedsNaive(t *testing.T) {
	schema := table.Schema{{Name: "R", Arity: 2}}
	checked := 0
	for seed := int64(1); checked < 100 && seed < 8000; seed++ {
		w, err := gen.RandomWSD(seed, 3+int(seed)%2, 3, 2, 4)
		if err != nil || !w.Count().IsInt64() || w.Count().Int64() > 200 {
			continue
		}
		q := gen.RandomWSAQuery(seed, schema, 4, 2+int(seed)%2)
		opt, info := wsdalg.Optimize(w, q)
		if info == nil {
			t.Fatalf("seed %d: algebra query got no planning record", seed)
		}
		if info.ChosenCost > info.NaiveCost {
			t.Fatalf("seed %d: chosen cost %d exceeds naive %d\nchosen: %s\nnaive:  %s",
				seed, info.ChosenCost, info.NaiveCost, info.Chosen, info.Naive)
		}
		naive, err := wsdalg.Eval(w, q)
		if err != nil {
			continue // refused queries have their own coverage
		}
		got, err := wsdalg.Eval(w, opt)
		if err != nil {
			t.Fatalf("seed %d: chosen plan fails where the naive form succeeds: %v\nchosen: %s",
				seed, err, info.Chosen)
		}
		if naive.Count().Cmp(got.Count()) != 0 {
			t.Fatalf("seed %d: chosen plan answers %s worlds, naive %s\nchosen: %s\nnaive:  %s",
				seed, got.Count(), naive.Count(), info.Chosen, info.Naive)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d planner property cases within the seed budget", checked)
	}
}

// smallDB mirrors the wsd crosscheck generator: one table of each kind
// at differential scale.
func smallDB(seed int64) *table.Database {
	rows := 2 + int(seed)%2
	switch seed % 4 {
	case 0:
		return table.DB(gen.CoddTable(seed, "T", rows, 2, 3, 0.5))
	case 1:
		return table.DB(gen.ETable(seed, "T", rows, 2, 3, 2, 0.5))
	case 2:
		return table.DB(gen.ITable(seed, "T", rows, 2, 3, 1, 0.5))
	default:
		return table.DB(gen.CTable(seed, "T", rows, 2, 3, 2, 0.5, 0.5))
	}
}

// viewDomain mirrors the deciders' Δ ∪ Δ′ for view problems: the
// constants of the database and the query plus one fresh constant per
// database variable. Compiling over it makes the decomposition denote
// the same canonical world set the c-table engines reason over
// (worlds over d's constants alone would miss answers that mention the
// query's constants).
func viewDomain(c *difftest.Case) []string {
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range c.DB.Consts(nil, map[string]bool{}) {
		add(s)
	}
	for _, s := range c.Q().Consts() {
		add(s)
	}
	ids := make([]sym.ID, len(out))
	for i, s := range out {
		ids[i] = sym.Const(s)
	}
	prefix := table.FreshPrefixIDs(ids)
	for i := range c.DB.VarNames() {
		add(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// TestDifferentialWSDAlgVsLifted compiles seeded table databases into
// decompositions over the view domain and checks the
// decomposition-native answer sets against the lifted c-table engine —
// both domain-restricted to the constants the two engines share (the
// decomposition also knows answers over the canonical fresh constants,
// which the c-table path by design does not enumerate). The world list
// is the compiled decomposition's own expansion, so the worlds oracle
// arbitrates whenever the two engines disagree.
func TestDifferentialWSDAlgVsLifted(t *testing.T) {
	schema := table.Schema{{Name: "T", Arity: 2}}
	difftest.Run(t, difftest.Config{
		Tag:     "wsdalg-lifted",
		Cases:   150,
		MaxSeed: 12000,
		Gen: func(seed int64) (*difftest.Case, bool) {
			d := smallDB(seed)
			if len(d.VarNames()) > 4 {
				return nil, false
			}
			if len(worlds.All(d)) > 300 {
				return nil, false
			}
			q := gen.RandomPositiveQuery(seed, schema, 3, 2)
			c := &difftest.Case{
				Tag:   fmt.Sprintf("wsdalg-lifted seed %d (%s)", seed, q.Label()),
				DB:    d,
				Query: q,
			}
			w, err := wsd.ToWSDOverDomain(d, viewDomain(c))
			if err != nil {
				return nil, false
			}
			if !w.Count().IsInt64() || w.Count().Int64() > 300 {
				return nil, false
			}
			c.Worlds = w.Expand(0)
			c.WSD = w
			return c, true
		},
		Backends: []difftest.Backend{
			difftest.WSDBackend("wsdalg/compiled"),
			difftest.DecideBackend(0, true),
		},
	})
}

// TestDifferentialContains checks native containment against the
// brute-force oracle on seeded decomposition pairs over a shared
// constant pool (so containment sometimes holds and sometimes fails),
// including reflexivity.
func TestDifferentialContains(t *testing.T) {
	difftest.RunContainment(t, difftest.ContConfig{
		Tag:   "wsd-contains",
		Cases: 150,
		Gen: func(seed int64) (sub, sup *difftest.Case, ok bool) {
			s, err := gen.RandomWSD(seed, 3, 2, 1, 3)
			if err != nil {
				return nil, nil, false
			}
			var p *wsd.WSD
			if seed%5 == 0 {
				p = s // reflexive pair: containment must hold
			} else if p, err = gen.RandomWSD(seed+1000, 3, 3, 1, 3); err != nil {
				return nil, nil, false
			}
			return &difftest.Case{Worlds: s.Expand(0), WSD: s},
				&difftest.Case{Worlds: p.Expand(0), WSD: p}, true
		},
		Backends: []difftest.ContBackend{difftest.WSDContBackend()},
	})
}
