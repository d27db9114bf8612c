package wsd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pw/internal/gen"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsd"
)

// multiRelWSD builds a normalized tuple-level decomposition over three
// relations of different arities, so alternatives mix relations and
// AltTuples' per-relation filter has something to filter. Empty
// alternatives are drawn on purpose.
func multiRelWSD(seed int64) (*wsd.WSD, error) {
	schema := table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 1}, {Name: "T", Arity: 3}}
	w := wsd.New(schema)
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < 2+rng.Intn(4); c++ {
		alts := make([]wsd.Alt, 1+rng.Intn(3))
		for a := range alts {
			for k := rng.Intn(4); k > 0; k-- {
				r := schema[rng.Intn(len(schema))]
				args := make([]string, r.Arity)
				for i := range args {
					args[i] = fmt.Sprintf("c%d", rng.Intn(5))
				}
				alts[a] = append(alts[a], wsd.Fact{Rel: r.Name, Args: args})
			}
		}
		if err := w.AddComponent(alts...); err != nil {
			return nil, err
		}
	}
	return w, w.Normalize()
}

// TestAltTuplesMatchesAltFacts pins the ID-space scan accessor to the
// boundary one: for every tuple-level component, alternative and
// relation of the corpus, AltTuples must equal AltFacts filtered by
// relation and re-interned, element for element and in the same order,
// and AltSize must equal len(AltFacts). The corpus spans the random and
// template-heavy differential generators, multi-relation
// decompositions with empty alternatives, and chains of ApplyUpdate
// snapshots (shared fact tables, fact IDs out of display order).
func TestAltTuplesMatchesAltFacts(t *testing.T) {
	var corpus []*wsd.WSD
	add := func(w *wsd.WSD, err error) {
		if err == nil && !w.Empty() {
			corpus = append(corpus, w)
		}
	}
	for seed := int64(0); seed < 150; seed++ {
		add(gen.RandomWSD(seed, 3+int(seed)%2, 3, 2, 4+int(seed)%3))
		add(attrWSD(seed))
		add(multiRelWSD(seed))
		if c, ok := dbCase(seed); ok {
			add(wsd.ToWSD(c.DB))
		}
	}
	rng := rand.New(rand.NewSource(13))
	for seed := int64(0); seed < 40; seed++ {
		cur, err := multiRelWSD(1000 + seed)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4 && !cur.Empty(); step++ {
			if cur, err = cur.ApplyUpdate(randomUpdate(rng, 2, 5)); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			add(cur, nil)
		}
	}

	var alts, empty, shared, loose int
	for wi, w := range corpus {
		if s, l := w.SnapshotState(); s {
			shared++
		} else if l {
			loose++
		}
		schema := w.Schema()
		for ci := 0; ci < w.Components(); ci++ {
			if w.IsTemplate(ci) {
				continue
			}
			for ai := 0; ai < w.AltCount(ci); ai++ {
				alts++
				facts := w.AltFacts(ci, ai)
				if len(facts) == 0 {
					empty++
				}
				if got := w.AltSize(ci, ai); got != len(facts) {
					t.Fatalf("decomposition %d comp %d alt %d: AltSize = %d, AltFacts has %d", wi, ci, ai, got, len(facts))
				}
				for ri, r := range schema {
					var want []sym.Tuple
					for _, f := range facts {
						if f.Rel == r.Name {
							want = append(want, f.Args.Intern())
						}
					}
					got := w.AltTuples(ci, ai, ri)
					if len(got) != len(want) || (got == nil) != (want == nil) {
						t.Fatalf("decomposition %d comp %d alt %d rel %s: AltTuples %v, want %v\n%s", wi, ci, ai, r.Name, got, want, w)
					}
					for k := range want {
						if !got[k].Equal(want[k]) {
							t.Fatalf("decomposition %d comp %d alt %d rel %s: element %d is %v, want %v\n%s", wi, ci, ai, r.Name, k, got[k], want[k], w)
						}
					}
				}
			}
		}
	}
	if empty == 0 || shared == 0 || loose == 0 {
		t.Fatalf("corpus misses a regime: %d alternatives, %d empty, %d shared-fact snapshots, %d loose-ID snapshots",
			alts, empty, shared, loose)
	}
}
