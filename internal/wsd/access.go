// Read-only structural accessors over a normalized decomposition. They
// expose the component/alternative structure and the support at the
// boundary-fact level, so consumers outside the package — chiefly the
// lifted query evaluator of internal/wsdalg — can walk a decomposition
// without enumerating worlds. The ID-space accessors (AltTuples,
// AltSize, TemplateSlots) hand out the interned storage itself,
// read-only, so a scan never round-trips through symbol names.
// Attribute-level components answer these queries from their
// templates; accessors that genuinely enumerate (Support, AltFacts
// over every index) cost output size, while the template accessors
// (IsTemplate, TemplateSlots) let slot-aware consumers avoid the
// product entirely.
package wsd

import (
	"math"
	"sort"

	"pw/internal/rel"
	"pw/internal/sym"
)

// Support returns every fact in the decomposition's support, in
// canonical display order. On a normalized decomposition the support is
// exactly the set of possible facts: every stored fact occurs in some
// alternative, every template instantiation in some slot choice, and
// the other components are independent. Attribute-level components
// contribute their full instantiation sets, so the result is
// output-sized — Π|slot| facts per template.
func (w *WSD) Support() []Fact {
	w.ensure()
	out := make([]Fact, 0, len(w.facts))
	for id := range w.facts {
		if w.factComp[id] < 0 {
			continue // hole left by an update: outside the support
		}
		out = append(out, w.resolve(int32(id)))
	}
	for _, c := range w.comps {
		a := c.attr
		if a == nil {
			continue
		}
		n, ok := a.countInt()
		if !ok {
			panic("wsd: Support on a template with more instantiations than fit an int")
		}
		for ai := 0; ai < n; ai++ {
			out = append(out, Fact{Rel: w.schema[a.rel].Name, Args: rel.ResolveFact(a.tupleAt(ai))})
		}
	}
	if w.attrByRel != nil || w.factsLoose {
		sort.Slice(out, func(i, j int) bool { return factBoundaryLess(out[i], out[j], w.schemaIdx) })
	}
	return out
}

// SupportSize returns the number of facts Support would enumerate; ok
// is false when a template's instantiation count overflows int (the
// regime where Support would panic). Callers that materialize the
// support check this first and surface an error instead.
func (w *WSD) SupportSize() (n int, ok bool) {
	w.ensure()
	n = len(w.facts) - w.holes
	for _, c := range w.comps {
		if c.attr == nil {
			continue
		}
		k, kOK := c.attr.countInt()
		if !kOK || n > math.MaxInt-k {
			return math.MaxInt, false
		}
		n += k
	}
	return n, true
}

// factBoundaryLess mirrors factLess on boundary facts: schema position
// first, then the tuple by symbol name.
func factBoundaryLess(a, b Fact, schemaIdx map[string]int) bool {
	if ra, rb := schemaIdx[a.Rel], schemaIdx[b.Rel]; ra != rb {
		return ra < rb
	}
	return a.Args.Compare(b.Args) < 0
}

// CertainFacts returns the facts present in every world, in canonical
// display order. Template instantiations are never certain (a
// normalized template keeps at least two alternatives). On the empty
// world set it returns nil (there is no canonical certain set; callers
// that want the vacuous reading check Empty themselves).
func (w *WSD) CertainFacts() []Fact {
	w.ensure()
	var out []Fact
	for id := range w.facts {
		if w.certain[id] {
			out = append(out, w.resolve(int32(id)))
		}
	}
	if w.factsLoose {
		sort.Slice(out, func(i, j int) bool { return factBoundaryLess(out[i], out[j], w.schemaIdx) })
	}
	return out
}

// AltCount returns the number of alternatives of component ci. For an
// attribute-level component this is the product of its slot domain
// sizes, saturating at the int maximum (see Count for exactness).
func (w *WSD) AltCount(ci int) int {
	w.ensure()
	return w.comps[ci].altCount()
}

// AltFacts returns alternative ai of component ci as a fresh fact slice
// in canonical (fact-ID) order. The empty alternative returns nil; an
// attribute-level component's alternative is the single instantiation
// selected by ai in odometer order over its slots.
func (w *WSD) AltFacts(ci, ai int) []Fact {
	w.ensure()
	if a := w.comps[ci].attr; a != nil {
		return []Fact{{Rel: w.schema[a.rel].Name, Args: rel.ResolveFact(a.tupleAt(ai))}}
	}
	alt := w.comps[ci].alts[ai]
	out := make([]Fact, len(alt))
	for k, id := range alt {
		out[k] = w.resolve(id)
	}
	return out
}

// AltTuples returns the facts of relation relIdx (a schema position)
// in alternative ai of tuple-level component ci, as the
// decomposition's own interned tuples in AltFacts order. It resolves
// nothing, re-interns nothing and takes no interner lock: this is the
// ID-space scan the lifted evaluator reads base relations through. The
// tuples are owned by the WSD and read-only, on the same contract as
// TemplateSlots (stored tuples are cloned on intern and never mutated in
// place); only the returned slice is fresh. An alternative without
// facts of the relation returns nil. Attribute-level components have no
// stored tuples — read them through TemplateSlots.
func (w *WSD) AltTuples(ci, ai, relIdx int) []sym.Tuple {
	w.ensure()
	c := &w.comps[ci]
	if c.attr != nil {
		panic("wsd: AltTuples on an attribute-level component")
	}
	alt := c.alts[ai]
	n := 0
	for _, id := range alt {
		if int(w.facts[id].rel) == relIdx {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]sym.Tuple, 0, n)
	for _, id := range alt {
		if f := &w.facts[id]; int(f.rel) == relIdx {
			out = append(out, f.tuple)
		}
	}
	return out
}

// AltSize returns the number of facts in alternative ai of component
// ci — len(AltFacts(ci, ai)) without resolving them (1 for an
// attribute-level component).
func (w *WSD) AltSize(ci, ai int) int {
	w.ensure()
	if w.comps[ci].attr != nil {
		return 1
	}
	return len(w.comps[ci].alts[ai])
}

// IsTemplate reports whether component ci is attribute-level: one fact
// template whose alternatives are the cross product of per-slot value
// lists.
func (w *WSD) IsTemplate(ci int) bool {
	w.ensure()
	return w.comps[ci].attr != nil
}

// TemplateSlots returns the template of an attribute-level component:
// its relation name and one sorted value list per slot. ok is false for
// tuple-level components. The returned slices are owned by the WSD;
// callers must not mutate them. Slot-aware consumers (the wsdalg
// evaluator) use this to push σ/π/ρ through the factored form without
// expanding the field product.
func (w *WSD) TemplateSlots(ci int) (relName string, cells [][]sym.ID, ok bool) {
	w.ensure()
	a := w.comps[ci].attr
	if a == nil {
		return "", nil, false
	}
	return w.schema[a.rel].Name, a.cells, true
}

// FactComponent returns the index of the component whose support
// contains the given fact, or ok=false when the fact is outside the
// support (equivalently: impossible). Never grows the intern tables.
func (w *WSD) FactComponent(relName string, f rel.Fact) (int, bool) {
	w.ensure()
	if w.empty {
		return 0, false
	}
	if id, ok := w.lookupBoundary(relName, f); ok && w.factComp[id] >= 0 {
		return int(w.factComp[id]), true
	}
	ci, ok := w.attrOwnerBoundary(relName, f)
	return int(ci), ok
}

// HasAlternative reports whether the given fact set (order- and
// duplicate-insensitive) is exactly one of component ci's alternatives.
// Facts outside the support make the answer false (they can be in no
// alternative). For an attribute-level component the alternatives are
// exactly the singleton instantiations of its template.
func (w *WSD) HasAlternative(ci int, facts []Fact) bool {
	w.ensure()
	if a := w.comps[ci].attr; a != nil {
		if len(facts) == 0 {
			return false
		}
		first := facts[0]
		for _, f := range facts[1:] {
			if f.Rel != first.Rel || !f.Args.Equal(first.Args) {
				return false
			}
		}
		if first.Rel != w.schema[a.rel].Name || len(first.Args) != len(a.cells) {
			return false
		}
		t := make(sym.Tuple, len(first.Args))
		for i, c := range first.Args {
			id, ok := sym.LookupConst(c)
			if !ok {
				return false
			}
			t[i] = id
		}
		return a.contains(t)
	}
	ids := make([]int32, 0, len(facts))
	for _, f := range facts {
		id, ok := w.lookupBoundary(f.Rel, f.Args)
		if !ok {
			return false
		}
		ids = append(ids, id)
	}
	return w.comps[ci].hasAlt(sortDedupIDs(ids))
}
