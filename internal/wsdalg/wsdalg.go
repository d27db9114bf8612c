// Package wsdalg evaluates positive relational-algebra queries directly
// on world-set decompositions: Eval maps a wsd.WSD D and a query q to a
// new decomposition denoting exactly {q(W) : W ∈ rep(D)}, without ever
// enumerating worlds. It is the query-engine layer on top of the
// decomposition backend, following the world-set-decomposition line of
// work (Olteanu, Koch & Antova, "World-set decompositions:
// expressiveness and efficient algorithms"; Antova, Koch & Olteanu,
// "10^(10^6) Worlds and Beyond"): positive algebra can be pushed through
// a decomposition with only local recombination, so the paper's §3–§5
// decision problems over query answers (POSS/CERT of answer facts,
// CONT of answer world-sets) run at decomposition scale.
//
// The evaluator represents each intermediate relation as a *decomposed
// relation*: a union of independent "parts", where a part is a
// deterministic function from the alternative choices of a few input
// choice *units* (its origins) to a set of rows. A unit is either a
// whole tuple-level component or one open slot of an attribute-level
// template — slot granularity is what keeps field products unexpanded:
// the slots of one template are independent axes, so parts touching
// different slots recombine freely without ever tabulating the
// template's cross product. Operators act as follows:
//
//   - scans split a relation along the input components that mention
//     it: one tabulated single-origin part per tuple-level component,
//     and one symbolic template part per attribute-level component
//     (out-columns referencing slots, no materialization);
//   - selection, projection and renaming are tuple-local, so they map
//     tabulated parts' alternatives pointwise; on template parts they
//     stay symbolic — selection compiles its predicates against the
//     slot references and projection narrows the origin set to the
//     slots still referenced, so a π over a few fields of a wide
//     template depends on exactly those fields' units;
//   - join distributes over the union of parts; each pairwise join
//     merges the two parts' origin sets and tabulates the joined rows
//     over the merged choice space (the only place where the product
//     structure coarsens, and the only blow-up — guarded by the same
//     wsd.MaxMergeAlts bound Normalize uses). Template parts tabulate
//     lazily here, over their narrowed origins only — "only the joined
//     slots" — which keeps the MaxMergeAlts pressure proportional to
//     the fields a query actually correlates;
//   - union concatenates part lists (no recombination at all);
//   - diff subtracts per world: each left part re-tabulates over its
//     origins merged with every right-side origin (the subtrahend's
//     value depends on all of them jointly), guarded by MaxMergeAlts —
//     the "where decidable on the decomposition" rule;
//   - the world-set operators (Koch's compositional algebra): possible
//     collapses the operand into its support — the union of its value
//     over every world, a certain origin-free part; certain assembles
//     the operand's parts into a private sub-decomposition, normalizes
//     it and reads off CertainFacts — the intersection over every
//     world; choiceof appends a synthetic choice unit ranging over the
//     operand's support and restricts the value to the chosen tuple in
//     the worlds where it is available (empty stays empty, and in
//     worlds where the chosen tuple is absent the value collapses onto
//     a canonical available tuple — a duplicate of another choice's
//     world, so the represented world set is exact).
//
// The final answer decomposition groups correlated parts (shared
// origins) into components, one alternative per joint choice, and hands
// the result to wsd.Normalize: its counting-argument factorizer merges
// answer components whose fact supports collide (the same answer fact
// produced along different paths) and re-splits whatever became
// independent, so the returned WSD satisfies all decomposition
// invariants and Count is the exact number of distinct answers.
//
// Every step is exact — parts tabulate per-choice values, never
// approximations — so rep(Eval(D, q)) = q(rep(D)) world-for-world. The
// supported fragment is the full extended relational algebra of
// internal/algebra — positive operators, ≠ selections, per-world
// difference and the world-set operators — plus the identity query;
// Supported gates the entry points (first-order and DATALOG queries
// stay on the per-instance engines) and the CLIs turn its error into
// their "unsupported fragment" exit. Blow-ups surface as ErrEntangled,
// never as silent approximation.
package wsdalg

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/unionfind"
	"pw/internal/wsd"
)

// ErrUnsupported marks queries outside the decomposition-evaluable
// fragment (relational algebra — including ≠ selections, diff and the
// world-set operators — and the identity query). First-order and
// DATALOG queries stay on the per-instance engines.
var ErrUnsupported = errors.New("query outside the algebra fragment evaluable on decompositions")

// ErrEntangled is wrapped by evaluation errors when a join or the final
// component assembly would have to tabulate more than wsd.MaxMergeAlts
// joint alternatives: the answer decomposition is too entangled to
// build without degenerating into a world list.
var ErrEntangled = errors.New("answer decomposition too entangled")

// Supported reports whether q lies in the fragment Eval handles: nil
// for the identity query and for relational-algebra queries (the whole
// extended grammar — ≠ selections, diff and the world-set operators
// evaluate natively; blow-ups are a per-evaluation ErrEntangled, not a
// fragment refusal), an ErrUnsupported-wrapping error otherwise.
func Supported(q query.Query) error {
	switch q.(type) {
	case query.Identity:
		return nil
	case query.Algebra:
		return nil
	default:
		return fmt.Errorf("%w: %s is not a relational-algebra query", ErrUnsupported, q.Label())
	}
}

// Eval evaluates a supported query on a decomposition, returning a
// normalized decomposition of the answer world-set:
//
//	rep(Eval(D, q)) = { q(W) : W ∈ rep(D) }.
//
// The result's schema is the query's output vector (one relation per
// Out). Errors: unsupported queries (ErrUnsupported), schema errors
// from the algebra layer, and the ErrEntangled blow-up guard.
func Eval(w *wsd.WSD, q query.Query) (*wsd.WSD, error) {
	return evalCore(w, q, nil, nil, nil)
}

// evalCore is the evaluation proper behind Eval, the answer-set helpers
// and EvalPlanned. A non-nil c is a cost-accounting sink: the evaluator
// records the input component count, parts built, joint alternatives
// tabulated by the odometer, and the largest joint space any assembly
// needed (the MaxMergeAlts headroom). A non-nil pl is a plan to fill
// (nil = no plan bookkeeping and no estimates on the hot path). A
// non-nil base is the request's planning evaluator over w: the
// evaluation runs on a fork of it and reuses the scans planning already
// built.
func evalCore(w *wsd.WSD, q query.Query, c *obs.Cost, pl *Plan, base *evaluator) (*wsd.WSD, error) {
	if err := Supported(q); err != nil {
		return nil, err
	}
	c.Add(obs.EvalComponents, int64(w.Components()))
	if pl != nil {
		pl.Components = int64(w.Components())
	}
	if query.IsIdentity(q) {
		return w.Clone(), nil
	}
	a := q.(query.Algebra)

	// Output schema: one relation per Out, arity from the expression.
	outSchema := make(table.Schema, 0, len(a.Outs))
	seen := map[string]bool{}
	for _, o := range a.Outs {
		cols, err := o.Expr.Schema()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Label(), err)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("%s: duplicate output relation %s", a.Label(), o.Name)
		}
		seen[o.Name] = true
		outSchema = append(outSchema, table.SchemaRel{Name: o.Name, Arity: len(cols)})
	}
	out := wsd.New(outSchema)

	// rep(D) = ∅ ⇒ the answer world-set is ∅ too (there is no world to
	// query). A component with zero alternatives is its canonical form.
	if w.Empty() {
		if err := out.AddComponent(); err != nil {
			return nil, err
		}
		return out, out.Normalize()
	}

	var ev *evaluator
	if base != nil {
		ev = base.fork()
	} else {
		ev = newEvaluator(w)
	}
	ev.cost = c
	ev.plan = pl
	var parts []taggedPart
	for _, o := range a.Outs {
		var outNode *PlanNode
		if pl != nil {
			outNode = &PlanNode{Op: "out", Detail: o.Name}
			pl.Outs = append(pl.Outs, outNode)
			ev.cur = outNode
		}
		d, err := walk(ev, concrete{ev}, o.Expr)
		if err != nil {
			outNode.markError(err)
			return nil, fmt.Errorf("%s: %w", a.Label(), err)
		}
		if outNode != nil {
			outNode.Act.Parts = int64(len(d.parts))
		}
		for _, p := range d.parts {
			parts = append(parts, taggedPart{rel: o.Name, p: p})
		}
	}
	ev.cur = nil
	c.Add(obs.EvalParts, int64(len(parts)))

	var asm *PlanNode
	var asmStart time.Time
	if pl != nil {
		asm = &PlanNode{Op: "assemble"}
		pl.Assemble = asm
		ev.cur = asm
		asmStart = time.Now()
	}
	if err := ev.assemble(out, parts, asm); err != nil {
		return nil, err
	}
	if asm != nil {
		asm.Act.DurUS = time.Since(asmStart).Microseconds()
		ev.cur = nil
	}
	// The answer-side Normalize accounts to the same sink: its merges,
	// splits and folds are part of this evaluation's cost. When
	// planning, the counter deltas around the call are the Normalize
	// node's actuals.
	var before obs.CostSnapshot
	var normStart time.Time
	if pl != nil {
		before = c.Snapshot()
		normStart = time.Now()
	}
	out.SetObsCost(c)
	err := out.Normalize()
	out.SetObsCost(nil)
	if pl != nil {
		after := c.Snapshot()
		pl.Normalize = &NormalizeStats{
			ComponentsMerged: after.Get(obs.NormComponentsMerged) - before.Get(obs.NormComponentsMerged),
			VerticalSplits:   after.Get(obs.NormVerticalSplits) - before.Get(obs.NormVerticalSplits),
			CertainFolds:     after.Get(obs.NormCertainFolds) - before.Get(obs.NormCertainFolds),
			DurUS:            time.Since(normStart).Microseconds(),
		}
	}
	return out, err
}

// taggedPart is one answer part tagged with the output relation it
// feeds — the unit of work the component assembly groups.
type taggedPart struct {
	rel string
	p   part
}

// assemble groups correlated parts (shared origins) into components of
// out, one alternative per joint choice. Origin-free parts (constant
// rows) are certain; each becomes a single-alternative component of its
// own and Normalize merges all certain components afterwards. It is the
// shared tail of evalCore and of certain()'s private sub-decomposition;
// asm (nil when not explaining) receives the assembly estimates and
// actuals. Normalization is the caller's job.
func (ev *evaluator) assemble(out *wsd.WSD, parts []taggedPart, asm *PlanNode) error {
	zero := make([]int, ev.n)
	for _, op := range parts {
		if len(op.p.origins) > 0 {
			continue
		}
		rows := op.p.at(zero, ev) // constant rows: choice-independent
		alt := make(wsd.Alt, 0, len(rows))
		for _, t := range rows {
			alt = append(alt, wsd.Fact{Rel: op.rel, Args: rel.ResolveFact(t)})
		}
		if err := out.AddComponent(alt); err != nil {
			asm.markError(err)
			return err
		}
		if asm != nil {
			asm.Act.Parts++
		}
	}

	// Parts sharing an origin unit are functions of the same input
	// choice, so each correlated group lands in one answer component.
	groups := originGroups(ev.n, parts, func(op *taggedPart) []int { return op.p.origins })
	if asm != nil {
		asm.Est = bounds{ev}.groups(groups, asm.Act.Parts)
	}
	for _, g := range groups {
		// Template fast path: a lone predicate-free template part whose
		// out-columns reference each origin slot exactly once is itself
		// an attribute-level component of the answer — emit it factored,
		// never tabulating the field product. This is what lets σ/π/ρ
		// pipelines over 2^100-world attribute decompositions answer in
		// decomposition size.
		if len(g.parts) == 1 {
			if emitted, err := ev.emitTemplate(out, parts[g.parts[0]].rel, &parts[g.parts[0]].p); err != nil {
				asm.markError(err)
				return err
			} else if emitted {
				if asm != nil {
					asm.Act.Parts++
				}
				continue
			}
		}

		space, err := ev.space(g.origins)
		if err != nil {
			asm.markError(err)
			return err
		}
		alts := make([]wsd.Alt, 0, space)
		choice := make([]int, ev.n)
		ev.odometer(g.origins, choice, func() {
			var alt wsd.Alt
			for _, i := range g.parts {
				op := &parts[i]
				for _, t := range op.p.at(choice, ev) {
					alt = append(alt, wsd.Fact{Rel: op.rel, Args: rel.ResolveFact(t)})
				}
			}
			alts = append(alts, alt)
		})
		if err := out.AddComponent(alts...); err != nil {
			asm.markError(err)
			return err
		}
		if asm != nil {
			asm.Act.Parts++
		}
	}
	return nil
}

// group is one set of correlated parts: parts sharing an origin unit,
// transitively, tabulate jointly over their merged origins.
type group struct {
	parts   []int // member indexes, in input order
	origins []int
}

// originGroups partitions the parts that have origins into correlated
// groups, numbered in first-seen order. Origin-free parts join none.
func originGroups[T any](n int, parts []T, originsOf func(*T) []int) []group {
	uf := unionfind.NewDense(n)
	for i := range parts {
		if o := originsOf(&parts[i]); len(o) > 1 {
			for _, x := range o[1:] {
				uf.Union(int32(o[0]), int32(x))
			}
		}
	}
	var groups []group
	numbered := map[int32]int{}
	for i := range parts {
		o := originsOf(&parts[i])
		if len(o) == 0 {
			continue
		}
		r := uf.Find(int32(o[0]))
		g, ok := numbered[r]
		if !ok {
			g = len(groups)
			numbered[r] = g
			// Capped: the group's first merge copies instead of writing
			// into the part's own origins.
			groups = append(groups, group{origins: o[:len(o):len(o)]})
		} else {
			groups[g].origins = mergeOrigins(groups[g].origins, o)
		}
		groups[g].parts = append(groups[g].parts, i)
	}
	return groups
}

// emitTemplate recognizes a part that is exactly an answer-side
// attribute-level component — template body, no surviving predicates,
// every origin unit referenced by exactly one out-column — and adds it
// to the answer decomposition in factored (per-slot) form. Repeated
// slot references or predicates correlate the columns, which the
// template form cannot express; those parts fall back to tabulation.
func (ev *evaluator) emitTemplate(out *wsd.WSD, relName string, p *part) (bool, error) {
	t := p.tmpl
	if t == nil || len(t.preds) > 0 {
		return false, nil
	}
	seen := map[int]bool{}
	cells := make([][]string, len(t.out))
	for j, c := range t.out {
		if c.unit < 0 {
			cells[j] = []string{c.constID.Name()}
			continue
		}
		if seen[c.unit] {
			return false, nil
		}
		seen[c.unit] = true
		vals := ev.cells[c.unit]
		names := make([]string, len(vals))
		for k, id := range vals {
			names[k] = id.Name()
		}
		cells[j] = names
	}
	if len(seen) != len(p.origins) {
		return false, nil
	}
	return true, out.AddTemplateComponent(relName, cells...)
}

// part is one factor of a decomposed relation: a deterministic function
// from the alternative choices of its origin units to a row set. It has
// two bodies:
//
//   - tabulated: alts indexed by the odometer over origins (last origin
//     fastest), each origin digit ranging over the unit's alternative
//     count;
//   - template (tmpl != nil): a symbolic single-row function — output
//     columns referencing slot units or constants, filtered by compiled
//     predicates — evaluated on demand and tabulated only when a join
//     needs it.
//
// origins is sorted and duplicate-free. An origin-free part (origins
// nil, one tabulated entry) is a constant row set.
type part struct {
	origins []int
	alts    [][]sym.Tuple
	tmpl    *tmplPart
}

// tmplPart is the symbolic body of a template-derived part: one output
// row per surviving choice. A tmplCol with unit < 0 is the constant
// constID; otherwise the value is the unit's slot value under the
// current choice.
type tmplPart struct {
	out   []tmplCol
	preds []tmplPred
}

type tmplCol struct {
	unit    int
	constID sym.ID
}

type tmplPred struct {
	eq   bool
	l, r tmplCol
}

// at returns the part's row set under a full choice vector (indexed by
// unit).
func (p *part) at(choice []int, ev *evaluator) []sym.Tuple {
	if p.tmpl != nil {
		return p.tmpl.at(choice, ev)
	}
	idx := 0
	for _, o := range p.origins {
		idx = idx*ev.altCounts[o] + choice[o]
	}
	return p.alts[idx]
}

// val resolves a symbolic column under a choice vector.
func (c tmplCol) val(choice []int, ev *evaluator) sym.ID {
	if c.unit < 0 {
		return c.constID
	}
	return ev.cells[c.unit][choice[c.unit]]
}

// at evaluates the template body: nil when a predicate fails, otherwise
// the single instantiated row.
func (t *tmplPart) at(choice []int, ev *evaluator) []sym.Tuple {
	for _, p := range t.preds {
		if p.eq != (p.l.val(choice, ev) == p.r.val(choice, ev)) {
			return nil
		}
	}
	row := make(sym.Tuple, len(t.out))
	for j, c := range t.out {
		row[j] = c.val(choice, ev)
	}
	return []sym.Tuple{row}
}

// unitsOf collects the sorted distinct units referenced by a template
// body — the exact origin set of a part with that body.
func (t *tmplPart) unitsOf() []int {
	var units []int
	add := func(c tmplCol) {
		if c.unit >= 0 {
			units = mergeOrigins(units, []int{c.unit})
		}
	}
	for _, c := range t.out {
		add(c)
	}
	for _, p := range t.preds {
		add(p.l)
		add(p.r)
	}
	return units
}

// project narrows a template body to the given columns, predicates
// kept: a π over a few fields of a wide template depends on those
// fields' units only.
func (t *tmplPart) project(idx []int) *tmplPart {
	nt := &tmplPart{out: make([]tmplCol, len(idx)), preds: t.preds}
	for i, j := range idx {
		nt.out[i] = t.out[j]
	}
	return nt
}

// selection compiles predicates against the template's column sources.
// Constant-only predicates decide statically — a false one empties the
// part (nil result), a true one is dropped; the rest filter per choice.
func (t *tmplPart) selection(preds []resolvedPred) *tmplPart {
	nt := &tmplPart{out: t.out, preds: append([]tmplPred(nil), t.preds...)}
	for _, rp := range preds {
		tp := tmplPred{eq: rp.eq,
			l: tmplColOf(t, rp.lIdx, rp.lConst),
			r: tmplColOf(t, rp.rIdx, rp.rCon)}
		if tp.l.unit < 0 && tp.r.unit < 0 {
			if tp.eq != (tp.l.constID == tp.r.constID) {
				return nil
			}
			continue
		}
		nt.preds = append(nt.preds, tp)
	}
	return nt
}

// templatePart is the part with template body t: its origins are
// exactly the units t references.
func templatePart(t *tmplPart) part {
	return part{origins: t.unitsOf(), tmpl: t}
}

// drel is a decomposed relation in one domain: named columns over a
// union of parts. In the concrete domain (dRel) the relation's value in
// a world is the union of every part's value at that world's choice
// vector.
type drel[P any] struct {
	cols  []string
	parts []P
}

type dRel = drel[part]

// evaluator carries the per-evaluation state: the input decomposition
// flattened into choice units, per-unit alternative counts and slot
// values, and a per-relation scan cache (the same base relation scanned
// twice shares its parts; parts are never mutated after construction).
// Both domains run on it: priced accumulates every node's estimate
// (see bounds.charge), which is the planner's static cost of a bounds
// walk.
//
// A unit is one independent choice axis of the input: a whole
// tuple-level component, or one open slot (two or more values) of an
// attribute-level template. Distinct slots of one template are
// independent by construction, so treating them as separate axes is
// exact. Units past the input's are synthetic (choiceof's picks).
type evaluator struct {
	w         *wsd.WSD
	n         int
	altCounts []int
	cells     [][]sym.ID // per unit: open-slot values (nil for tuple-level units)
	// compAt[ci] indexes unitAt for component ci: unitAt[compAt[ci]] is
	// a tuple-level component's unit, unitAt[compAt[ci]+si] a template
	// slot's (-1 for a fixed slot).
	compAt []int32
	unitAt []int32
	scans  *scanCache // the base evaluator's cache, shared by its forks
	cache  scanCache  // backs scans on a base evaluator
	cost   *obs.Cost  // per-request sink (nil when untraced)
	plan   *Plan      // plan under construction (nil when not explaining)
	cur    *PlanNode  // node receiving space() actuals and the estimate right now
	priced int64      // Σ node estimates charged so far (saturating)
}

// scanCache holds one request's base-relation scans, shared by every
// fork: each relation's tabulated parts and their bounds, and the row
// total of the scan estimate (computed by the first bounds scan).
type scanCache struct {
	parts  map[string][]part
	bounds map[string][]bpart
	rows   int64
}

func newEvaluator(w *wsd.WSD) *evaluator {
	nc := w.Components()
	ev := &evaluator{w: w, cache: scanCache{parts: map[string][]part{}}, compAt: make([]int32, nc),
		altCounts: make([]int, 0, nc), cells: make([][]sym.ID, 0, nc), unitAt: make([]int32, 0, nc)}
	ev.scans = &ev.cache
	for ci := 0; ci < nc; ci++ {
		ev.compAt[ci] = int32(len(ev.unitAt))
		if _, cells, ok := w.TemplateSlots(ci); ok {
			for _, cell := range cells {
				if len(cell) < 2 {
					ev.unitAt = append(ev.unitAt, -1) // fixed slot: a constant, not a choice axis
					continue
				}
				ev.unitAt = append(ev.unitAt, int32(len(ev.altCounts)))
				ev.altCounts = append(ev.altCounts, len(cell))
				ev.cells = append(ev.cells, cell)
			}
			continue
		}
		ev.unitAt = append(ev.unitAt, int32(len(ev.altCounts)))
		ev.altCounts = append(ev.altCounts, w.AltCount(ci))
		ev.cells = append(ev.cells, nil)
	}
	ev.n = len(ev.altCounts)
	return ev
}

// fork returns an evaluator for one pass over the same input — a
// planner costing run or the evaluation itself — that shares ev's input
// units and scan cache (so each base relation is scanned once per
// request) but owns its synthetic units and plan state. Fork only an
// evaluator that has run no pass itself: the shared unit slices are
// capped at its units, so a fork's addUnit reallocates instead of
// writing into its siblings' view.
func (ev *evaluator) fork() *evaluator {
	n := ev.n
	return &evaluator{w: ev.w, n: n, altCounts: ev.altCounts[:n:n], cells: ev.cells[:n:n],
		compAt: ev.compAt, unitAt: ev.unitAt, scans: ev.scans}
}

// space returns the joint alternative count of a set of origins,
// guarded by wsd.MaxMergeAlts.
func (ev *evaluator) space(origins []int) (int, error) {
	space := 1
	for _, o := range origins {
		space *= ev.altCounts[o]
		if space > wsd.MaxMergeAlts {
			return 0, fmt.Errorf("%w: %d correlated components need %d+ joint alternatives (limit %d)",
				ErrEntangled, len(origins), space, wsd.MaxMergeAlts)
		}
	}
	// Every space() call is followed by an odometer sweep of exactly
	// `space` joint alternatives, so this is also the tabulation count.
	// The same numbers land on the current plan node, which is what
	// makes plan-node actuals reconcile with the cost counters.
	ev.cost.Max(obs.EvalMergeSpaceMax, int64(space))
	ev.cost.Add(obs.EvalAltsTabulated, int64(space))
	if ev.cur != nil {
		ev.cur.Act.MergeSpace = satAdd(ev.cur.Act.MergeSpace, int64(space))
		if int64(space) > ev.cur.Act.MaxSpace {
			ev.cur.Act.MaxSpace = int64(space)
		}
	}
	return space, nil
}

// odometer enumerates every choice vector over the given origins (last
// origin fastest, matching part.at's indexing), writing digits into
// choice and calling fn once per combination.
func (ev *evaluator) odometer(origins []int, choice []int, fn func()) {
	for _, o := range origins {
		choice[o] = 0
	}
	for {
		fn()
		i := len(origins) - 1
		for ; i >= 0; i-- {
			o := origins[i]
			choice[o]++
			if choice[o] < ev.altCounts[o] {
				break
			}
			choice[o] = 0
		}
		if i < 0 {
			return
		}
	}
}

// scanParts builds (and caches) the parts of a base relation: one
// tabulated part per tuple-level component whose support mentions the
// relation, and one symbolic template part per attribute-level
// component over it — the template's field product is never expanded.
// Tabulated parts hold the decomposition's own interned tuples
// (wsd.AltTuples), read-only like every part's rows.
func (ev *evaluator) scanParts(name string) []part {
	if ps, ok := ev.scans.parts[name]; ok {
		return ps
	}
	ri := relIndex(ev.w, name)
	var ps []part
	for ci := 0; ci < ev.w.Components(); ci++ {
		if rel, cells, ok := ev.w.TemplateSlots(ci); ok {
			if rel != name {
				continue
			}
			t := &tmplPart{out: make([]tmplCol, len(cells))}
			for si, cell := range cells {
				if len(cell) == 1 {
					t.out[si] = tmplCol{unit: -1, constID: cell[0]}
					continue
				}
				t.out[si] = tmplCol{unit: ev.unitOf(ci, si)}
			}
			ps = append(ps, templatePart(t))
			continue
		}
		u := ev.unitOf(ci, -1)
		var alts [][]sym.Tuple // allocated on the first alternative mentioning the relation
		for ai := 0; ai < ev.altCounts[u]; ai++ {
			if ts := ev.w.AltTuples(ci, ai, ri); ts != nil {
				if alts == nil {
					alts = make([][]sym.Tuple, ev.altCounts[u])
				}
				alts[ai] = ts
			}
		}
		if alts != nil {
			ps = append(ps, part{origins: []int{u}, alts: alts})
		}
	}
	ev.scans.parts[name] = ps
	return ps
}

// unitOf resolves a (component, slot) pair to its unit index; slot is
// -1 for a tuple-level component. Panics on a pair that is not a choice
// axis (programming error).
func (ev *evaluator) unitOf(ci, slot int) int {
	u := ev.unitAt[int(ev.compAt[ci])+max(slot, 0)]
	if u < 0 {
		panic("wsdalg: no unit for component slot")
	}
	return int(u)
}

// relIndex returns the schema position of relation name in w, or -1.
func relIndex(w *wsd.WSD, name string) int {
	return slices.IndexFunc(w.Schema(), func(s table.SchemaRel) bool { return s.Name == name })
}

// addUnit appends a synthetic choice unit — a fresh independent axis
// that is not backed by any input component (choiceof's nondeterministic
// pick). Safe mid-evaluation: choice vectors are sized per sweep and the
// assembly's union-find is built after all units exist.
func (ev *evaluator) addUnit(altCount int) int {
	u := ev.n
	ev.altCounts = append(ev.altCounts, altCount)
	ev.cells = append(ev.cells, nil)
	ev.n = len(ev.altCounts)
	return u
}

// A domain interprets the algebra's operators on one kind of part: the
// concrete domain tabulates row sets (the evaluation proper), the
// bounds domain carries origin sets and row bounds (estimates and the
// planner's costing). A step does one operator's own work on evaluated
// operands; the walk does everything else.
type domain[P any] interface {
	// bound abstracts one part to the bounds domain.
	bound(p *P) bpart
	constRel(n algebra.ConstRel) []P
	scan(name string) []P
	project(in drel[P], idx []int) []P
	selection(in drel[P], preds []resolvedPred) []P
	rename(in drel[P]) []P
	join(l, r drel[P], cols []string) ([]P, error)
	union(l, r drel[P]) []P
	diff(l, r drel[P]) ([]P, error)
	possible(in drel[P]) ([]P, error)
	certain(in drel[P]) ([]P, error)
	choiceOf(in drel[P]) ([]P, error)
}

// walk interprets e in domain d. When a plan is being built it wraps
// step in a PlanNode: the node is attached to its parent *before* the
// body runs (so an error retains the partial subtree), receives the
// estimate and space() actuals while it is current, and is closed with
// parts/units/rows actuals and wall time afterwards. Without a plan it
// is step with zero overhead.
func walk[P any](ev *evaluator, d domain[P], e algebra.Expr) (drel[P], error) {
	if ev.plan == nil {
		return step(ev, d, e)
	}
	node := &PlanNode{Op: opName(e), Detail: opDetail(e)}
	parent := ev.cur
	if parent != nil {
		parent.Children = append(parent.Children, node)
	}
	ev.cur = node
	start := time.Now()
	out, err := step(ev, d, e)
	node.Act.DurUS = time.Since(start).Microseconds()
	ev.cur = parent
	if err != nil {
		node.markError(err)
		return out, err
	}
	node.Act.Parts = int64(len(out.parts))
	var units []int
	for i := range out.parts {
		b := d.bound(&out.parts[i])
		units = mergeOrigins(units, b.origins)
		if b.tmpl == nil {
			node.Act.Rows = satAdd(node.Act.Rows, b.rows) // template parts tabulate nothing
		}
	}
	node.Act.Units = int64(len(units))
	return out, nil
}

// step is the operator dispatch — the package's one per-operator switch
// over the algebra. It mirrors algebra.evalInst case by case: it
// evaluates the operands, checks the schema, resolves predicates and
// column indices, and hands the operator's own work to d.
func step[P any](ev *evaluator, d domain[P], e algebra.Expr) (drel[P], error) {
	var (
		out, in, l, r drel[P]
		err           error
	)
	switch n := e.(type) {
	case algebra.ConstRel:
		if out.cols, err = n.Schema(); err != nil {
			return out, err
		}
		out.parts = d.constRel(n)

	case algebra.Rel:
		if out.cols, err = n.Schema(); err != nil {
			return out, err
		}
		ri := relIndex(ev.w, n.Name)
		if ri < 0 {
			return out, fmt.Errorf("wsdalg: relation %s not in decomposition", n.Name)
		}
		if ev.w.Schema()[ri].Arity != len(out.cols) {
			return out, fmt.Errorf("wsdalg: scan %s names %d columns, relation has arity %d",
				n.Name, len(out.cols), ev.w.Schema()[ri].Arity)
		}
		out.parts = d.scan(n.Name)

	case algebra.Project:
		if in, err = walk(ev, d, n.E); err != nil {
			return out, err
		}
		if _, err = n.Schema(); err != nil {
			return out, err
		}
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			idx[i] = slices.Index(in.cols, c)
		}
		out.cols = n.Cols
		out.parts = d.project(in, idx)

	case algebra.Select:
		if in, err = walk(ev, d, n.E); err != nil {
			return out, err
		}
		if _, err = n.Schema(); err != nil {
			return out, err
		}
		// Resolve each predicate once to column indices / interned
		// constants; alternatives are ground, so selection is an exact
		// per-row ID comparison — = and ≠ evaluate uniformly, which is
		// why ≠ selections are decidable on decompositions.
		var preds []resolvedPred
		if preds, err = resolvePreds(n.Preds, in.cols); err != nil {
			return out, err
		}
		out.cols = in.cols
		out.parts = d.selection(in, preds)

	case algebra.Rename:
		if in, err = walk(ev, d, n.E); err != nil {
			return out, err
		}
		if out.cols, err = n.Schema(); err != nil {
			return out, err
		}
		out.parts = d.rename(in)

	case algebra.Join:
		if l, r, out.cols, err = operands(ev, d, e, n.L, n.R); err != nil {
			return out, err
		}
		out.parts, err = d.join(l, r, out.cols)

	case algebra.Union:
		if l, r, _, err = operands(ev, d, e, n.L, n.R); err != nil {
			return out, err
		}
		out.cols = l.cols
		out.parts = d.union(l, r)

	case algebra.Diff:
		if l, r, _, err = operands(ev, d, e, n.L, n.R); err != nil {
			return out, err
		}
		out.cols = l.cols
		out.parts, err = d.diff(l, r)

	case algebra.Possible:
		if in, err = walk(ev, d, n.E); err != nil {
			return out, err
		}
		out.cols = in.cols
		out.parts, err = d.possible(in)

	case algebra.Certain:
		if in, err = walk(ev, d, n.E); err != nil {
			return out, err
		}
		out.cols = in.cols
		out.parts, err = d.certain(in)

	case algebra.ChoiceOf:
		if in, err = walk(ev, d, n.E); err != nil {
			return out, err
		}
		out.cols = in.cols
		out.parts, err = d.choiceOf(in)

	default:
		return out, fmt.Errorf("wsdalg: unknown expression %T", e)
	}
	return out, err
}

// operands walks a binary operator's operands, left first, then
// checks the operator's own schema.
func operands[P any](ev *evaluator, d domain[P], e, le, re algebra.Expr) (l, r drel[P], cols []string, err error) {
	if l, err = walk(ev, d, le); err != nil {
		return l, r, nil, err
	}
	if r, err = walk(ev, d, re); err != nil {
		return l, r, nil, err
	}
	cols, err = e.Schema()
	return l, r, cols, err
}

// concrete is the evaluation domain: parts tabulate their row sets.
// While a plan is being built, each step first runs the bounds step on
// the bounds of its real inputs, which charges the node its estimate —
// computed before the node's own work, so an error still leaves it on
// the node.
type concrete struct{ *evaluator }

// bound abstracts a part: its origins, the rows it can tabulate (the
// alternatives' total for a tabulated body, one per joint choice for a
// template body), and its template body.
func (c concrete) bound(p *part) bpart {
	b := bpart{origins: p.origins, tmpl: p.tmpl}
	if p.tmpl != nil {
		b.rows = c.originsProduct(p.origins)
		return b
	}
	for _, alt := range p.alts {
		b.rows = satAdd(b.rows, int64(len(alt)))
	}
	return b
}

// lift returns d's image in the bounds domain.
func (c concrete) lift(d dRel) drel[bpart] {
	bs := make([]bpart, len(d.parts))
	for i := range d.parts {
		bs[i] = c.bound(&d.parts[i])
	}
	return drel[bpart]{cols: d.cols, parts: bs}
}

func (c concrete) constRel(n algebra.ConstRel) []part {
	if c.plan != nil {
		bounds(c).constRel(n)
	}
	rows := make([]sym.Tuple, 0, len(n.Rows))
	for _, r := range n.Rows {
		rows = append(rows, rel.Fact(r).Intern())
	}
	return constPart(sortDedupTuples(rows))
}

func (c concrete) scan(name string) []part {
	if c.plan != nil {
		bounds(c).scan(name)
	}
	return c.scanParts(name)
}

func (c concrete) project(in dRel, idx []int) []part {
	if c.plan != nil {
		bounds(c).project(c.lift(in), idx)
	}
	return tupleLocal(in, func(t *tmplPart) *tmplPart { return t.project(idx) },
		func(t sym.Tuple) (sym.Tuple, bool) {
			g := make(sym.Tuple, len(idx))
			for i, j := range idx {
				g[i] = t[j]
			}
			return g, true
		})
}

func (c concrete) selection(in dRel, preds []resolvedPred) []part {
	if c.plan != nil {
		bounds(c).selection(c.lift(in), preds)
	}
	return tupleLocal(in, func(t *tmplPart) *tmplPart { return t.selection(preds) },
		func(t sym.Tuple) (sym.Tuple, bool) {
			for _, p := range preds {
				if !p.holds(t) {
					return nil, false
				}
			}
			return t, true
		})
}

// tupleLocal applies a tuple-local operator: symbolically to template
// parts (narrow returns the new body, nil for a statically empty part),
// row by row to tabulated parts (see mapPart).
func tupleLocal(in dRel, narrow func(*tmplPart) *tmplPart, f func(sym.Tuple) (sym.Tuple, bool)) []part {
	var out dRel
	for i := range in.parts {
		p := &in.parts[i]
		if p.tmpl == nil {
			mapPart(&out, p, f)
		} else if t := narrow(p.tmpl); t != nil {
			out.parts = append(out.parts, templatePart(t))
		}
	}
	return out.parts
}

func (c concrete) rename(in dRel) []part {
	if c.plan != nil {
		bounds(c).rename(c.lift(in))
	}
	return in.parts
}

func (c concrete) join(l, r dRel, cols []string) ([]part, error) {
	if c.plan != nil {
		bounds(c).join(c.lift(l), c.lift(r), cols)
	}
	out, err := c.joinRels(l, r, cols)
	return out.parts, err
}

func (c concrete) union(l, r dRel) []part {
	if c.plan != nil {
		bounds(c).union(c.lift(l), c.lift(r))
	}
	parts := make([]part, 0, len(l.parts)+len(r.parts))
	parts = append(parts, l.parts...)
	return append(parts, r.parts...)
}

func (c concrete) diff(l, r dRel) ([]part, error) {
	if c.plan != nil {
		bounds(c).diff(c.lift(l), c.lift(r))
	}
	out, err := c.diffRels(&l, &r)
	return out.parts, err
}

func (c concrete) possible(in dRel) ([]part, error) {
	if c.plan != nil {
		bounds(c).possible(c.lift(in))
	}
	rows, err := c.supportRows(&in)
	return constPart(rows), err
}

func (c concrete) certain(in dRel) ([]part, error) {
	if c.plan != nil {
		bounds(c).certain(c.lift(in))
	}
	rows, err := c.certainRows(&in)
	return constPart(rows), err
}

// choiceOf needs the operand's support before it can be priced: the
// pick's synthetic unit ranges over the real support, where costing
// can only use its bound.
func (c concrete) choiceOf(in dRel) ([]part, error) {
	support, err := c.supportRows(&in)
	if err != nil {
		return nil, err
	}
	u := -1
	if len(support) > 0 {
		u = c.addUnit(len(support))
	}
	if c.plan != nil {
		bounds(c).choose(c.lift(in).parts, int64(len(support)), u)
	}
	out, err := c.choiceRel(&in, support, u)
	return out.parts, err
}

// constPart is the decomposed form of a choice-independent row set: one
// origin-free part, or no part at all for the empty set.
func constPart(rows []sym.Tuple) []part {
	if len(rows) == 0 {
		return nil
	}
	return []part{{alts: [][]sym.Tuple{rows}}}
}

// supportRows computes the support of a decomposed relation: the union
// of its value over every world. Tabulated parts contribute all their
// alternatives directly; template parts sweep their (MaxMergeAlts-
// guarded) origin space — the support of a wide template genuinely is
// its field product, so the guard bounds output size, not slack.
func (ev *evaluator) supportRows(in *dRel) ([]sym.Tuple, error) {
	var rows []sym.Tuple
	choice := make([]int, ev.n)
	for i := range in.parts {
		p := &in.parts[i]
		if p.tmpl == nil {
			for _, alt := range p.alts {
				rows = append(rows, alt...)
			}
			continue
		}
		if _, err := ev.space(p.origins); err != nil {
			return nil, err
		}
		ev.odometer(p.origins, choice, func() {
			rows = append(rows, p.at(choice, ev)...)
		})
	}
	return sortDedupTuples(rows), nil
}

// certainRows computes the certain answer of a decomposed relation: the
// intersection of its value over every world. The parts are assembled
// into a private single-relation sub-decomposition and normalized —
// Normalize's certain-fold is exactly the intersection computation —
// and the certain facts are read back.
func (ev *evaluator) certainRows(in *dRel) ([]sym.Tuple, error) {
	if len(in.parts) == 0 {
		return nil, nil
	}
	sub := wsd.New(table.Schema{{Name: "q", Arity: len(in.cols)}})
	tp := make([]taggedPart, len(in.parts))
	for i, p := range in.parts {
		tp[i] = taggedPart{rel: "q", p: p}
	}
	if err := ev.assemble(sub, tp, nil); err != nil {
		return nil, err
	}
	sub.SetObsCost(ev.cost)
	err := sub.Normalize()
	sub.SetObsCost(nil)
	if err != nil {
		return nil, err
	}
	var rows []sym.Tuple
	for _, f := range sub.CertainFacts() {
		rows = append(rows, f.Args.Intern())
	}
	return sortDedupTuples(rows), nil
}

// choiceRel builds choiceof(e): the fresh synthetic unit u ranges over
// the operand's support, and in each world the value is the chosen tuple
// when the operand offers it there. In worlds where the chosen tuple is
// absent the value collapses onto the first available tuple — a
// duplicate of the world another choice already produces, so the
// represented world set is exact — and an empty operand stays empty.
func (ev *evaluator) choiceRel(in *dRel, support []sym.Tuple, u int) (dRel, error) {
	if len(support) == 0 {
		return dRel{cols: in.cols}, nil
	}
	var origins []int
	for i := range in.parts {
		origins = mergeOrigins(origins, in.parts[i].origins)
	}
	all := mergeOrigins(origins, []int{u})
	space, err := ev.space(all)
	if err != nil {
		return dRel{}, err
	}
	alts := make([][]sym.Tuple, 0, space)
	choice := make([]int, ev.n)
	ev.odometer(all, choice, func() {
		var avail []sym.Tuple
		for i := range in.parts {
			avail = append(avail, in.parts[i].at(choice, ev)...)
		}
		avail = sortDedupTuples(avail)
		var rows []sym.Tuple
		if len(avail) > 0 {
			if t := support[choice[u]]; containsTuple(avail, t) {
				rows = []sym.Tuple{t}
			} else {
				rows = []sym.Tuple{avail[0]}
			}
		}
		alts = append(alts, rows)
	})
	return dRel{cols: in.cols, parts: []part{{origins: all, alts: alts}}}, nil
}

// diffRels computes the per-world set difference l ∖ r. Each left part
// re-tabulates over its origins merged with every right-side origin —
// the subtrahend's value depends on all of them jointly — guarded by
// MaxMergeAlts; template left parts tabulate here, which is the "where
// decidable on the decomposition" rule.
func (ev *evaluator) diffRels(l, r *dRel) (dRel, error) {
	if len(l.parts) == 0 || len(r.parts) == 0 {
		return dRel{cols: l.cols, parts: l.parts}, nil
	}
	var rOrigins []int
	for i := range r.parts {
		rOrigins = mergeOrigins(rOrigins, r.parts[i].origins)
	}
	out := dRel{cols: l.cols}
	choice := make([]int, ev.n)
	for li := range l.parts {
		lp := &l.parts[li]
		origins := unionOrigins(lp.origins, rOrigins)
		space, err := ev.space(origins)
		if err != nil {
			return dRel{}, err
		}
		alts := make([][]sym.Tuple, 0, space)
		any := false
		ev.odometer(origins, choice, func() {
			var sub []sym.Tuple
			for ri := range r.parts {
				sub = append(sub, r.parts[ri].at(choice, ev)...)
			}
			rows := subtractRows(lp.at(choice, ev), sortDedupTuples(sub))
			if len(rows) > 0 {
				any = true
			}
			alts = append(alts, rows)
		})
		if any {
			out.parts = append(out.parts, part{origins: origins, alts: alts})
		}
	}
	return out, nil
}

// subtractRows returns ls minus the sorted set rs as a fresh sorted
// duplicate-free slice (ls is shared with its part and never mutated).
func subtractRows(ls, rs []sym.Tuple) []sym.Tuple {
	var out []sym.Tuple
	for _, t := range ls {
		if !containsTuple(rs, t) {
			out = append(out, t)
		}
	}
	return sortDedupTuples(out)
}

// containsTuple reports membership in a sorted duplicate-free row set.
func containsTuple(rows []sym.Tuple, t sym.Tuple) bool {
	i := sort.Search(len(rows), func(i int) bool { return !tupleLess(rows[i], t) })
	return i < len(rows) && rows[i].Equal(t)
}

// joinRels distributes the natural join over both unions of parts; each
// pairwise join tabulates over the merged origin space.
func (ev *evaluator) joinRels(l, r dRel, cols []string) (dRel, error) {
	var lShared, rShared, rExtra []int
	for j, c := range r.cols {
		if i := slices.Index(l.cols, c); i >= 0 {
			lShared = append(lShared, i)
			rShared = append(rShared, j)
		} else {
			rExtra = append(rExtra, j)
		}
	}
	out := dRel{cols: cols}
	choice := make([]int, ev.n)
	for li := range l.parts {
		for ri := range r.parts {
			lp, rp := &l.parts[li], &r.parts[ri]
			origins := unionOrigins(lp.origins, rp.origins)
			space, err := ev.space(origins)
			if err != nil {
				return dRel{}, err
			}
			alts := make([][]sym.Tuple, 0, space)
			any := false
			ev.odometer(origins, choice, func() {
				joined := joinTuples(lp.at(choice, ev), rp.at(choice, ev),
					lShared, rShared, rExtra, len(cols))
				if len(joined) > 0 {
					any = true
				}
				alts = append(alts, joined)
			})
			if any {
				out.parts = append(out.parts, part{origins: origins, alts: alts})
			}
		}
	}
	return out, nil
}

// joinTuples is the ground natural join of two row sets (hash on the
// shared columns with exact confirmation, as in algebra.evalInst).
func joinTuples(ls, rs []sym.Tuple, lShared, rShared, rExtra []int, width int) []sym.Tuple {
	if len(ls) == 0 || len(rs) == 0 {
		return nil
	}
	key := func(t sym.Tuple, at []int) uint64 {
		h := uint64(1469598103934665603)
		for _, j := range at {
			h ^= uint64(t[j])
			h *= 1099511628211
		}
		return h
	}
	index := make(map[uint64][]sym.Tuple, len(rs))
	for _, rt := range rs {
		index[key(rt, rShared)] = append(index[key(rt, rShared)], rt)
	}
	var out []sym.Tuple
	for _, lt := range ls {
	probe:
		for _, rt := range index[key(lt, lShared)] {
			for k := range lShared {
				if lt[lShared[k]] != rt[rShared[k]] {
					continue probe
				}
			}
			g := make(sym.Tuple, 0, width)
			g = append(g, lt...)
			for _, j := range rExtra {
				g = append(g, rt[j])
			}
			out = append(out, g)
		}
	}
	return sortDedupTuples(out)
}

// mapPart applies a tuple-local map (project, select, …) to every
// alternative of one tabulated part, appending the result to out;
// tuple-local operators distribute over the union of parts, so origins
// are untouched. A part whose every alternative maps to the empty set
// contributes nothing and is dropped. (Template parts transform
// symbolically at their call sites instead.)
func mapPart(out *dRel, p *part, f func(sym.Tuple) (sym.Tuple, bool)) {
	alts := make([][]sym.Tuple, len(p.alts))
	any := false
	for ai, alt := range p.alts {
		var rows []sym.Tuple
		for _, t := range alt {
			if g, ok := f(t); ok {
				rows = append(rows, g)
			}
		}
		rows = sortDedupTuples(rows)
		if len(rows) > 0 {
			any = true
		}
		alts[ai] = rows
	}
	if any {
		out.parts = append(out.parts, part{origins: p.origins, alts: alts})
	}
}

// tmplColOf resolves one compiled predicate operand against a template
// body: a column index reads the template's column source, a constant
// stays a constant.
func tmplColOf(t *tmplPart, idx int, constID sym.ID) tmplCol {
	if idx >= 0 {
		return t.out[idx]
	}
	return tmplCol{unit: -1, constID: constID}
}

// resolvedPred is a selection predicate compiled to column indices and
// interned constants.
type resolvedPred struct {
	eq           bool
	lIdx, rIdx   int
	lConst, rCon sym.ID
}

func (p *resolvedPred) holds(t sym.Tuple) bool {
	l, r := p.lConst, p.rCon
	if p.lIdx >= 0 {
		l = t[p.lIdx]
	}
	if p.rIdx >= 0 {
		r = t[p.rIdx]
	}
	return p.eq == (l == r)
}

func resolvePreds(preds []algebra.Pred, cols []string) ([]resolvedPred, error) {
	out := make([]resolvedPred, len(preds))
	for i, p := range preds {
		rp := resolvedPred{eq: p.Op == cond.Eq, lIdx: -1, rIdx: -1}
		for side, o := range []algebra.Operand{p.L, p.R} {
			idx, id, err := resolveOperand(o, cols)
			if err != nil {
				return nil, err
			}
			if side == 0 {
				rp.lIdx, rp.lConst = idx, id
			} else {
				rp.rIdx, rp.rCon = idx, id
			}
		}
		out[i] = rp
	}
	return out, nil
}

func resolveOperand(o algebra.Operand, cols []string) (idx int, id sym.ID, err error) {
	if c, isConst := o.Const(); isConst {
		return -1, sym.Const(c), nil
	}
	col, _ := o.Column()
	j := slices.Index(cols, col)
	if j < 0 {
		return 0, 0, fmt.Errorf("wsdalg: select column %s not in %v", col, cols)
	}
	return j, 0, nil
}

// sortDedupTuples sorts rows lexicographically by interned ID and
// removes duplicates in place (relations are sets; projection and join
// can collapse rows).
func sortDedupTuples(ts []sym.Tuple) []sym.Tuple {
	sort.Slice(ts, func(i, j int) bool { return tupleLess(ts[i], ts[j]) })
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || !t.Equal(ts[i-1]) {
			out = append(out, t)
		}
	}
	return out
}

func tupleLess(a, b sym.Tuple) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// unionOrigins returns the union of two sorted origin lists as a fresh
// slice, sized once (neither input is modified).
func unionOrigins(a, b []int) []int {
	return mergeOrigins(append(make([]int, 0, len(a)+len(b)), a...), b)
}

// mergeOrigins unions a sorted origin list into dst (kept sorted and
// duplicate-free).
func mergeOrigins(dst, src []int) []int {
	for _, o := range src {
		i := sort.SearchInts(dst, o)
		if i < len(dst) && dst[i] == o {
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = o
	}
	return dst
}
