// Plan introspection: EvalPlanned is Eval plus an EXPLAIN/ANALYZE tree.
// Each operator node of the query expression gets a PlanNode carrying
// *estimates* computed from the node's inputs before its own work runs
// (parts, distinct choice units, tabulated-row upper bounds, and — for
// the sweeping operators and the final assembly — the joint alternative
// space predicted from origin-space products) and *actuals* filled
// during evaluation (parts emitted, rows tabulated, joint alternatives
// actually swept, wall time).
//
// Estimates come from the bounds domain below: the walk (wsdalg.go)
// interprets the algebra in either the concrete domain, which
// evaluates, or the bounds domain, which carries each part's origins
// and row bound. A bounds step is the only place an operator's estimate
// formula lives. EXPLAIN runs it on the bounds of a concrete node's real
// inputs; the planner's static cost is a whole bounds walk summing the
// same figures. The estimates are sound upper bounds by construction: a
// join's predicted merge space is the exact sum of per-part-pair origin
// products, and evaluation either sweeps exactly that space or stops
// early (ErrEntangled), so Est.MergeSpace ≥ Act.MergeSpace always — the
// property TestPlanEstimateSoundness pins across the difftest corpus.
//
// Actuals reconcile with the obs.Cost counters of the same run:
// summing Act.MergeSpace over all plan nodes gives eval_alts_tabulated,
// the max of Act.MaxSpace gives eval_merge_space_max, summing the out
// nodes' Act.Parts gives eval_parts, and Plan.Components equals
// eval_components — the plan is the per-operator decomposition of the
// run's cost totals.
package wsdalg

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"pw/internal/algebra"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/wsd"
)

// PlanStats is one side (estimate or actual) of a plan node's numbers.
// Zero fields are omitted from JSON; MergeSpace/MaxSpace only apply to
// nodes that sweep joint alternative spaces (join, assemble), DurUS
// only to actuals. Values saturate at math.MaxInt64 instead of
// overflowing — a saturated estimate still upper-bounds every actual.
type PlanStats struct {
	Parts      int64 `json:"parts,omitempty"`
	Units      int64 `json:"units,omitempty"`
	Rows       int64 `json:"rows,omitempty"`
	MergeSpace int64 `json:"merge,omitempty"`
	MaxSpace   int64 `json:"max_space,omitempty"`
	DurUS      int64 `json:"us,omitempty"`
}

// PlanNode is one operator of the evaluated expression tree (plus the
// synthetic "out" and "assemble" nodes). Error is the error class when
// evaluation failed at or below this node; the subtree evaluated so far
// is retained, so a refused query still explains where it blew up.
type PlanNode struct {
	Op       string      `json:"op"`
	Detail   string      `json:"detail,omitempty"`
	Est      PlanStats   `json:"est"`
	Act      PlanStats   `json:"act"`
	Error    string      `json:"error,omitempty"`
	Children []*PlanNode `json:"children,omitempty"`
}

// NormalizeStats is the answer-side Normalize's share of the run: the
// components its counting-argument factorizer merged, the vertical
// (attribute-level) splits and certain folds it performed, and its wall
// time.
type NormalizeStats struct {
	ComponentsMerged int64 `json:"merged"`
	VerticalSplits   int64 `json:"splits,omitempty"`
	CertainFolds     int64 `json:"folds,omitempty"`
	DurUS            int64 `json:"us"`
}

// Plan is one evaluation's EXPLAIN/ANALYZE record: the input size, one
// node tree per output relation, the final component assembly, the
// answer-side Normalize, the exact world count of the result, and the
// run's full cost counters (the same obs.Cost names ?trace=1 reports).
type Plan struct {
	Query      string           `json:"query"`
	Components int64            `json:"components"`
	Outs       []*PlanNode      `json:"outs,omitempty"`
	Assemble   *PlanNode        `json:"assemble,omitempty"`
	Normalize  *NormalizeStats  `json:"normalize,omitempty"`
	WorldCount string           `json:"worlds,omitempty"`
	Cost       map[string]int64 `json:"cost,omitempty"`
	Error      string           `json:"error,omitempty"`
	Planner    *PlannerInfo     `json:"planner,omitempty"`
	DurUS      int64            `json:"us"`
}

// EvalPlanned is Eval plus plan construction, with a cost sink c. The evaluation
// runs against a private cost sink so Plan.Cost reports exactly this
// run's counters even when c is a shared request-wide sink; the private
// counters are folded into c afterwards (additive kinds add, high-water
// kinds max). The plan is returned even on error, annotated with the
// error class and truncated at the failing node.
func EvalPlanned(w *wsd.WSD, q query.Query, c *obs.Cost) (*wsd.WSD, *Plan, error) {
	return evalPlanned(w, q, c, nil)
}

// evalPlanned is EvalPlanned evaluating on a fork of base when base is
// non-nil (see evalCore).
func evalPlanned(w *wsd.WSD, q query.Query, c *obs.Cost, base *evaluator) (*wsd.WSD, *Plan, error) {
	ci := obs.NewCost()
	p := &Plan{Query: q.Label()}
	start := time.Now()
	out, err := evalCore(w, q, ci, p, base)
	p.DurUS = time.Since(start).Microseconds()
	p.Cost = ci.Counters()
	if err != nil {
		p.Error = ErrorClass(err)
	} else {
		p.WorldCount = out.Count().String()
	}
	c.AddSnapshot(ci.Snapshot())
	return out, p, err
}

// ErrorClass maps an evaluation error to its stable class name — the
// string spans, plan nodes and the server's flight recorder annotate
// with ("" for nil).
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrEntangled):
		return "entangled"
	case errors.Is(err, ErrUnsupported):
		return "unsupported"
	default:
		return "error"
	}
}

// markError annotates the node with the error's class. Nil-safe (the
// unplanned path threads nil nodes); the first class wins.
func (n *PlanNode) markError(err error) {
	if n == nil || err == nil {
		return
	}
	if n.Error == "" {
		n.Error = ErrorClass(err)
	}
}

// satAdd and satMul are int64 arithmetic saturating at math.MaxInt64
// (estimate inputs are non-negative).
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// opName names an operator node; opDetail adds the human-facing
// argument (relation name, projected columns, predicates).
func opName(e algebra.Expr) string {
	switch e.(type) {
	case algebra.ConstRel:
		return "const"
	case algebra.Rel:
		return "scan"
	case algebra.Project:
		return "project"
	case algebra.Select:
		return "select"
	case algebra.Rename:
		return "rename"
	case algebra.Join:
		return "join"
	case algebra.Union:
		return "union"
	case algebra.Diff:
		return "diff"
	case algebra.Possible:
		return "possible"
	case algebra.Certain:
		return "certain"
	case algebra.ChoiceOf:
		return "choiceof"
	}
	return fmt.Sprintf("%T", e)
}

func opDetail(e algebra.Expr) string {
	switch n := e.(type) {
	case algebra.ConstRel:
		return fmt.Sprintf("%d rows", len(n.Rows))
	case algebra.Rel:
		return n.Name
	case algebra.Project:
		return strings.Join(n.Cols, ",")
	case algebra.Select:
		ps := make([]string, len(n.Preds))
		for i, p := range n.Preds {
			ps[i] = p.String()
		}
		return strings.Join(ps, ", ")
	case algebra.Rename:
		pairs := make([]string, len(n.From))
		for i := range n.From {
			pairs[i] = n.From[i] + ">" + n.To[i]
		}
		return strings.Join(pairs, ",")
	}
	return ""
}

// originsProduct is the joint alternative count of an origin set,
// saturating — the estimate-side mirror of evaluator.space, with no
// guard and no cost recording.
func (ev *evaluator) originsProduct(origins []int) int64 {
	prod := int64(1)
	for _, o := range origins {
		prod = satMul(prod, int64(ev.altCounts[o]))
	}
	return prod
}

// sweep adds one joint-space sweep of prod alternatives to an estimate.
func (s *PlanStats) sweep(prod int64) {
	s.MergeSpace = satAdd(s.MergeSpace, prod)
	if prod > s.MaxSpace {
		s.MaxSpace = prod
	}
}

// bpart is a part's bound: its origin set, an upper bound on the rows it
// tabulates, and — for a template-derived part — the symbolic body, so
// π and σ narrow it exactly as evaluation does.
type bpart struct {
	origins []int
	rows    int64
	tmpl    *tmplPart
}

// bounds is the estimating domain: every step propagates bounds without
// tabulating anything and charges its node's estimate — the one place
// each operator's estimate formula lives. A bounds walk is the
// planner's costing; EXPLAIN applies the same steps to the bounds of a
// concrete node's real inputs.
type bounds struct{ *evaluator }

// charge records a node's estimate: on the plan node being built, and
// in the running static cost the planner minimizes — the joint
// alternatives the node sweeps, plus extra (at a join, the pairwise
// row-match work σ-pushdown exists to shrink).
func (b bounds) charge(est PlanStats, extra int64) {
	if b.cur != nil {
		b.cur.Est = est
	}
	b.priced = satAdd(b.priced, satAdd(est.MergeSpace, extra))
}

func (b bounds) bound(p *bpart) bpart { return *p }

// stats summarizes bounds as an estimate: parts, distinct choice units,
// total row bound. Tuple-local operators can only shrink all three.
func (b bounds) stats(ps []bpart) PlanStats {
	s := PlanStats{Parts: int64(len(ps)), Units: int64(len(allOrigins(ps)))}
	for i := range ps {
		s.Rows = satAdd(s.Rows, ps[i].rows)
	}
	return s
}

// allOrigins returns the choice units the parts depend on (sorted).
func allOrigins(pss ...[]bpart) []int {
	var us []int
	for _, ps := range pss {
		for i := range ps {
			us = mergeOrigins(us, ps[i].origins)
		}
	}
	return us
}

func (b bounds) constRel(n algebra.ConstRel) []bpart {
	b.charge(PlanStats{Parts: 1, Rows: int64(len(n.Rows))}, 0)
	return certainPart(int64(len(n.Rows)))
}

// certainPart bounds a choice-independent row set of at most rows rows.
func certainPart(rows int64) []bpart {
	if rows == 0 {
		return nil
	}
	return []bpart{{rows: rows}}
}

// scan bounds a base-relation scan from the raw decomposition: at most
// one part per component, every unit potentially touched, and (for
// tabulated rows) each alternative's full fact list — template
// components scan symbolically and tabulate nothing. The parts' bounds
// are cached beside the scan itself.
func (b bounds) scan(name string) []bpart {
	sc := b.scans
	if sc.bounds == nil { // the request's first bounds scan
		sc.bounds = map[string][]bpart{}
		for ci := 0; ci < b.w.Components(); ci++ {
			if _, _, ok := b.w.TemplateSlots(ci); ok {
				continue
			}
			for ai := 0; ai < b.w.AltCount(ci); ai++ {
				sc.rows = satAdd(sc.rows, int64(b.w.AltSize(ci, ai)))
			}
		}
	}
	b.charge(PlanStats{Parts: int64(b.w.Components()), Units: int64(b.n), Rows: sc.rows}, 0)
	if bs, ok := sc.bounds[name]; ok {
		return bs
	}
	real := b.scanParts(name)
	bs := make([]bpart, len(real))
	for i := range real {
		bs[i] = concrete(b).bound(&real[i])
	}
	sc.bounds[name] = bs
	return bs
}

func (b bounds) project(in drel[bpart], idx []int) []bpart {
	return b.tupleLocal(in, func(t *tmplPart) *tmplPart { return t.project(idx) })
}

func (b bounds) selection(in drel[bpart], preds []resolvedPred) []bpart {
	return b.tupleLocal(in, func(t *tmplPart) *tmplPart { return t.selection(preds) })
}

// tupleLocal bounds a tuple-local operator: its input's stats are its
// estimate, tabulated parts keep their bounds, and template parts
// narrow symbolically (nil: statically empty) to one row at most per
// joint choice of the units they still reference.
func (b bounds) tupleLocal(in drel[bpart], narrow func(*tmplPart) *tmplPart) []bpart {
	b.charge(b.stats(in.parts), 0)
	out := make([]bpart, 0, len(in.parts))
	for _, p := range in.parts {
		if p.tmpl != nil {
			t := narrow(p.tmpl)
			if t == nil {
				continue
			}
			origins := t.unitsOf()
			p = bpart{origins: origins, rows: b.originsProduct(origins), tmpl: t}
		}
		out = append(out, p)
	}
	return out
}

func (b bounds) rename(in drel[bpart]) []bpart {
	b.charge(b.stats(in.parts), 0)
	return in.parts
}

// join bounds ⋈ before tabulation: every part pair tabulates over its
// merged origin product, so MergeSpace is the exact sum of those
// products (evaluation sweeps exactly this space unless it stops early
// on ErrEntangled — which only makes the actual smaller), and each
// pair's rows multiply the operands' row bounds.
func (b bounds) join(l, r drel[bpart], _ []string) ([]bpart, error) {
	s := PlanStats{Parts: satMul(int64(len(l.parts)), int64(len(r.parts))),
		Units: int64(len(allOrigins(l.parts, r.parts)))}
	out := make([]bpart, 0, len(l.parts)*len(r.parts))
	for _, lp := range l.parts {
		for _, rp := range r.parts {
			origins := unionOrigins(lp.origins, rp.origins)
			rows := satMul(lp.rows, rp.rows)
			s.sweep(b.originsProduct(origins))
			s.Rows = satAdd(s.Rows, rows)
			out = append(out, bpart{origins: origins, rows: rows})
		}
	}
	b.charge(s, s.Rows)
	return out, nil
}

func (b bounds) union(l, r drel[bpart]) []bpart {
	out := make([]bpart, 0, len(l.parts)+len(r.parts))
	out = append(append(out, l.parts...), r.parts...)
	b.charge(b.stats(out), 0)
	return out
}

// diff bounds l ∖ r: every left part re-tabulates over its origins
// merged with all right-side origins, so MergeSpace is the exact sum of
// those products, and each left part's row bound multiplies by the
// subtrahend axes it did not already depend on (its value is repeated
// across them).
func (b bounds) diff(l, r drel[bpart]) ([]bpart, error) {
	if len(l.parts) == 0 || len(r.parts) == 0 {
		b.charge(b.stats(l.parts), 0)
		return l.parts, nil
	}
	rOrigins := allOrigins(r.parts)
	s := PlanStats{Parts: int64(len(l.parts)), Units: int64(len(allOrigins(l.parts, r.parts)))}
	out := make([]bpart, 0, len(l.parts))
	for _, lp := range l.parts {
		origins := unionOrigins(lp.origins, rOrigins)
		s.sweep(b.originsProduct(origins))
		repeat := int64(1)
		for _, o := range rOrigins {
			if _, ok := slices.BinarySearch(lp.origins, o); !ok {
				repeat = satMul(repeat, int64(b.altCounts[o]))
			}
		}
		rows := satMul(lp.rows, repeat)
		s.Rows = satAdd(s.Rows, rows)
		out = append(out, bpart{origins: origins, rows: rows})
	}
	b.charge(s, 0)
	return out, nil
}

// support bounds the support sweep of possible and choiceof: each
// template part sweeps its origin space (tabulated parts contribute
// their rows directly, no sweep); the support has at most the operand's
// total row bound of rows.
func (b bounds) support(in []bpart) PlanStats {
	s := PlanStats{Parts: 1}
	for _, p := range in {
		s.Rows = satAdd(s.Rows, p.rows)
		if p.tmpl != nil {
			s.sweep(b.originsProduct(p.origins))
		}
	}
	return s
}

// possible bounds possible(e): the support sweep, and a single certain
// part of at most the support's rows.
func (b bounds) possible(in drel[bpart]) ([]bpart, error) {
	s := b.support(in.parts)
	b.charge(s, 0)
	return certainPart(s.Rows), nil
}

// certain bounds the private sub-decomposition certainRows assembles:
// one sweep per correlated group (see assemble), a single certain part
// bounded by the operand's total row bound.
func (b bounds) certain(in drel[bpart]) ([]bpart, error) {
	asm := b.assemble(in.parts)
	s := PlanStats{Parts: 1, MergeSpace: asm.MergeSpace, MaxSpace: asm.MaxSpace}
	for _, p := range in.parts {
		s.Rows = satAdd(s.Rows, p.rows)
	}
	b.charge(s, 0)
	return certainPart(s.Rows), nil
}

// choiceOf bounds the support by its row bound — clamped just past
// MaxMergeAlts, where evaluation would refuse anyway — and allocates
// the pick's synthetic unit with that many alternatives.
func (b bounds) choiceOf(in drel[bpart]) ([]bpart, error) {
	n := min(b.support(in.parts).Rows, int64(wsd.MaxMergeAlts)+1)
	u := -1
	if n > 0 {
		u = b.addUnit(int(n))
	}
	return b.choose(in.parts, n, u), nil
}

// choose bounds choiceof(e) once the support size n is known (and the
// pick's unit u allocated when n > 0): the support sweep plus one
// tabulation over the operand's joint origin space times the pick's n
// alternatives — the exact space choiceRel sweeps, one row at most per
// joint choice.
func (b bounds) choose(in []bpart, n int64, u int) []bpart {
	s := b.support(in)
	if n == 0 {
		b.charge(s, 0)
		return nil
	}
	origins := allOrigins(in)
	prod := satMul(b.originsProduct(origins), n)
	s.sweep(prod)
	s.Units = int64(len(origins)) + 1
	s.Rows = prod
	b.charge(s, 0)
	return []bpart{{origins: mergeOrigins(origins, []int{u}), rows: prod}}
}

// assemble bounds a component assembly (the answer's, or certain's
// private one) of parts grouped by shared origins (see originGroups).
func (b bounds) assemble(ps []bpart) PlanStats {
	free := 0
	for _, p := range ps {
		if len(p.origins) == 0 {
			free++
		}
	}
	return b.groups(originGroups(b.n, ps, func(p *bpart) []int { return p.origins }), int64(free))
}

// groups bounds an assembly from its correlated groups: one component
// per origin-free part (free of them) and per group, each group
// sweeping the joint space of its merged origins (the template fast
// path skips the sweep, which only makes the actual smaller).
func (b bounds) groups(gs []group, free int64) PlanStats {
	s := PlanStats{Parts: free + int64(len(gs))}
	var units []int
	for _, g := range gs {
		units = mergeOrigins(units, g.origins)
		s.sweep(b.originsProduct(g.origins))
	}
	s.Units = int64(len(units))
	return s
}

// statsLine renders one PlanStats side as "k=v ..." with zero fields
// omitted; empty string when nothing is set.
func statsLine(s PlanStats, withDur bool) string {
	var b strings.Builder
	add := func(k string, v int64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, v)
	}
	add("parts", s.Parts)
	add("units", s.Units)
	add("merge", s.MergeSpace)
	add("max", s.MaxSpace)
	add("rows", s.Rows)
	if withDur {
		add("us", s.DurUS)
	}
	return b.String()
}

// WriteText renders the plan as an indented tree — the pwq explain
// shape. Estimates and actuals print side by side per node; an
// error-marked node carries a trailing "!class".
func (p *Plan) WriteText(w io.Writer) {
	fmt.Fprintf(w, "plan %s  components=%d", p.Query, p.Components)
	if p.WorldCount != "" {
		fmt.Fprintf(w, "  worlds=%s", p.WorldCount)
	}
	if p.Error != "" {
		fmt.Fprintf(w, "  !%s", p.Error)
	}
	fmt.Fprintf(w, "  %dus\n", p.DurUS)
	if pi := p.Planner; pi != nil {
		fmt.Fprintf(w, "  planner  est_cost=%d naive_cost=%d", pi.ChosenCost, pi.NaiveCost)
		if pi.Changed() {
			fmt.Fprintf(w, "\n    chosen %s\n    naive  %s\n", pi.Chosen, pi.Naive)
		} else {
			io.WriteString(w, "  (kept written form)\n")
		}
	}
	for _, o := range p.Outs {
		writePlanNode(w, o, 1)
	}
	if p.Assemble != nil {
		writePlanNode(w, p.Assemble, 1)
	}
	if p.Normalize != nil {
		fmt.Fprintf(w, "  normalize  merged=%d splits=%d folds=%d  %dus\n",
			p.Normalize.ComponentsMerged, p.Normalize.VerticalSplits,
			p.Normalize.CertainFolds, p.Normalize.DurUS)
	}
	if len(p.Cost) > 0 {
		names := make([]string, 0, len(p.Cost))
		for n := range p.Cost {
			names = append(names, n)
		}
		sort.Strings(names)
		io.WriteString(w, "cost:")
		for _, n := range names {
			fmt.Fprintf(w, " %s=%d", n, p.Cost[n])
		}
		io.WriteString(w, "\n")
	}
}

func writePlanNode(w io.Writer, n *PlanNode, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	io.WriteString(w, n.Op)
	if n.Detail != "" {
		fmt.Fprintf(w, " %s", n.Detail)
	}
	if s := statsLine(n.Est, false); s != "" {
		fmt.Fprintf(w, "  est[%s]", s)
	}
	if s := statsLine(n.Act, true); s != "" {
		fmt.Fprintf(w, "  act[%s]", s)
	}
	if n.Error != "" {
		fmt.Fprintf(w, "  !%s", n.Error)
	}
	io.WriteString(w, "\n")
	for _, c := range n.Children {
		writePlanNode(w, c, depth+1)
	}
}
