// Cost-based planning for decomposition queries. The planner rewrites a
// query's algebra into an equivalent form whose predicted tabulation
// cost — the same origin-space products the EXPLAIN estimates report —
// is no larger than the naive form's:
//
//   - σ-pushdown: selection conjuncts split and sink below ⋈ (to the
//     side holding their columns), ∪ (both sides), ∖ (left side), ρ
//     (inverse-mapped), π, and the world-set collapses possible/certain
//     (a filter commutes with union and intersection alike). Applied to
//     a tabulated part, a sunk σ empties alternatives early and drops
//     all-empty parts before any join multiplies them. A σ that lands
//     on a constant relation folds away entirely — the literal rows are
//     filtered at plan time;
//   - column pruning: a π above a ⋈ pushes into both sides, keeping
//     only the needed and joined columns. On attribute-level templates
//     this is the tuple- vs slot-granular choice: a narrowed scan
//     depends on exactly the referenced slots' units, shrinking every
//     downstream origin product. ∖, certain and choiceof are
//     column-sensitive and block pruning (their operands keep their
//     full schema);
//   - join reordering: nested natural joins flatten into a list and the
//     cheapest left-deep order (exhaustive up to 5 relations, greedy
//     beyond) replaces the written one, with a π restoring the original
//     column order. The written order is always a candidate, so the
//     chosen plan's predicted cost never exceeds the naive plan's.
//
// Cost prediction runs the "dry" evaluator: the same part propagation
// as evaluation — symbolic template narrowing included — but carrying
// only origin sets and row bounds, never tabulating. Its per-operator
// origin products are exactly the Est figures of plan.go (joins also
// charge their pairwise row-match work, the term σ-pushdown shrinks),
// so what the planner minimizes is what EXPLAIN shows. All rewrites are equivalences of the
// world-set algebra; results are bit-identical to the naive form (the
// differential suite races both).
package wsdalg

import (
	"fmt"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/obs"
	"pw/internal/query"
	"pw/internal/unionfind"
	"pw/internal/wsd"
)

// PlannerInfo records a planning decision: the naive and chosen forms
// (one "Name = expr" clause per output) and their predicted costs in
// joint alternatives tabulated.
type PlannerInfo struct {
	Chosen     string `json:"chosen"`
	Naive      string `json:"naive"`
	ChosenCost int64  `json:"chosen_cost"`
	NaiveCost  int64  `json:"naive_cost"`
}

// Changed reports whether planning picked a different form than the one
// written.
func (pi *PlannerInfo) Changed() bool { return pi != nil && pi.Chosen != pi.Naive }

// Optimize plans q against w: the rewritten query (or q itself when the
// rewrite does not lower the predicted cost, q is not algebra, or the
// cost model cannot price it) plus the decision record. The returned
// query is always equivalent to q on every world set.
func Optimize(w *wsd.WSD, q query.Query) (query.Query, *PlannerInfo) {
	return optimize(plannerBase(w, q), q)
}

// plannerBase returns the evaluator planning q against w runs on, or
// nil when there is nothing to plan (q is not algebra, or rep(w) = ∅).
func plannerBase(w *wsd.WSD, q query.Query) *evaluator {
	if _, ok := q.(query.Algebra); !ok || w.Empty() {
		return nil
	}
	return newEvaluator(w)
}

// optimize is Optimize over a base evaluator (nil: nothing to plan).
// Every costing pass runs on a fork of base, so each base relation is
// scanned once however many candidate forms are priced.
func optimize(base *evaluator, q query.Query) (query.Query, *PlannerInfo) {
	if base == nil {
		return q, nil
	}
	a := q.(query.Algebra)
	naiveCost, err := staticCost(base, a)
	if err != nil {
		return q, nil // un-priceable: schema errors surface at eval time
	}
	outs := make([]query.Out, len(a.Outs))
	for i, o := range a.Outs {
		e := pushSelections(o.Expr)
		e = foldConstRels(e)
		if cols, serr := o.Expr.Schema(); serr == nil {
			e = pruneExpr(e, cols)
		}
		e = reorderJoins(base, e)
		outs[i] = query.Out{Name: o.Name, Expr: e}
	}
	opt := query.Algebra{Name: a.Name, Outs: outs}
	info := &PlannerInfo{Naive: formatOuts(a.Outs), NaiveCost: naiveCost}
	if chosen := formatOuts(outs); chosen == info.Naive {
		// The rewrites left the written form as it was: it is already
		// priced.
		info.Chosen, info.ChosenCost = chosen, naiveCost
		return opt, info
	}
	chosenCost, err := staticCost(base, opt)
	if err != nil || chosenCost > naiveCost {
		// Never adopt a rewrite the model prices higher than what was
		// written (or cannot price at all).
		info.Chosen, info.ChosenCost = info.Naive, info.NaiveCost
		return q, info
	}
	info.Chosen, info.ChosenCost = formatOuts(outs), chosenCost
	return opt, info
}

// EvalOptimized is EvalPlanned through the planner: the chosen form is
// evaluated (plan and all) and the plan carries the planning record.
// Equivalence of the rewrites means the result is identical to
// EvalPlanned(w, q, c) world-for-world. Planning and evaluation share
// one base evaluator, so each base relation is scanned once.
func EvalOptimized(w *wsd.WSD, q query.Query, c *obs.Cost) (*wsd.WSD, *Plan, error) {
	base := plannerBase(w, q)
	opt, info := optimize(base, q)
	out, pl, err := evalPlanned(w, opt, c, base)
	if pl != nil {
		pl.Planner = info
		pl.Query = q.Label() // report the query as asked, not as rewritten
	}
	return out, pl, err
}

func formatOuts(outs []query.Out) string {
	s := ""
	for i, o := range outs {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%s = %s", o.Name, o.Expr)
	}
	return s
}

// ---- σ-pushdown ----

// pushSelections sinks selection conjuncts as deep as the algebra's
// equivalences allow, recursing through every operator.
func pushSelections(e algebra.Expr) algebra.Expr {
	switch n := e.(type) {
	case algebra.Select:
		child := pushSelections(n.E)
		var kept []algebra.Pred
		for _, p := range n.Preds {
			if c, ok := pushPred(child, p); ok {
				child = c
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			return child
		}
		return algebra.Select{E: child, Preds: kept}
	case algebra.Project:
		return algebra.Project{E: pushSelections(n.E), Cols: n.Cols}
	case algebra.Rename:
		return algebra.Rename{E: pushSelections(n.E), From: n.From, To: n.To}
	case algebra.Join:
		return algebra.Join{L: pushSelections(n.L), R: pushSelections(n.R)}
	case algebra.Union:
		return algebra.Union{L: pushSelections(n.L), R: pushSelections(n.R)}
	case algebra.Diff:
		return algebra.Diff{L: pushSelections(n.L), R: pushSelections(n.R)}
	case algebra.Possible:
		return algebra.Possible{E: pushSelections(n.E)}
	case algebra.Certain:
		return algebra.Certain{E: pushSelections(n.E)}
	case algebra.ChoiceOf:
		return algebra.ChoiceOf{E: pushSelections(n.E)}
	}
	return e
}

// pushPred sinks one predicate into e where an equivalence allows it,
// returning the rewritten expression. Not-ok means the predicate stays
// where it was written.
func pushPred(e algebra.Expr, p algebra.Pred) (algebra.Expr, bool) {
	switch n := e.(type) {
	case algebra.Select:
		// σ_p σ_q E = σ_q σ_p E: try below first, merge otherwise.
		if c, ok := pushPred(n.E, p); ok {
			return algebra.Select{E: c, Preds: n.Preds}, true
		}
		preds := append(append([]algebra.Pred(nil), n.Preds...), p)
		return algebra.Select{E: n.E, Preds: preds}, true
	case algebra.Project:
		// π keeps every column σ can reference.
		return algebra.Project{E: pushOrWrap(n.E, p), Cols: n.Cols}, true
	case algebra.Rename:
		child, err := n.E.Schema()
		if err != nil {
			return nil, false
		}
		mapped, ok := renamePred(p, n.From, n.To, child)
		if !ok {
			return nil, false
		}
		return algebra.Rename{E: pushOrWrap(n.E, mapped), From: n.From, To: n.To}, true
	case algebra.Join:
		lCols, lerr := n.L.Schema()
		rCols, rerr := n.R.Schema()
		if lerr != nil || rerr != nil {
			return nil, false
		}
		cols := predColumns(p)
		l, r := n.L, n.R
		ok := false
		if colsSubset(cols, lCols) {
			l, ok = pushOrWrap(l, p), true
		}
		if colsSubset(cols, rCols) {
			r, ok = pushOrWrap(r, p), true
		}
		if !ok {
			return nil, false
		}
		return algebra.Join{L: l, R: r}, true
	case algebra.Union:
		// σ distributes over ∪.
		return algebra.Union{L: pushOrWrap(n.L, p), R: pushOrWrap(n.R, p)}, true
	case algebra.Diff:
		// σ(L ∖ R) = σ(L) ∖ R.
		return algebra.Diff{L: pushOrWrap(n.L, p), R: n.R}, true
	case algebra.Possible:
		// A filter commutes with the union over worlds.
		return algebra.Possible{E: pushOrWrap(n.E, p)}, true
	case algebra.Certain:
		// … and with the intersection over worlds.
		return algebra.Certain{E: pushOrWrap(n.E, p)}, true
	}
	// ChoiceOf is a barrier: filtering a pick differs from picking from
	// the filtered set. Scans and constants have nothing below them.
	return nil, false
}

func pushOrWrap(e algebra.Expr, p algebra.Pred) algebra.Expr {
	if c, ok := pushPred(e, p); ok {
		return c
	}
	return algebra.Select{E: e, Preds: []algebra.Pred{p}}
}

// ---- constant folding ----

// foldConstRels evaluates selections over constant relations at plan
// time: every predicate over literal rows is decidable, so the σ folds
// into a smaller ConstRel — typically one σ-pushdown landed on the
// dimension side of a join, where every dropped row shrinks the join's
// row-match work for real (the fold is exact, not an estimate).
func foldConstRels(e algebra.Expr) algebra.Expr {
	switch n := e.(type) {
	case algebra.Select:
		child := foldConstRels(n.E)
		if c, ok := child.(algebra.ConstRel); ok {
			if folded, ok := foldSelect(c, n.Preds); ok {
				return folded
			}
		}
		return algebra.Select{E: child, Preds: n.Preds}
	case algebra.Project:
		return algebra.Project{E: foldConstRels(n.E), Cols: n.Cols}
	case algebra.Rename:
		return algebra.Rename{E: foldConstRels(n.E), From: n.From, To: n.To}
	case algebra.Join:
		return algebra.Join{L: foldConstRels(n.L), R: foldConstRels(n.R)}
	case algebra.Union:
		return algebra.Union{L: foldConstRels(n.L), R: foldConstRels(n.R)}
	case algebra.Diff:
		return algebra.Diff{L: foldConstRels(n.L), R: foldConstRels(n.R)}
	case algebra.Possible:
		return algebra.Possible{E: foldConstRels(n.E)}
	case algebra.Certain:
		return algebra.Certain{E: foldConstRels(n.E)}
	case algebra.ChoiceOf:
		return algebra.ChoiceOf{E: foldConstRels(n.E)}
	}
	return e
}

// foldSelect filters a constant relation's rows through literal
// predicates. Not-ok (fold refused, σ stays) when a column reference
// does not resolve — that is a schema error whose report belongs to
// evaluation, not planning.
func foldSelect(c algebra.ConstRel, preds []algebra.Pred) (algebra.Expr, bool) {
	resolve := func(o algebra.Operand, row []string) (string, bool) {
		if k, isConst := o.Const(); isConst {
			return k, true
		}
		col, _ := o.Column()
		i := indexOf(c.Cols, col)
		if i < 0 {
			return "", false
		}
		return row[i], true
	}
	rows := [][]string{}
	for _, row := range c.Rows {
		keep := true
		for _, p := range preds {
			l, lok := resolve(p.L, row)
			r, rok := resolve(p.R, row)
			if !lok || !rok {
				return nil, false
			}
			if (p.Op == cond.Eq) != (l == r) {
				keep = false
				break
			}
		}
		if keep {
			rows = append(rows, row)
		}
	}
	return algebra.ConstRel{Cols: c.Cols, Rows: rows}, true
}

// renamePred maps a predicate's column references through the inverse
// of a rename (To → From); not-ok when a reference cannot be resolved
// in the child schema.
func renamePred(p algebra.Pred, from, to []string, child []string) (algebra.Pred, bool) {
	mapOperand := func(o algebra.Operand) (algebra.Operand, bool) {
		col, isCol := o.Column()
		if !isCol {
			return o, true
		}
		for i, t := range to {
			if t == col {
				col = from[i]
				break
			}
		}
		if indexOf(child, col) < 0 {
			return o, false
		}
		return algebra.Col(col), true
	}
	l, ok := mapOperand(p.L)
	if !ok {
		return p, false
	}
	r, ok := mapOperand(p.R)
	if !ok {
		return p, false
	}
	return algebra.Pred{Op: p.Op, L: l, R: r}, true
}

func predColumns(p algebra.Pred) []string {
	var cols []string
	for _, o := range []algebra.Operand{p.L, p.R} {
		if c, ok := o.Column(); ok {
			cols = append(cols, c)
		}
	}
	return cols
}

func colsSubset(cols, in []string) bool {
	for _, c := range cols {
		if indexOf(in, c) < 0 {
			return false
		}
	}
	return true
}

// ---- column pruning ----

// pruneExpr rewrites e to an equivalent expression with schema exactly
// needed (an ordered subset of e's schema), pushing projections down to
// base scans. On attribute-level templates the narrowed scan depends on
// exactly the referenced slots' units — the slot-granular path — which
// shrinks every origin product above it. Diff, certain and choiceof are
// column-sensitive: their operands keep their full schema and a π on
// top does the narrowing.
func pruneExpr(e algebra.Expr, needed []string) algebra.Expr {
	full, err := e.Schema()
	if err != nil {
		return e
	}
	switch n := e.(type) {
	case algebra.Project:
		return pruneExpr(n.E, needed)
	case algebra.Select:
		child, err := n.E.Schema()
		if err != nil {
			return wrapProject(e, needed, full)
		}
		needPlus := needed
		for _, p := range n.Preds {
			needPlus = addCols(needPlus, predColumns(p))
		}
		needPlus = orderCols(child, needPlus)
		out := algebra.Expr(algebra.Select{E: pruneExpr(n.E, needPlus), Preds: n.Preds})
		return wrapProject(out, needed, needPlus)
	case algebra.Rename:
		child, err := n.E.Schema()
		if err != nil {
			return wrapProject(e, needed, full)
		}
		childNeeded := make([]string, 0, len(needed))
		for _, c := range needed {
			for i, t := range n.To {
				if t == c {
					c = n.From[i]
					break
				}
			}
			childNeeded = append(childNeeded, c)
		}
		childNeeded = orderCols(child, childNeeded)
		var from, to []string
		for i, f := range n.From {
			if indexOf(childNeeded, f) >= 0 {
				from = append(from, f)
				to = append(to, n.To[i])
			}
		}
		out := algebra.Expr(pruneExpr(n.E, childNeeded))
		if len(from) > 0 {
			out = algebra.Rename{E: out, From: from, To: to}
		}
		have := make([]string, len(childNeeded))
		copy(have, childNeeded)
		for i, c := range have {
			if j := indexOf(from, c); j >= 0 {
				have[i] = to[j]
			}
		}
		return wrapProject(out, needed, have)
	case algebra.Join:
		lCols, lerr := n.L.Schema()
		rCols, rerr := n.R.Schema()
		if lerr != nil || rerr != nil {
			return wrapProject(e, needed, full)
		}
		var shared []string
		for _, c := range rCols {
			if indexOf(lCols, c) >= 0 {
				shared = append(shared, c)
			}
		}
		keep := addCols(append([]string(nil), needed...), shared)
		needL := orderCols(lCols, keep)
		needR := orderCols(rCols, keep)
		out := algebra.Expr(algebra.Join{L: pruneExpr(n.L, needL), R: pruneExpr(n.R, needR)})
		have := append([]string(nil), needL...)
		for _, c := range needR {
			if indexOf(needL, c) < 0 {
				have = append(have, c)
			}
		}
		return wrapProject(out, needed, have)
	case algebra.Union:
		return algebra.Union{L: pruneExpr(n.L, needed), R: pruneExpr(n.R, needed)}
	case algebra.Diff:
		out := algebra.Expr(algebra.Diff{L: pruneSame(n.L), R: pruneSame(n.R)})
		return wrapProject(out, needed, full)
	case algebra.Possible:
		// π commutes with the union over worlds.
		return algebra.Possible{E: pruneExpr(n.E, needed)}
	case algebra.Certain, algebra.ChoiceOf:
		var out algebra.Expr
		if c, ok := n.(algebra.Certain); ok {
			out = algebra.Certain{E: pruneSame(c.E)}
		} else {
			out = algebra.ChoiceOf{E: pruneSame(n.(algebra.ChoiceOf).E)}
		}
		return wrapProject(out, needed, full)
	}
	// Scans and constants: the narrowing π lands here (symbolic on
	// templates, tuple-local on alternatives).
	return wrapProject(e, needed, full)
}

// pruneSame recurses into a column-sensitive operand, keeping its own
// schema intact.
func pruneSame(e algebra.Expr) algebra.Expr {
	cols, err := e.Schema()
	if err != nil {
		return e
	}
	return pruneExpr(e, cols)
}

func wrapProject(e algebra.Expr, needed, have []string) algebra.Expr {
	if sameCols(needed, have) {
		return e
	}
	return algebra.Project{E: e, Cols: needed}
}

func addCols(dst []string, src []string) []string {
	for _, c := range src {
		if indexOf(dst, c) < 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// orderCols filters schema down to the named set, preserving schema
// order — the canonical form recursion hands down.
func orderCols(schema []string, set []string) []string {
	out := make([]string, 0, len(set))
	for _, c := range schema {
		if indexOf(set, c) >= 0 {
			out = append(out, c)
		}
	}
	return out
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- join reordering ----

// reorderJoins rewrites every maximal nested natural-join chain into
// its cheapest left-deep order under the dry cost model, wrapping a π
// to restore the written column order. The written order competes, so
// the result is never predicted costlier.
func reorderJoins(base *evaluator, e algebra.Expr) algebra.Expr {
	switch n := e.(type) {
	case algebra.Join:
		leaves := flattenJoin(e)
		for i := range leaves {
			leaves[i] = reorderJoins(base, leaves[i])
		}
		return bestJoinOrder(base, e, leaves)
	case algebra.Project:
		return algebra.Project{E: reorderJoins(base, n.E), Cols: n.Cols}
	case algebra.Select:
		return algebra.Select{E: reorderJoins(base, n.E), Preds: n.Preds}
	case algebra.Rename:
		return algebra.Rename{E: reorderJoins(base, n.E), From: n.From, To: n.To}
	case algebra.Union:
		return algebra.Union{L: reorderJoins(base, n.L), R: reorderJoins(base, n.R)}
	case algebra.Diff:
		return algebra.Diff{L: reorderJoins(base, n.L), R: reorderJoins(base, n.R)}
	case algebra.Possible:
		return algebra.Possible{E: reorderJoins(base, n.E)}
	case algebra.Certain:
		return algebra.Certain{E: reorderJoins(base, n.E)}
	case algebra.ChoiceOf:
		return algebra.ChoiceOf{E: reorderJoins(base, n.E)}
	}
	return e
}

// flattenJoin collects the leaves of a maximal nested-join tree in
// written order (natural join is associative and commutative up to
// column order).
func flattenJoin(e algebra.Expr) []algebra.Expr {
	if j, ok := e.(algebra.Join); ok {
		return append(flattenJoin(j.L), flattenJoin(j.R)...)
	}
	return []algebra.Expr{e}
}

func rebuildJoin(leaves []algebra.Expr, order []int) algebra.Expr {
	out := leaves[order[0]]
	for _, i := range order[1:] {
		out = algebra.Join{L: out, R: leaves[i]}
	}
	return out
}

// bestJoinOrder prices every candidate left-deep order of the chain —
// all permutations up to 5 leaves, greedy-cheapest beyond — against the
// written order and returns the winner (strictly cheaper only), with a
// π restoring the written column order.
func bestJoinOrder(base *evaluator, orig algebra.Expr, leaves []algebra.Expr) algebra.Expr {
	written := make([]int, len(leaves))
	for i := range written {
		written[i] = i
	}
	if len(leaves) < 3 {
		return rebuildJoin(leaves, written)
	}
	origCols, err := orig.Schema()
	if err != nil {
		return rebuildJoin(leaves, written)
	}
	ev := base.fork()
	dry := make([]dryRel, len(leaves))
	var prep int64
	for i, l := range leaves {
		d, err := ev.dryEval(l, &prep)
		if err != nil {
			return rebuildJoin(leaves, written)
		}
		dry[i] = d
	}
	chainCost := func(order []int) int64 {
		var cost int64
		acc := dry[order[0]]
		for _, i := range order[1:] {
			acc = ev.dryJoin(acc, dry[i], &cost)
		}
		return cost
	}
	best := append([]int(nil), written...)
	bestCost := chainCost(written)
	consider := func(order []int) {
		if c := chainCost(order); c < bestCost {
			bestCost = c
			copy(best, order)
		}
	}
	if len(leaves) <= 5 {
		permute(written, consider)
	} else {
		consider(greedyOrder(len(leaves), chainCost))
	}
	if sameIntSlices(best, firstN(len(leaves))) {
		return rebuildJoin(leaves, best)
	}
	out := rebuildJoin(leaves, best)
	cols, err := out.Schema()
	if err != nil || sameCols(cols, origCols) {
		return out
	}
	return algebra.Project{E: out, Cols: origCols}
}

func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sameIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// permute enumerates permutations of ord in deterministic order,
// calling fn with each (fn must copy if it keeps the slice).
func permute(ord []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(ord) {
			fn(ord)
			return
		}
		for i := k; i < len(ord); i++ {
			ord[k], ord[i] = ord[i], ord[k]
			rec(k + 1)
			ord[k], ord[i] = ord[i], ord[k]
		}
	}
	rec(0)
}

// greedyOrder builds one order by repeatedly appending the leaf that
// keeps the running chain cheapest (first index wins ties).
func greedyOrder(n int, cost func([]int) int64) []int {
	remaining := firstN(n)
	var order []int
	for len(remaining) > 0 {
		bestI, bestC := 0, int64(-1)
		for i := range remaining {
			cand := append(append([]int(nil), order...), remaining[i])
			c := cost(cand)
			if bestC < 0 || c < bestC {
				bestI, bestC = i, c
			}
		}
		order = append(order, remaining[bestI])
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
	}
	return order
}

// ---- the dry cost model ----

// dryPart mirrors part for costing: origin set and row bound only,
// plus the symbolic template body so π/σ narrow it exactly as
// evaluation would.
type dryPart struct {
	origins []int
	rows    int64
	tmpl    *tmplPart
}

type dryRel struct {
	cols  []string
	parts []dryPart
}

// staticCost prices a whole query on a fork of base: per-operator
// tabulation products plus the final assembly's, exactly the Est
// figures of plan.go.
func staticCost(base *evaluator, a query.Algebra) (int64, error) {
	ev := base.fork()
	var cost int64
	var all []dryPart
	for _, o := range a.Outs {
		d, err := ev.dryEval(o.Expr, &cost)
		if err != nil {
			return 0, err
		}
		all = append(all, d.parts...)
	}
	cost = satAdd(cost, dryAssembleCost(ev, all))
	return cost, nil
}

// dryAssembleCost mirrors assemble's grouping: correlated parts merge
// their origin spaces, one product per group.
func dryAssembleCost(ev *evaluator, parts []dryPart) int64 {
	uf := unionfind.NewDense(ev.n)
	for i := range parts {
		o := parts[i].origins
		for j := 1; j < len(o); j++ {
			uf.Union(int32(o[0]), int32(o[j]))
		}
	}
	groups := map[int32][]int{}
	for i := range parts {
		if len(parts[i].origins) == 0 {
			continue
		}
		r := uf.Find(int32(parts[i].origins[0]))
		groups[r] = mergeOrigins(groups[r], parts[i].origins)
	}
	var cost int64
	for _, origins := range groups {
		cost = satAdd(cost, ev.originsProduct(origins))
	}
	return cost
}

// dryEval propagates parts through e without tabulating anything,
// accumulating into cost the joint-space products evaluation would
// sweep. Synthetic choiceof axes are allocated on ev (each costing
// pass runs on its own fork of the planning base).
func (ev *evaluator) dryEval(e algebra.Expr, cost *int64) (dryRel, error) {
	switch n := e.(type) {
	case algebra.ConstRel:
		cols, err := n.Schema()
		if err != nil {
			return dryRel{}, err
		}
		if len(n.Rows) == 0 {
			return dryRel{cols: cols}, nil
		}
		return dryRel{cols: cols, parts: []dryPart{{rows: int64(len(n.Rows))}}}, nil

	case algebra.Rel:
		cols, err := n.Schema()
		if err != nil {
			return dryRel{}, err
		}
		real := ev.scanParts(n.Name)
		d := dryRel{cols: cols, parts: make([]dryPart, len(real))}
		for i := range real {
			p := &real[i]
			d.parts[i] = dryPart{origins: p.origins, rows: ev.rowsUB(p), tmpl: p.tmpl}
		}
		return d, nil

	case algebra.Project:
		in, err := ev.dryEval(n.E, cost)
		if err != nil {
			return dryRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dryRel{}, err
		}
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			idx[i] = indexOf(in.cols, c)
		}
		out := dryRel{cols: n.Cols}
		for _, p := range in.parts {
			if t := p.tmpl; t != nil {
				nt := &tmplPart{out: make([]tmplCol, len(idx)), preds: t.preds}
				for i, j := range idx {
					nt.out[i] = t.out[j]
				}
				origins := nt.unitsOf()
				out.parts = append(out.parts, dryPart{origins: origins,
					rows: ev.originsProduct(origins), tmpl: nt})
				continue
			}
			out.parts = append(out.parts, p)
		}
		return out, nil

	case algebra.Select:
		in, err := ev.dryEval(n.E, cost)
		if err != nil {
			return dryRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dryRel{}, err
		}
		preds, err := resolvePreds(n.Preds, in.cols)
		if err != nil {
			return dryRel{}, err
		}
		out := dryRel{cols: in.cols}
	dryParts:
		for _, p := range in.parts {
			if t := p.tmpl; t != nil {
				nt := &tmplPart{out: t.out, preds: append([]tmplPred(nil), t.preds...)}
				for _, rp := range preds {
					tp := tmplPred{eq: rp.eq,
						l: tmplColOf(t, rp.lIdx, rp.lConst),
						r: tmplColOf(t, rp.rIdx, rp.rCon)}
					if tp.l.unit < 0 && tp.r.unit < 0 {
						if tp.eq != (tp.l.constID == tp.r.constID) {
							continue dryParts
						}
						continue
					}
					nt.preds = append(nt.preds, tp)
				}
				origins := nt.unitsOf()
				out.parts = append(out.parts, dryPart{origins: origins,
					rows: ev.originsProduct(origins), tmpl: nt})
				continue
			}
			out.parts = append(out.parts, p)
		}
		return out, nil

	case algebra.Rename:
		in, err := ev.dryEval(n.E, cost)
		if err != nil {
			return dryRel{}, err
		}
		cols, err := n.Schema()
		if err != nil {
			return dryRel{}, err
		}
		return dryRel{cols: cols, parts: in.parts}, nil

	case algebra.Join:
		l, err := ev.dryEval(n.L, cost)
		if err != nil {
			return dryRel{}, err
		}
		r, err := ev.dryEval(n.R, cost)
		if err != nil {
			return dryRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dryRel{}, err
		}
		return ev.dryJoin(l, r, cost), nil

	case algebra.Union:
		l, err := ev.dryEval(n.L, cost)
		if err != nil {
			return dryRel{}, err
		}
		r, err := ev.dryEval(n.R, cost)
		if err != nil {
			return dryRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dryRel{}, err
		}
		return dryRel{cols: l.cols, parts: append(append([]dryPart(nil), l.parts...), r.parts...)}, nil

	case algebra.Diff:
		l, err := ev.dryEval(n.L, cost)
		if err != nil {
			return dryRel{}, err
		}
		r, err := ev.dryEval(n.R, cost)
		if err != nil {
			return dryRel{}, err
		}
		if _, err := n.Schema(); err != nil {
			return dryRel{}, err
		}
		if len(l.parts) == 0 || len(r.parts) == 0 {
			return l, nil
		}
		var rOrigins []int
		for i := range r.parts {
			rOrigins = mergeOrigins(rOrigins, r.parts[i].origins)
		}
		out := dryRel{cols: l.cols}
		for _, lp := range l.parts {
			origins := unionOrigins(lp.origins, rOrigins)
			*cost = satAdd(*cost, ev.originsProduct(origins))
			var extra []int
			for _, o := range rOrigins {
				if !containsInt(lp.origins, o) {
					extra = append(extra, o)
				}
			}
			out.parts = append(out.parts, dryPart{origins: origins,
				rows: satMul(lp.rows, ev.originsProduct(extra))})
		}
		return out, nil

	case algebra.Possible:
		in, err := ev.dryEval(n.E, cost)
		if err != nil {
			return dryRel{}, err
		}
		rows := drySupport(ev, &in, cost)
		if rows == 0 {
			return dryRel{cols: in.cols}, nil
		}
		return dryRel{cols: in.cols, parts: []dryPart{{rows: rows}}}, nil

	case algebra.Certain:
		in, err := ev.dryEval(n.E, cost)
		if err != nil {
			return dryRel{}, err
		}
		var rows int64
		for i := range in.parts {
			rows = satAdd(rows, in.parts[i].rows)
		}
		*cost = satAdd(*cost, dryAssembleCost(ev, in.parts))
		if rows == 0 {
			return dryRel{cols: in.cols}, nil
		}
		return dryRel{cols: in.cols, parts: []dryPart{{rows: rows}}}, nil

	case algebra.ChoiceOf:
		in, err := ev.dryEval(n.E, cost)
		if err != nil {
			return dryRel{}, err
		}
		support := drySupport(ev, &in, cost)
		if support == 0 {
			return dryRel{cols: in.cols}, nil
		}
		if support > int64(wsd.MaxMergeAlts) {
			support = int64(wsd.MaxMergeAlts) + 1
		}
		u := ev.addUnit(int(support))
		var origins []int
		for i := range in.parts {
			origins = mergeOrigins(origins, in.parts[i].origins)
		}
		all := mergeOrigins(origins, []int{u})
		prod := ev.originsProduct(all)
		*cost = satAdd(*cost, prod)
		return dryRel{cols: in.cols, parts: []dryPart{{origins: all, rows: prod}}}, nil
	}
	return dryRel{}, fmt.Errorf("wsdalg: unknown expression %T", e)
}

// dryJoin prices one pairwise-part join round, mirroring joinRels:
// the joint-space sweep plus the row-match work per pair (each joint
// alternative matches the sides' row sets against each other, so a
// selection pushed below the join shrinks this term — the quantity the
// planner's σ-pushdown exists to reduce).
func (ev *evaluator) dryJoin(l, r dryRel, cost *int64) dryRel {
	cols := append([]string(nil), l.cols...)
	for _, c := range r.cols {
		if indexOf(l.cols, c) < 0 {
			cols = append(cols, c)
		}
	}
	out := dryRel{cols: cols}
	for i := range l.parts {
		for j := range r.parts {
			origins := unionOrigins(l.parts[i].origins, r.parts[j].origins)
			rows := satMul(l.parts[i].rows, r.parts[j].rows)
			*cost = satAdd(*cost, satAdd(ev.originsProduct(origins), rows))
			out.parts = append(out.parts, dryPart{origins: origins, rows: rows})
		}
	}
	return out
}

// drySupport prices the support sweep of possible/choiceof (template
// parts sweep their origin space) and returns the support row bound.
func drySupport(ev *evaluator, in *dryRel, cost *int64) int64 {
	var rows int64
	for i := range in.parts {
		p := &in.parts[i]
		rows = satAdd(rows, p.rows)
		if p.tmpl != nil {
			*cost = satAdd(*cost, ev.originsProduct(p.origins))
		}
	}
	return rows
}
