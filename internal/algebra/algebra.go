// Package algebra implements the positive existential queries of §2.1:
// relational expressions over project, natural join, union, renaming and
// positive select (plus, as an extension used by Theorems 3.2(4) and
// 5.2(2), selections with ≠). Expressions evaluate two ways:
//
//   - EvalInstance: ordinary evaluation on a complete-information instance,
//     with PTIME data-complexity;
//   - EvalTables: the lifted evaluation on conditioned tables following
//     Imielinski–Lipski [10], which rewrites a c-table database into a
//     c-table representing the query's view. This is the "algebraic
//     completeness of conditioned-tables" that Theorem 5.2(1) builds on:
//     rep(EvalTables(q, T)) = q(rep(T)), with only polynomial growth.
//
// Columns are named; base relations assign names positionally via Rel.
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/value"
)

// Operand is a column reference or a constant in a selection predicate.
type Operand struct {
	col     string
	k       string
	isConst bool
}

// Col references the named column.
func Col(name string) Operand { return Operand{col: name} }

// Lit references a constant.
func Lit(c string) Operand { return Operand{k: c, isConst: true} }

// Const returns the constant and true when the operand is a constant
// literal.
func (o Operand) Const() (string, bool) { return o.k, o.isConst }

// Column returns the column name and true when the operand is a column
// reference.
func (o Operand) Column() (string, bool) { return o.col, !o.isConst }

// String renders the operand.
func (o Operand) String() string {
	if o.isConst {
		return o.k
	}
	return "#" + o.col
}

// Pred is a selection predicate comparing two operands.
type Pred struct {
	Op   cond.Op
	L, R Operand
}

// EqP builds an equality predicate, NeqP an inequality one.
func EqP(l, r Operand) Pred  { return Pred{Op: cond.Eq, L: l, R: r} }
func NeqP(l, r Operand) Pred { return Pred{Op: cond.Neq, L: l, R: r} }

// String renders the predicate.
func (p Pred) String() string {
	return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R)
}

// Expr is a relational algebra expression.
type Expr interface {
	// Schema returns the output column names; column names within one
	// schema are unique.
	Schema() ([]string, error)
	// Positive reports whether the expression uses only the positive
	// operators (no ≠ in selections); positive expressions are preserved
	// under homomorphisms, which the certainty algorithms rely on.
	Positive() bool
	// Consts returns the constants mentioned in the expression.
	Consts() []string
	// String renders the expression.
	String() string
}

// Rel is a base relation scan assigning column names positionally.
type Rel struct {
	Name string
	Cols []string
}

// Scan builds a base-relation scan.
func Scan(name string, cols ...string) Rel { return Rel{Name: name, Cols: cols} }

func (r Rel) Schema() ([]string, error) {
	if err := uniqueCols(r.Cols); err != nil {
		return nil, fmt.Errorf("scan %s: %w", r.Name, err)
	}
	return r.Cols, nil
}
func (r Rel) Positive() bool   { return true }
func (r Rel) Consts() []string { return nil }
func (r Rel) String() string   { return fmt.Sprintf("%s(%s)", r.Name, strings.Join(r.Cols, ",")) }

// Project keeps the named columns, in the given order.
type Project struct {
	E    Expr
	Cols []string
}

func (p Project) Schema() ([]string, error) {
	in, err := p.E.Schema()
	if err != nil {
		return nil, err
	}
	for _, c := range p.Cols {
		if indexOf(in, c) < 0 {
			return nil, fmt.Errorf("project: column %s not in %v", c, in)
		}
	}
	if err := uniqueCols(p.Cols); err != nil {
		return nil, err
	}
	return p.Cols, nil
}
func (p Project) Positive() bool   { return p.E.Positive() }
func (p Project) Consts() []string { return p.E.Consts() }
func (p Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Cols, ","), p.E)
}

// Select filters by a conjunction of predicates.
type Select struct {
	E     Expr
	Preds []Pred
}

// Where is a convenience constructor.
func Where(e Expr, preds ...Pred) Select { return Select{E: e, Preds: preds} }

func (s Select) Schema() ([]string, error) {
	in, err := s.E.Schema()
	if err != nil {
		return nil, err
	}
	for _, p := range s.Preds {
		for _, o := range []Operand{p.L, p.R} {
			if !o.isConst && indexOf(in, o.col) < 0 {
				return nil, fmt.Errorf("select: column %s not in %v", o.col, in)
			}
		}
	}
	return in, nil
}
func (s Select) Positive() bool {
	for _, p := range s.Preds {
		if p.Op == cond.Neq {
			return false
		}
	}
	return s.E.Positive()
}
func (s Select) Consts() []string {
	out := s.E.Consts()
	for _, p := range s.Preds {
		for _, o := range []Operand{p.L, p.R} {
			if o.isConst {
				out = append(out, o.k)
			}
		}
	}
	return out
}
func (s Select) String() string {
	parts := make([]string, len(s.Preds))
	for i, p := range s.Preds {
		parts[i] = p.String()
	}
	return fmt.Sprintf("σ[%s](%s)", strings.Join(parts, " and "), s.E)
}

// Rename renames columns according to the mapping From[i] → To[i].
type Rename struct {
	E        Expr
	From, To []string
}

func (r Rename) Schema() ([]string, error) {
	in, err := r.E.Schema()
	if err != nil {
		return nil, err
	}
	if len(r.From) != len(r.To) {
		return nil, fmt.Errorf("rename: %d from-columns vs %d to-columns", len(r.From), len(r.To))
	}
	out := append([]string(nil), in...)
	for i, f := range r.From {
		j := indexOf(in, f)
		if j < 0 {
			return nil, fmt.Errorf("rename: column %s not in %v", f, in)
		}
		out[j] = r.To[i]
	}
	if err := uniqueCols(out); err != nil {
		return nil, err
	}
	return out, nil
}
func (r Rename) Positive() bool   { return r.E.Positive() }
func (r Rename) Consts() []string { return r.E.Consts() }
func (r Rename) String() string {
	pairs := make([]string, len(r.From))
	for i := range r.From {
		pairs[i] = r.From[i] + "→" + r.To[i]
	}
	return fmt.Sprintf("ρ[%s](%s)", strings.Join(pairs, ","), r.E)
}

// Join is the natural join on shared column names (cartesian product when
// the operands share no columns).
type Join struct {
	L, R Expr
}

func (j Join) Schema() ([]string, error) {
	ls, err := j.L.Schema()
	if err != nil {
		return nil, err
	}
	rs, err := j.R.Schema()
	if err != nil {
		return nil, err
	}
	out := append([]string(nil), ls...)
	for _, c := range rs {
		if indexOf(ls, c) < 0 {
			out = append(out, c)
		}
	}
	return out, nil
}
func (j Join) Positive() bool   { return j.L.Positive() && j.R.Positive() }
func (j Join) Consts() []string { return append(j.L.Consts(), j.R.Consts()...) }
func (j Join) String() string   { return fmt.Sprintf("(%s ⋈ %s)", j.L, j.R) }

// Union is set union; the operands must have identical schemas.
type Union struct {
	L, R Expr
}

func (u Union) Schema() ([]string, error) {
	ls, err := u.L.Schema()
	if err != nil {
		return nil, err
	}
	rs, err := u.R.Schema()
	if err != nil {
		return nil, err
	}
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("union: schemas %v and %v differ in arity", ls, rs)
	}
	for i := range ls {
		if ls[i] != rs[i] {
			return nil, fmt.Errorf("union: schemas %v and %v differ; rename first", ls, rs)
		}
	}
	return ls, nil
}
func (u Union) Positive() bool   { return u.L.Positive() && u.R.Positive() }
func (u Union) Consts() []string { return append(u.L.Consts(), u.R.Consts()...) }
func (u Union) String() string   { return fmt.Sprintf("(%s ∪ %s)", u.L, u.R) }

// UnionAll folds a list of expressions into nested unions; it panics on an
// empty list.
func UnionAll(es ...Expr) Expr {
	if len(es) == 0 {
		panic("algebra: UnionAll of nothing")
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Union{L: out, R: e}
	}
	return out
}

// JoinAll folds a list of expressions into nested natural joins.
func JoinAll(es ...Expr) Expr {
	if len(es) == 0 {
		panic("algebra: JoinAll of nothing")
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Join{L: out, R: e}
	}
	return out
}

// ConstRel is a literal constant relation (the VALUES of SQL). The paper's
// reduction queries use disjuncts like "… ∨ x = 0" to emit marker
// constants; with active-domain FO semantics those markers are always in
// the domain because the query mentions them, and ConstRel reproduces that
// behaviour algebraically.
type ConstRel struct {
	Cols []string
	Rows [][]string
}

// Values builds a one-column constant relation.
func Values(col string, consts ...string) ConstRel {
	rows := make([][]string, len(consts))
	for i, c := range consts {
		rows[i] = []string{c}
	}
	return ConstRel{Cols: []string{col}, Rows: rows}
}

func (c ConstRel) Schema() ([]string, error) {
	if err := uniqueCols(c.Cols); err != nil {
		return nil, err
	}
	for _, r := range c.Rows {
		if len(r) != len(c.Cols) {
			return nil, fmt.Errorf("constrel: row %v has arity %d, want %d", r, len(r), len(c.Cols))
		}
	}
	return c.Cols, nil
}
func (c ConstRel) Positive() bool { return true }
func (c ConstRel) Consts() []string {
	var out []string
	for _, r := range c.Rows {
		out = append(out, r...)
	}
	return out
}
func (c ConstRel) String() string {
	return fmt.Sprintf("values(%s)×%d", strings.Join(c.Cols, ","), len(c.Rows))
}

func indexOf(cols []string, c string) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	return -1
}

func uniqueCols(cols []string) error {
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return fmt.Errorf("algebra: duplicate column %s", c)
		}
		seen[c] = true
	}
	return nil
}

// SortedConsts returns the deduplicated sorted constants of e.
func SortedConsts(e Expr) []string {
	cs := e.Consts()
	sort.Strings(cs)
	out := cs[:0]
	var last string
	for i, c := range cs {
		if i == 0 || c != last {
			out = append(out, c)
		}
		last = c
	}
	return out
}

// MapChildren rebuilds e with f applied to each of its direct children,
// left before right, keeping e's own arguments (columns, predicates,
// renamings). Scans and constant relations have no children and are
// returned as they are. It is the shared recursion of bottom-up
// rewrites.
func MapChildren(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case Project:
		return Project{E: f(n.E), Cols: n.Cols}
	case Select:
		return Select{E: f(n.E), Preds: n.Preds}
	case Rename:
		return Rename{E: f(n.E), From: n.From, To: n.To}
	case Join:
		return Join{L: f(n.L), R: f(n.R)}
	case Union:
		return Union{L: f(n.L), R: f(n.R)}
	case Diff:
		return Diff{L: f(n.L), R: f(n.R)}
	case Possible:
		return Possible{E: f(n.E)}
	case Certain:
		return Certain{E: f(n.E)}
	case ChoiceOf:
		return ChoiceOf{E: f(n.E)}
	}
	return e
}

// ensure interface satisfaction (compile-time checks).
var (
	_ Expr = Rel{}
	_ Expr = Project{}
	_ Expr = Select{}
	_ Expr = Rename{}
	_ Expr = Join{}
	_ Expr = Union{}
	_ Expr = ConstRel{}
)

// instRows is the intermediate result of instance evaluation: named columns
// over a set of interned tuples deduplicated by fingerprint (exact-equality
// buckets guard against collisions). Tuples added are owned by the result
// or shared read-only with the input they came from.
type instRows struct {
	cols []string
	rows []sym.Tuple
	seen map[uint64][]int32
}

func newInstRows(cols []string) *instRows {
	return &instRows{cols: cols, seen: make(map[uint64][]int32)}
}

func (ir *instRows) add(t sym.Tuple) {
	h := sym.HashIDs(t)
	for _, i := range ir.seen[h] {
		if ir.rows[i].Equal(t) {
			return
		}
	}
	ir.seen[h] = append(ir.seen[h], int32(len(ir.rows)))
	ir.rows = append(ir.rows, t)
}

func (ir *instRows) contains(t sym.Tuple) bool {
	for _, i := range ir.seen[sym.HashIDs(t)] {
		if ir.rows[i].Equal(t) {
			return true
		}
	}
	return false
}

// EvalInstance evaluates e on a complete-information instance, returning
// the result's column names and facts (resolved to names at this boundary,
// in canonical order).
func EvalInstance(e Expr, inst *rel.Instance) ([]string, []rel.Fact, error) {
	ir, err := evalInst(e, inst)
	if err != nil {
		return nil, nil, err
	}
	out := make([]rel.Fact, 0, len(ir.rows))
	for _, t := range ir.rows {
		out = append(out, rel.ResolveFact(t))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return ir.cols, out, nil
}

// EvalToRelation evaluates e and packages the result as a named relation,
// staying in interned form end to end.
func EvalToRelation(e Expr, inst *rel.Instance, name string) (*rel.Relation, error) {
	ir, err := evalInst(e, inst)
	if err != nil {
		return nil, err
	}
	r := rel.NewRelation(name, len(ir.cols))
	for _, t := range ir.rows {
		r.Insert(t)
	}
	return r, nil
}

func evalInst(e Expr, inst *rel.Instance) (*instRows, error) {
	switch n := e.(type) {
	case ConstRel:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		out := newInstRows(cols)
		for _, r := range n.Rows {
			out.add(rel.Fact(r).Intern())
		}
		return out, nil

	case Rel:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		base := inst.Relation(n.Name)
		if base == nil {
			return nil, fmt.Errorf("algebra: relation %s not in instance", n.Name)
		}
		if base.Arity != len(cols) {
			return nil, fmt.Errorf("algebra: scan %s names %d columns, relation has arity %d",
				n.Name, len(cols), base.Arity)
		}
		out := newInstRows(cols)
		for _, t := range base.Tuples() {
			out.add(t)
		}
		return out, nil

	case Project:
		in, err := evalInst(n.E, inst)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		return projectRows(in, n.Cols), nil

	case Select:
		in, err := evalInst(n.E, inst)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		return selectRows(in, n.Preds), nil

	case Rename:
		in, err := evalInst(n.E, inst)
		if err != nil {
			return nil, err
		}
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		return renameRows(in, cols), nil

	case Join:
		l, err := evalInst(n.L, inst)
		if err != nil {
			return nil, err
		}
		r, err := evalInst(n.R, inst)
		if err != nil {
			return nil, err
		}
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		return joinRows(l, r, cols), nil

	case Union:
		l, err := evalInst(n.L, inst)
		if err != nil {
			return nil, err
		}
		r, err := evalInst(n.R, inst)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		return unionRows(l, r), nil

	case Diff:
		l, err := evalInst(n.L, inst)
		if err != nil {
			return nil, err
		}
		r, err := evalInst(n.R, inst)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		return diffRows(l, r), nil

	case Possible, Certain, ChoiceOf:
		return nil, fmt.Errorf("%w: %s", ErrWorldSetOp, e)
	}
	return nil, fmt.Errorf("algebra: unknown expression %T", e)
}

// Row-level kernels shared by single-instance evaluation and the explicit
// world-set evaluator (worldset.go). Callers have already checked the
// schema, so column lookups cannot fail.

func projectRows(in *instRows, cols []string) *instRows {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = indexOf(in.cols, c)
	}
	out := newInstRows(cols)
	for _, f := range in.rows {
		g := make(sym.Tuple, len(idx))
		for i, j := range idx {
			g[i] = f[j]
		}
		out.add(g)
	}
	return out
}

func selectRows(in *instRows, npreds []Pred) *instRows {
	// Resolve predicate operands once: a column index or an interned
	// constant, so the row loop is pure ID comparison.
	type resolved struct {
		op           cond.Op
		lIdx, rIdx   int
		lConst, rCon sym.ID
	}
	preds := make([]resolved, len(npreds))
	for i, p := range npreds {
		preds[i] = resolved{op: p.Op, lIdx: -1, rIdx: -1}
		if p.L.isConst {
			preds[i].lConst = sym.Const(p.L.k)
		} else {
			preds[i].lIdx = indexOf(in.cols, p.L.col)
		}
		if p.R.isConst {
			preds[i].rCon = sym.Const(p.R.k)
		} else {
			preds[i].rIdx = indexOf(in.cols, p.R.col)
		}
	}
	out := newInstRows(in.cols)
	for _, f := range in.rows {
		ok := true
		for _, p := range preds {
			l, r := p.lConst, p.rCon
			if p.lIdx >= 0 {
				l = f[p.lIdx]
			}
			if p.rIdx >= 0 {
				r = f[p.rIdx]
			}
			if (p.op == cond.Eq) != (l == r) {
				ok = false
				break
			}
		}
		if ok {
			out.add(f)
		}
	}
	return out
}

func renameRows(in *instRows, cols []string) *instRows {
	out := newInstRows(cols)
	for _, f := range in.rows {
		out.add(f)
	}
	return out
}

func joinRows(l, r *instRows, cols []string) *instRows {
	// Positions of shared columns.
	var lShared, rShared []int
	var rExtra []int
	for j, c := range r.cols {
		if i := indexOf(l.cols, c); i >= 0 {
			lShared = append(lShared, i)
			rShared = append(rShared, j)
		} else {
			rExtra = append(rExtra, j)
		}
	}
	// Hash the right side on shared-column IDs; probe hits are verified
	// component-wise (the hash is a fingerprint, not an identity).
	joinKey := func(t sym.Tuple, at []int) uint64 {
		h := uint64(1469598103934665603)
		for _, j := range at {
			h ^= uint64(t[j])
			h *= 1099511628211
		}
		return h
	}
	index := make(map[uint64][]sym.Tuple, len(r.rows))
	for _, rf := range r.rows {
		k := joinKey(rf, rShared)
		index[k] = append(index[k], rf)
	}
	out := newInstRows(cols)
	for _, lf := range l.rows {
	probe:
		for _, rf := range index[joinKey(lf, lShared)] {
			for k := range lShared {
				if lf[lShared[k]] != rf[rShared[k]] {
					continue probe
				}
			}
			g := make(sym.Tuple, 0, len(cols))
			g = append(g, lf...)
			for _, j := range rExtra {
				g = append(g, rf[j])
			}
			out.add(g)
		}
	}
	return out
}

func unionRows(l, r *instRows) *instRows {
	out := newInstRows(l.cols)
	for _, f := range l.rows {
		out.add(f)
	}
	for _, f := range r.rows {
		out.add(f)
	}
	return out
}

func diffRows(l, r *instRows) *instRows {
	out := newInstRows(l.cols)
	for _, f := range l.rows {
		if !r.contains(f) {
			out.add(f)
		}
	}
	return out
}

func intersectRows(l, r *instRows) *instRows {
	out := newInstRows(l.cols)
	for _, f := range l.rows {
		if r.contains(f) {
			out.add(f)
		}
	}
	return out
}

// liftRows is the intermediate result of lifted evaluation: named columns
// over conditioned rows (values may contain variables).
type liftRows struct {
	cols []string
	rows []table.Row
}

// EvalTables evaluates e on a conditioned-table database, producing the
// rows and columns of a c-table representing {q(I) : I ∈ rep(d)}; the
// caller attaches the database's global condition. Rows whose local
// condition is unsatisfiable are pruned.
func EvalTables(e Expr, d *table.Database) ([]string, []table.Row, error) {
	lr, err := evalLift(e, d)
	if err != nil {
		return nil, nil, err
	}
	return lr.cols, lr.rows, nil
}

// EvalToTable evaluates e on d and packages the result as a named c-table
// carrying d's combined global condition.
func EvalToTable(e Expr, d *table.Database, name string) (*table.Table, error) {
	cols, rows, err := EvalTables(e, d)
	if err != nil {
		return nil, err
	}
	t := table.New(name, len(cols))
	t.Global = d.GlobalConjunction().Clone()
	for _, r := range rows {
		t.Add(r)
	}
	return t, nil
}

func evalLift(e Expr, d *table.Database) (*liftRows, error) {
	switch n := e.(type) {
	case ConstRel:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		out := &liftRows{cols: cols}
		for _, r := range n.Rows {
			vals := make(value.Tuple, len(r))
			for i, c := range r {
				vals[i] = value.Const(c)
			}
			out.rows = append(out.rows, table.Row{Values: vals})
		}
		return out, nil

	case Rel:
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		base := d.Table(n.Name)
		if base == nil {
			return nil, fmt.Errorf("algebra: table %s not in database", n.Name)
		}
		if base.Arity != len(cols) {
			return nil, fmt.Errorf("algebra: scan %s names %d columns, table has arity %d",
				n.Name, len(cols), base.Arity)
		}
		out := &liftRows{cols: cols}
		for _, r := range base.Rows {
			out.rows = append(out.rows, r.Clone())
		}
		return out, nil

	case Project:
		in, err := evalLift(n.E, d)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			idx[i] = indexOf(in.cols, c)
		}
		out := &liftRows{cols: n.Cols}
		for _, r := range in.rows {
			vals := make(value.Tuple, len(idx))
			for i, j := range idx {
				vals[i] = r.Values[j]
			}
			out.rows = append(out.rows, table.Row{Values: vals, Cond: r.Cond})
		}
		out.dedupe()
		return out, nil

	case Select:
		in, err := evalLift(n.E, d)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		out := &liftRows{cols: in.cols}
		for _, r := range in.rows {
			c := r.Cond.Clone()
			for _, p := range n.Preds {
				l := operandLifted(p.L, in.cols, r)
				rv := operandLifted(p.R, in.cols, r)
				c = append(c, cond.Atom{Op: p.Op, L: l, R: rv})
			}
			if !c.Satisfiable() {
				continue
			}
			out.rows = append(out.rows, table.Row{Values: r.Values, Cond: c.Normalize()})
		}
		return out, nil

	case Rename:
		in, err := evalLift(n.E, d)
		if err != nil {
			return nil, err
		}
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		return &liftRows{cols: cols, rows: in.rows}, nil

	case Join:
		l, err := evalLift(n.L, d)
		if err != nil {
			return nil, err
		}
		r, err := evalLift(n.R, d)
		if err != nil {
			return nil, err
		}
		cols, err := n.Schema()
		if err != nil {
			return nil, err
		}
		var lShared, rShared, rExtra []int
		for j, c := range r.cols {
			if i := indexOf(l.cols, c); i >= 0 {
				lShared = append(lShared, i)
				rShared = append(rShared, j)
			} else {
				rExtra = append(rExtra, j)
			}
		}
		out := &liftRows{cols: cols}
		for _, lr := range l.rows {
			for _, rr := range r.rows {
				c := lr.Cond.And(rr.Cond)
				ok := true
				vals := make(value.Tuple, 0, len(cols))
				vals = append(vals, lr.Values...)
				for k := range lShared {
					lv, rv := lr.Values[lShared[k]], rr.Values[rShared[k]]
					if lv == rv {
						continue
					}
					// Prefer the constant in the output position.
					if lv.IsVar() && rv.IsConst() {
						vals[lShared[k]] = rv
					}
					c = append(c, cond.EqAtom(lv, rv))
				}
				for _, j := range rExtra {
					vals = append(vals, rr.Values[j])
				}
				if !c.Satisfiable() {
					ok = false
				}
				if ok {
					out.rows = append(out.rows, table.Row{Values: vals, Cond: c.Normalize()})
				}
			}
		}
		out.dedupe()
		return out, nil

	case Union:
		l, err := evalLift(n.L, d)
		if err != nil {
			return nil, err
		}
		r, err := evalLift(n.R, d)
		if err != nil {
			return nil, err
		}
		if _, err := n.Schema(); err != nil {
			return nil, err
		}
		out := &liftRows{cols: l.cols}
		out.rows = append(out.rows, l.rows...)
		out.rows = append(out.rows, r.rows...)
		out.dedupe()
		return out, nil

	case Diff:
		// Conditioned-table lifting covers the positive existential
		// fragment (plus ≠ selections); difference needs universal
		// conditions. Decomposition-native evaluation (internal/wsdalg)
		// handles it instead.
		return nil, fmt.Errorf("algebra: %s is outside the liftable fragment", e)

	case Possible, Certain, ChoiceOf:
		// Not per-world maps at all: only a world-set backend (a
		// decomposition) can apply them.
		return nil, fmt.Errorf("%w: %s needs a decomposition backend", ErrWorldSetOp, e)
	}
	return nil, fmt.Errorf("algebra: unknown expression %T", e)
}

func operandLifted(o Operand, cols []string, r table.Row) value.Value {
	if o.isConst {
		return value.Const(o.k)
	}
	return r.Values[indexOf(cols, o.col)]
}

// dedupe removes rows with identical values and conditions (a safe,
// purely syntactic reduction; semantic duplicates are harmless).
func (lr *liftRows) dedupe() {
	seen := make(map[string]bool, len(lr.rows))
	out := lr.rows[:0]
	for _, r := range lr.rows {
		k := r.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	lr.rows = out
}
