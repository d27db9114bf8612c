package main

import (
	"fmt"
	"sort"
	"strings"
)

// The benchmark's own relational algebra: it prints each generated
// query in the @query grammar the server parses, and evaluates it
// naively on explicit worlds to derive the expected answer. The
// operators are the ones the workloads use: σ (equality with a
// constant), π, natural ⋈, ∪, per-world ∖, and the world-set
// operators possible and certain.

type expr interface {
	cols() []string
	text() string
}

type (
	scanE struct {
		rel string
		cs  []string
	}
	// selE keeps the rows where every column in eq holds its constant.
	selE struct {
		e  expr
		eq [][2]string // column, constant
	}
	projE struct {
		e  expr
		cs []string
	}
	joinE  struct{ l, r expr }
	unionE struct{ l, r expr }
	diffE  struct{ l, r expr }
	possE  struct{ e expr }
	certE  struct{ e expr }
)

func (s *scanE) cols() []string  { return s.cs }
func (s *selE) cols() []string   { return s.e.cols() }
func (p *projE) cols() []string  { return p.cs }
func (u *unionE) cols() []string { return u.l.cols() }
func (d *diffE) cols() []string  { return d.l.cols() }
func (p *possE) cols() []string  { return p.e.cols() }
func (c *certE) cols() []string  { return c.e.cols() }
func (j *joinE) cols() []string {
	out := append([]string(nil), j.l.cols()...)
	for _, c := range j.r.cols() {
		if indexOf(out, c) < 0 {
			out = append(out, c)
		}
	}
	return out
}

func (s *scanE) text() string { return s.rel + "(" + strings.Join(s.cs, " ") + ")" }
func (s *selE) text() string {
	parts := make([]string, len(s.eq))
	for i, p := range s.eq {
		parts[i] = "#" + p[0] + " = " + p[1]
	}
	return "select[" + strings.Join(parts, ", ") + "](" + s.e.text() + ")"
}
func (p *projE) text() string  { return "project[" + strings.Join(p.cs, ", ") + "](" + p.e.text() + ")" }
func (j *joinE) text() string  { return "join(" + j.l.text() + ", " + j.r.text() + ")" }
func (u *unionE) text() string { return "union(" + u.l.text() + ", " + u.r.text() + ")" }
func (d *diffE) text() string  { return "diff(" + d.l.text() + ", " + d.r.text() + ")" }
func (p *possE) text() string  { return "possible(" + p.e.text() + ")" }
func (c *certE) text() string  { return "certain(" + c.e.text() + ")" }

func indexOf(xs []string, x string) int {
	for i, y := range xs {
		if y == x {
			return i
		}
	}
	return -1
}

// queryText is the @query block asking for out = e.
func queryText(name string, e expr) string {
	return fmt.Sprintf("@query %s\n  out: A = %s\n", name, e.text())
}

// rows is a set of tuples keyed by their \x00-joined form.
type rows map[string][]string

func (r rows) add(t []string) { r[strings.Join(t, "\x00")] = t }

// naiveEval evaluates expressions world by world over an explicit world
// list; possible/certain take the union/intersection over all worlds.
type naiveEval struct {
	worlds []map[string][][]string
	memo   map[expr]rows // world-set operator results (world independent)
}

func newNaiveEval(worlds [][]fact) *naiveEval {
	ev := &naiveEval{memo: map[expr]rows{}}
	for _, w := range worlds {
		byRel := map[string][][]string{}
		for _, f := range w {
			byRel[f.rel] = append(byRel[f.rel], f.args)
		}
		ev.worlds = append(ev.worlds, byRel)
	}
	return ev
}

func (ev *naiveEval) eval(e expr, wi int) rows {
	out := rows{}
	switch e := e.(type) {
	case *scanE:
		for _, t := range ev.worlds[wi][e.rel] {
			out.add(t)
		}
	case *selE:
		in := ev.eval(e.e, wi)
		cs := e.e.cols()
	rowLoop:
		for _, t := range in {
			for _, p := range e.eq {
				if t[indexOf(cs, p[0])] != p[1] {
					continue rowLoop
				}
			}
			out.add(t)
		}
	case *projE:
		cs := e.e.cols()
		for _, t := range ev.eval(e.e, wi) {
			nt := make([]string, len(e.cs))
			for i, c := range e.cs {
				nt[i] = t[indexOf(cs, c)]
			}
			out.add(nt)
		}
	case *joinE:
		lc, rc := e.l.cols(), e.r.cols()
		l, r := ev.eval(e.l, wi), ev.eval(e.r, wi)
		for _, a := range l {
		pair:
			for _, b := range r {
				nt := append([]string(nil), a...)
				for j, c := range rc {
					if i := indexOf(lc, c); i >= 0 {
						if a[i] != b[j] {
							continue pair
						}
						continue
					}
					nt = append(nt, b[j])
				}
				out.add(nt)
			}
		}
	case *unionE:
		for k, t := range ev.eval(e.l, wi) {
			out[k] = t
		}
		for k, t := range ev.eval(e.r, wi) {
			out[k] = t
		}
	case *diffE:
		r := ev.eval(e.r, wi)
		for k, t := range ev.eval(e.l, wi) {
			if _, ok := r[k]; !ok {
				out[k] = t
			}
		}
	case *possE, *certE:
		return ev.collapse(e)
	default:
		panic(fmt.Sprintf("perfbench: unknown expression %T", e))
	}
	return out
}

// collapse evaluates a world-set operator once over every world.
func (ev *naiveEval) collapse(e expr) rows {
	if r, ok := ev.memo[e]; ok {
		return r
	}
	var inner expr
	_, union := e.(*possE)
	if union {
		inner = e.(*possE).e
	} else {
		inner = e.(*certE).e
	}
	var out rows
	for wi := range ev.worlds {
		out = combine(out, ev.eval(inner, wi), union, wi == 0)
	}
	if out == nil {
		out = rows{}
	}
	ev.memo[e] = out
	return out
}

// combine folds one world's rows into the running union or intersection.
func combine(acc, next rows, union, first bool) rows {
	if first {
		return next
	}
	if union {
		for k, t := range next {
			acc[k] = t
		}
		return acc
	}
	for k := range acc {
		if _, ok := next[k]; !ok {
			delete(acc, k)
		}
	}
	return acc
}

// answers are the possible (union) or certain (intersection) answers of
// e over the evaluator's worlds.
func (ev *naiveEval) answers(e expr, possible bool) rows {
	var out rows
	for wi := range ev.worlds {
		out = combine(out, ev.eval(e, wi), possible, wi == 0)
	}
	if out == nil {
		out = rows{}
	}
	return out
}

// canonAnswer is the canonical text of an answer relation A: the
// header, then the facts sorted. canonInstance brings a server
// response into the same form.
func canonAnswer(arity int, r rows) string {
	lines := make([]string, 0, len(r))
	for _, t := range r {
		lines = append(lines, "  fact: "+strings.Join(t, " "))
	}
	sort.Strings(lines)
	return fmt.Sprintf("@relation A(%d)\n", arity) + strings.Join(lines, "\n")
}

// canonInstance canonicalizes printed instance text: relations in
// order of appearance, each relation's fact lines sorted.
func canonInstance(text string) string {
	var b strings.Builder
	var facts []string
	flush := func() {
		sort.Strings(facts)
		b.WriteString(strings.Join(facts, "\n"))
		facts = facts[:0]
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "@relation"):
			if b.Len() > 0 || len(facts) > 0 {
				flush()
				b.WriteString("\n")
			}
			b.WriteString(line + "\n")
		default:
			facts = append(facts, "  "+line)
		}
	}
	flush()
	return b.String()
}
