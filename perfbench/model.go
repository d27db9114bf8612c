package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strings"
)

// The benchmark's own model of a world-set decomposition. The generator
// builds a database as a product of independent blocks with pairwise
// disjoint supports, so every answer the benchmark expects follows from
// the construction: a world picks one alternative per block, the world
// count is the product of the alternative counts, and a question about
// facts reduces to a question about the blocks that own them. Nothing
// here calls the engine under test.

// fact is one ground fact Rel(args...).
type fact struct {
	rel  string
	args []string
}

func (f fact) key() string { return f.rel + "(" + strings.Join(f.args, " ") + ")" }

// block is one independent component. A template block (attribute
// level) is printed as one tmpl: line whose alternatives are the cross
// product of its slot lists; alts holds that expansion either way.
type block struct {
	group int        // owning group
	alts  [][]fact   // the alternatives, each a set of facts
	slots [][]string // template slots; nil for a tuple-level block
	keys  []map[string]bool
}

// relDecl is one relation of the schema.
type relDecl struct {
	name  string
	arity int
}

// model is a generated decomposition: groups of blocks over a fixed
// schema. Every fact of a group carries the group name in its first
// column, which is what lets a query that filters on one group be
// answered from that group's blocks alone.
type model struct {
	schema []relDecl
	groups []string
	blocks []block
	byGrp  [][]int         // group → its block indexes
	owner  map[string]int  // fact key → owning block
	rels   map[string]bool // relation names
}

func newModel(schema []relDecl) *model {
	m := &model{schema: schema, owner: map[string]int{}, rels: map[string]bool{}}
	for _, r := range schema {
		m.rels[r.name] = true
	}
	return m
}

func (m *model) addGroup(name string) int {
	m.groups = append(m.groups, name)
	m.byGrp = append(m.byGrp, nil)
	return len(m.groups) - 1
}

// addBlock registers a block; supports must be disjoint and alternatives
// distinct, which the generator guarantees and this checks.
func (m *model) addBlock(b block) {
	idx := len(m.blocks)
	seen := map[string]bool{}
	b.keys = make([]map[string]bool, len(b.alts))
	for ai, alt := range b.alts {
		ks := make([]string, len(alt))
		b.keys[ai] = make(map[string]bool, len(alt))
		for i, f := range alt {
			k := f.key()
			ks[i] = k
			b.keys[ai][k] = true
			if o, ok := m.owner[k]; ok && o != idx {
				panic("perfbench: fact " + k + " in two blocks")
			}
			m.owner[k] = idx
		}
		sort.Strings(ks)
		sig := strings.Join(ks, ",")
		if seen[sig] {
			panic("perfbench: duplicate alternative " + sig)
		}
		seen[sig] = true
	}
	m.blocks = append(m.blocks, b)
	m.byGrp[b.group] = append(m.byGrp[b.group], idx)
}

// addTemplate registers an attribute-level block: one fact template
// whose alternatives are the cross product of the slot lists.
func (m *model) addTemplate(group int, rel string, slots ...[]string) {
	alts := [][]fact{{{rel: rel}}}
	for _, s := range slots {
		var next [][]fact
		for _, a := range alts {
			for _, v := range s {
				args := append(append([]string(nil), a[0].args...), v)
				next = append(next, []fact{{rel: rel, args: args}})
			}
		}
		alts = next
	}
	m.addBlock(block{group: group, alts: alts, slots: slots})
}

// count is the number of worlds: the product of the alternative counts.
func (m *model) count() *big.Int {
	n := big.NewInt(1)
	for _, b := range m.blocks {
		n.Mul(n, big.NewInt(int64(len(b.alts))))
	}
	return n
}

// text prints the model as a .pw @wsd block.
func (m *model) text() string {
	var b strings.Builder
	b.WriteString("@wsd\n")
	for _, r := range m.schema {
		fmt.Fprintf(&b, "  relation: %s(%d)\n", r.name, r.arity)
	}
	for _, bl := range m.blocks {
		b.WriteString("  component:\n")
		if bl.slots != nil {
			rel := bl.alts[0][0].rel
			parts := make([]string, len(bl.slots))
			for i, s := range bl.slots {
				if len(s) == 1 {
					parts[i] = s[0]
				} else {
					parts[i] = "{" + strings.Join(s, "|") + "}"
				}
			}
			fmt.Fprintf(&b, "    tmpl: %s(%s)\n", rel, strings.Join(parts, " "))
			continue
		}
		for _, alt := range bl.alts {
			keys := make([]string, len(alt))
			for i, f := range alt {
				keys[i] = f.key()
			}
			fmt.Fprintf(&b, "    alt: %s\n", strings.Join(keys, ", "))
		}
	}
	return b.String()
}

// byBlock splits facts by owning block; ok is false when some fact is
// outside the support.
func (m *model) byBlock(fs []fact) (map[int][]string, bool) {
	out := map[int][]string{}
	for _, f := range fs {
		bi, ok := m.owner[f.key()]
		if !ok {
			return nil, false
		}
		out[bi] = append(out[bi], f.key())
	}
	return out, true
}

// possible: some world holds every fact, i.e. every block owning some of
// them has one alternative holding all it owns.
func (m *model) possible(fs []fact) bool {
	per, ok := m.byBlock(fs)
	if !ok {
		return false
	}
	for bi, ks := range per {
		if !m.someAlt(bi, func(alt map[string]bool) bool { return holdsAll(alt, ks) }) {
			return false
		}
	}
	return true
}

// certain: every world holds every fact, i.e. each fact is in every
// alternative of its block.
func (m *model) certain(fs []fact) bool {
	per, ok := m.byBlock(fs)
	if !ok {
		return false
	}
	for bi, ks := range per {
		for _, alt := range m.blocks[bi].keys {
			if !holdsAll(alt, ks) {
				return false
			}
		}
	}
	return true
}

// member: the facts are exactly one world, i.e. inside each block they
// are exactly one alternative (the empty one where the block is absent).
func (m *model) member(fs []fact) bool {
	per, ok := m.byBlock(fs)
	if !ok {
		return false
	}
	for bi := range m.blocks {
		ks := dedup(per[bi])
		if !m.someAlt(bi, func(alt map[string]bool) bool { return len(alt) == len(ks) && holdsAll(alt, ks) }) {
			return false
		}
	}
	return true
}

func (m *model) someAlt(bi int, pred func(map[string]bool) bool) bool {
	for _, alt := range m.blocks[bi].keys {
		if pred(alt) {
			return true
		}
	}
	return false
}

func holdsAll(set map[string]bool, ks []string) bool {
	for _, k := range ks {
		if !set[k] {
			return false
		}
	}
	return true
}

func dedup(ks []string) []string {
	seen := make(map[string]bool, len(ks))
	out := ks[:0:0]
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// randomWorld picks one alternative per block.
func (m *model) randomWorld(rng *rand.Rand) []fact {
	var out []fact
	for _, b := range m.blocks {
		out = append(out, b.alts[rng.Intn(len(b.alts))]...)
	}
	return out
}

// groupWorlds enumerates the worlds of one group's blocks, each world
// passed through rename (nil: unchanged). A query whose every base scan
// keeps only that group's facts has the same answer on these worlds as
// on the whole world set, because the other blocks are independent of
// them and contribute nothing the query keeps.
func (m *model) groupWorlds(g int, rename func(fact) fact) [][]fact {
	worlds := [][]fact{nil}
	for _, bi := range m.byGrp[g] {
		var next [][]fact
		for _, w := range worlds {
			for _, alt := range m.blocks[bi].alts {
				nw := append(append([]fact(nil), w...), alt...)
				next = append(next, nw)
			}
		}
		worlds = next
	}
	if rename != nil {
		for _, w := range worlds {
			for i := range w {
				w[i] = rename(w[i])
			}
		}
	}
	return worlds
}

// instanceText prints facts as a .pw instance. With all set, every
// relation of the schema is declared, even with no facts (a membership
// probe must match the schema).
func (m *model) instanceText(fs []fact, all bool) string {
	byRel := map[string][]string{}
	for _, f := range fs {
		byRel[f.rel] = append(byRel[f.rel], strings.Join(f.args, " "))
	}
	var b strings.Builder
	for _, r := range m.schema {
		rows := byRel[r.name]
		if len(rows) == 0 && !all {
			continue
		}
		fmt.Fprintf(&b, "@relation %s(%d)\n", r.name, r.arity)
		for _, row := range rows {
			fmt.Fprintf(&b, "  fact: %s\n", row)
		}
	}
	return b.String()
}
