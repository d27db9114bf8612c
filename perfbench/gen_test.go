package main

import (
	"bytes"
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pw/internal/difftest"
	"pw/internal/parse"
	"pw/internal/rel"
	"pw/internal/wsd"
)

// small is each workload scaled down to two groups with one Reading
// block each: a few thousand worlds, few enough to expand.
var small = scale{groups: 2, readBlocks: 1, pool: 300}

// dump serializes everything a workload sends and expects.
func dump(w *workload) []byte {
	var b bytes.Buffer
	b.WriteString(w.dbText)
	for _, rs := range [][]*request{w.reads, w.writes} {
		for _, r := range rs {
			fmt.Fprintf(&b, "%s %s %s %q\n", r.op, r.path, r.body, r.want)
		}
	}
	return b.Bytes()
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := generate(name, 7, small)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := generate(name, 7, small)
			c, _ := generate(name, 8, small)
			if !bytes.Equal(dump(a), dump(b)) {
				t.Error("same seed gave different bytes")
			}
			if bytes.Equal(dump(a), dump(c)) {
				t.Error("different seeds gave the same bytes")
			}
		})
	}
}

func TestFullSizeShape(t *testing.T) {
	for _, name := range workloadNames {
		w, err := generate(name, 1, scale{})
		if err != nil {
			t.Fatal(err)
		}
		if w.m.count().Cmp(big.NewInt(1<<20)) < 0 {
			t.Errorf("%s: %s worlds, want at least 2^20", name, w.count)
		}
		if name == "query-cold" {
			texts := map[string]bool{}
			for _, r := range w.reads {
				texts[r.text] = true
			}
			if len(texts) <= 512 {
				t.Errorf("query-cold: %d distinct query texts, want more than the 512-entry prepared cache", len(texts))
			}
		}
		var trues, bools int
		for _, r := range w.reads {
			if r.want[0] == "true" || r.want[0] == "false" {
				bools++
				if r.want[0] == "true" {
					trues++
				}
			}
		}
		if name == "probe-hot" && (trues*10 < bools*3 || trues*10 > bools*7) {
			t.Errorf("probe-hot: %d of %d fact probes true, want about half", trues, bools)
		}
	}
}

// toFacts converts an oracle instance to the model's facts.
func toFacts(i *rel.Instance) []fact {
	var out []fact
	for _, r := range i.Relations() {
		for _, f := range r.Facts() {
			out = append(out, fact{r.Name, append([]string(nil), f...)})
		}
	}
	return out
}

func parseInst(t *testing.T, text string) *rel.Instance {
	t.Helper()
	i, err := parse.ParseInstance(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return i
}

// TestAgainstExplicitWorlds checks every expected answer of each
// scaled-down workload against the explicit-worlds oracle: the printed
// database expanded world by world, queries evaluated on every world
// (after the write cycle's update where a state asks for it), probes
// decided by scanning the worlds.
func TestAgainstExplicitWorlds(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := generate(name, 3, small)
			if err != nil {
				t.Fatal(err)
			}
			d, err := parse.ParseWSD(strings.NewReader(w.dbText))
			if err != nil {
				t.Fatal(err)
			}
			worlds := d.Expand(0)
			if strconv.Itoa(len(worlds)) != w.count {
				t.Fatalf("model counts %s worlds, the printed database has %d", w.count, len(worlds))
			}
			var cases []*difftest.Case
			var backends []difftest.Ops
			// The model's decision procedures on difftest's own probes.
			cases = append(cases, &difftest.Case{Worlds: worlds, WSD: d, Consts: []string{"lo", "hi", "mid", "off"}})
			backends = append(backends, difftest.Ops{
				Member:   func(i *rel.Instance) (bool, error) { return w.m.member(toFacts(i)), nil },
				Possible: func(i *rel.Instance) (bool, error) { return w.m.possible(toFacts(i)), nil },
				Certain:  func(i *rel.Instance) (bool, error) { return w.m.certain(toFacts(i)), nil },
				Count:    func() (*big.Int, error) { return w.m.count(), nil },
			})
			seen := map[*request]bool{}
			for _, r := range w.reads {
				if seen[r] || r.text == "" || (r.op != "poss-ans" && r.op != "cert-ans") {
					continue
				}
				seen[r] = true
				q, err := parse.ParseQuery(strings.NewReader(r.text))
				if err != nil {
					t.Fatalf("%s: %v", r.text, err)
				}
				for st, want := range r.want {
					c := &difftest.Case{Tag: fmt.Sprintf("%s state %d", r.text, st), Worlds: worlds, Query: q}
					if st > 0 {
						u, err := parse.ParseUpdate(strings.NewReader(w.writes[2*(st-1)].text))
						if err != nil {
							t.Fatal(err)
						}
						c.Update = u
					}
					ans := parseInst(t, want)
					f := func() (*rel.Instance, error) { return ans, nil }
					ops := difftest.Ops{PossAns: f}
					if r.op == "cert-ans" {
						ops = difftest.Ops{CertAns: f}
					}
					cases = append(cases, c)
					backends = append(backends, ops)
				}
			}
			difftest.Run(t, difftest.Config{
				Tag:   name,
				Cases: len(cases),
				Gen: func(seed int64) (*difftest.Case, bool) {
					return cases[seed-1], true
				},
				Backends: []difftest.Backend{{Name: "generator", Make: func(c *difftest.Case) (*difftest.Ops, error) {
					for i := range cases {
						if cases[i] == c {
							return &backends[i], nil
						}
					}
					return nil, fmt.Errorf("unknown case %s", c.Tag)
				}}},
			})
			checkProbes(t, w, worlds)
			checkWrites(t, w, worlds)
		})
	}
}

// checkProbes decides every generated fact probe by scanning worlds.
func checkProbes(t *testing.T, w *workload, worlds []*rel.Instance) {
	t.Helper()
	for _, r := range w.reads {
		var want bool
		switch r.op {
		case "poss", "cert":
			p := parseInst(t, r.text)
			in := 0
			for _, x := range worlds {
				if p.SubsetOf(x) {
					in++
				}
			}
			want = in > 0
			if r.op == "cert" {
				want = in == len(worlds)
			}
		case "memb":
			p := parseInst(t, r.text)
			for _, x := range worlds {
				if p.Equal(x) {
					want = true
					break
				}
			}
		case "count":
			if r.want[0] != strconv.Itoa(len(worlds)) {
				t.Errorf("count: want %s, oracle has %d worlds", r.want[0], len(worlds))
			}
			continue
		default:
			continue
		}
		if r.want[0] != strconv.FormatBool(want) {
			t.Errorf("%s %q: generator says %s, oracle says %v", r.op, r.text, r.want[0], want)
		}
	}
}

// checkWrites applies the write cycle to the explicit worlds: each pair
// must restore the loaded world set, and every write keep the count.
func checkWrites(t *testing.T, w *workload, worlds []*rel.Instance) {
	t.Helper()
	key := func(ws []*rel.Instance) string {
		ks := make([]string, len(ws))
		for i, x := range ws {
			ks[i] = x.Key()
		}
		sort.Strings(ks)
		return strings.Join(ks, "|")
	}
	start, cur := key(worlds), worlds
	for i, r := range w.writes {
		u, err := parse.ParseUpdate(strings.NewReader(r.text))
		if err != nil {
			t.Fatal(err)
		}
		cur = wsd.ApplyUpdateToWorlds(cur, u)
		if strconv.Itoa(len(cur)) != r.want[0] {
			t.Errorf("write %d: %d worlds, want %s", i, len(cur), r.want[0])
		}
		if i%2 == 1 && key(cur) != start {
			t.Errorf("write %d does not restore the loaded world set", i)
		}
	}
}
