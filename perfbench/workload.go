package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
)

// dbName is the name every workload's database is served under.
const dbName = "main"

// request is one request of a workload stream with the answer the
// generator expects for it.
type request struct {
	op   string
	path string // "/query" or "/update?db=main"
	body []byte // the HTTP body as sent
	text string // the instance, query or update text the request carries
	// want is the expected canonical answer, indexed by database state
	// (see stateOf); reads of a workload without writes have one state.
	want []string
}

// workload is one generated traffic mix.
type workload struct {
	name   string
	m      *model
	dbText string
	count  string // world count; every write cycle keeps it
	// reads is cycled by the load runner; writes is the write cycle,
	// applied strictly in order (each write expects the next version).
	reads  []*request
	writes []*request
	// openRate > 0 makes the run an open loop at that many requests per
	// second, with every writeEvery-th request a write; 0 is a closed
	// loop of one client, each read window followed by writeChunk timed
	// writes.
	openRate   float64
	writeEvery int
	writeChunk int
	// tracePrefix is the number of stream requests the traced run
	// replays (plus the first traceWrites writes of the cycle).
	tracePrefix int
	traceWrites int
	// renamed is the number of groups the write cycle renames in turn.
	renamed int
}

var workloadNames = []string{"probe-hot", "query-cold", "write-mix"}

// shape sizes a generated database: per group, a certain Zone block,
// readBlocks tuple-level Reading blocks over sensorsPerBlock sensors
// each (3 correlated alternatives), locs attribute-level Loc templates
// over rooms-1 of the group's rooms, and one maybe-present sensor.
type shape struct {
	groups, readBlocks, sensorsPerBlock, locs, rooms int
}

var values = []string{"lo", "mid", "hi"}

func groupName(g int) string   { return fmt.Sprintf("g%03d", g) }
func renamedName(g int) string { return fmt.Sprintf("h%03d", g) }

func buildModel(rng *rand.Rand, sh shape) *model {
	m := newModel([]relDecl{{"Reading", 3}, {"Loc", 3}, {"Zone", 3}})
	for g := 0; g < sh.groups; g++ {
		gn := groupName(g)
		gi := m.addGroup(gn)
		rooms := make([]string, sh.rooms)
		var zone []fact
		for i := range rooms {
			rooms[i] = roomName(i)
			zone = append(zone, fact{"Zone", []string{gn, rooms[i], fmt.Sprintf("z%d", rng.Intn(2))}})
		}
		m.addBlock(block{group: gi, alts: [][]fact{zone}})
		sensor := 0
		for b := 0; b < sh.readBlocks; b++ {
			ss := make([]string, sh.sensorsPerBlock)
			for i := range ss {
				ss[i] = fmt.Sprintf("s%02d", sensor)
				sensor++
			}
			// All-v0 and all-v1 correlate the block's sensors, so the
			// block is not a product and stays tuple level; a third,
			// mixed alternative completes it. Sizes are fixed so every
			// seed costs the same; the seed picks the contents.
			p := rng.Perm(len(values))
			vecs := [][]string{fill(len(ss), values[p[0]]), fill(len(ss), values[p[1]])}
			for {
				v := make([]string, len(ss))
				for i := range v {
					v[i] = values[rng.Intn(len(values))]
				}
				if !sameVec(v, vecs[0]) && !sameVec(v, vecs[1]) {
					vecs = append(vecs, v)
					break
				}
			}
			alts := make([][]fact, len(vecs))
			for ai, vec := range vecs {
				for i, s := range ss {
					alts[ai] = append(alts[ai], fact{"Reading", []string{gn, s, vec[i]}})
				}
			}
			m.addBlock(block{group: gi, alts: alts})
		}
		for t := 0; t < sh.locs; t++ {
			p := rng.Perm(len(rooms))
			rs := make([]string, len(rooms)-1)
			for i := range rs {
				rs[i] = rooms[p[i]]
			}
			m.addTemplate(gi, "Loc", []string{gn}, []string{fmt.Sprintf("s%02d", t)}, rs)
		}
		maybe := fact{"Reading", []string{gn, "m0", values[rng.Intn(len(values))]}}
		m.addBlock(block{group: gi, alts: [][]fact{{maybe}, {}}})
	}
	return m
}

func fill(n int, v string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func sameVec(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scans are the base scans of one group's queries: every scan keeps
// only that group's facts, so each query's answers follow from the
// group's blocks alone (model.groupWorlds).
type scans struct{ g string }

func (q scans) sel(rel string, cols []string, eq ...[2]string) expr {
	return &selE{&scanE{rel, cols}, append([][2]string{{"g", q.g}}, eq...)}
}
func (q scans) rd() expr { return q.sel("Reading", []string{"g", "s", "v"}) }
func (q scans) rdv(v string) expr {
	return q.sel("Reading", []string{"g", "s", "v"}, [2]string{"v", v})
}
func (q scans) lc() expr          { return q.sel("Loc", []string{"g", "s", "r"}) }
func (q scans) lcr(r string) expr { return q.sel("Loc", []string{"g", "s", "r"}, [2]string{"r", r}) }
func (q scans) zn() expr          { return q.sel("Zone", []string{"g", "r", "z"}) }

// queryKind is one query shape over a group, parameterized by a value
// constant v and a room constant r where usesV/usesR say so.
type queryKind struct {
	usesV, usesR bool
	build        func(q scans, v, r string) expr
}

var s1 = []string{"s"}

var queryKinds = []queryKind{
	{false, false, func(q scans, _, _ string) expr { return &joinE{q.rd(), q.lc()} }},
	{false, false, func(q scans, _, _ string) expr { return &certE{&projE{q.rd(), s1}} }},
	{false, false, func(q scans, _, _ string) expr { return &diffE{&projE{q.rd(), s1}, &projE{q.lc(), s1}} }},
	{true, false, func(q scans, v, _ string) expr { return q.rdv(v) }},
	{true, false, func(q scans, v, _ string) expr { return &projE{q.rdv(v), s1} }},
	{true, false, func(q scans, v, _ string) expr {
		return &projE{&joinE{&joinE{q.rdv(v), q.lc()}, q.zn()}, []string{"s", "z"}}
	}},
	{true, false, func(q scans, v, _ string) expr { return &possE{&joinE{q.rdv(v), q.lc()}} }},
	{true, false, func(q scans, v, _ string) expr {
		return &diffE{&projE{q.lc(), s1}, &projE{&possE{q.rdv(v)}, s1}}
	}},
	{true, true, func(q scans, v, r string) expr { return &selE{&joinE{q.rdv(v), q.lc()}, [][2]string{{"r", r}}} }},
	{true, true, func(q scans, v, r string) expr { return &unionE{&projE{q.rdv(v), s1}, &projE{q.lcr(r), s1}} }},
	{false, true, func(q scans, _, r string) expr { return &diffE{&projE{q.rd(), s1}, &projE{q.lcr(r), s1}} }},
}

func roomName(r int) string { return fmt.Sprintf("r%d", r) }

// groupQueries lists every distinct query over group g: each kind over
// every value and room constant it takes.
func groupQueries(g, rooms int) []expr {
	q := scans{groupName(g)}
	var out []expr
	for _, k := range queryKinds {
		vs, rs := []string{""}, []string{""}
		if k.usesV {
			vs = values
		}
		if k.usesR {
			rs = nil
			for r := 0; r < rooms; r++ {
				rs = append(rs, roomName(r))
			}
		}
		for _, v := range vs {
			for _, r := range rs {
				out = append(out, k.build(q, v, r))
			}
		}
	}
	return out
}

// oracle answers group-local queries by naive evaluation over the
// group's explicit worlds, one evaluator per (group, state); state k > 0
// has the Reading facts of group k-1 renamed by the write cycle.
type oracle struct {
	m     *model
	evals map[[2]int]*naiveEval
}

func (o *oracle) answer(g, state int, e expr, possible bool) string {
	key := [2]int{g, state}
	ev := o.evals[key]
	if ev == nil {
		var rename func(fact) fact
		if state > 0 && state-1 == g {
			rename = func(f fact) fact {
				if f.rel == "Reading" && f.args[0] == groupName(g) {
					return fact{f.rel, append([]string{renamedName(g)}, f.args[1:]...)}
				}
				return f
			}
		}
		ev = newNaiveEval(o.m.groupWorlds(g, rename))
		o.evals[key] = ev
	}
	return canonAnswer(len(e.cols()), ev.answers(e, possible))
}

// stateOf maps a database version to the state the write cycle left it
// in: the cycle alternates a rename of group k with its inverse, so odd
// versions are the loaded state (0) and version 2+2j has group j mod
// renamed renamed (state 1 + j mod renamed).
func stateOf(version uint64, renamed int) int {
	if version%2 == 1 || renamed == 0 {
		return 0
	}
	return 1 + int((version-2)/2)%renamed
}

// queryRequest builds a poss-ans/cert-ans request for query e over
// group g with its expected answer in every state.
func queryRequest(o *oracle, name string, g int, e expr, possible bool, states int) *request {
	op := "cert-ans"
	if possible {
		op = "poss-ans"
	}
	text := queryText(name, e)
	r := &request{op: op, path: "/query", text: text, body: jsonBody(map[string]string{"db": dbName, "op": op, "query": text})}
	for st := 0; st < states; st++ {
		r.want = append(r.want, o.answer(g, st, e, possible))
	}
	return r
}

// writeCycle renames the Reading facts of groups 0..k-1 away and back
// in turn: every write is a bijection on facts, so the world set (and
// its count) is the same after each pair as at load time.
func writeCycle(k int) []*request {
	var out []*request
	for g := 0; g < k; g++ {
		for _, p := range [][2]string{{groupName(g), renamedName(g)}, {renamedName(g), groupName(g)}} {
			text := fmt.Sprintf("@update\n  update: Reading(%s * *) set 1 = %s\n", p[0], p[1])
			out = append(out, &request{op: "write", path: "/update?db=" + dbName, text: text, body: []byte(text)})
		}
	}
	return out
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: " + err.Error())
	}
	return b
}

// scale overrides a workload's sizes where a field is non-zero; the
// zero scale is the benchmark's own size. The generator's tests use it
// to get instances small enough to expand world by world.
type scale struct {
	groups, readBlocks, pool int
}

// generate builds a workload from its seed at the sizes sc leaves alone.
func generate(name string, seed int64, sc scale) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(full, override int) int {
		if override > 0 {
			return override
		}
		return full
	}
	var w *workload
	switch name {
	case "probe-hot":
		sh := shape{groups: pick(16, sc.groups), readBlocks: pick(2, sc.readBlocks), sensorsPerBlock: 2, locs: 2, rooms: 4}
		w = &workload{name: name, m: buildModel(rng, sh), writeChunk: 200, tracePrefix: 3000, traceWrites: 40, renamed: min(4, sh.groups)}
		w.reads = probeHotReads(rng, w, sh, pick(4096, sc.pool))
	case "query-cold":
		sh := shape{groups: pick(48, sc.groups), readBlocks: pick(3, sc.readBlocks), sensorsPerBlock: 2, locs: 2, rooms: 4}
		w = &workload{name: name, m: buildModel(rng, sh), writeChunk: 200, tracePrefix: 300, traceWrites: 20, renamed: min(4, sh.groups)}
		w.reads = queryColdReads(rng, w, sh, pick(0, sc.pool))
	case "write-mix":
		sh := shape{groups: pick(6, sc.groups), readBlocks: pick(1, sc.readBlocks), sensorsPerBlock: 24, locs: 2, rooms: 3}
		w = &workload{name: name, m: buildModel(rng, sh), openRate: 120, writeEvery: 4, tracePrefix: 400, renamed: min(4, sh.groups)}
		w.reads = writeMixReads(rng, w, sh, pick(4096, sc.pool))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.dbText = fmt.Sprintf("# %s workload database (generated)\n", name) + w.m.text()
	w.count = w.m.count().String()
	w.writes = writeCycle(w.renamed)
	for _, r := range w.writes {
		r.want = []string{w.count}
	}
	return w, nil
}

// prefix is the stream prefix the traced run replays.
func (w *workload) prefix() []*request {
	var out []*request
	if w.openRate > 0 {
		ri, wi := 0, 0
		for i := 0; i < w.tracePrefix; i++ {
			if i%w.writeEvery == w.writeEvery-1 {
				out = append(out, w.writes[wi%len(w.writes)])
				wi++
			} else {
				out = append(out, w.reads[ri%len(w.reads)])
				ri++
			}
		}
		return out
	}
	for i := 0; i < w.tracePrefix; i++ {
		out = append(out, w.reads[i%len(w.reads)])
	}
	for i := 0; i < w.traceWrites; i++ {
		out = append(out, w.writes[i%len(w.writes)])
	}
	return out
}

// probeHotReads mixes decomposition-native fact probes (about half of
// them true) with a few answer-cache-sized queries.
func probeHotReads(rng *rand.Rand, w *workload, sh shape, n int) []*request {
	m := w.m
	o := &oracle{m: m, evals: map[[2]int]*naiveEval{}}
	var queries []*request
	for i, k := range queryKinds[:8] {
		g := rng.Intn(len(m.groups))
		e := k.build(scans{groupName(g)}, values[rng.Intn(len(values))], roomName(rng.Intn(sh.rooms)))
		queries = append(queries, queryRequest(o, "hot"+strconv.Itoa(i), g, e, i%2 == 0, 1))
	}
	count := m.count().String()
	// Exact shares in every 20 requests — 2 queries, 2 counts, 7 poss,
	// 4 cert, 5 memb — shuffled, so every seed sends the same mix.
	out := make([]*request, 0, n)
	for i := 0; i < n; i++ {
		switch k := i % 20; {
		case k < 2:
			out = append(out, queries[rng.Intn(len(queries))])
		case k < 4:
			out = append(out, &request{op: "count", path: "/query", body: jsonBody(map[string]string{"db": dbName, "op": "count"}), want: []string{count}})
		case k < 11:
			fs := possProbe(rng, m)
			out = append(out, factRequest(m, "poss", fs, m.possible(fs)))
		case k < 15:
			fs := certProbe(rng, m)
			out = append(out, factRequest(m, "cert", fs, m.certain(fs)))
		default:
			fs := membProbe(rng, m)
			out = append(out, factRequest(m, "memb", fs, m.member(fs)))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func factRequest(m *model, op string, fs []fact, want bool) *request {
	field := "facts"
	text := m.instanceText(fs, op == "memb")
	if op == "memb" {
		field = "inst"
	}
	return &request{op: op, path: "/query", text: text,
		body: jsonBody(map[string]string{"db": dbName, "op": op, field: text}),
		want: []string{strconv.FormatBool(want)}}
}

// offFact is outside every support: no block ever reads "off".
func offFact(rng *rand.Rand, m *model) fact {
	return fact{"Reading", []string{m.groups[rng.Intn(len(m.groups))], "s00", "off"}}
}

// possProbe draws 1–3 facts of one world; half the time it swaps one
// for a fact of another alternative of the same block (possible only if
// some alternative holds both) or for a fact outside the support.
func possProbe(rng *rand.Rand, m *model) []fact {
	world := m.randomWorld(rng)
	k := 1 + rng.Intn(3)
	fs := make([]fact, 0, k+1)
	for _, i := range rng.Perm(len(world))[:min(k, len(world))] {
		fs = append(fs, world[i])
	}
	if rng.Intn(2) == 0 {
		return fs
	}
	if rng.Intn(4) == 0 {
		return append(fs, offFact(rng, m))
	}
	b := m.blocks[m.owner[fs[0].key()]]
	alt := b.alts[rng.Intn(len(b.alts))]
	if len(alt) == 0 {
		return append(fs, offFact(rng, m))
	}
	return append(fs, alt[rng.Intn(len(alt))])
}

// certProbe draws certain Zone facts, half the time adding one Reading
// fact, which no world set of this shape holds in every world.
func certProbe(rng *rand.Rand, m *model) []fact {
	zone := m.blocks[m.byGrp[rng.Intn(len(m.groups))][0]].alts[0]
	fs := []fact{zone[rng.Intn(len(zone))]}
	if rng.Intn(2) == 0 {
		fs = append(fs, zone[rng.Intn(len(zone))])
		if fs[0].key() == fs[1].key() {
			fs = fs[:1]
		}
		return fs
	}
	world := m.randomWorld(rng)
	return append(fs, world[rng.Intn(len(world))])
}

// membProbe draws a whole world; half the time it drops a fact, adds a
// fact of another alternative, or adds a fact outside the support.
func membProbe(rng *rand.Rand, m *model) []fact {
	world := m.randomWorld(rng)
	if rng.Intn(2) == 0 {
		return world
	}
	switch rng.Intn(3) {
	case 0:
		i := rng.Intn(len(world))
		return append(world[:i:i], world[i+1:]...)
	case 1:
		have := map[string]bool{}
		for _, f := range world {
			have[f.key()] = true
		}
		for tries := 0; tries < 100; tries++ {
			b := m.blocks[rng.Intn(len(m.blocks))]
			alt := b.alts[rng.Intn(len(b.alts))]
			if len(alt) > 0 {
				if f := alt[rng.Intn(len(alt))]; !have[f.key()] {
					return append(world, f)
				}
			}
		}
	}
	return append(world, offFact(rng, m))
}

// queryColdReads is one pass over every distinct group query in a
// seeded order, each as poss-ans or cert-ans: many more distinct texts
// than the server's prepared (512) and answer (256) caches hold. A
// non-zero n truncates the pass.
func queryColdReads(rng *rand.Rand, w *workload, sh shape, n int) []*request {
	o := &oracle{m: w.m, evals: map[[2]int]*naiveEval{}}
	type gq struct {
		g int
		e expr
	}
	var all []gq
	for g := range w.m.groups {
		for _, e := range groupQueries(g, sh.rooms) {
			all = append(all, gq{g, e})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	out := make([]*request, len(all))
	for i, q := range all {
		out[i] = queryRequest(o, "q"+strconv.Itoa(i), q.g, q.e, rng.Intn(2) == 0, 1)
	}
	return out
}

// writeMixReads draws from a fixed set of 8 queries — small enough for
// both caches — one of each of the first 8 query kinds, over the
// renamed groups and two others, so a write changes some answers and
// leaves others alone. Each query carries its expected answer in every
// state of the write cycle.
func writeMixReads(rng *rand.Rand, w *workload, sh shape, n int) []*request {
	o := &oracle{m: w.m, evals: map[[2]int]*naiveEval{}}
	states := 1 + w.renamed
	var set []*request
	for i, k := range queryKinds[:8] {
		g := i % min(w.renamed+2, len(w.m.groups))
		e := k.build(scans{groupName(g)}, values[rng.Intn(len(values))], roomName(rng.Intn(sh.rooms)))
		set = append(set, queryRequest(o, "mix"+strconv.Itoa(i), g, e, rng.Intn(2) == 0, states))
	}
	out := make([]*request, n)
	for i := range out {
		out[i] = set[rng.Intn(len(set))]
	}
	return out
}
