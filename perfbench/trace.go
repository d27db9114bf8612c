package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/server"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// The traced run. Each request of a fixed stream prefix is answered
// three times, one after the other on one goroutine:
//
//   - "server": server.Do on an in-process server.New loaded from the
//     same file as the child, so its caches see the same sequence;
//   - "request": the layer calls the server makes for that request,
//     made directly, each in its own span — parse, prepare, plan, eval,
//     answers, probe, update, encode — skipping what the in-process
//     server just served from its prepared or answer cache, as the
//     server itself does;
//   - "http": one round trip to a pwd child.
//
// The server's self time is the in-process server.Do minus the layer
// spans (dispatch, locking, caches — a difference of two executions, so
// it can dip below zero where it is smaller than their run-to-run
// noise). "bench" spans mark the benchmark's own bookkeeping
// (allocation counting) inside a request span and are excluded from
// coverage. The HTTP layer's self time comes from the plain replay
// (replayPlain), where no in-process work runs between round trips.

// span is one timed interval; Parent indexes the span list (-1: root).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spans struct {
	t0   time.Time
	list []span
}

func (s *spans) begin(req int, name string, parent int) int {
	s.list = append(s.list, span{Req: req, Name: name, Parent: parent, Start: time.Since(s.t0).Nanoseconds()})
	return len(s.list) - 1
}

func (s *spans) end(i int) { s.list[i].End = time.Since(s.t0).Nanoseconds() }

// write dumps the spans as JSON lines.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// direct is the benchmark's own copy of the database state, mirroring
// what the server keeps: the decomposition and its version, the world
// count memoized per version, prepared queries by text and evaluations
// by (version, fingerprint) with their answers derived at most once.
type direct struct {
	w        *wsd.WSD
	version  uint64
	count    string
	countVer uint64
	prepared map[string]*preparedQuery
	evals    map[string]*evalMemo
}

type preparedQuery struct {
	q  query.Algebra
	fp string
}

type evalMemo struct {
	out        *wsd.WSD
	poss, cert *rel.Instance
}

// layerCounts accumulates the traced run's per-layer counters.
type layerCounts struct {
	reqs, queries, writes    int
	planned, changed         int
	chosenCost, naiveCost    int64
	assembleUS, normalizeUS  int64
	alts, parts              int64
	evalAllocs, updateAllocs uint64
	touched, survivors       int64
	parseBytes, encodeBytes  int64
}

type tracedRun struct {
	w   *workload
	srv *server.Server
	d   *direct
	c   *client
	sp  spans
	n   layerCounts
	t   *tally
	// srvVersion and httpVersion are the versions the in-process server
	// and the child last installed; a write must install the next one.
	srvVersion, httpVersion uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func serverRequest(r *request) *server.Request {
	req := &server.Request{DB: dbName, Op: r.op}
	switch r.op {
	case "memb":
		req.Inst = r.text
	case "poss", "cert":
		req.Facts = r.text
	case "poss-ans", "cert-ans":
		req.Query = r.text
	case "write":
		req.Update = r.text
	}
	return req
}

// traceReplay runs the prefix through the three paths.
func traceReplay(w *workload, dbPath string, prefix []*request, c *client, workers int) (*tracedRun, error) {
	srv := server.New(server.Config{Workers: workers})
	if err := srv.Open(dbName, dbPath); err != nil {
		return nil, err
	}
	f, err := os.Open(dbPath)
	if err != nil {
		return nil, err
	}
	src, err := parse.ParseSource(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if err := src.WSD.Normalize(); err != nil {
		return nil, err
	}
	tr := &tracedRun{
		w: w, srv: srv, c: c, t: newTally(),
		d:          &direct{w: src.WSD, version: 1, prepared: map[string]*preparedQuery{}, evals: map[string]*evalMemo{}},
		sp:         spans{t0: time.Now()},
		srvVersion: 1, httpVersion: 1,
	}
	for i, r := range prefix {
		if err := tr.one(i, r); err != nil {
			return nil, fmt.Errorf("request %d (%s): %w", i, r.op, err)
		}
	}
	return tr, nil
}

func (tr *tracedRun) one(i int, r *request) error {
	tr.n.reqs++
	switch r.op {
	case "write":
		tr.n.writes++
	case "poss-ans", "cert-ans":
		tr.n.queries++
	}

	// server.Do in process.
	before := tr.srv.Stats().PreparedHits
	s := tr.sp.begin(i, "server", -1)
	resp, err := tr.srv.Do(serverRequest(r))
	tr.sp.end(s)
	prepHit := tr.srv.Stats().PreparedHits > before
	class := "error"
	if err == nil {
		rep := &reply{Version: resp.Version, Answer: resp.Answer, Count: resp.Count, Facts: resp.Facts}
		if class = checkReply(tr.w, r, rep, tr.srvVersion+1); class == "" && r.op == "write" {
			tr.srvVersion = resp.Version
		}
	}
	tr.t.record(r, 0, class, 0)

	// The layers, called directly.
	root := tr.sp.begin(i, "request", -1)
	drep, err := tr.layers(i, root, r, prepHit, resp != nil && resp.Cached)
	tr.sp.end(root)
	if err != nil {
		return err
	}
	tr.t.record(r, 0, checkReply(tr.w, r, drep, tr.d.version), 0)

	// One HTTP round trip to the child.
	h := tr.sp.begin(i, "http", -1)
	status, body, err := tr.c.send(r)
	tr.sp.end(h)
	class, v := check(tr.w, r, status, body, err, tr.httpVersion+1)
	if class == "" && r.op == "write" {
		tr.httpVersion = v
	}
	tr.t.record(r, 0, class, len(body))
	return nil
}

// layers answers r by calling each layer's function in the order the
// server does, each in a span under root.
func (tr *tracedRun) layers(i, root int, r *request, prepHit, ansHit bool) (*reply, error) {
	d := tr.d
	in := func(name string, f func()) {
		s := tr.sp.begin(i, name, root)
		f()
		tr.sp.end(s)
	}
	var rep reply
	var err error
	switch r.op {
	case "memb", "poss", "cert":
		var inst *rel.Instance
		in("parse", func() { inst, err = parse.ParseInstance(strings.NewReader(r.text)) })
		if err != nil {
			return nil, err
		}
		tr.n.parseBytes += int64(len(r.text))
		var ok bool
		in("probe", func() {
			switch r.op {
			case "memb":
				ok = d.w.Member(inst)
			case "poss":
				ok = d.w.Possible(inst)
			default:
				ok = d.w.Certain(inst)
			}
		})
		rep.Answer = &ok
	case "count":
		in("probe", func() {
			if d.countVer != d.version {
				d.count, d.countVer = d.w.Count().String(), d.version
			}
		})
		rep.Count = d.count
	case "write":
		var u *wsd.Update
		in("parse", func() { u, err = parse.ParseUpdate(strings.NewReader(r.text)) })
		if err != nil {
			return nil, err
		}
		tr.n.parseBytes += int64(len(r.text))
		var m0, m1 uint64
		in("bench", func() { m0 = mallocs() })
		cost := obs.NewCost()
		var next *wsd.WSD
		in("update", func() { next, err = d.w.ApplyUpdateObserved(u, cost) })
		in("bench", func() { m1 = mallocs() })
		if err != nil {
			return nil, err
		}
		tr.n.updateAllocs += m1 - m0
		tr.n.touched += cost.Get(obs.UpdateTouchedComponents)
		tr.n.survivors += cost.Get(obs.UpdateSurvivorComponents)
		d.w = next
		d.version++
		in("probe", func() { rep.Count = next.Count().String() })
	case "poss-ans", "cert-ans":
		p := d.prepared[r.text]
		if !prepHit || p == nil {
			var src *parse.Source
			in("parse", func() { src, err = parse.ParseSource(strings.NewReader(r.text)) })
			if err != nil {
				return nil, err
			}
			tr.n.parseBytes += int64(len(r.text))
			var b strings.Builder
			in("prepare", func() { err = parse.PrintQuery(&b, *src.Query) })
			if err != nil {
				return nil, err
			}
			p = &preparedQuery{q: *src.Query, fp: b.String()}
			d.prepared[r.text] = p
		}
		key := fmt.Sprintf("%d\x00%s", d.version, p.fp)
		e := d.evals[key]
		if !ansHit || e == nil {
			var opt query.Query
			var info *wsdalg.PlannerInfo
			in("plan", func() { opt, info = wsdalg.Optimize(d.w, p.q) })
			tr.n.planned++
			if info != nil {
				if info.Changed() {
					tr.n.changed++
				}
				tr.n.chosenCost += info.ChosenCost
				tr.n.naiveCost += info.NaiveCost
			}
			var m0, m1 uint64
			in("bench", func() { m0 = mallocs() })
			cost := obs.NewCost()
			var out *wsd.WSD
			var pl *wsdalg.Plan
			in("eval", func() { out, pl, err = wsdalg.EvalPlanned(d.w, opt, cost) })
			in("bench", func() { m1 = mallocs() })
			if err != nil {
				return nil, err
			}
			tr.n.evalAllocs += m1 - m0
			tr.n.alts += cost.Get(obs.EvalAltsTabulated)
			tr.n.parts += cost.Get(obs.EvalParts)
			if pl.Assemble != nil {
				tr.n.assembleUS += pl.Assemble.Act.DurUS
			}
			if pl.Normalize != nil {
				tr.n.normalizeUS += pl.Normalize.DurUS
			}
			e = &evalMemo{out: out}
			d.evals[key] = e
		}
		var inst *rel.Instance
		in("answers", func() {
			if r.op == "poss-ans" {
				if e.poss == nil {
					e.poss, err = wsdalg.PossibleAnswers(e.out, query.Identity{})
				}
				inst = e.poss
			} else {
				if e.cert == nil {
					e.cert, err = wsdalg.CertainAnswers(e.out, query.Identity{})
				}
				inst = e.cert
			}
		})
		if err != nil {
			return nil, err
		}
		in("encode", func() {
			var b strings.Builder
			err = parse.PrintInstance(&b, inst)
			rep.Facts = b.String()
		})
		if err != nil {
			return nil, err
		}
	}
	rep.Version = d.version
	// The JSON response the server would write.
	var buf bytes.Buffer
	in("encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err = enc.Encode(server.Response{DB: dbName, Op: r.op, Version: rep.Version, Answer: rep.Answer, Count: rep.Count, Facts: rep.Facts})
	})
	tr.n.encodeBytes += int64(buf.Len())
	return &rep, err
}

// layerNames are the direct-path spans, in server order.
var layerNames = []string{"parse", "prepare", "plan", "eval", "answers", "probe", "update", "encode"}

// plainReplay is the untraced replay of the prefix: its median round
// trip is the base of trace.overhead_ratio, and each round trip minus
// the child's own server.Do time on that request is the HTTP layer's
// self time.
type plainReplay struct {
	median     time.Duration
	httpSelfNS int64
}

// replayPlain sends the prefix one request at a time, reading the
// child's server.Do time back from its flight recorder after each.
func replayPlain(w *workload, prefix []*request, ch *child, c *client, t *tally) (plainReplay, error) {
	var p plainReplay
	var rts []time.Duration
	version := uint64(1)
	for _, r := range prefix {
		start := time.Now()
		status, body, id, err := c.sendID(r)
		rt := time.Since(start)
		class, v := check(w, r, status, body, err, version+1)
		if class == "" && r.op == "write" {
			version = v
		}
		t.record(r, rt, class, len(body))
		rts = append(rts, rt)
		doUS, err := ch.lastDoUS(c.hc, id)
		if err != nil {
			return p, err
		}
		p.httpSelfNS += rt.Nanoseconds() - doUS*1000
	}
	p.median = quantile(rts, 0.5)
	return p, nil
}

// metrics turns the spans and counters into the per-layer metrics.
func (tr *tracedRun) metrics(plain plainReplay) map[string]metric {
	dur := func(s span) int64 { return s.End - s.Start }
	byName := map[string]int64{}
	var serverNS, requestNS, benchNS int64
	var https []time.Duration
	for _, s := range tr.sp.list {
		byName[s.Name] += dur(s)
		switch {
		case s.Name == "server":
			serverNS += dur(s)
		case s.Name == "request":
			requestNS += dur(s)
		case s.Name == "bench":
			benchNS += dur(s)
		case s.Name == "http":
			https = append(https, time.Duration(dur(s)))
		}
	}
	var layered int64
	for _, n := range layerNames {
		layered += byName[n]
	}
	n := tr.n
	per := func(total int64, k int) float64 { return ratio(float64(total), float64(k)) }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	usPer := func(layer string, k int) float64 { return per(byName[layer], k) / 1e3 }

	put("trace.requests", float64(n.reqs), "count")
	put("trace.coverage_ratio", ratio(float64(layered), float64(requestNS-benchNS)), "ratio")
	put("trace.overhead_ratio", ratio(float64(quantile(https, 0.5)), float64(plain.median)), "ratio")
	put("http.us_per_req", per(plain.httpSelfNS, n.reqs)/1e3, "us")
	put("server.us_per_req", per(serverNS, n.reqs)/1e3, "us")
	put("server.self_us_per_req", per(serverNS-(requestNS-benchNS), n.reqs)/1e3, "us")
	put("server.wsdalg_share", ratio(float64(byName["plan"]+byName["eval"]+byName["answers"]), float64(serverNS)), "ratio")
	put("parse.us_per_req", usPer("parse", n.reqs), "us")
	put("parse.bytes_per_req", per(n.parseBytes, n.reqs), "bytes")
	put("prepare.us_per_query", usPer("prepare", n.queries), "us")
	put("plan.us_per_query", usPer("plan", n.queries), "us")
	put("plan.rewrite_ratio", ratio(float64(n.changed), float64(n.planned)), "ratio")
	put("plan.cost_ratio", ratio(float64(n.chosenCost), float64(n.naiveCost)), "ratio")
	put("eval.queries_evaluated", float64(n.planned), "count")
	put("eval.us_per_query", usPer("eval", n.queries), "us")
	put("eval.assemble_us_per_query", per(n.assembleUS, n.queries), "us")
	put("eval.normalize_us_per_query", per(n.normalizeUS, n.queries), "us")
	put("eval.alts_tabulated_per_query", per(n.alts, n.queries), "count")
	put("eval.parts_per_query", per(n.parts, n.queries), "count")
	put("eval.allocs_per_query", per(int64(n.evalAllocs), n.queries), "count")
	put("answers.us_per_query", usPer("answers", n.queries), "us")
	put("encode.us_per_req", usPer("encode", n.reqs), "us")
	put("encode.bytes_per_req", per(n.encodeBytes, n.reqs), "bytes")
	put("probe.us_per_req", usPer("probe", n.reqs), "us")
	put("update.us_per_write", usPer("update", n.writes), "us")
	put("update.touched_components_per_write", per(n.touched, n.writes), "count")
	put("update.survivor_ratio", ratio(float64(n.survivors), float64(n.survivors+n.touched)), "ratio")
	put("update.allocs_per_write", per(int64(n.updateAllocs), n.writes), "count")
	return m
}

// sortedNames lists metric names in order.
func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
