// Package server is the long-running query engine behind cmd/pwd: it
// loads .pw databases once, keeps normalized world-set decompositions
// (and their interned fact tables) resident in memory, and answers the
// pwq command set — memb/uniq/poss/cert/count/sample/poss-ans/cert-ans/
// cont — to many concurrent clients over HTTP/JSON.
//
// The performance core is three layers, applied in order on every
// query-shaped request:
//
//  1. prepared queries — the @query text is parsed and compiled once
//     per distinct text (an LRU keyed by the raw text) and the compiled
//     plan's canonical printed form is the query fingerprint, so two
//     spellings of the same algebra share everything downstream;
//  2. an answer cache — normalized answer decompositions (and the
//     answer instances read off them) are cached in an LRU keyed by
//     (database version, query fingerprint), so a repeated cert-ans or
//     poss-ans skips wsdalg.Eval entirely;
//  3. request batching + admission control — concurrent identical
//     uncached queries coalesce into one evaluation (a singleflight
//     group keyed like the cache), and all heavy evaluations pass
//     through a semaphore sized by Config.Workers, so a burst of
//     expensive containment queries queues behind the pool while cheap
//     decomposition-native fact probes (MEMB/POSS/CERT/count on a
//     loaded WSD) bypass it and stay at microsecond latency.
//
// Lock discipline: the Server's own RWMutex guards only the name →
// database map; each database carries its own RWMutex guarding the
// {backend, version} pair plus a writeMu serializing mutations. Request
// handling takes the database read lock just long enough to snapshot
// that pair, then evaluates outside any lock — the loaded backends are
// immutable after normalization, and the write path preserves that:
// an @update is applied copy-on-write against the snapshot (readers
// keep serving the old version throughout) and the result is installed
// as a new version in one short critical section. Because every cache
// and singleflight key embeds the version, stale answers are never
// served after a reload or write; entries keyed on dead versions are
// purged from the answer cache at install time.
package server

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pw/internal/algebra"
	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/worlds"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// Config tunes a Server. The zero value is a sensible default.
type Config struct {
	// Workers is the decide.Options goroutine budget of the heavy
	// procedures and, equally, the admission-control pool size: at most
	// this many heavy evaluations (query evaluation, c-table decision
	// procedures, world counting) run concurrently; the rest queue.
	// 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the answer cache (entries). 0 means 256; a
	// negative value disables answer caching (every request evaluates,
	// though identical in-flight requests still coalesce).
	CacheSize int
	// PreparedSize bounds the prepared-query cache (entries). 0 means
	// 512; a negative value disables it (every request re-parses).
	PreparedSize int
	// SlowQueryThreshold enables the slow-query log: every request
	// taking at least this long is logged with its op, database,
	// canonical query fingerprint and cost counters. 0 disables it.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines (os.Stderr when nil and a
	// threshold is set).
	SlowQueryLog io.Writer
	// FlightSize bounds the flight recorder, the ring of recently
	// answered requests served at GET /debug/requests. 0 means 128; a
	// negative value disables recording.
	FlightSize int
}

const (
	defaultCacheSize    = 256
	defaultPreparedSize = 512
)

// Server is a resident multi-database query engine. Safe for concurrent
// use by any number of goroutines.
type Server struct {
	workers int
	sem     chan struct{}

	mu  sync.RWMutex // guards dbs (the map, not the databases)
	dbs map[string]*database

	cacheMu  sync.Mutex // guards prepared and answers
	prepared *lruCache
	answers  *lruCache

	flight flightGroup
	stats  stats

	metrics       *serverMetrics
	slowThreshold time.Duration
	slowLog       io.Writer
	recorder      *flightRecorder
	idBase        string
	idSeq         atomic.Uint64
}

// database is one loaded .pw database. mu guards the {wsd, tab,
// version} triple; exactly one of wsd/tab is non-nil. writeMu
// serializes the slow half of every mutation (file re-parse, update
// application) so concurrent reloads and writes cannot interleave their
// read-compute-install sequences; it is always acquired before mu and
// never held while answering queries, so readers keep snapshotting the
// current version through db.mu alone.
type database struct {
	name string
	path string // "" for databases registered in-memory

	writeMu sync.Mutex

	mu      sync.RWMutex
	version uint64
	wsd     *wsd.WSD
	tab     *table.Database

	// Per-database answer-cache traffic, surfaced by /stats and the
	// per-db /metrics families (the aggregate counters hide which
	// database's cache is churning).
	ansHits   atomic.Int64
	ansMisses atomic.Int64

	// count memoizes wsd.Count().String() for the installed version so
	// per-request explain records don't redo the big-int product.
	count atomic.Pointer[countCache]
}

// countCache is one memoized world count, valid while the database is
// still at the version it was computed against.
type countCache struct {
	version uint64
	count   string
}

// dbView is an immutable snapshot of a database taken under its read
// lock; evaluation happens against the snapshot, outside any lock.
type dbView struct {
	name    string
	version uint64
	wsd     *wsd.WSD
	tab     *table.Database
	db      *database // for per-db cache attribution; never nil from view()
}

// stats are the server's own counters, exposed at /stats and (in pwd)
// through expvar.
type stats struct {
	Requests       atomic.Int64
	Errors         atomic.Int64
	PreparedHits   atomic.Int64
	PreparedMisses atomic.Int64
	AnswerHits     atomic.Int64
	AnswerMisses   atomic.Int64
	Coalesced      atomic.Int64
	InFlightEvals  atomic.Int64
}

// Stats is a point-in-time snapshot of the server counters, including
// the per-database breakdown.
type Stats struct {
	Requests       int64     `json:"requests"`
	Errors         int64     `json:"errors"`
	PreparedHits   int64     `json:"prepared_hits"`
	PreparedMisses int64     `json:"prepared_misses"`
	AnswerHits     int64     `json:"answer_hits"`
	AnswerMisses   int64     `json:"answer_misses"`
	Coalesced      int64     `json:"coalesced"`
	InFlightEvals  int64     `json:"in_flight_evals"`
	AnswerEntries  int       `json:"answer_entries"`
	PreparedCached int       `json:"prepared_entries"`
	DBs            []DBStats `json:"dbs,omitempty"`
}

// DBStats is one database's slice of the server counters: its installed
// version, the resident backend kind, and the answer-cache traffic
// attributed to it.
type DBStats struct {
	Name          string `json:"name"`
	Version       uint64 `json:"version"`
	Backend       string `json:"backend"` // "wsd" or "table"
	Kind          string `json:"kind"`    // "tuple", "attr", or "table"
	AnswerHits    int64  `json:"answer_hits"`
	AnswerMisses  int64  `json:"answer_misses"`
	AnswerEntries int    `json:"answer_entries"`
}

// backendKind classifies a database's resident representation: "table"
// for conditioned tables, and for decompositions "attr" when any
// component is an attribute-level template, else "tuple".
func backendKind(w *wsd.WSD, tab *table.Database) (backend, kind string) {
	if w == nil {
		return "table", "table"
	}
	for ci := 0; ci < w.Components(); ci++ {
		if _, _, ok := w.TemplateSlots(ci); ok {
			return "wsd", "attr"
		}
	}
	return "wsd", "tuple"
}

// DBStats snapshots the per-database counters, sorted by name.
func (s *Server) DBStats() []DBStats {
	s.mu.RLock()
	dbs := make([]*database, 0, len(s.dbs))
	for _, db := range s.dbs {
		dbs = append(dbs, db)
	}
	s.mu.RUnlock()

	// Live answer-cache entries per database: the cache key embeds the
	// database name as its second \x00-separated field.
	entries := make(map[string]int, len(dbs))
	s.cacheMu.Lock()
	s.answers.each(func(key string) {
		parts := strings.SplitN(key, "\x00", 3)
		if len(parts) >= 2 {
			entries[parts[1]]++
		}
	})
	s.cacheMu.Unlock()

	out := make([]DBStats, 0, len(dbs))
	for _, db := range dbs {
		db.mu.RLock()
		version, w, tab := db.version, db.wsd, db.tab
		db.mu.RUnlock()
		backend, kind := backendKind(w, tab)
		out = append(out, DBStats{
			Name:          db.name,
			Version:       version,
			Backend:       backend,
			Kind:          kind,
			AnswerHits:    db.ansHits.Load(),
			AnswerMisses:  db.ansMisses.Load(),
			AnswerEntries: entries[db.name],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// New returns a Server with no databases loaded.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = defaultCacheSize
	}
	preparedSize := cfg.PreparedSize
	if preparedSize == 0 {
		preparedSize = defaultPreparedSize
	}
	slowLog := cfg.SlowQueryLog
	if slowLog == nil && cfg.SlowQueryThreshold > 0 {
		slowLog = os.Stderr
	}
	s := &Server{
		workers:       workers,
		sem:           make(chan struct{}, workers),
		dbs:           make(map[string]*database),
		prepared:      newLRU(preparedSize),
		answers:       newLRU(cacheSize),
		slowThreshold: cfg.SlowQueryThreshold,
		slowLog:       slowLog,
		recorder:      newFlightRecorder(cfg.FlightSize),
		idBase:        fmt.Sprintf("%06x", rand.Int31n(1<<24)),
	}
	s.metrics = newServerMetrics(s)
	return s
}

// Workers reports the effective worker/admission pool size.
func (s *Server) Workers() int { return s.workers }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.cacheMu.Lock()
	ansN, prepN := s.answers.len(), s.prepared.len()
	s.cacheMu.Unlock()
	return Stats{
		Requests:       s.stats.Requests.Load(),
		Errors:         s.stats.Errors.Load(),
		PreparedHits:   s.stats.PreparedHits.Load(),
		PreparedMisses: s.stats.PreparedMisses.Load(),
		AnswerHits:     s.stats.AnswerHits.Load(),
		AnswerMisses:   s.stats.AnswerMisses.Load(),
		Coalesced:      s.stats.Coalesced.Load(),
		InFlightEvals:  s.stats.InFlightEvals.Load(),
		AnswerEntries:  ansN,
		PreparedCached: prepN,
		DBs:            s.DBStats(),
	}
}

// AddWSD registers an in-memory decomposition under name. The
// decomposition is normalized here (the one mutation) and must not be
// mutated by the caller afterwards.
func (s *Server) AddWSD(name string, w *wsd.WSD) error {
	if err := w.Normalize(); err != nil {
		return fmt.Errorf("normalize %s: %w", name, err)
	}
	return s.register(&database{name: name, version: 1, wsd: w})
}

// AddTables registers an in-memory conditioned-table database under
// name. The database must not be mutated by the caller afterwards.
func (s *Server) AddTables(name string, d *table.Database) error {
	return s.register(&database{name: name, version: 1, tab: d})
}

// Open loads a .pw database file (either backend) under name.
func (s *Server) Open(name, path string) error {
	db := &database{name: name, path: path, version: 1}
	if err := loadInto(db, path); err != nil {
		return err
	}
	return s.register(db)
}

// testHookReloadAfterRead, when non-nil, runs after a reload has parsed
// the file but before it installs the result — with writeMu held. Tests
// use it to prove reloads serialize: a second reload started during the
// hook must observe the first one's install.
var testHookReloadAfterRead func(name string)

// Reload re-reads a file-backed database and installs the fresh backend
// under the write lock, bumping the version. Every answer cached
// against the old version becomes unreachable at that instant and is
// purged from the answer cache. Concurrent reloads of one database are
// serialized by its writeMu: without it, two reloads could each read
// the file and then install in the opposite order, leaving the older
// file content live at the higher version.
func (s *Server) Reload(name string) error {
	s.mu.RLock()
	db := s.dbs[name]
	s.mu.RUnlock()
	if db == nil {
		return &Error{Status: 404, Err: fmt.Errorf("unknown database %q", name)}
	}
	if db.path == "" {
		return &Error{Status: 400, Err: fmt.Errorf("database %q is in-memory and cannot be reloaded", name)}
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	fresh := &database{name: name, path: db.path}
	if err := loadInto(fresh, db.path); err != nil {
		return err
	}
	if testHookReloadAfterRead != nil {
		testHookReloadAfterRead(name)
	}
	db.mu.Lock()
	db.wsd, db.tab = fresh.wsd, fresh.tab
	db.version++
	live := db.version
	db.mu.Unlock()
	s.purgeStale(name, live)
	return nil
}

// purgeStale drops every answer-cache entry that references database
// name at a version other than live — both entries keyed directly on
// the database and cont entries embedding it as the superset side.
func (s *Server) purgeStale(name string, live uint64) {
	current := strconv.FormatUint(live, 10)
	s.cacheMu.Lock()
	purged := s.answers.purge(func(key string) bool {
		// Key layout: kind \x00 db \x00 version \x00 rest; cont keys embed
		// db2 \x00 version2 at the head of rest.
		parts := strings.SplitN(key, "\x00", 4)
		if len(parts) < 4 {
			return false
		}
		if parts[1] == name && parts[2] != current {
			return true
		}
		if parts[0] == "cont" {
			rest := strings.SplitN(parts[3], "\x00", 3)
			if len(rest) >= 2 && rest[0] == name && rest[1] != current {
				return true
			}
		}
		return false
	})
	s.cacheMu.Unlock()
	s.metrics.ansPurged.Add(uint64(purged))
}

func loadInto(db *database, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := parse.ParseSource(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case src.WSD != nil:
		// ParseWSD normalizes on the way in; Normalize here is the
		// explicit share-across-goroutines handshake and a no-op.
		if err := src.WSD.Normalize(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		db.wsd = src.WSD
	case src.DB != nil:
		db.tab = src.DB
	default:
		return fmt.Errorf("%s is a @query file, not a database", path)
	}
	return nil
}

func (s *Server) register(db *database) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.dbs[db.name]; dup {
		return fmt.Errorf("database %q already loaded", db.name)
	}
	s.dbs[db.name] = db
	return nil
}

// view snapshots a database's backend and version under its read lock.
func (s *Server) view(name string) (dbView, error) {
	s.mu.RLock()
	db := s.dbs[name]
	s.mu.RUnlock()
	if db == nil {
		return dbView{}, &Error{Status: 404, Err: fmt.Errorf("unknown database %q", name)}
	}
	db.mu.RLock()
	v := dbView{name: db.name, version: db.version, wsd: db.wsd, tab: db.tab, db: db}
	db.mu.RUnlock()
	return v, nil
}

// DBInfo describes one loaded database for the /dbs listing.
type DBInfo struct {
	Name    string `json:"name"`
	Path    string `json:"path,omitempty"`
	Version uint64 `json:"version"`
	Backend string `json:"backend"` // "wsd" or "table"
	Kind    string `json:"kind"`    // "tuple", "attr", or "table"
	Count   string `json:"count,omitempty"`
}

// Databases lists the loaded databases, sorted by name. Counts are
// reported only for decompositions, where they are O(components).
func (s *Server) Databases() []DBInfo {
	s.mu.RLock()
	out := make([]DBInfo, 0, len(s.dbs))
	for _, db := range s.dbs {
		db.mu.RLock()
		info := DBInfo{Name: db.name, Path: db.path, Version: db.version}
		info.Backend, info.Kind = backendKind(db.wsd, db.tab)
		if db.wsd != nil {
			info.Count = db.wsd.Count().String()
		}
		db.mu.RUnlock()
		out = append(out, info)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Error is a request-level failure with an HTTP status classification.
type Error struct {
	Status int
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) *Error {
	return &Error{Status: 400, Err: fmt.Errorf(format, args...)}
}

// statusFor classifies an error for the HTTP layer: explicit *Error
// statuses pass through; queries outside a backend's decidable fragment
// are 422 (unprocessable, resubmitting won't help); anything else is a
// 400-class input problem (this server computes on trusted resident
// data — evaluation errors stem from the request's query or payload).
func statusFor(err error) int {
	var se *Error
	if errors.As(err, &se) {
		return se.Status
	}
	if errors.Is(err, wsdalg.ErrUnsupported) || errors.Is(err, wsdalg.ErrEntangled) ||
		errors.Is(err, wsd.ErrInfiniteRep) || errors.Is(err, algebra.ErrWorldSetOp) {
		return 422
	}
	return 400
}

// Request is one query-server request (the POST /query body).
type Request struct {
	DB     string `json:"db"`
	Op     string `json:"op"`
	Query  string `json:"query,omitempty"`  // @query text for poss-ans/cert-ans, or the -db view for cont
	Query2 string `json:"query2,omitempty"` // the -db2 view for cont
	DB2    string `json:"db2,omitempty"`    // superset database for cont
	Inst   string `json:"inst,omitempty"`   // .pw instance text for memb/uniq
	Facts  string `json:"facts,omitempty"`  // .pw instance text for poss/cert
	Update string `json:"update,omitempty"` // @update text for write
	N      int    `json:"n,omitempty"`      // sample count (default 1)
	Seed   int64  `json:"seed,omitempty"`   // sample seed (0 means the documented default)
}

// Response is the answer to one Request.
type Response struct {
	DB      string   `json:"db,omitempty"`
	Op      string   `json:"op"`
	Version uint64   `json:"version,omitempty"`
	Answer  *bool    `json:"answer,omitempty"` // memb/uniq/poss/cert/cont
	Count   string   `json:"count,omitempty"`  // count (decimal, exact)
	Facts   string   `json:"facts,omitempty"`  // poss-ans/cert-ans (.pw instance text)
	Worlds  []string `json:"worlds,omitempty"` // sample (.pw instance texts)
	// Cached reports the answer was served from the answer cache with no
	// evaluation this request; Coalesced that it piggybacked on another
	// request's in-flight evaluation.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// RequestID, Trace and Cost are filled by the HTTP layer on ?trace=1
	// requests: the span tree and the nonzero cost counters recorded
	// while answering this request.
	RequestID string           `json:"request_id,omitempty"`
	Trace     *obs.SpanNode    `json:"trace,omitempty"`
	Cost      map[string]int64 `json:"cost,omitempty"`
	// Plan is the EXPLAIN/ANALYZE record attached on ?explain=1 (or
	// CallOptions.Explain): per-operator estimates and actuals for
	// evaluated queries, a summary probe plan for decomposition-native
	// ops. A cached answer carries the plan recorded when its cache
	// entry was evaluated, not a fresh one.
	Plan *wsdalg.Plan `json:"plan,omitempty"`
}

// CallOptions modulate one Do call: an optional trace to record spans
// and cost into, whether to attach an EXPLAIN plan to the response, and
// the request ID to correlate the flight-recorder entry and slow-query
// line with (the HTTP layer passes the X-Request-Id it minted; direct
// callers may leave it empty).
type CallOptions struct {
	Trace     *obs.Trace
	Explain   bool
	RequestID string
}

// Do answers one request. It is the transport-independent core the HTTP
// layer (and the benchmarks, and the difftest backend) call.
func (s *Server) Do(req *Request) (*Response, error) {
	return s.DoCall(req, CallOptions{})
}

// DoCall answers one request under explicit CallOptions. Every request
// lands one entry in the flight recorder; failures additionally mark
// the trace root with the error class so an error response still
// carries a complete, annotated span tree.
func (s *Server) DoCall(req *Request, opts CallOptions) (*Response, error) {
	rc := newReqCtx(opts.Trace)
	rc.explain = opts.Explain
	rc.id = opts.RequestID
	start := time.Now()
	s.stats.Requests.Add(1)
	op := s.metrics.op(req.Op)
	s.metrics.requests[op].Inc()
	if opts.Explain {
		s.metrics.explain.Inc()
	}
	resp, err := s.dispatch(req, rc)
	if err != nil {
		s.stats.Errors.Add(1)
		s.metrics.errors[op].Inc()
		rc.tr.Root().SetError(errorClass(err))
	}
	dur := time.Since(start)
	s.metrics.latency[op].Observe(dur.Seconds())
	if rc.explain && resp != nil {
		resp.Plan = rc.plan
	}
	s.recordFlight(req, rc, dur, err, resp)
	s.maybeLogSlow(req, rc, dur, err)
	if err != nil && rc.explain && rc.plan != nil {
		// ?explain=1 parity on the error path: the partial plan (error
		// class marked at the failing node) rides the error the same
		// way the span tree rides a traced failure.
		err = &PlanError{Err: err, Plan: rc.plan}
	}
	return resp, err
}

// PlanError carries the partial EXPLAIN plan of a failed explain
// request alongside the underlying error; errors.Is/As see through it.
type PlanError struct {
	Err  error
	Plan *wsdalg.Plan
}

func (e *PlanError) Error() string { return e.Err.Error() }
func (e *PlanError) Unwrap() error { return e.Err }

// errorClass names an error for span annotations, flight records and
// the slow-query log: the evaluator's refusal classes, the
// representation-system limit, or the HTTP status family.
func errorClass(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, wsd.ErrInfiniteRep) {
		return "infinite_rep"
	}
	if c := wsdalg.ErrorClass(err); c != "error" {
		return c
	}
	var se *Error
	if errors.As(err, &se) {
		return fmt.Sprintf("http_%d", se.Status)
	}
	return "error"
}

// recordFlight lands one entry in the flight recorder (no-op when
// recording is disabled). Slow and failed requests keep a one-line plan
// summary when evaluation produced one.
func (s *Server) recordFlight(req *Request, rc *reqCtx, dur time.Duration, err error, resp *Response) {
	if s.recorder == nil {
		return
	}
	e := flightEntry{
		id:     rc.id,
		t:      time.Now(),
		op:     req.Op,
		db:     req.DB,
		fp:     rc.fp,
		dur:    dur,
		status: 200,
		cost:   rc.cost.Snapshot(),
	}
	if resp != nil {
		e.version, e.cached, e.coalesced = resp.Version, resp.Cached, resp.Coalesced
	}
	if err != nil {
		e.status, e.errMsg = statusFor(err), err.Error()
	}
	e.slow = s.slowThreshold > 0 && dur >= s.slowThreshold
	if e.slow || err != nil {
		e.plan = planSummary(rc.plan)
	}
	s.recorder.record(e)
	s.metrics.flightRecords.Inc()
}

// planSummary compresses a plan to one line for ring slots and log
// lines (the full tree stays behind ?explain=1 / pwq explain).
func planSummary(p *wsdalg.Plan) string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s components=%d", p.Query, p.Components)
	if p.WorldCount != "" {
		fmt.Fprintf(&b, " worlds=%s", p.WorldCount)
	}
	if p.Error != "" {
		fmt.Fprintf(&b, " !%s", p.Error)
	}
	if n := p.Assemble; n != nil && n.Act.MergeSpace > 0 {
		fmt.Fprintf(&b, " assemble_merge=%d", n.Act.MergeSpace)
	}
	fmt.Fprintf(&b, " us=%d", p.DurUS)
	return b.String()
}

func (s *Server) dispatch(req *Request, rc *reqCtx) (*Response, error) {
	if req.DB == "" {
		return nil, badRequest("missing db")
	}
	if req.Op == "write" {
		return s.opWrite(req, rc)
	}
	v, err := s.view(req.DB)
	if err != nil {
		return nil, err
	}
	resp := &Response{DB: v.name, Op: req.Op, Version: v.version}
	start := time.Now()
	var out *Response
	switch req.Op {
	case "memb":
		out, err = s.opMemb(req, v, resp, rc)
	case "uniq":
		out, err = s.opUniq(req, v, resp, rc)
	case "poss", "cert":
		out, err = s.opPossCert(req, v, resp, rc)
	case "count":
		out, err = s.opCount(v, resp, rc)
	case "sample":
		out, err = s.opSample(req, v, resp, rc)
	case "poss-ans", "cert-ans":
		out, err = s.opAnswers(req, v, resp, rc)
	case "cont":
		out, err = s.opCont(req, v, resp, rc)
	case "":
		return nil, badRequest("missing op")
	default:
		return nil, badRequest("unknown op %q", req.Op)
	}
	// Decomposition-native ops never run the evaluator; on explain they
	// get a summary probe plan (input size, exact world count, wall
	// time) so ?explain=1 is meaningful on every op. Evaluated paths
	// already filled rc.plan with the real operator tree.
	if err == nil && rc.explain && rc.plan == nil && v.wsd != nil {
		rc.plan = probePlan(req.Op, v, time.Since(start))
	}
	return out, err
}

// probePlan is the explain record of a decomposition-native op that
// answered straight off the resident WSD, with no algebra evaluation.
func probePlan(op string, v dbView, dur time.Duration) *wsdalg.Plan {
	return &wsdalg.Plan{
		Query:      op,
		Components: int64(v.wsd.Components()),
		WorldCount: v.worldCount(),
		DurUS:      dur.Microseconds(),
	}
}

// worldCount is v.wsd.Count().String() memoized per installed version
// (the decomposition snapshotted by a view never changes, so the count
// computed once is good for every request until the next install).
func (v dbView) worldCount() string {
	if v.db != nil {
		if c := v.db.count.Load(); c != nil && c.version == v.version {
			return c.count
		}
	}
	s := v.wsd.Count().String()
	if v.db != nil {
		v.db.count.Store(&countCache{version: v.version, count: s})
	}
	return s
}

// acquire blocks until an admission slot frees up. Heavy procedures —
// anything that evaluates a query, runs a c-table decision search, or
// counts by enumeration — pass through here; decomposition-native fact
// probes do not, so they cannot be starved by expensive traffic. The
// wait is recorded three ways: a span on the trace, the request's
// SemWaitNanos counter, and the process-wide wait histogram.
func (s *Server) acquire(rc *reqCtx) func() {
	sp := rc.span("admission")
	start := time.Now()
	s.sem <- struct{}{}
	wait := time.Since(start)
	sp.End()
	rc.cost.Add(obs.SemWaitNanos, wait.Nanoseconds())
	s.metrics.semWait.Observe(wait.Seconds())
	s.stats.InFlightEvals.Add(1)
	s.metrics.inflight.Add(1)
	return func() {
		s.stats.InFlightEvals.Add(-1)
		s.metrics.inflight.Add(-1)
		<-s.sem
	}
}

func (s *Server) opts(rc *reqCtx) decide.Options {
	return decide.Options{Workers: s.workers, Cost: rc.cost}
}

func parseInstanceText(field, text string, rc *reqCtx) (*rel.Instance, error) {
	if text == "" {
		return nil, badRequest("missing %s", field)
	}
	sp := rc.span("parse")
	inst, err := parse.ParseInstanceObserved(strings.NewReader(text), rc.cost)
	sp.End()
	if err != nil {
		return nil, badRequest("%s: %v", field, err)
	}
	return inst, nil
}

func printInstance(inst *rel.Instance) (string, error) {
	var b strings.Builder
	if err := parse.PrintInstance(&b, inst); err != nil {
		return "", err
	}
	return b.String(), nil
}

func yes(resp *Response, v bool) *Response { resp.Answer = &v; return resp }

func (s *Server) opMemb(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	inst, err := parseInstanceText("inst", req.Inst, rc)
	if err != nil {
		return nil, err
	}
	if v.wsd != nil {
		sp := rc.span("probe")
		defer sp.End()
		return yes(resp, v.wsd.Member(inst)), nil
	}
	defer s.acquire(rc)()
	sp := rc.span("decide")
	defer sp.End()
	ok, err := s.opts(rc).Membership(inst, query.Identity{}, v.tab)
	if err != nil {
		return nil, err
	}
	return yes(resp, ok), nil
}

func (s *Server) opUniq(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	inst, err := parseInstanceText("inst", req.Inst, rc)
	if err != nil {
		return nil, err
	}
	if v.wsd != nil {
		sp := rc.span("probe")
		defer sp.End()
		one := v.wsd.Count().Cmp(big.NewInt(1)) == 0
		return yes(resp, one && v.wsd.Member(inst)), nil
	}
	defer s.acquire(rc)()
	sp := rc.span("decide")
	defer sp.End()
	ok, err := s.opts(rc).Uniqueness(query.Identity{}, v.tab, inst)
	if err != nil {
		return nil, err
	}
	return yes(resp, ok), nil
}

func (s *Server) opPossCert(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	facts, err := parseInstanceText("facts", req.Facts, rc)
	if err != nil {
		return nil, err
	}
	if v.wsd != nil {
		sp := rc.span("probe")
		defer sp.End()
		if req.Op == "poss" {
			return yes(resp, v.wsd.Possible(facts)), nil
		}
		return yes(resp, v.wsd.Certain(facts)), nil
	}
	defer s.acquire(rc)()
	sp := rc.span("decide")
	defer sp.End()
	var ok bool
	if req.Op == "poss" {
		ok, err = s.opts(rc).Possible(facts, query.Identity{}, v.tab)
	} else {
		ok, err = s.opts(rc).Certain(facts, query.Identity{}, v.tab)
	}
	if err != nil {
		return nil, err
	}
	return yes(resp, ok), nil
}

func (s *Server) opCount(v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	if v.wsd != nil {
		sp := rc.span("probe")
		defer sp.End()
		resp.Count = v.worldCount()
		return resp, nil
	}
	key := cacheKey("count", v.name, v.version, "")
	n, cached, coalesced, err := s.cachedEval(v.db, key, rc, func() (any, error) {
		defer s.acquire(rc)()
		sp := rc.span("count")
		defer sp.End()
		return worlds.Options{Workers: s.workers}.Count(v.tab), nil
	})
	if err != nil {
		return nil, err
	}
	resp.Count = strconv.Itoa(n.(int))
	resp.Cached, resp.Coalesced = cached, coalesced
	return resp, nil
}

// defaultSampleSeed is the seed used when a sample request omits the
// field (JSON zero value). It is deliberately not a small seed a client
// would plausibly pick: the old behavior coerced 0 to 1, silently
// aliasing the default onto the explicit seed=1 stream so the two
// requests drew identical worlds.
const defaultSampleSeed = 0x705753_1987 // "pw" / the paper's year

func (s *Server) opSample(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	n := req.N
	if n == 0 {
		n = 1
	}
	if n < 0 || n > 1000 {
		return nil, badRequest("n must be in [1, 1000]")
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultSampleSeed
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		var inst *rel.Instance
		if v.wsd != nil {
			if inst = v.wsd.Sample(rng); inst == nil {
				return nil, badRequest("cannot sample from the empty world set")
			}
		} else {
			release := s.acquire(rc)
			var ok bool
			inst, ok = gen.MemberInstance(seed+int64(k), v.tab)
			release()
			if !ok {
				return nil, badRequest("no member world found within the sampling budget; try a different seed")
			}
		}
		text, err := printInstance(inst)
		if err != nil {
			return nil, err
		}
		resp.Worlds = append(resp.Worlds, text)
	}
	return resp, nil
}

// opWrite applies an @update program to a decomposition-backed database
// and installs the result as a new version. The slow half — parsing the
// program and the incremental renormalization — runs under the
// database's writeMu only, so concurrent readers keep answering against
// the pre-update snapshot (ApplyUpdate is copy-on-write: the installed
// result shares untouched components with the old version, which is
// never mutated). The install itself is one short critical section
// under db.mu, after which cache entries for dead versions are purged.
func (s *Server) opWrite(req *Request, rc *reqCtx) (*Response, error) {
	if req.Update == "" {
		return nil, badRequest("missing update")
	}
	sp := rc.span("parse")
	u, err := parse.ParseUpdateObserved(strings.NewReader(req.Update), rc.cost)
	sp.End()
	if err != nil {
		return nil, badRequest("update: %v", err)
	}
	s.mu.RLock()
	db := s.dbs[req.DB]
	s.mu.RUnlock()
	if db == nil {
		return nil, &Error{Status: 404, Err: fmt.Errorf("unknown database %q", req.DB)}
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.RLock()
	base := db.wsd
	db.mu.RUnlock()
	if base == nil {
		return nil, &Error{Status: 422, Err: fmt.Errorf(
			"database %q is table-backed; updates need a decomposition (@wsd) database", req.DB)}
	}
	release := s.acquire(rc)
	sp = rc.span("apply-update")
	next, err := base.ApplyUpdateObserved(u, rc.cost)
	sp.End()
	release()
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.wsd = next
	db.version++
	live := db.version
	db.mu.Unlock()
	s.purgeStale(req.DB, live)
	resp := &Response{DB: req.DB, Op: "write", Version: live}
	resp.Count = next.Count().String()
	return resp, nil
}

// prepared is one compiled query: the parsed algebra plan plus its
// canonical fingerprint (the plan's printed form, so equivalent
// spellings share one answer-cache line).
type preparedQuery struct {
	q  query.Algebra
	fp string
}

// prepare compiles @query text through the prepared-query cache.
func (s *Server) prepare(text string, rc *reqCtx) (*preparedQuery, error) {
	s.cacheMu.Lock()
	if v, ok := s.prepared.get(text); ok {
		s.cacheMu.Unlock()
		s.stats.PreparedHits.Add(1)
		s.metrics.prepHits.Inc()
		return v.(*preparedQuery), nil
	}
	s.cacheMu.Unlock()
	s.stats.PreparedMisses.Add(1)
	s.metrics.prepMisses.Inc()
	sp := rc.span("prepare")
	defer sp.End()
	src, err := parse.ParseSourceObserved(strings.NewReader(text), rc.cost)
	if err != nil {
		return nil, badRequest("query: %v", err)
	}
	if src.Query == nil {
		return nil, badRequest("query text does not contain a @query block")
	}
	var b strings.Builder
	if err := parse.PrintQuery(&b, *src.Query); err != nil {
		return nil, badRequest("query: %v", err)
	}
	p := &preparedQuery{q: *src.Query, fp: b.String()}
	s.cacheMu.Lock()
	s.prepared.add(text, p)
	s.cacheMu.Unlock()
	return p, nil
}

// prepareOrIdentity resolves optional query text (cont's views): empty
// text is the identity query with a reserved fingerprint.
func (s *Server) prepareOrIdentity(text string, rc *reqCtx) (query.Query, string, error) {
	if text == "" {
		return query.Identity{}, "~identity", nil
	}
	p, err := s.prepare(text, rc)
	if err != nil {
		return nil, "", err
	}
	return p.q, p.fp, nil
}

func cacheKey(kind, db string, version uint64, rest string) string {
	return kind + "\x00" + db + "\x00" + strconv.FormatUint(version, 10) + "\x00" + rest
}

// cachedEval is the answer-cache + singleflight core: a cache hit
// returns immediately; otherwise concurrent callers with the same key
// share one execution of fn, whose result is cached for the next
// request. With caching disabled the flight still coalesces identical
// in-flight work. Outcomes are recorded globally, per database, and in
// the request's cost counters; coalesced requests correctly lack eval
// spans — fn ran on the first caller's goroutine.
func (s *Server) cachedEval(db *database, key string, rc *reqCtx, fn func() (any, error)) (val any, cached, coalesced bool, err error) {
	s.cacheMu.Lock()
	if v, ok := s.answers.get(key); ok {
		s.cacheMu.Unlock()
		s.stats.AnswerHits.Add(1)
		s.metrics.ansHits.Inc()
		db.ansHits.Add(1)
		rc.cost.Add(obs.CacheHits, 1)
		return v, true, false, nil
	}
	s.cacheMu.Unlock()
	s.stats.AnswerMisses.Add(1)
	s.metrics.ansMisses.Inc()
	db.ansMisses.Add(1)
	rc.cost.Add(obs.CacheMisses, 1)
	val, err, coalesced = s.flight.do(key, func() (any, error) {
		v, err := fn()
		if err != nil {
			return nil, err
		}
		s.cacheMu.Lock()
		s.answers.add(key, v)
		s.cacheMu.Unlock()
		return v, nil
	})
	if coalesced {
		s.stats.Coalesced.Add(1)
		s.metrics.coalesced.Inc()
		rc.cost.Add(obs.CoalescedWaits, 1)
	}
	return val, false, coalesced, err
}

// evalEntry is one cached answer decomposition plus the answer
// instances read off it, derived at most once each, and the EXPLAIN
// plan recorded by the evaluation that populated the entry.
type evalEntry struct {
	out  *wsd.WSD
	plan *wsdalg.Plan

	possOnce sync.Once
	poss     *rel.Instance
	possErr  error

	certOnce sync.Once
	cert     *rel.Instance
	certErr  error
}

// possAnswers reads the possible answers off the cached decomposition.
func (e *evalEntry) possAnswers() (*rel.Instance, error) {
	e.possOnce.Do(func() {
		// Identity on the already-evaluated decomposition: reuse the
		// plan output, skip re-evaluation.
		e.poss, e.possErr = wsdalg.PossibleAnswers(e.out, query.Identity{})
	})
	return e.poss, e.possErr
}

func (e *evalEntry) certAnswers() (*rel.Instance, error) {
	e.certOnce.Do(func() {
		e.cert, e.certErr = wsdalg.CertainAnswers(e.out, query.Identity{})
	})
	return e.cert, e.certErr
}

// ansEntry caches a final answer instance (the c-table engine path,
// which has no reusable intermediate decomposition).
type ansEntry struct{ inst *rel.Instance }

func (s *Server) opAnswers(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	// An empty query is the identity: the possible/certain facts of the
	// database's own world set.
	q, fp, err := s.prepareOrIdentity(req.Query, rc)
	if err != nil {
		return nil, err
	}
	rc.fp = fp
	var inst *rel.Instance
	if v.wsd != nil {
		// One cache line per (db-version, fingerprint) holds the
		// evaluated answer decomposition; poss-ans and cert-ans on the
		// same query share it.
		key := cacheKey("eval", v.name, v.version, fp)
		val, cached, coalesced, err := s.cachedEval(v.db, key, rc, func() (any, error) {
			defer s.acquire(rc)()
			sp := rc.span("eval")
			defer sp.End()
			// EvalOptimized rather than a bare evaluation: planning plus
			// the plan cost microseconds next to the evaluation they
			// describe, and keeping the plan in the cache entry lets
			// explain requests on cache hits answer without
			// re-evaluating.
			out, plan, err := wsdalg.EvalOptimized(v.wsd, q, rc.cost)
			if err != nil {
				sp.SetError(errorClass(err))
				rc.plan = plan // partial, error-marked: flight/slow log still see it
				return nil, err
			}
			return &evalEntry{out: out, plan: plan}, nil
		})
		if err != nil {
			return nil, err
		}
		entry := val.(*evalEntry)
		rc.plan = entry.plan
		sp := rc.span("answers")
		if req.Op == "poss-ans" {
			inst, err = entry.possAnswers()
		} else {
			inst, err = entry.certAnswers()
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		resp.Cached, resp.Coalesced = cached, coalesced
	} else {
		key := cacheKey("tans:"+req.Op, v.name, v.version, fp)
		val, cached, coalesced, err := s.cachedEval(v.db, key, rc, func() (any, error) {
			defer s.acquire(rc)()
			sp := rc.span("decide")
			defer sp.End()
			var a *rel.Instance
			var err error
			if req.Op == "poss-ans" {
				a, err = s.opts(rc).PossibleAnswers(q, v.tab)
			} else {
				a, err = s.opts(rc).CertainAnswers(q, v.tab)
			}
			if err != nil {
				return nil, err
			}
			return &ansEntry{inst: a}, nil
		})
		if err != nil {
			return nil, err
		}
		inst = val.(*ansEntry).inst
		resp.Cached, resp.Coalesced = cached, coalesced
	}
	text, err := printInstance(inst)
	if err != nil {
		return nil, err
	}
	resp.Facts = text
	return resp, nil
}

func (s *Server) opCont(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	if req.DB2 == "" {
		return nil, badRequest("missing db2")
	}
	v2, err := s.view(req.DB2)
	if err != nil {
		return nil, err
	}
	q0, fp0, err := s.prepareOrIdentity(req.Query, rc)
	if err != nil {
		return nil, err
	}
	q1, fp1, err := s.prepareOrIdentity(req.Query2, rc)
	if err != nil {
		return nil, err
	}
	rc.fp = fp0 + " ⊆ " + fp1
	rest := v2.name + "\x00" + strconv.FormatUint(v2.version, 10) + "\x00" + fp0 + "\x00" + fp1
	key := cacheKey("cont", v.name, v.version, rest)
	val, cached, coalesced, err := s.cachedEval(v.db, key, rc, func() (any, error) {
		defer s.acquire(rc)()
		sp := rc.span("decide")
		defer sp.End()
		return contDecide(q0, v, q1, v2, s.opts(rc))
	})
	if err != nil {
		return nil, err
	}
	resp.Cached, resp.Coalesced = cached, coalesced
	return yes(resp, val.(bool)), nil
}

// contDecide mirrors pwq's cont dispatch: both sides tables → the
// decision engine (every query class); otherwise the native wsdalg
// containment, compiling a table side to its exact decomposition first.
func contDecide(q0 query.Query, v dbView, q1 query.Query, v2 dbView, o decide.Options) (bool, error) {
	if v.wsd == nil && v2.wsd == nil {
		return o.Containment(q0, v.tab, q1, v2.tab)
	}
	w, w2 := v.wsd, v2.wsd
	if w == nil {
		var err error
		if w, err = wsd.ToWSD(v.tab); errors.Is(err, wsd.ErrInfiniteRep) && query.IsIdentity(q0) {
			// Infinitely many subset worlds cannot fit in a finite
			// decomposition's world set.
			return false, nil
		} else if err != nil {
			return false, err
		}
	}
	if w2 == nil {
		var err error
		if w2, err = wsd.ToWSD(v2.tab); err != nil {
			return false, fmt.Errorf("superset side: %w", err)
		}
	}
	return wsdalg.ContainmentViews(q0, w, q1, w2)
}
