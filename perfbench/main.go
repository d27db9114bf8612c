// Command perfbench is the repository benchmark: it drives a real pwd
// process over HTTP with a seeded workload, checks every answer, and
// prints every metric by name with its unit. See README.md.
//
// Usage (from the repository root, after building cmd/pwd):
//
//	perfbench -pwd PATH -workload probe-hot|query-cold|write-mix|all
//	    [-seed 1] [-seconds 30] [-trace 0|1] [-work DIR]
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: with -trace 0 the
// end-to-end metrics of an untraced run, with -trace 1 the per-layer
// metrics of a traced run. The exit code is 1 when any answer was
// wrong or failed, 2 on a usage or setup error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	pwd      string
	work     string
	nproc    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: probe-hot, query-cold, write-mix, or all of them in turn")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 30, "seconds of measured load rounds, set-ups left out")
	fs.IntVar(&cfg.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.pwd, "pwd", "", "path to a built cmd/pwd binary")
	echo := fs.Bool("echo", false, "serve the reference echo server (the benchmark starts this itself)")
	fs.StringVar(&cfg.work, "work", ".bench_build/run", "directory for generated databases and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *echo {
		return serveEcho()
	}
	cfg.nproc = allowed.count()
	if cfg.pwd == "" || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -pwd, -seconds ≥ 1 and -trace 0 or 1")
		return 2
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			stopAll()
			os.Exit(130)
		}
	}()
	defer stopAll()

	var res *result
	if cfg.workload == "all" {
		res = runAll(cfg, stdout, stderr)
	} else {
		res = runOne(cfg, stdout, stderr)
	}
	if res == nil {
		return 2
	}
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

// runOne runs one workload, printing its machine tags, metric lines and
// failure breakdown; it returns nil on a set-up error.
func runOne(cfg config, stdout, stderr io.Writer) *result {
	genStart := time.Now()
	w, err := generate(cfg.workload, cfg.seed, scale{})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return nil
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-pid%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return nil
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "main.pw")
	if err := os.WriteFile(dbPath, []byte(w.dbText), 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return nil
	}

	// The load phases run on one processor (see pin.go).
	if err := pin(allowed.first()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return nil
	}
	tags := machine(cfg)
	tb, _ := json.Marshal(tags)
	fmt.Fprintf(stdout, "machine %s\n", tb)
	fmt.Fprintf(stdout, "workload %s: %s worlds, %d components, %d distinct reads, %d-write cycle (generated in %.2fs)\n",
		w.name, w.count, len(w.m.blocks), distinct(w.reads), len(w.writes), time.Since(genStart).Seconds())

	var ms map[string]metric
	var t *tally
	if cfg.trace == 0 {
		ms, t, err = endToEnd(cfg, w, dbPath, stdout)
	} else {
		ms, t, err = perLayer(cfg, w, dbPath, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return nil
	}
	for _, name := range sortedNames(ms) {
		fmt.Fprintf(stdout, "metric %-36s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
	fmt.Fprintf(stdout, "fail_ratio %.6f (%d failed of %d attempted) by op/class: %s\n",
		float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted, failSummary(t.fails))
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}
}

func distinct(rs []*request) int {
	seen := map[*request]bool{}
	for _, r := range rs {
		seen[r] = true
	}
	return len(seen)
}

// setupsPerRound is how many extra pwd start-ups the untraced run
// times after each measured round; setup_s is the median of all of
// them and the serving pwd's own start. Spreading them over the run
// gives set-up the same share of the host's slow and fast stretches as
// the other figures.
const setupsPerRound = 2

// warmup is the untimed lead-in before the measured phase: long enough
// for the answer cache to fill and the server's heap to settle.
const warmup = time.Second

func warm(d *runner) *tally {
	if d.w.openRate > 0 {
		t, _ := d.open(warmup)
		return t
	}
	return d.closed(warmup)
}

// endToEnd is the untraced run: a warm-up, then the measured phase
// with timed pwd start-ups between its rounds.
func endToEnd(cfg config, w *workload, dbPath string, out io.Writer) (map[string]metric, *tally, error) {
	c, err := startChild(cfg.pwd, dbPath, cfg.nproc)
	if err != nil {
		return nil, nil, err
	}
	defer c.stop()
	setupTimes := []time.Duration{c.setup}
	timeSetups := func() error {
		for i := 0; i < setupsPerRound; i++ {
			ch, err := startChild(cfg.pwd, dbPath, cfg.nproc)
			if err != nil {
				return err
			}
			setupTimes = append(setupTimes, ch.setup)
			ch.stop()
		}
		return nil
	}
	m, total, err := load(cfg, w, c, timeSetups)
	if err != nil {
		return nil, nil, err
	}
	ref := m.refs()
	fmt.Fprintf(out, "samples: %d reads and %d writes timed, %d requests in %.1fs of throughput phases, %d reference requests, %d setups\n",
		len(m.reads), len(m.writes), m.served, m.busy.Seconds(), len(m.ref), len(setupTimes))
	fmt.Fprintf(out, "in microseconds: latency_p50 %.1f, write_p50 %.1f, reference request %.1f; throughput %.1f/s\n",
		us(quantile(m.reads, 0.5)), us(quantile(m.writes, 0.5)), us(ref), m.throughput())
	ms := map[string]metric{
		"setup_s":            {quantile(setupTimes, 0.5).Seconds(), "s"},
		"throughput_per_ref": {m.perRound(func(r round) float64 { return r.throughput }), "1/ref"},
		"latency_p50_ref":    {m.perRound(func(r round) float64 { return r.readP50 }), "ref"},
		"write_p50_ref":      {m.perRound(func(r round) float64 { return r.writeP50 }), "ref"},
		"alloc_kb_per_req":   {float64(m.delta.MemStats.TotalAlloc) / 1024 / float64(max(m.requests, 1)), "KiB"},
		"peak_rss_mb":        {m.perRound(func(r round) float64 { return r.peakRSS }), "MiB"},
	}
	return ms, total, nil
}

// load warms pwd up and runs the measured phase against it, with the
// reference echo server alongside.
func load(cfg config, w *workload, c *child, between func() error) (*measured, *tally, error) {
	e, err := startEcho()
	if err != nil {
		return nil, nil, err
	}
	defer e.stop()
	ref := newRefMeter(e.base)
	defer ref.close()
	cl := newClient(c.base, conns(cfg))
	defer cl.close()
	d := newRunner(w, cl, ref)
	total := warm(d)
	m, err := measure(d, c, cl.hc, cfg.seconds, between)
	if err != nil {
		return nil, nil, err
	}
	total.merge(m.all)
	return m, total, nil
}

// perLayer is the traced run: an untraced load phase for the server's
// cache ratios and runtime counters, then the stream prefix replayed on
// one goroutine twice — plain, and traced through the layers.
func perLayer(cfg config, w *workload, dbPath string, out io.Writer) (map[string]metric, *tally, error) {
	ms := map[string]metric{}

	// Load phase, as in the untraced run.
	c, err := startChild(cfg.pwd, dbPath, cfg.nproc)
	if err != nil {
		return nil, nil, err
	}
	m, total, err := load(cfg, w, c, nil)
	c.stop()
	if err != nil {
		return nil, nil, err
	}
	n := float64(m.requests)
	v := m.delta.PWD
	ansLookups := float64(v.AnswerHits + v.AnswerMisses)
	prepLookups := float64(v.PreparedHits + v.PreparedMisses)
	ms["server.answer_lookups"] = metric{ansLookups, "count"}
	ms["server.answer_hit_ratio"] = metric{ratio(float64(v.AnswerHits), ansLookups), "ratio"}
	ms["server.prepared_lookups"] = metric{prepLookups, "count"}
	ms["server.prepared_hit_ratio"] = metric{ratio(float64(v.PreparedHits), prepLookups), "ratio"}
	ms["http.resp_bytes_per_req"] = metric{ratio(float64(m.respBytes), n), "bytes"}
	ms["runtime.gc_per_kreq"] = metric{ratio(float64(m.delta.MemStats.NumGC), n/1000), "count"}
	ms["loadgen.lag_us_p99"] = metric{us(quantile(m.lags, 0.99)), "us"}
	// The tails are reported here, without a bound: on a shared host
	// they move with the host more than with the program.
	ms["load.latency_p99_us"] = metric{us(quantile(m.reads, 0.99)), "us"}
	ms["load.write_p99_us"] = metric{us(quantile(m.writes, 0.99)), "us"}
	// The end-to-end timings in plain units, and the reference request
	// they are counted in there.
	ms["load.latency_p50_us"] = metric{us(quantile(m.reads, 0.5)), "us"}
	ms["load.write_p50_us"] = metric{us(quantile(m.writes, 0.5)), "us"}
	ms["load.throughput_rps"] = metric{m.throughput(), "1/s"}
	ms["host.ref_us"] = metric{us(m.refs()), "us"}

	// The replays run on every processor (see pin.go).
	if err := pin(allowed); err != nil {
		return nil, nil, err
	}

	// Plain replay of the prefix. A one-entry flight recorder keeps the
	// per-request read-back of the child's server.Do time small.
	prefix := w.prefix()
	c, err = startChild(cfg.pwd, dbPath, cfg.nproc, "-flightsize", "1")
	if err != nil {
		return nil, nil, err
	}
	cl := newClient(c.base, 1)
	plain, err := replayPlain(w, prefix, c, cl, total)
	cl.close()
	c.stop()
	if err != nil {
		return nil, nil, err
	}

	// Traced replay.
	c, err = startChild(cfg.pwd, dbPath, cfg.nproc)
	if err != nil {
		return nil, nil, err
	}
	cl = newClient(c.base, 1)
	start := time.Now()
	tr, err := traceReplay(w, dbPath, prefix, cl, cfg.nproc)
	cl.close()
	c.stop()
	if err != nil {
		return nil, nil, err
	}
	total.merge(tr.t)
	for k, v := range tr.metrics(plain) {
		ms[k] = v
	}
	spanPath := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.sp.write(spanPath); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "traced %d requests in %.2fs; %d spans written to %s\n", len(prefix), time.Since(start).Seconds(), len(tr.sp.list), spanPath)
	return ms, total, nil
}

// conns is the client's connection limit: one for reads and one for
// the open loop's writes, never more than nproc.
func conns(cfg config) int { return min(2, cfg.nproc) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
