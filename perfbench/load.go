package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client sends workload requests to one pwd over at most conns
// connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is the slice of a pwd response the checker reads.
type reply struct {
	Version uint64 `json:"version"`
	Answer  *bool  `json:"answer"`
	Count   string `json:"count"`
	Facts   string `json:"facts"`
}

// send posts one request and returns the status and body.
func (c *client) send(r *request) (int, []byte, error) {
	status, body, _, err := c.sendID(r)
	return status, body, err
}

// sendID is send plus the X-Request-Id pwd gave the request.
func (c *client) sendID(r *request) (int, []byte, string, error) {
	ctype := "application/json"
	if r.op == "write" {
		ctype = "text/plain"
	}
	resp, err := c.hc.Post(c.base+r.path, ctype, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("X-Request-Id"), err
}

// check compares one HTTP response with the expected answer and
// returns the failure class ("" when correct) and the version that
// served it.
func check(w *workload, r *request, status int, body []byte, err error, wantVersion uint64) (string, uint64) {
	if err != nil {
		return "transport", 0
	}
	if status != 200 {
		return "status_" + strconv.Itoa(status), 0
	}
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return "bad_json", 0
	}
	return checkReply(w, r, &rep, wantVersion), rep.Version
}

// checkReply compares a decoded answer with the expected one. A read's
// expected answer depends on the version that served it; a write must
// install exactly wantVersion and keep the world count.
func checkReply(w *workload, r *request, rep *reply, wantVersion uint64) string {
	if r.op == "write" {
		if rep.Version != wantVersion {
			return "wrong_version"
		}
		if rep.Count != w.count {
			return "wrong_answer"
		}
		return ""
	}
	st := stateOf(rep.Version, w.renamed)
	if st >= len(r.want) {
		return "wrong_version"
	}
	if answerOf(r.op, rep) != r.want[st] {
		return "wrong_answer"
	}
	return ""
}

// answerOf renders a reply in the form request.want uses.
func answerOf(op string, rep *reply) string {
	switch op {
	case "count":
		return rep.Count
	case "poss-ans", "cert-ans":
		return canonInstance(rep.Facts)
	}
	if rep.Answer == nil {
		return "<none>"
	}
	return strconv.FormatBool(*rep.Answer)
}

// tally is one phase's outcome.
type tally struct {
	mu        sync.Mutex
	reads     []time.Duration
	writes    []time.Duration
	attempted int
	failed    int
	fails     map[string]int // "op/class" → count
	respBytes int64
	elapsed   time.Duration
}

func newTally() *tally { return &tally{fails: map[string]int{}} }

func (t *tally) record(r *request, lat time.Duration, class string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.respBytes += int64(n)
	if class != "" {
		t.failed++
		t.fails[r.op+"/"+class]++
	}
	if r.op == "write" {
		t.writes = append(t.writes, lat)
	} else {
		t.reads = append(t.reads, lat)
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.fails {
		t.fails[k] += v
	}
}

// runner replays one workload's stream against one pwd from a single
// client, carrying the stream position and the write sequence across
// phases, and times reference requests between them.
type runner struct {
	w       *workload
	c       *client
	ref     *refMeter
	cursor  int    // next read
	slot    int    // open-loop workloads: next stream slot
	nextW   int    // next write of the cycle
	version uint64 // database version the last write installed
}

func newRunner(w *workload, c *client, ref *refMeter) *runner {
	return &runner{w: w, c: c, ref: ref, version: 1}
}

// write sends the next write of the cycle; writes run one at a time.
func (d *runner) write(t *tally, due time.Time) {
	r := d.w.writes[d.nextW%len(d.w.writes)]
	d.nextW++
	status, body, err := d.c.send(r)
	lat := time.Since(due)
	class, v := check(d.w, r, status, body, err, d.version+1)
	if class == "" {
		d.version = v
	} else if v > d.version {
		d.version = v
	}
	t.record(r, lat, class, len(body))
}

func (d *runner) read(t *tally, r *request, due time.Time) {
	status, body, err := d.c.send(r)
	lat := time.Since(due)
	class, _ := check(d.w, r, status, body, err, 0)
	t.record(r, lat, class, len(body))
}

// closed sends reads one after another, each as soon as the previous
// one is answered, for dur. elapsed leaves out the reference requests.
func (d *runner) closed(dur time.Duration) *tally {
	t := newTally()
	start := time.Now()
	var refs time.Duration
	for time.Since(start) < dur {
		d.read(t, d.nextRead(), time.Now())
		refs += d.ref.tick()
	}
	t.elapsed = time.Since(start) - refs
	return t
}

// writePhase sends n writes of the cycle back to back, with a
// reference request after every refWrites of them.
func (d *runner) writePhase(n int) *tally {
	t := newTally()
	for i := 1; i <= n; i++ {
		d.write(t, time.Now())
		if i%refWrites == 0 {
			d.ref.sample()
		}
	}
	return t
}

type job struct {
	r   *request
	due time.Time
}

// nextRead is the next read of the stream.
func (d *runner) nextRead() *request {
	r := d.w.reads[d.cursor%len(d.w.reads)]
	d.cursor++
	return r
}

// nextIsWrite takes the next stream slot of an open-loop workload and
// reports whether it is a write: every writeEvery-th slot is.
func (d *runner) nextIsWrite() bool {
	slot := d.slot
	d.slot++
	return slot%d.w.writeEvery == d.w.writeEvery-1
}

// open sends the stream on a fixed schedule of rate requests per second
// for dur, whatever the replies: write slots get the next write of the
// cycle, the others the next read. Reads go out on one connection and
// writes on another, each in order. Latency counts from each request's
// due time, so a stall also charges the requests queued behind it. lags
// records how late the generator itself emitted each request.
func (d *runner) open(dur time.Duration) (t *tally, lags []time.Duration) {
	t = newTally()
	n := int(d.w.openRate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / d.w.openRate)
	// Sized to every send of the phase, so the generator never blocks
	// on a slow server: the backlog shows up as latency instead.
	reads := make(chan job, n)
	writes := make(chan job, n)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := range reads {
			d.read(t, j.r, j.due)
			inflight.Add(-1)
		}
	}()
	go func() {
		defer wg.Done()
		for j := range writes {
			d.write(t, j.due)
			inflight.Add(-1)
		}
	}()
	start := time.Now()
	lags = make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		// A reference request goes out only into a gap: nothing in
		// flight and the next request not due for refGap.
		if wait := time.Until(due) - refGap; wait > 0 {
			time.Sleep(wait)
			if inflight.Load() == 0 {
				d.ref.tick()
			}
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, time.Since(due))
		inflight.Add(1)
		if d.nextIsWrite() {
			writes <- job{due: due}
		} else {
			reads <- job{r: d.nextRead(), due: due}
		}
	}
	close(reads)
	close(writes)
	wg.Wait()
	return t, lags
}

// closedMix sends an open-loop workload's mix one request after
// another, each as soon as the previous one is answered, for dur.
// elapsed leaves out the reference requests.
func (d *runner) closedMix(dur time.Duration) *tally {
	t := newTally()
	start := time.Now()
	var refs time.Duration
	for time.Since(start) < dur {
		if d.nextIsWrite() {
			d.write(t, time.Now())
		} else {
			d.read(t, d.nextRead(), time.Now())
		}
		refs += d.ref.tick()
	}
	t.elapsed = time.Since(start) - refs
	return t
}

// quantile is the q-quantile of ds (nearest rank); 0 on no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func failSummary(fails map[string]int) string {
	if len(fails) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(fails))
	for k := range fails {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, fails[k])
	}
	return b.String()
}
