package main

import (
	"net/http"
	"time"
)

// The measured phase is cut into rounds of a few seconds, so that reads,
// writes, throughput and reference requests share the host's slow and
// fast stretches alike. Each round gives its median read and write
// latency and its throughput in units of that phase's median reference
// request (see ref.go), and pwd's peak resident set over the round; an
// end-to-end figure is the mean of its rounds.
// The plain figures (µs, 1/s) pool every sample of the run instead.

// window is the closed loop's read window; each is followed by a chunk
// of writeChunk timed writes.
const window = time.Second

// openWindow is one open-loop stretch of write-mix; each is followed
// by mixWindow of closed-loop load on the same mix, which measures the
// mix's throughput.
const (
	openWindow = 2 * time.Second
	mixWindow  = time.Second
)

// measured is one measured phase.
type measured struct {
	reads, writes []time.Duration // every timed sample of the run
	ref           []time.Duration // every reference request of the run
	rounds        []round
	served        int           // requests completed in the throughput phases
	busy          time.Duration // summed length of the throughput phases
	lags          []time.Duration
	requests      int // requests the vars deltas cover
	respBytes     int64
	delta         vars // pwd counters over the latency phases
	all           *tally
}

// round is one round's figures in reference requests; a field is 0 when
// the round had no such sample.
type round struct {
	readP50, writeP50, throughput float64
	peakRSS                       float64 // pwd's VmHWM over the round, MiB
}

// measure runs the workload's load shape in rounds until they have
// taken the given seconds. A closed-loop round is a window-long read
// phase, which also gives throughput, and a chunk of writeChunk timed
// writes; an open-loop round is openWindow at the workload's rate,
// timed from each request's due time, and mixWindow of closed-loop load
// on the same mix, which gives throughput. between, if not nil, runs
// after every round and does not count towards the seconds.
func measure(d *runner, c *child, hc *http.Client, seconds int, between func() error) (*measured, error) {
	m := &measured{all: newTally()}
	if _, err := d.ref.take(); err != nil { // drops the warm-up's samples
		return nil, err
	}
	open := d.w.openRate > 0
	var spent time.Duration // the rounds' load phases, set-ups left out
	for spent < time.Duration(seconds)*time.Second {
		roundStart := time.Now()
		if err := c.resetPeakRSS(); err != nil {
			return nil, err
		}
		v0, err := c.vars(hc)
		if err != nil {
			return nil, err
		}
		var t *tally
		if open {
			var lags []time.Duration
			t, lags = d.open(openWindow)
			m.lags = append(m.lags, lags...)
		} else {
			t = d.closed(window)
		}
		v1, err := c.vars(hc)
		if err != nil {
			return nil, err
		}
		m.add(v0, v1)
		m.reads = append(m.reads, t.reads...)
		m.writes = append(m.writes, t.writes...)
		m.requests += len(t.reads) + len(t.writes)
		m.respBytes += t.respBytes
		m.all.merge(t)
		// Each phase's figures are counted in the reference requests
		// timed during that phase.
		refs, err := d.ref.take()
		if err != nil {
			return nil, err
		}
		m.ref = append(m.ref, refs...)
		r := round{readP50: perRef(quantile(t.reads, 0.5), quantile(refs, 0.5))}
		var x *tally // the round's throughput phase
		if open {
			r.writeP50 = perRef(quantile(t.writes, 0.5), quantile(refs, 0.5))
			x = d.closedMix(mixWindow)
			m.served += len(x.reads) + len(x.writes)
			m.all.merge(x)
			if refs, err = d.ref.take(); err != nil {
				return nil, err
			}
			m.ref = append(m.ref, refs...)
		} else {
			x = t
			m.served += len(t.reads)
			wt := d.writePhase(d.w.writeChunk)
			m.writes = append(m.writes, wt.writes...)
			m.all.merge(wt)
			wrefs, err := d.ref.take()
			if err != nil {
				return nil, err
			}
			m.ref = append(m.ref, wrefs...)
			r.writeP50 = perRef(quantile(wt.writes, 0.5), quantile(wrefs, 0.5))
		}
		m.busy += x.elapsed
		// refs now holds the throughput phase's reference requests.
		r.throughput = float64(len(x.reads)+len(x.writes)) / x.elapsed.Seconds() * quantile(refs, 0.5).Seconds()
		if r.peakRSS, err = c.peakRSSMB(); err != nil {
			return nil, err
		}
		m.rounds = append(m.rounds, r)
		spent += time.Since(roundStart)
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

func (m *measured) throughput() float64 {
	return float64(m.served) / m.busy.Seconds()
}

// refs is the median reference request of the run.
func (m *measured) refs() time.Duration { return quantile(m.ref, 0.5) }

// perRound is the mean over the rounds of one round figure. Each round
// counts once, so a run that catches the host in two states moves with
// their mix rather than jumping to whichever held more rounds.
func (m *measured) perRound(f func(round) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range m.rounds {
		if v := f(r); v > 0 {
			sum += v
			n++
		}
	}
	return ratio(sum, float64(n))
}

// perRef is d in reference requests; 0 without a reference.
func perRef(d, ref time.Duration) float64 {
	if ref == 0 {
		return 0
	}
	return float64(d) / float64(ref)
}

func (m *measured) add(v0, v1 vars) {
	m.delta.MemStats.TotalAlloc += v1.MemStats.TotalAlloc - v0.MemStats.TotalAlloc
	m.delta.MemStats.NumGC += v1.MemStats.NumGC - v0.MemStats.NumGC
	m.delta.PWD.PreparedHits += v1.PWD.PreparedHits - v0.PWD.PreparedHits
	m.delta.PWD.PreparedMisses += v1.PWD.PreparedMisses - v0.PWD.PreparedMisses
	m.delta.PWD.AnswerHits += v1.PWD.AnswerHits - v0.PWD.AnswerHits
	m.delta.PWD.AnswerMisses += v1.PWD.AnswerMisses - v0.PWD.AnswerMisses
}
