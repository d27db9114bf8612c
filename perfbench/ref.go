package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"
)

// On a shared host the speed of the processor the benchmark runs on
// wanders by up to two times over seconds to minutes, and it does not
// show as stolen time. The end-to-end timings are therefore counted in
// reference requests: a round trip to the benchmark's own echo server
// (a second perfbench process, on the same processor as pwd), timed
// between the workload's requests in the same seconds. It crosses the
// same kernel, loopback and net/http path as a pwd request, so it slows
// with the host as the requests do, and never with the program.

// refEvery is the gap between reference requests while reads run; one
// takes 0.2–0.4 ms, so the client spends a few percent of its time on
// them. A write chunk, which lasts well under a second, sends one after
// every refWrites writes instead, and the open loop only into a gap of
// at least refGap before the next request is due, with none in flight.
const (
	refEvery  = 10 * time.Millisecond
	refWrites = 5
	refGap    = time.Millisecond
)

// refBody and refReply are the reference request's fixed body and
// answer, about the size of a fact probe and its reply.
var (
	refBody  = bytes.Repeat([]byte("r"), 240)
	refReply = bytes.Repeat([]byte("a"), 120)
)

// serveEcho is perfbench -echo: it answers every request on a loopback
// port with refReply, printing its address in pwd's form, until it is
// killed.
func serveEcho() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench -echo:", err)
		return 2
	}
	fmt.Printf("echo: listening on %s\n", ln.Addr())
	err = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(refReply)
	}))
	fmt.Fprintln(os.Stderr, "perfbench -echo:", err)
	return 2
}

// refMeter times reference requests against one echo server. The
// runner's goroutine is the only one that uses it.
type refMeter struct {
	hc      *http.Client
	url     string
	last    time.Time
	samples []time.Duration
	err     error // the first failed reference request
}

func newRefMeter(base string) *refMeter {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &refMeter{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, url: base + "/ref"}
}

func (r *refMeter) close() { r.hc.CloseIdleConnections() }

// tick sends a reference request if one is due and returns the time it
// took, or 0.
func (r *refMeter) tick() time.Duration {
	if time.Since(r.last) < refEvery {
		return 0
	}
	return r.sample()
}

// sample sends a reference request, records its time and returns it.
func (r *refMeter) sample() time.Duration {
	start := time.Now()
	err := r.send()
	d := time.Since(start)
	if err != nil && r.err == nil {
		r.err = err
	}
	r.samples = append(r.samples, d)
	r.last = time.Now()
	return d
}

func (r *refMeter) send() error {
	resp, err := r.hc.Post(r.url, "application/json", bytes.NewReader(refBody))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && (resp.StatusCode != 200 || n != int64(len(refReply))) {
		err = fmt.Errorf("reference request: status %d, %d bytes", resp.StatusCode, n)
	}
	return err
}

// take returns the samples so far and starts afresh, or the first
// error a reference request met.
func (r *refMeter) take() ([]time.Duration, error) {
	s := r.samples
	r.samples = nil
	return s, r.err
}
