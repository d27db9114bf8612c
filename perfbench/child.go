package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one running process serving HTTP on a loopback port: pwd
// on the workload database, or the reference echo server.
type child struct {
	cmd   *exec.Cmd
	base  string        // http://host:port
	setup time.Duration // exec until /healthz first answered
	done  chan struct{} // closed once Wait has returned
}

// live tracks running children so an interrupt can stop them all.
var live = struct {
	sync.Mutex
	m map[*child]bool
}{m: map[*child]bool{}}

// addrWriter takes a child's stdout and hands over the address from its
// first line, "NAME: listening on ADDR"; later output is discarded.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string // buffered 1: written once
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		line := string(w.buf[:i])
		w.sent = true
		_, addr, _ := strings.Cut(line, "listening on ")
		w.addr <- addr
	}
	return len(p), nil
}

// startChild execs pwd on the database (plus any extra flags) and
// waits until /healthz answers.
func startChild(pwdPath, dbPath string, workers int, extra ...string) (*child, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers), "-db", dbName + "=" + dbPath}, extra...)
	return spawn(pwdPath, args...)
}

// startEcho execs this program as the reference echo server.
func startEcho() (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return spawn(self, "-echo")
}

// spawn execs a child that prints its address and serves /healthz,
// and waits until /healthz answers.
func spawn(path string, args ...string) (*child, error) {
	out := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(path, args...)
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark even if the benchmark itself is
	// killed before it can stop its children.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.done)
	}()
	live.Lock()
	live.m[c] = true
	live.Unlock()
	select {
	case addr := <-out.addr:
		c.base = "http://" + addr
	case <-c.done:
		c.stop()
		return nil, fmt.Errorf("%s exited before listening: %v", path, cmd.ProcessState)
	case <-time.After(120 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not start listening within 120s", path)
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				break
			}
		}
		if time.Since(start) > 120*time.Second {
			c.stop()
			return nil, fmt.Errorf("%s /healthz not ready within 120s: %v", path, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	c.setup = time.Since(start)
	hc.CloseIdleConnections()
	return c, nil
}

// stop terminates the child (SIGTERM, then SIGKILL after 10s) and waits for
// it to exit. Safe to call more than once.
func (c *child) stop() {
	live.Lock()
	delete(live.m, c)
	live.Unlock()
	select {
	case <-c.done:
		return
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

// stopAll stops every running child (interrupt path).
func stopAll() {
	live.Lock()
	cs := make([]*child, 0, len(live.m))
	for c := range live.m {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// resetPeakRSS sets pwd's VmHWM back to its current resident set.
func (c *child) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", c.cmd.Process.Pid), []byte("5"), 0)
}

// peakRSSMB is pwd's VmHWM (peak resident set) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// vars is the slice of pwd's /debug/vars the benchmark reads: the Go
// runtime's allocation and GC totals and the server's cache counters.
type vars struct {
	MemStats struct {
		TotalAlloc uint64
		NumGC      uint32
	} `json:"memstats"`
	PWD struct {
		Requests       int64 `json:"requests"`
		PreparedHits   int64 `json:"prepared_hits"`
		PreparedMisses int64 `json:"prepared_misses"`
		AnswerHits     int64 `json:"answer_hits"`
		AnswerMisses   int64 `json:"answer_misses"`
	} `json:"pwd"`
}

func (c *child) vars(hc *http.Client) (vars, error) {
	var v vars
	err := c.getJSON(hc, "/debug/vars", &v)
	return v, err
}

// lastDoUS is how long pwd's server.Do took on the newest request it
// answered, from its flight recorder; id must match that request.
func (c *child) lastDoUS(hc *http.Client, id string) (int64, error) {
	var recs []struct {
		ID string `json:"request_id"`
		US int64  `json:"us"`
	}
	if err := c.getJSON(hc, "/debug/requests", &recs); err != nil {
		return 0, err
	}
	if len(recs) == 0 || recs[0].ID != id {
		return 0, fmt.Errorf("/debug/requests: newest record is not request %q", id)
	}
	return recs[0].US, nil
}

func (c *child) getJSON(hc *http.Client, path string, v any) error {
	resp, err := hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
