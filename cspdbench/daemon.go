package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cspd child process listening on a loopback port the kernel
// picked. The benchmark starts and stops it itself and waits for it to
// exit on every path.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// listenRE matches cspd's start-up log line, which names the bound address.
var listenRE = regexp.MustCompile(`on (127\.0\.0\.1:\d+) \(`)

// addrWatcher is cspd's stderr: it picks the listen address out of the
// start-up line and discards the rest.
type addrWatcher struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	done bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if m := listenRE.FindSubmatch(w.buf); m != nil {
		w.done = true
		w.addr <- string(m[1])
		w.buf = nil
	}
	return len(p), nil
}

// startDaemon launches cspd and returns once /healthz answers.
func startDaemon(bin string, args ...string) (*daemon, error) {
	watch := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = watch
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cspd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-watch.addr:
		d.base = "http://" + addr
	case <-d.exited:
		return nil, fmt.Errorf("cspd exited during start-up: %v", d.err)
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("cspd did not report its address within 20s")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cspd not healthy within 20s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks cspd to drain (SIGTERM), kills it if it has not exited within
// 20s, and waits for the exit either way. It is safe to call twice.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.client.CloseIdleConnections()
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// solveURL is the one request shape the benchmark sends. route=auto is
// explicit so a change of the daemon's default strategy cannot change the
// workload; the timeout is far above any request's cost, so an aborted
// answer is a failure, never a deadline.
const solveURL = "/solve?route=auto&timeout=60s"

// post sends one instance and returns the status, the reply body and the
// wall-clock time from sending to the last byte of the reply.
func (d *daemon) post(body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.base+solveURL, "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, reply, time.Since(t0), err
}

// warmup sends requests one at a time and fails on the first non-200.
func (d *daemon) warmup(reqs []*request) error {
	for i, r := range reqs {
		status, reply, _, err := d.post(r.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d, %v: %s", i, status, err, reply)
		}
	}
	return nil
}

// scrape reads the flat JSON metrics snapshot.
func (d *daemon) scrape() (snapshot, error) {
	resp, err := d.client.Get(d.base + "/metrics?format=json")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	var m snapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode metrics: %w", err)
	}
	return m, nil
}

// snapshot is cspd's /metrics?format=json object.
type snapshot map[string]any

// num returns a counter or gauge value, or a histogram's sample count.
func (s snapshot) num(key string) float64 {
	switch v := s[key].(type) {
	case float64:
		return v
	case map[string]any:
		if c, ok := v["count"].(float64); ok {
			return c
		}
	}
	return 0
}

// delta returns after minus before for one key.
func delta(before, after snapshot, key string) float64 {
	return after.num(key) - before.num(key)
}

// cpuTicks returns the process's user and system CPU time from
// /proc/<pid>/stat, in clock ticks (USER_HZ, 100 per second on Linux).
func cpuTicks(pid int) (user, sys int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line")
	}
	user, err1 := strconv.ParseInt(fields[11], 10, 64)
	sys, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc stat cpu fields")
	}
	return user, sys, nil
}

const ticksPerSecond = 100

// peakRSSMB returns VmHWM, the process's peak resident set, in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
