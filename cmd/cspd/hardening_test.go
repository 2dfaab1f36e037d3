package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"csdb/internal/obs"
)

// Hardening tests: the slow-client connection timeouts, the load-derived
// Retry-After, and drain-under-load (SIGTERM with a non-empty wait queue).

// TestLifecycleDrainsPastSlowClient is the regression test for the
// trickling-client hang: a client that sends its request headers and then
// stalls mid-body holds a connection open. With only ReadHeaderTimeout set
// (the pre-fix server), Shutdown waits on that connection forever and the
// drain never completes; ReadTimeout must reap it so SIGTERM still produces
// a clean exit within the grace period.
func TestLifecycleDrainsPastSlowClient(t *testing.T) {
	cfg := testConfig()
	cfg.readTimeout = 300 * time.Millisecond
	cfg.drainTimeout = 2 * time.Second
	srv := newServer(cfg)
	url, sigCh, exit := startLifecycle(t, srv)

	// A hand-rolled trickling client: complete headers, Content-Length far
	// beyond what is ever sent, then silence. The handler blocks reading the
	// body until the read deadline fires.
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = io.WriteString(conn,
		"POST /solve HTTP/1.1\r\nHost: cspd\r\nContent-Length: 4096\r\n\r\nvars 2\n")
	if err != nil {
		t.Fatal(err)
	}

	sigCh <- syscall.SIGTERM
	start := time.Now()
	if err := waitExit(t, exit); err != nil {
		t.Fatalf("drain with a stalled client returned error: %v", err)
	}
	// The exit must come from the read deadline (sub-second), not from
	// waitExit's last-resort 10s bound.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v with a stalled client, want the read deadline to reap it", elapsed)
	}
	// The stalled client's connection was closed on it: the next read fails.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
}

// TestRetryAfterSeconds pins the Retry-After derivation: ceil to whole
// seconds, floor 1s, capped by the drain budget.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		estimate, drain time.Duration
		want            int
	}{
		{0, 10 * time.Second, 1},                       // no queue history: floor
		{300 * time.Millisecond, 10 * time.Second, 1},  // sub-second: floor
		{1001 * time.Millisecond, 10 * time.Second, 2}, // ceil, not truncate
		{2500 * time.Millisecond, 10 * time.Second, 3},
		{30 * time.Second, 10 * time.Second, 10}, // capped by drain budget
		{30 * time.Second, 0, 1},                 // degenerate budget: floor wins
		{5 * time.Second, 5 * time.Second, 5},
	} {
		if got := retryAfterSeconds(tc.estimate, tc.drain); got != tc.want {
			t.Errorf("retryAfterSeconds(%v, %v) = %d, want %d", tc.estimate, tc.drain, got, tc.want)
		}
	}
}

// TestShedRetryAfterIsDerived checks the wiring: the 429 path's Retry-After
// is the estimator's output — an integer in [1s, drain budget] — not a
// hardcoded constant the router cannot trust.
func TestShedRetryAfterIsDerived(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.maxQueue = 0 // every concurrent request beyond the slot is shed
	cfg.cacheSize = 0
	ts, srv := startDaemonCfg(t, cfg)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv.dispatch = blockingDispatch(started, release)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSolve(t, ts, "", distinctInstance(0))
	}()
	<-started

	resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader(distinctInstance(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	want := retryAfterSeconds(srv.admit.EstimateWait(), cfg.drainTimeout)
	if ra != want {
		t.Fatalf("Retry-After = %d, want estimator output %d", ra, want)
	}
	if ra < 1 || time.Duration(ra)*time.Second > cfg.drainTimeout {
		t.Fatalf("Retry-After = %d outside [1s, drain budget %v]", ra, cfg.drainTimeout)
	}
	close(release)
	wg.Wait()
}

// TestLifecycleDrainUnderLoad is the acceptance test for draining with a
// non-empty wait queue: SIGTERM arrives while one solve runs, several wait
// for the slot, and more have already been shed. Every queued request must
// complete (the drain lets the queue empty), every shed request must have
// gotten its 429, exactly one wide event exists per request, and no
// goroutines leak.
func TestLifecycleDrainUnderLoad(t *testing.T) {
	withDaemonObs(t)
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.maxQueue = 3 // exactly the waiters below, so the overflow posts shed
	cfg.cacheSize = 0
	srv := newServer(cfg)
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	srv.dispatch = blockingDispatch(started, release)
	url, sigCh, exit := startLifecycle(t, srv)

	runtime.GC()
	goroutinesBefore := runtime.NumGoroutine()

	const queued = 4 // 1 running + 3 waiting
	statuses := make(chan int, queued)
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url+"/solve", "text/plain",
				strings.NewReader(distinctInstance(i)))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				statuses <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	<-started // request 0 holds the solve slot
	waitForState(t, "three requests in the wait queue", func() bool {
		return srv.admit.Queued() == queued-1
	})

	// Overflow the queue before the signal: these two are shed with 429.
	const shed = 2
	for i := 0; i < shed; i++ {
		resp, err := http.Post(url+"/solve", "text/plain",
			strings.NewReader(distinctInstance(4+i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow request %d: status %d, want 429", i, resp.StatusCode)
		}
	}

	// SIGTERM with the queue still full, then let solves proceed: the drain
	// must serve every queued request to completion before exiting.
	sigCh <- syscall.SIGTERM
	close(release)
	wg.Wait()
	for i := 0; i < queued; i++ {
		if got := <-statuses; got != http.StatusOK {
			t.Fatalf("queued request finished with status %d, want 200 (complete) during drain", got)
		}
	}
	if err := waitExit(t, exit); err != nil {
		t.Fatalf("drain under load returned error: %v", err)
	}

	// Exactly one wide event per request: queued completions plus sheds.
	events := obs.DefaultEvents().Drain()
	if len(events) != queued+shed {
		t.Fatalf("wide events = %d, want %d (one per request)", len(events), queued+shed)
	}
	seen := map[string]bool{}
	verdicts := map[string]int{}
	for _, ev := range events {
		if seen[ev.TraceID] {
			t.Fatalf("trace %s emitted more than one event", ev.TraceID)
		}
		seen[ev.TraceID] = true
		verdicts[ev.Verdict]++
	}
	if verdicts[obs.VerdictSat] != queued || verdicts[obs.VerdictShed] != shed {
		t.Fatalf("verdict counts %v, want %d sat and %d shed", verdicts, queued, shed)
	}

	// No goroutine leaks once the daemon has exited (cancel_test.go style:
	// allow the runtime a moment to reap finished goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= goroutinesBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before load, %d after drain", goroutinesBefore, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDomOfOutOfRangeRejected is the regression test for the one-POST
// crash: a dom_of value outside [0,dom) used to reach the default portfolio
// strategy, whose lanes panicked on it and took the daemon down. The parser
// now rejects it with a 400, and the daemon stays up.
func TestDomOfOutOfRangeRejected(t *testing.T) {
	ts, _ := startDaemon(t)
	resp, err := http.Post(ts.URL+"/solve", "text/plain",
		strings.NewReader("vars 2\ndom 2\ndom_of 0 : 5\ncon 0 1 : 0 1 | 1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "line 3: dom_of value 5") {
		t.Fatalf("status %d body %q, want 400 naming the dom_of line", resp.StatusCode, msg)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the rejected body: status %d", resp.StatusCode)
	}
}

// TestHostileHeaderRejected is the regression test for a 19-byte POST that
// killed cspd: `vars 5000000` / `dom 2` with no constraints reached the
// portfolio's join lane (since deleted), which presized state quadratic in
// the variable count and panicked in its goroutine, and every other engine
// used to size gigabytes of per-variable state. With a dom_of line, 33
// bytes declaring two million variables made the parser itself allocate
// 47 MB for the domain table before the size check ran. Each body is
// served in-process, with no http.Server to recover a handler panic, under
// the default strategy and under strategy=mac: each gets a 400 naming the
// limit and exactly one wide event, and the request allocates no more than
// allocPerBodyByte bytes per body byte.
func TestHostileHeaderRejected(t *testing.T) {
	withDaemonObs(t)
	h := newServer(testConfig()).mux()
	for _, body := range []string{"vars 5000000\ndom 2\n", "vars 2000000\ndom 2\ndom_of 0 : 1\n"} {
		for _, query := range []string{"", "strategy=mac"} {
			tooBigBefore := obsTooLarge.Load()
			ev := serveRejected(t, h, body, query, "instance too large")
			if ev.Verdict != obs.VerdictError || ev.Cause != "instance_too_large" {
				t.Fatalf("%q ?%s: event verdict %q cause %q, want error/instance_too_large", body, query, ev.Verdict, ev.Cause)
			}
			if d := obsTooLarge.Load() - tooBigBefore; d != 1 {
				t.Fatalf("%q ?%s: too_large counter delta %d, want 1", body, query, d)
			}
		}
	}
}

// TestRemovedJoinRowRejected pins the end of the 14-byte memory hazard:
// under the removed strategy=join row, `vars 22` / `dom 2` was the join of
// 22 unconstrained domain relations, 2^22 rows, and allocated 4.6 GB. The
// name is now unknown, so the body is refused before any solve, in-process
// and within the hostile-header allocation bound, and the wide event names
// the refused strategy.
func TestRemovedJoinRowRejected(t *testing.T) {
	withDaemonObs(t)
	h := newServer(testConfig()).mux()
	ev := serveRejected(t, h, "vars 22\ndom 2\n", "strategy=join", "unknown strategy")
	if ev.Verdict != obs.VerdictError || ev.Cause != "params" || ev.Strategy != "join" {
		t.Fatalf("event verdict %q cause %q strategy %q, want error/params naming join", ev.Verdict, ev.Cause, ev.Strategy)
	}
	// A long refused name is cut, so the event ring holds a bounded record.
	long := strings.Repeat("x", 2*maxEventStrategy)
	ev = serveRejected(t, h, "vars 22\ndom 2\n", "strategy="+long, "unknown strategy")
	if ev.Strategy != long[:maxEventStrategy] {
		t.Fatalf("event strategy of %d bytes, want the first %d of the name", len(ev.Strategy), maxEventStrategy)
	}
}

// serveRejected serves one /solve request in-process and requires a 400
// whose body mentions wantIn, exactly one wide event (which it returns), and
// an allocation of at most allocPerBodyByte bytes per body byte.
func serveRejected(t *testing.T, h http.Handler, body, query, wantIn string) obs.SolveEvent {
	t.Helper()
	// An in-process rejection, its recorder and its wide event cost 2-4 KB
	// (100-180 bytes per body byte for the size-limit bodies); the domain
	// table cost 47 MB.
	const allocPerBodyByte = 512
	obs.DefaultEvents().Drain()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/solve?"+query, strings.NewReader(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), wantIn) {
		t.Fatalf("%q ?%s: status %d body %q, want 400 naming %q", body, query, rec.Code, rec.Body.String(), wantIn)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > allocPerBodyByte*uint64(len(body)) {
		t.Fatalf("%q ?%s: the request allocated %d bytes, over %d per body byte", body, query, alloc, allocPerBodyByte)
	}
	events := obs.DefaultEvents().Drain()
	if len(events) != 1 {
		t.Fatalf("%q ?%s: %d wide events, want 1", body, query, len(events))
	}
	return events[0]
}
