// Command cspdbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds cspd and this program from the checkout);
// it prepares a seeded workload, launches the real cspd binary as a child
// process, drives it over loopback HTTP from closed-loop connections,
// checks every answer after the timed loop, and prints one JSON result
// line:
//
//	cspdbench -cspd bin/cspd -out dir -workload hit-warm -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 it
// holds the per-layer split instead: an untraced and a traced HTTP phase,
// the daemon's wide events joined to their requests, metrics scraped
// around the traced phase, and an in-process replay of the same requests
// through the public layer calls. -steady N runs every workload
// BENCHMARK.json lists N times, rotating the order, and prints the median
// and spread of each metric.
//
// NOTES.md records why each workload exists and the spreads measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type config struct {
	cspd     string
	out      string
	workload string
	seed     int64
	seconds  int
	trace    int
	steady   int
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.cspd, "cspd", "", "path of the cspd binary under test")
	flag.StringVar(&cfg.out, "out", "", "directory for event files and replay spans")
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see NOTES.md)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: sets a fixed request count of about this many seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.IntVar(&cfg.steady, "steady", 0, "run every listed workload this many times and report medians and spreads")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cspdbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.cspd == "" || cfg.out == "" {
		return fmt.Errorf("-cspd and -out are required (run through run.sh)")
	}
	if cfg.seconds < 1 || cfg.trace < 0 || cfg.trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if cfg.steady > 0 {
		return steady(cfg)
	}
	sp, ok := specNamed(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var res *result
	var err error
	if cfg.trace == 1 {
		res, err = traced(cfg, sp)
	} else {
		res, err = measure(cfg, sp)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// daemonArgs are the cspd flags a workload runs under. The cache size is
// explicit, so a change of the daemon's default cannot turn hit-warm into
// a miss workload.
func daemonArgs(w *workload, extra ...string) []string {
	args := []string{"-cache", fmt.Sprint(cacheEntries)}
	if w.maxInflight > 0 {
		args = append(args, "-max-inflight", fmt.Sprint(w.maxInflight))
	}
	return append(args, extra...)
}

// setupRounds is how many times an untraced run sets cspd up.
const setupRounds = 5

// deadline bounds one timed phase at three times its planned length.
func deadline(cfg config) time.Duration {
	return 3*time.Duration(cfg.seconds)*time.Second + 10*time.Second
}

// phase is one timed HTTP phase against one daemon.
type phase struct {
	streams [][]checked
	failed  int
	elapsed time.Duration
	before  snapshot
	after   snapshot
	cpu     time.Duration // cspd's user+system CPU time over the loop
	sys     time.Duration // the system part of cpu
	rssMB   float64
}

// timedPhase scrapes the daemon, runs the load, scrapes again, stops the
// daemon and only then checks the answers.
func timedPhase(d *daemon, w *workload, cfg config) (*phase, error) {
	pid := d.cmd.Process.Pid
	runtime.GC() // start the loop with the generator's heap swept
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	user0, sys0, err := cpuTicks(pid)
	if err != nil {
		return nil, err
	}
	samples, elapsed := runLoad(d, w, deadline(cfg))
	user1, sys1, err := cpuTicks(pid)
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	d.stop()
	streams, failed := checkAll(samples)
	shown := 0
	for _, ss := range streams {
		for _, c := range ss {
			if !c.ok && shown < 3 {
				fmt.Fprintf(os.Stderr, "failed %s-family request: %s\n", c.req.class, c.cause)
				shown++
			}
		}
	}
	if err := shapeGuard(w, streams, before, after); err != nil {
		return nil, err
	}
	return &phase{
		streams: streams, failed: failed, elapsed: elapsed,
		before: before, after: after, rssMB: rss,
		cpu: time.Duration(user1-user0+sys1-sys0) * time.Second / ticksPerSecond,
		sys: time.Duration(sys1-sys0) * time.Second / ticksPerSecond,
	}, nil
}

// attempted counts every request sent in the phase.
func (ph *phase) attempted() int {
	n := 0
	for _, ss := range ph.streams {
		n += len(ss)
	}
	return n
}

// latenciesMS returns the sorted latencies of stream i's successful
// requests in milliseconds.
func (ph *phase) latenciesMS(i int) []float64 {
	var xs []float64
	for _, c := range ph.streams[i] {
		if c.ok {
			xs = append(xs, float64(c.latency)/float64(time.Millisecond))
		}
	}
	sort.Float64s(xs)
	return xs
}

func (ph *phase) succeeded() int { return ph.attempted() - ph.failed }

// startWarm launches a daemon and sends the workload's warm-up requests.
func startWarm(cfg config, w *workload, extra ...string) (*daemon, error) {
	d, err := startDaemon(cfg.cspd, daemonArgs(w, extra...)...)
	if err != nil {
		return nil, err
	}
	if err := d.warmup(w.warm); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// endToEnd lists the untraced run's metrics, in BENCHMARK.json order. On
// mixed-queue the latencies are the cheap stream's; throughput counts both
// streams. NOTES.md says why p99 is printed to stderr only.
var endToEnd = []struct{ name, unit string }{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// measure is an untraced run: the end-to-end metrics.
func measure(cfg config, sp spec) (*result, error) {
	w, err := buildWorkload(sp.name, cfg.seed, sp.rate*cfg.seconds)
	if err != nil {
		return nil, err
	}
	// Set up several times and report the median, so one slow process
	// start does not decide setup_s. The last daemon stays up for timing.
	var d *daemon
	defer func() { d.stop() }()
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		d.stop()
		t0 := time.Now()
		if d, err = startWarm(cfg, w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ph, err := timedPhase(d, w, cfg)
	if err != nil {
		return nil, err
	}
	lat := ph.latenciesMS(0)
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded", sp.name)
	}
	values := map[string]float64{
		"setup_s":        median(setups),
		"p50_ms":         percentile(lat, 0.50),
		"p90_ms":         percentile(lat, 0.90),
		"throughput_rps": float64(ph.succeeded()) / ph.elapsed.Seconds(),
		"rss_mb":         ph.rssMB,
	}
	res := &result{Correct: ph.failed == 0, Attempted: ph.attempted(), Failed: ph.failed, Metrics: map[string]metric{}}
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{values[e.name], e.unit}
	}
	byClass := map[string][]float64{}
	for _, c := range ph.streams[0] {
		if c.ok {
			byClass[c.req.class] = append(byClass[c.req.class], float64(c.latency)/float64(time.Millisecond))
		}
	}
	for _, class := range allClasses {
		if xs := byClass[class]; len(xs) > 0 && len(byClass) > 1 {
			fmt.Fprintf(os.Stderr, "  %s: %d samples, p50 %.4f ms\n", class, len(xs), median(xs))
		}
	}
	tail := highestSupported(len(lat), 0.5, 0.9, 0.99, 0.999)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d measured samples, p%g %.4f ms (highest supported), %d attempted, %d failed, %.2fs timed, cspd CPU %.4f ms/request (%.0f%% system)\n",
		sp.name, cfg.seed, len(lat), 100*tail, percentile(lat, tail), res.Attempted, res.Failed, ph.elapsed.Seconds(),
		ratio(ph.cpu.Seconds()*1000, float64(res.Attempted)), 100*ratio(ph.sys.Seconds(), ph.cpu.Seconds()))
	return res, nil
}
