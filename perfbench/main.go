// Command perfbench is the repository's serving benchmark. It starts the
// HTTP serving tier in a child process (./server), drives one workload
// against it from at most GOMAXPROCS connections, checks every answer,
// and prints one JSON result line:
//
//	perfbench --workload point-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics: open-loop
// latency at the workload's fixed rate, the server's CPU time per
// operation, set-up time, success share and the server's live heap; it
// prints the closed-loop capacity and the p95s on standard error. With --trace 1 it
// drives the same open-loop phase, reads the server's own counters from
// /metrics, then replays the same operation sequence in process, timing
// the calls into each layer (serve, oql, viewobject, vupdate, reldb) to
// report the per-layer metrics, and writes the replay's spans as Chrome
// trace-event JSON. --workload all runs every workload both ways.
//
// PREDICTIONS.md lists which end-to-end metric each per-layer metric
// should move, on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run seeds and starts the server; setup_s
// is their median.
const setups = 11

// A run spends 5% of --seconds warming up, then alternates slices of open
// loop (75% in all) and closed loop (20%). The host's speed drifts from
// second to second, so the latency and capacity metrics are taken over
// the calm slices only (see calm): a slow stretch moves some slices, not
// the run's figure.
const slices = 20

func main() {
	name := flag.String("workload", "", "workload: point-read, figure4-report, update-mix or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced replay")
	server := flag.String("server", filepath.Join(".bench_build", "perfbench", "server"), "server binary")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for data and trace files")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := os.Stat(*server); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server binary: %v\n", err)
		os.Exit(2)
	}
	b := &bench{server: *server, out: *out, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	var res *result
	var err error
	if *name == "all" {
		res, err = b.all()
	} else {
		var w *workload
		if w, err = workloadByName(*name); err == nil {
			res, err = b.run(w, *trace == 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type bench struct {
	server  string
	out     string
	seed    int64
	seconds time.Duration
}

// all runs every workload untraced and traced, printing each metric by
// name with its unit, and folds the runs into one result.
func (b *bench) all() (*result, error) {
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := b.run(w, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for _, k := range sortedKeys(res.Metrics) {
				m := res.Metrics[k]
				fmt.Printf("%-15s %-34s %14.4f %s\n", w.name, k, m.Value, m.Unit)
				total.Metrics[w.name+"/"+k] = m
			}
		}
	}
	return total, nil
}

// run is one benchmark run of one workload.
func (b *bench) run(w *workload, traced bool) (*result, error) {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	dataDir := func(i int) string { return filepath.Join(b.out, fmt.Sprintf("data-%s-%d", w.name, i)) }

	// Set-up: seed, open and start the server several times and keep
	// the last; setup_s is the median.
	n := setups
	if traced {
		n = 1
	}
	var srv *child
	var setupTimes []float64
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.kill()
			_ = os.RemoveAll(srv.dataDir)
		}
		var err error
		if srv, err = startChild(b.server, w, dataDir(i)); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, srv.setup.Seconds())
	}
	defer func() {
		srv.kill()
		_ = os.RemoveAll(srv.dataDir)
	}()

	nconn := runtime.GOMAXPROCS(0)
	conns := make([]*conn, nconn)
	streams := make([]*stream, nconn)
	for c := range conns {
		conns[c] = newConn(w, srv.base)
		defer conns[c].close()
		streams[c] = newStream(w, b.seed, c, nconn)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var failures []string
	fail := func(format string, args ...any) {
		res.Correct = false
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	account := func(p *phaseResult) {
		p.report()
		res.Attempted += p.sent
		res.Failed += p.failed
	}

	// Warm-up, then slices alternating the open loop with the capacity
	// phase, so both sample the host across the whole run.
	warmup := openLoop(w, conns, streams, b.seconds/20, "warmup")
	account(warmup)

	before, err := scrape(srv.base)
	if err != nil {
		return nil, err
	}
	steal0, total0 := cpuTimes()
	clientTime := func() (d time.Duration, n int64) {
		for _, c := range conns {
			d, n = d+c.reqNs, n+c.reqs
		}
		return d, n
	}
	reqNs0, reqs0 := clientTime()
	var opens, closeds []*phaseResult
	for k := 0; k < slices; k++ {
		steal0, total0 := cpuTimes()
		cpu0, err := srv.cpu()
		if err != nil {
			return nil, err
		}
		o := openLoop(w, conns, streams, b.seconds*15/20/slices, "open-loop")
		cpu1, err := srv.cpu()
		if err != nil {
			return nil, err
		}
		o.serverCPU = cpu1 - cpu0
		opens = append(opens, o)
		var c *phaseResult
		if !traced {
			c = closedLoop(conns, streams, b.seconds*4/20/slices, "capacity")
			cpu2, err := srv.cpu()
			if err != nil {
				return nil, err
			}
			c.serverCPU = cpu2 - cpu1
			closeds = append(closeds, c)
		}
		if steal1, total1 := cpuTimes(); total1 > total0 {
			o.stolen = float64(steal1-steal0) / float64(total1-total0)
			if c != nil {
				c.stolen = o.stolen
			}
		}
	}
	open := combine("open-loop", opens)
	account(open)
	capacity := combine("capacity", closeds)
	if !traced {
		account(capacity)
	}
	after, err := scrape(srv.base)
	if err != nil {
		return nil, err
	}
	reqNs1, reqs1 := clientTime()
	clientNs, clientReqs := reqNs1-reqNs0, reqs1-reqs0
	serverReport(before, after)
	if steal1, total1 := cpuTimes(); total1 > total0 {
		fmt.Fprintf(os.Stderr, "host: %.1f%% of CPU time stolen by the hypervisor while measuring\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if late := quantile(open.lateness, 0.99); late > maxLatenessMs {
		fail("generator lateness p99 %.3f ms exceeds the %.1f ms bound", late, maxLatenessMs)
	}

	// Follow-up reads: every acknowledged update is visible.
	m := mergeModels(conns)
	checks, fails := checkState(w, m, httpGetter(conns[0]))
	res.Attempted += int64(checks)
	res.Failed += int64(len(fails))
	for _, f := range fails {
		fail("follow-up read: %s", f)
	}

	a, err := srv.audit()
	if err != nil {
		return nil, err
	}
	res.Attempted += 2
	if a.Violations != 0 {
		res.Failed++
		fail("integrity audit: %d violations", a.Violations)
	}
	if want := srv.rows + len(m.alive)*(1+w.scale.GradesPerCourse); a.Rows != want {
		res.Failed++
		fail("row count %d, want %d", a.Rows, want)
	}

	var rec *recovered
	if w.durable {
		srv.kill()
		if rec, err = recoverAndCheck(w, srv.dataDir, m, srv.rows); err != nil {
			return nil, err
		}
		res.Attempted += int64(rec.checks)
		res.Failed += int64(len(rec.fails))
		for _, f := range rec.fails {
			fail("after SIGKILL and recovery: %s", f)
		}
	}

	if open.failed+warmup.failed+capacity.failed > 0 {
		fail("%d operations failed", res.Failed)
	}

	if traced {
		layers, err := b.replay(w, append([]*phaseResult{warmup}, opens...))
		if err != nil {
			return nil, err
		}
		res.Attempted += layers.attempted
		res.Failed += layers.failed
		if layers.failed > 0 {
			fail("replay: %d operations failed: %v", layers.failed, layers.errs)
		}
		httpLayers(layers.metrics, before, after, clientNs, clientReqs)
		if rec != nil {
			layers.metrics["reldb.recover_ms"] = ms(rec.took)
		}
		for _, spec := range perLayerMetrics {
			res.Metrics[spec.name] = metric{Value: layers.metrics[spec.name], Unit: spec.unit}
		}
	} else {
		head, read := open.latency[w.head], open.latency[w.readClass()]
		if n := min(len(head), len(read)); n < minSamples {
			fail("only %d latency samples in a class, fewer than the %d a p95 needs: run longer", n, minSamples)
		}
		res.Metrics["setup_s"] = metric{quantile(setupTimes, 0.5), "s"}
		calmOpens, n := calm(opens)
		calmCloseds, _ := calm(closeds)
		fmt.Fprintf(os.Stderr, "%d of %d slices calm (at most %.0f%% of CPU time stolen); the latency and capacity metrics use %d\n",
			n, len(opens), 100*maxSliceSteal, len(calmOpens))
		fmt.Fprintf(os.Stderr, "capacity_ops_s %.1f 1/s (closed loop at %d connections, median over the slices used)\n",
			rateMedian(calmCloseds), nconn)
		res.Metrics["p50_ms"] = metric{pooled(calmOpens, w.head, 0.50), "ms"}
		res.Metrics["read_p50_ms"] = metric{pooled(calmOpens, w.readClass(), 0.50), "ms"}
		res.Metrics["live_heap_mb"] = metric{float64(a.HeapBytes) / 1e6, "MB"}
		res.Metrics["server_cpu_us_per_op"] = metric{cpuPerOp(append(calmOpens, calmCloseds...)), "us"}
		res.Metrics["success_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "fraction"}
		for _, cls := range []string{classRead, classQuery, classUpdate} {
			if lat := open.latency[cls]; len(lat) > 0 {
				fmt.Fprintf(os.Stderr, "%s_p50_ms %.3f ms (over the slices used), %s_p95_ms %.3f ms, over %d samples at %.0f ops/s offered\n",
					cls, pooled(calmOpens, cls, 0.5), cls, quantile(lat, 0.95), len(lat), w.rate)
			}
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	return res, nil
}

// readClass is the class of the workload's GET requests: report queries
// on figure4-report, point reads elsewhere.
func (w *workload) readClass() string {
	if w.head == classQuery {
		return classQuery
	}
	return classRead
}
