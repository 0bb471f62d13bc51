package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxLatenessMs bounds the generator's own lateness: the p99 over all
// sends of (send time − the later of due time and the moment the
// connection came free). A run above it measured the load generator, not
// the server, and fails.
const maxLatenessMs = 25.0

// phaseResult is what one load phase observed.
type phaseResult struct {
	name      string
	elapsed   time.Duration
	sent      int64
	succeeded int64
	failed    int64
	shed      int64                // failures answered 429
	latency   map[string][]float64 // class → latencies of succeeded ops, ms
	lateness  []float64            // ms
	errs      []string             // first few failures
	ops       []op                 // every op sent, in due order per connection
	due       []time.Duration      // open loop: due offset of ops[i] from the phase start
	stolen    float64              // share of the host's CPU time stolen during the slice
	serverCPU time.Duration        // the server's user+system CPU time during the phase
}

func newPhase(name string) *phaseResult {
	return &phaseResult{name: name, latency: map[string][]float64{}}
}

// merge folds q's counts and samples into p.
func (p *phaseResult) merge(q *phaseResult) {
	p.sent += q.sent
	p.succeeded += q.succeeded
	p.failed += q.failed
	p.shed += q.shed
	for cls, l := range q.latency {
		p.latency[cls] = append(p.latency[cls], l...)
	}
	p.lateness = append(p.lateness, q.lateness...)
	if len(p.errs) < 5 {
		p.errs = append(p.errs, q.errs...)
	}
	p.ops = append(p.ops, q.ops...)
	p.due = append(p.due, q.due...)
}

// combine merges the slices of one phase into its totals.
func combine(name string, parts []*phaseResult) *phaseResult {
	total := newPhase(name)
	for _, q := range parts {
		total.merge(q)
		total.elapsed += q.elapsed
	}
	return total
}

func (p *phaseResult) record(o op, lat time.Duration, err error) {
	p.sent++
	p.ops = append(p.ops, o)
	if err != nil {
		p.failed++
		if isShed(err) {
			p.shed++
		}
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
		return
	}
	p.succeeded++
	p.latency[o.kind.class()] = append(p.latency[o.kind.class()], ms(lat))
}

func isShed(err error) bool {
	return err != nil && strings.Contains(err.Error(), "status 429")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// openLoop offers w.rate operations per second for d, split evenly over
// the connections, each connection with its own fixed arrival schedule.
// Each operation is timed from its due time, so a stall charges the
// operations queued behind it on the connection.
func openLoop(w *workload, conns []*conn, streams []*stream, d time.Duration, name string) *phaseResult {
	n := len(conns)
	interval := time.Duration(float64(time.Second) * float64(n) / w.rate)
	start := time.Now().Add(10 * time.Millisecond)
	results := make([]*phaseResult, n)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := newPhase(name)
			free := start
			for i := 0; ; i++ {
				offset := time.Duration(c)*interval/time.Duration(n) + time.Duration(i)*interval
				if offset >= d {
					break
				}
				due := start.Add(offset)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				o := streams[c].next()
				send := time.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				res.lateness = append(res.lateness, ms(send.Sub(ready)))
				err := conns[c].exec(o)
				free = time.Now()
				res.record(o, free.Sub(due), err)
				res.due = append(res.due, offset)
			}
			results[c] = res
		}(c)
	}
	wg.Wait()
	total := newPhase(name)
	for _, r := range results {
		total.merge(r)
	}
	total.elapsed = time.Since(start)
	return total
}

// closedLoop sends each connection's next operation as soon as the
// previous one completes, for d: the throughput it reaches is the
// capacity at len(conns) connections.
func closedLoop(conns []*conn, streams []*stream, d time.Duration, name string) *phaseResult {
	start := time.Now()
	deadline := start.Add(d)
	results := make([]*phaseResult, len(conns))
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := newPhase(name)
			for time.Now().Before(deadline) {
				o := streams[c].next()
				t0 := time.Now()
				err := conns[c].exec(o)
				res.record(o, time.Since(t0), err)
			}
			results[c] = res
		}(c)
	}
	wg.Wait()
	total := newPhase(name)
	for _, r := range results {
		total.merge(r)
	}
	total.elapsed = time.Since(start)
	return total
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}

// minSamples is the fewest samples a p95 stands on: ten beyond it.
const minSamples = 200

// maxSliceSteal is the largest share of CPU time the hypervisor may steal
// during a slice for the slice to count in the latency and capacity
// metrics. On a shared host, stretches of heavy steal slow every layer
// alike for tens of seconds; they measure the neighbours, not the program.
const maxSliceSteal = 0.03

// minCalm is the fewest slices the latency and capacity metrics stand on.
const minCalm = slices / 5

// calm returns the slices during which at most maxSliceSteal of the CPU
// time was stolen, in run order, and how many there were. When fewer than
// minCalm were calm it returns the minCalm slices with the least steal, so
// a run inside a long noisy stretch reports its calmest part (and says so).
func calm(slices []*phaseResult) ([]*phaseResult, int) {
	var out []*phaseResult
	for _, sl := range slices {
		if sl.stolen <= maxSliceSteal {
			out = append(out, sl)
		}
	}
	n := len(out)
	if n < minCalm {
		out = append([]*phaseResult(nil), slices...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].stolen < out[j].stolen })
		out = out[:min(minCalm, len(out))]
	}
	return out, n
}

// pooled is the q-quantile latency of class cls over every sample of the
// given slices.
func pooled(slices []*phaseResult, cls string, q float64) float64 {
	return quantile(combine("", slices).latency[cls], q)
}

// cpuPerOp is the server's CPU time per operation sent over the given
// phases, in microseconds.
func cpuPerOp(phases []*phaseResult) float64 {
	var cpu time.Duration
	var sent int64
	for _, p := range phases {
		cpu += p.serverCPU
		sent += p.sent
	}
	return float64(cpu.Microseconds()) / float64(sent)
}

// rateMedian is the median over a phase's slices of the operations each
// slice completed per second.
func rateMedian(slices []*phaseResult) float64 {
	per := make([]float64, len(slices))
	for i, sl := range slices {
		per[i] = float64(sl.succeeded) / sl.elapsed.Seconds()
	}
	return quantile(per, 0.5)
}

// cpuTimes returns the host's stolen and total CPU ticks from /proc/stat
// (zeros where it is unreadable). Steal is time the hypervisor gave the
// CPUs to other guests, the main source of run-to-run noise on a shared
// host.
func cpuTimes() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// report prints a phase's counts and lateness to stderr.
func (p *phaseResult) report() {
	fmt.Fprintf(os.Stderr, "phase %-9s sent %6d succeeded %6d failed %d shed %d in %.2fs",
		p.name, p.sent, p.succeeded, p.failed, p.shed, p.elapsed.Seconds())
	if len(p.lateness) > 0 {
		fmt.Fprintf(os.Stderr, "; lateness p50 %.3fms p99 %.3fms max %.3fms",
			quantile(p.lateness, 0.5), quantile(p.lateness, 0.99), quantile(p.lateness, 1))
	}
	fmt.Fprintln(os.Stderr)
	for _, e := range p.errs {
		fmt.Fprintf(os.Stderr, "  failure: %s\n", e)
	}
}
