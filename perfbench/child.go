package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// child is a running server process.
type child struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	out     *bufio.Scanner
	base    string // http://host:port
	rows    int    // total rows right after seeding
	dataDir string
	setup   time.Duration // exec to "ready": seed, open and server start
}

// startChild runs the server binary for w and waits until it is ready.
func startChild(bin string, w *workload, dataDir string) (*child, error) {
	s := w.scale
	args := []string{
		"-depts", strconv.Itoa(s.Departments), "-courses", strconv.Itoa(s.CoursesPerDept),
		"-grades", strconv.Itoa(s.GradesPerCourse), "-students", strconv.Itoa(s.StudentsPerDept),
		"-faculty", strconv.Itoa(s.FacultyPerDept), "-degrees", strconv.Itoa(s.DegreesPerDept),
		"-curriculum", strconv.Itoa(s.CoursesPerDegree),
	}
	if w.durable {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir, "-checkpoint", checkpointInterval.String())
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout), dataDir: dataDir}
	if !c.out.Scan() {
		c.kill()
		return nil, fmt.Errorf("server exited before it was ready")
	}
	c.setup = time.Since(start)
	var addr string
	if _, err := fmt.Sscanf(c.out.Text(), "ready %s %d", &addr, &c.rows); err != nil {
		c.kill()
		return nil, fmt.Errorf("server: unexpected line %q", c.out.Text())
	}
	c.base = "http://" + addr
	return c, nil
}

// audit is the server's answer to the audit command.
type audit struct {
	HeapBytes  int64 `json:"heap_bytes"`
	Rows       int   `json:"rows"`
	Violations int   `json:"violations"`
}

// audit asks the server to force a GC, measure its live heap, and run
// the Def. 2.2–2.4 integrity audit.
func (c *child) audit() (audit, error) {
	var a audit
	err := c.ask("audit", &a)
	return a, err
}

// cpu returns the CPU time the server has used so far. Unlike wall time
// it leaves out the time the hypervisor gives the CPUs to other guests.
func (c *child) cpu() (time.Duration, error) {
	var r struct {
		CPUus int64 `json:"cpu_us"`
	}
	err := c.ask("cpu", &r)
	return time.Duration(r.CPUus) * time.Microsecond, err
}

// ask sends one command and decodes the one-line JSON reply into v.
func (c *child) ask(cmd string, v any) error {
	if _, err := io.WriteString(c.stdin, cmd+"\n"); err != nil {
		return err
	}
	if !c.out.Scan() {
		return fmt.Errorf("server exited during %s", cmd)
	}
	return json.Unmarshal(c.out.Bytes(), v)
}

// kill stops the server with SIGKILL and waits for it to exit.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// serverReport prints what the server's own counters saw over a phase.
func serverReport(before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	n := max(d("penguin_http_requests"), 1)
	fmt.Fprintf(os.Stderr, "server: %.0f requests, handler mean %.1f us, %.0f commits, %.0f fsyncs (mean %.1f us), %.0f checkpoints, %.0f GC cycles\n",
		d("penguin_http_requests"), d("penguin_http_ns_sum")/n/1e3, d("reldb_tx_commits"), d("reldb_wal_fsyncs"),
		d("reldb_wal_fsync_ns_sum")/max(d("reldb_wal_fsync_ns_count"), 1)/1e3, d("reldb_wal_checkpoints"), d("runtime_gc_cycles"))
}

// scrape reads the server's /metrics and sums each family over its
// labels (histograms by their _sum and _count series).
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
