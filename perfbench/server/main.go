// Command server is the benchmark's serving process. It seeds a scaled
// university (university.SeedScaled), starts the HTTP tier with the
// defaults of `penguin -serve` — SyncCommit WAL when durable, default
// admission bounds, flight recorder at the 25 ms threshold — and prints
// one "ready" line. It then answers commands on standard input:
//
//	cpu     print the process's user+system CPU time so far, {"cpu_us"}
//	audit   force two GCs, then print {"heap_bytes","rows","violations"}
//
// End of input exits the process, so the server never outlives the
// benchmark that started it.
//
//	server -depts 100 -courses 6 -grades 4 [-data-dir DIR -checkpoint 2s]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/serve"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// serveSlowThreshold is penguin -serve's default -slow-threshold.
const serveSlowThreshold = 25 * time.Millisecond

func main() {
	var spec university.ScaleSpec
	flag.IntVar(&spec.Departments, "depts", 100, "departments")
	flag.IntVar(&spec.CoursesPerDept, "courses", 6, "courses per department")
	flag.IntVar(&spec.GradesPerCourse, "grades", 4, "grades per course")
	flag.IntVar(&spec.StudentsPerDept, "students", 20, "students per department")
	flag.IntVar(&spec.FacultyPerDept, "faculty", 2, "faculty per department")
	flag.IntVar(&spec.DegreesPerDept, "degrees", 3, "degrees per department")
	flag.IntVar(&spec.CoursesPerDegree, "curriculum", 3, "courses per degree")
	dataDir := flag.String("data-dir", "", "durable data directory (in-memory when empty)")
	ckpt := flag.Duration("checkpoint", 0, "background checkpoint interval of a durable database")
	flag.Parse()

	if err := run(spec, *dataDir, *ckpt); err != nil {
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(1)
	}
}

func run(spec university.ScaleSpec, dataDir string, ckpt time.Duration) error {
	obs.Default.SetRecorder(obs.NewRecorder(serveSlowThreshold, 64))
	var (
		db  *reldb.Database
		g   *structural.Graph
		err error
	)
	if dataDir != "" {
		db, err = reldb.OpenDatabaseWith(dataDir, reldb.OpenOptions{Sync: reldb.SyncCommit, CheckpointInterval: ckpt})
		if err != nil {
			return err
		}
		if g, err = university.Install(db); err != nil {
			return err
		}
	} else {
		db, g = university.New()
	}
	if err := university.SeedScaled(db, spec); err != nil {
		return fmt.Errorf("seed: %w", err)
	}
	om, err := university.Omega(g)
	if err != nil {
		return err
	}
	op, err := university.OmegaPrime(g)
	if err != nil {
		return err
	}
	objects := map[string]*viewobject.Definition{"omega": om, "omega-prime": op}
	updaters := make(map[string]*vupdate.Updater, len(objects))
	for name, def := range objects {
		updaters[name] = vupdate.NewUpdater(vupdate.PermissiveTranslator(def))
	}
	_, hs, err := serve.Start("127.0.0.1:0", serve.Config{DB: db, Objects: objects, Updaters: updaters})
	if err != nil {
		return err
	}
	fmt.Printf("ready %s %d\n", hs.Addr(), db.TotalRows())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var reply any
		switch in.Text() {
		case "cpu":
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				return fmt.Errorf("getrusage: %w", err)
			}
			reply = map[string]any{"cpu_us": ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec}
		case "audit":
			// The second cycle frees what sync.Pool kept as victims
			// through the first: cached buffers, not live data.
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			rtx := db.BeginRead()
			vs, err := (&structural.Integrity{G: g}).Audit(rtx)
			rows := rtx.TotalRows()
			rtx.Close()
			if err != nil {
				return fmt.Errorf("audit: %w", err)
			}
			reply = map[string]any{"heap_bytes": ms.HeapAlloc, "rows": rows, "violations": len(vs)}
		default:
			return fmt.Errorf("unknown command %q", in.Text())
		}
		out, err := json.Marshal(reply)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	}
	return in.Err()
}
