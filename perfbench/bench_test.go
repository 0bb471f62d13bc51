package main

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/serve"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// small returns the named workload over a four-department university.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := *w
	s.scale = baseScale(4, w.scale.GradesPerCourse)
	return &s
}

// serveOver starts the serving tier in process over db.
func serveOver(t *testing.T, db *reldb.Database, g *structural.Graph) *httptest.Server {
	t.Helper()
	om := university.MustOmega(g)
	srv := serve.New(serve.Config{
		DB:       db,
		Objects:  map[string]*viewobject.Definition{"omega": om},
		Updaters: map[string]*vupdate.Updater{"omega": vupdate.NewUpdater(vupdate.PermissiveTranslator(om))},
		Reg:      obs.NewRegistry(),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func seeded(t *testing.T, w *workload) *httptest.Server {
	t.Helper()
	db, g := university.New()
	if err := university.SeedScaled(db, w.scale); err != nil {
		t.Fatal(err)
	}
	return serveOver(t, db, g)
}

// TestPlantedWrongExpectationFails plants a wrong expectation in each
// output check and requires the check to catch it.
func TestPlantedWrongExpectationFails(t *testing.T) {
	w := small(t, "figure4-report")
	ts := seeded(t, w)
	c := newConn(w, ts.URL)
	defer c.close()
	for _, o := range []op{{kind: opQuery, graduate: true}, {kind: opQuery}, {kind: opRead, key: courseID(1, 2)}} {
		if err := c.exec(o); err != nil {
			t.Fatalf("%v with the right expectation: %v", o.kind, err)
		}
	}

	planted := *w
	planted.scale.Departments++ // a department that was never seeded
	pc := newConn(&planted, ts.URL)
	defer pc.close()
	if err := pc.exec(op{kind: opQuery, graduate: true}); err == nil {
		t.Error("a report with the wrong expected count passed its check")
	}
	planted = *w
	planted.scale.GradesPerCourse = 3
	pc = newConn(&planted, ts.URL)
	defer pc.close()
	if err := pc.exec(op{kind: opRead, key: courseID(0, 0)}); err == nil {
		t.Error("a point read with the wrong expected grade count passed its check")
	}

	m := newModel()
	m.titles[courseID(0, 1)] = "a title no update wrote"
	if _, fails := checkState(w, m, httpGetter(c)); len(fails) != 1 {
		t.Errorf("a planted acknowledged title gave %d failures, want 1", len(fails))
	}
	m = newModel()
	m.deleted[courseID(0, 1)] = true
	if _, fails := checkState(w, m, httpGetter(c)); len(fails) != 1 {
		t.Errorf("a planted deletion of a live course gave %d failures, want 1", len(fails))
	}
}

// TestStreamsDeterministicAndDisjoint checks that a seed fixes the
// operations, that writer keys never cross connections, and that each
// delete removes a course its own connection inserted earlier.
func TestStreamsDeterministicAndDisjoint(t *testing.T) {
	w, _ := workloadByName("update-mix")
	const n = 500
	owner := map[string]int{}
	kinds := map[opKind]int{}
	for c := 0; c < 2; c++ {
		a, b := newStream(w, 7, c, 2), newStream(w, 7, c, 2)
		inserted := map[string]bool{}
		for i := 0; i < n; i++ {
			o := a.next()
			if o2 := b.next(); o != o2 {
				t.Fatalf("conn %d op %d differs between equal seeds: %+v vs %+v", c, i, o, o2)
			}
			kinds[o.kind]++
			switch o.kind {
			case opReplace, opInsert:
				if prev, ok := owner[o.key]; ok && prev != c {
					t.Fatalf("%s written by connections %d and %d", o.key, prev, c)
				}
				owner[o.key] = c
				inserted[o.key] = o.kind == opInsert
			case opDelete:
				if !inserted[o.key] {
					t.Fatalf("conn %d deletes %s, which it did not insert", c, o.key)
				}
				delete(inserted, o.key)
			}
		}
	}
	if kinds[opRead] != n || kinds[opReplace] != 3*n/5 || kinds[opInsert] != n/5 || kinds[opDelete] != n/5 {
		t.Errorf("mix over %d ops: %v, want 50/30/10/10%%", 2*n, kinds)
	}
	if s1, s2 := newStream(w, 1, 0, 2).next(), newStream(w, 2, 0, 2).next(); s1 == s2 {
		t.Errorf("seeds 1 and 2 generated the same first op %+v", s1)
	}
}

// TestUpdateMixRecovers drives update-mix operations over HTTP against a
// durable database, then reopens the directory and checks the model and
// the row count there, as a run does after killing its server.
func TestUpdateMixRecovers(t *testing.T) {
	w := small(t, "update-mix")
	dir := filepath.Join(t.TempDir(), "data")
	db, err := reldb.OpenDatabaseWith(dir, reldb.OpenOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := university.Install(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := university.SeedScaled(db, w.scale); err != nil {
		t.Fatal(err)
	}
	rows := db.TotalRows()
	ts := serveOver(t, db, g)
	c := newConn(w, ts.URL)
	defer c.close()
	s := newStream(w, 3, 0, 1)
	for i := 0; i < 45; i++ {
		if err := c.exec(s.next()); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if len(c.model.titles)+len(c.model.grades) == 0 || len(c.model.alive) == 0 || len(c.model.deleted) == 0 {
		t.Fatalf("45 ops left a thin model: %+v", c.model)
	}
	if _, fails := checkState(w, c.model, httpGetter(c)); len(fails) > 0 {
		t.Fatalf("follow-up reads: %v", fails)
	}
	ts.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := recoverAndCheck(w, dir, c.model, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.fails) > 0 {
		t.Fatalf("after recovery: %v", rec.fails)
	}
}

// TestReplayAttributesLayers replays each op kind in process and checks
// that the layer spans cover the operation's time and the counters
// behind the per-update metrics move.
func TestReplayAttributesLayers(t *testing.T) {
	for _, name := range []string{"point-read", "figure4-report", "update-mix"} {
		w := small(t, name)
		w.durable = false
		r, err := openReplica(w, "")
		if err != nil {
			t.Fatal(err)
		}
		st := &layerStats{sum: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
		s := newStream(w, 5, 0, 1)
		for i := 0; i < 20; i++ {
			if err := st.measure(w, r, s.next(), &opTrace{}); err != nil {
				t.Fatalf("%s op %d: %v", name, i, err)
			}
		}
		out := map[string]float64{}
		st.fill(out)
		if f := out["trace.unattributed_frac"]; f <= 0 || f > 0.5 {
			t.Errorf("%s: unattributed share %.3f outside (0, 0.5]", name, f)
		}
		if name == "update-mix" && (out["vupdate.ops_per_update"] <= 0 || out["reldb.clones_per_update"] <= 0 || out["reldb.commit_us"] <= 0) {
			t.Errorf("%s: update counters did not move: %v", name, out)
		}
		if name == "figure4-report" && out["viewobject.nodes_per_query"] <= 0 {
			t.Errorf("%s: no nodes per query: %v", name, out)
		}
	}
}

// TestCalmPicksQuietSlices checks that the metrics stand on the slices
// with at most maxSliceSteal stolen, and on the minCalm least-stolen ones
// when too few were calm.
func TestCalmPicksQuietSlices(t *testing.T) {
	mk := func(steals ...float64) []*phaseResult {
		var out []*phaseResult
		for _, s := range steals {
			out = append(out, &phaseResult{stolen: s})
		}
		return out
	}
	steals := func(ps []*phaseResult) []float64 {
		var out []float64
		for _, p := range ps {
			out = append(out, p.stolen)
		}
		return out
	}
	quiet := mk(0, 0.2, 0.01, 0.03, 0.02, 0.5, 0, 0.04)
	if got, n := calm(quiet); n != 5 || fmt.Sprint(steals(got)) != "[0 0.01 0.03 0.02 0]" {
		t.Errorf("calm over a mostly quiet run: %v (%d calm)", steals(got), n)
	}
	noisy := mk(0.3, 0.1, 0.2, 0.05, 0.01, 0.4, 0.06, 0.08)
	if got, n := calm(noisy); n != 1 || fmt.Sprint(steals(got)) != "[0.01 0.05 0.06 0.08]" {
		t.Errorf("calm over a noisy run: %v (%d calm), want the %d least stolen", steals(got), n, minCalm)
	}
	a, b := mk(0.1, 0.3, 0.05, 0.01, 0.2, 0.4), mk(0.1, 0.3, 0.05, 0.01, 0.2, 0.4)
	for i := range b {
		a[i].sent, a[i].serverCPU = 10, time.Duration(i+1)*time.Millisecond
		b[i].sent, b[i].serverCPU = 30, time.Millisecond
	}
	ca, _ := calm(a)
	cb, _ := calm(b)
	if got := cpuPerOp(append(ca, cb...)); got != 17000.0/160 {
		t.Errorf("cpuPerOp over the calm slices = %v µs, want 106.25", got)
	}
}
