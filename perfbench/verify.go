package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"penguin/internal/reldb"
	"penguin/internal/serve"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
)

// errNotFound is what a getter returns for an absent instance.
var errNotFound = errors.New("not found")

// getter fetches one ω instance document by course key.
type getter func(key string) (map[string]any, error)

// checkState compares the instances a getter returns with the state the
// acknowledged updates imply: the last acknowledged Title and Grade per
// key, every inserted course present with its grades, every deleted one
// absent. It returns the number of checks made and the failures.
func checkState(w *workload, m *model, get getter) (int, []string) {
	var fails []string
	checks := 0
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	for _, key := range sortedKeys(m.titles) {
		checks++
		doc, err := get(key)
		if err != nil {
			fail("title of %s: %v", key, err)
		} else if doc["Title"] != m.titles[key] {
			fail("title of %s: got %v, want %q", key, doc["Title"], m.titles[key])
		}
	}
	for _, gk := range sortedKeys(m.grades) {
		checks++
		key, pid, _ := strings.Cut(gk, "/")
		doc, err := get(key)
		if err != nil {
			fail("grade %s: %v", gk, err)
			continue
		}
		var got any = "<missing>"
		grades, _ := doc["GRADES"].([]any)
		for _, g := range grades {
			if gm, ok := g.(map[string]any); ok && pidString(gm["PID"]) == pid {
				got = gm["Grade"]
			}
		}
		if got != m.grades[gk] {
			fail("grade %s: got %v, want %q", gk, got, m.grades[gk])
		}
	}
	for _, key := range sortedKeys(m.alive) {
		checks++
		doc, err := get(key)
		if err != nil {
			fail("inserted %s: %v", key, err)
		} else if grades, _ := doc["GRADES"].([]any); len(grades) != w.scale.GradesPerCourse {
			fail("inserted %s: %d grades, want %d", key, len(grades), w.scale.GradesPerCourse)
		}
	}
	for _, key := range sortedKeys(m.deleted) {
		checks++
		if _, err := get(key); !errors.Is(err, errNotFound) {
			fail("deleted %s: still readable (err %v)", key, err)
		}
	}
	return checks, fails
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mergeModels unions the per-connection models; their keys are disjoint.
func mergeModels(conns []*conn) *model {
	all := newModel()
	for _, c := range conns {
		for k, v := range c.model.titles {
			all.titles[k] = v
		}
		for k, v := range c.model.grades {
			all.grades[k] = v
		}
		for k := range c.model.alive {
			all.alive[k] = true
		}
		for k := range c.model.deleted {
			all.deleted[k] = true
		}
	}
	return all
}

// httpGetter reads instances through the serving tier.
func httpGetter(c *conn) getter {
	return func(key string) (map[string]any, error) {
		status, body, err := c.do("GET", "/objects/omega/"+url.PathEscape(key), nil)
		if err != nil {
			return nil, err
		}
		if status == http.StatusNotFound {
			return nil, errNotFound
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("status %d", status)
		}
		return decodeDoc(body)
	}
}

// recovered is the outcome of reopening a killed server's data directory.
type recovered struct {
	took   time.Duration // reldb.OpenDatabaseWith alone
	checks int
	fails  []string
}

// recoverAndCheck reopens dir the way a restarted server would, then
// verifies that every acknowledged update survived, that the row count
// is the seeded count plus the inserted courses still alive, and that
// the integrity audit finds no violations. The server was killed with
// SIGKILL, which leaves the OS page cache intact: this proves the WAL
// holds every acknowledged commit, not that fsync reached the disk.
func recoverAndCheck(w *workload, dir string, m *model, seededRows int) (*recovered, error) {
	start := time.Now()
	db, err := reldb.OpenDatabaseWith(dir, reldb.OpenOptions{CheckpointInterval: -1})
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	r := &recovered{took: time.Since(start)}
	defer db.Close()
	g, err := university.Install(db)
	if err != nil {
		return nil, err
	}
	def, err := university.Omega(g)
	if err != nil {
		return nil, err
	}
	rtx := db.BeginRead()
	defer rtx.Close()
	r.checks, r.fails = checkState(w, m, instanceGetter(rtx, def))

	r.checks++
	want := seededRows + len(m.alive)*(1+w.scale.GradesPerCourse)
	if got := rtx.TotalRows(); got != want {
		r.fails = append(r.fails, fmt.Sprintf("recovered rows: %d, want %d", got, want))
	}
	r.checks++
	vs, err := (&structural.Integrity{G: g}).Audit(rtx)
	if err != nil {
		return nil, err
	}
	if len(vs) > 0 {
		r.fails = append(r.fails, fmt.Sprintf("recovered audit: %d violations, first %s", len(vs), vs[0]))
	}
	return r, nil
}

// instanceGetter reads instances in process, as documents of the same
// shape the serving tier sends.
func instanceGetter(res structural.Resolver, def *viewobject.Definition) getter {
	return func(key string) (map[string]any, error) {
		inst, ok, err := viewobject.InstantiateByKey(res, def, reldb.Tuple{reldb.String(key)})
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, errNotFound
		}
		return serve.InstanceDoc(inst), nil
	}
}
