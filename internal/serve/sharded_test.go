package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/university"
)

// newShardedTestServer builds a serving tier over an n-shard university
// cluster: same HTTP surface, sharded backend.
func newShardedTestServer(t *testing.T, n int) (*Server, *shard.Cluster) {
	t.Helper()
	c, err := university.NewSharded(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return New(Config{Cluster: c, Reg: obs.NewRegistry()}), c
}

// TestShardedListObjects pins the cluster listing: both objects, ω
// updatable, ω′ read-only (its paths cross partitioned relations
// outside its island, so the cluster registers it restrictively).
func TestShardedListObjects(t *testing.T) {
	s, _ := newShardedTestServer(t, 2)
	code, doc := do(t, s, "GET", "/objects", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /objects = %d", code)
	}
	objs := doc["objects"].([]any)
	if len(objs) != 2 {
		t.Fatalf("listed %d objects, want 2", len(objs))
	}
	first := objs[0].(map[string]any)
	if first["name"] != "omega" || first["pivot"] != university.Courses || first["updatable"] != true {
		t.Errorf("first object = %v, want updatable omega over %s", first, university.Courses)
	}
	second := objs[1].(map[string]any)
	if second["name"] != "omega-prime" || second["updatable"] != false {
		t.Errorf("second object = %v, want read-only omega-prime", second)
	}
}

// TestShardedQueryFansOut runs the Figure 4 query against the cluster:
// the fan-out must find CS345 wherever its island landed, and the full
// listing must merge every shard's courses in pivot-key order.
func TestShardedQueryFansOut(t *testing.T) {
	s, c := newShardedTestServer(t, 2)

	// Placement sanity: the 6 seeded courses are partitioned (counted
	// once across shards), the 3 departments replicated (once each per
	// shard).
	courses, depts := 0, 0
	for i := 0; i < c.N(); i++ {
		rtx := c.DB(i).BeginRead()
		if rel, err := rtx.Relation(university.Courses); err == nil {
			courses += rel.Count()
		}
		if rel, err := rtx.Relation(university.Department); err == nil {
			depts += rel.Count()
		}
		rtx.Close()
	}
	if courses != 6 {
		t.Fatalf("COURSES rows across shards = %d, want 6 (partitioned)", courses)
	}
	if depts != 3*c.N() {
		t.Fatalf("DEPARTMENT rows across shards = %d, want %d (replicated)", depts, 3*c.N())
	}

	code, doc := do(t, s, "GET", "/objects/omega?q="+
		"Level+%3D+%27graduate%27+and+count%28STUDENT%29+%3C+5", nil)
	if code != http.StatusOK {
		t.Fatalf("query = %d: %v", code, doc)
	}
	found := false
	for _, raw := range doc["instances"].([]any) {
		if raw.(map[string]any)["CourseID"] == "CS345" {
			found = true
		}
	}
	if !found {
		t.Error("CS345 missing from the sharded Figure 4 result")
	}
	// The merged body is byte for byte the reference encoding of the
	// cluster's answer, each instance under its own shard's definition.
	def, err := c.Object("omega", 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := oql.Parse(def, "Level = 'graduate' and count(STUDENT) < 5")
	if err != nil {
		t.Fatal(err)
	}
	answer, err := c.Instantiate("omega", q)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceQueryBody(t, answer, c.Generation())
	if _, body := doRaw(t, s, "GET", "/objects/omega?q="+
		"Level+%3D+%27graduate%27+and+count%28STUDENT%29+%3C+5", nil); !bytes.Equal(body, want) {
		t.Errorf("sharded query body differs from the reference encoding:\n got %s\nwant %s", body, want)
	}

	// Unfiltered listing: all 6 instances, merged in pivot-key order.
	code, doc = do(t, s, "GET", "/objects/omega", nil)
	if code != http.StatusOK {
		t.Fatalf("list query = %d", code)
	}
	insts := doc["instances"].([]any)
	if len(insts) != 6 {
		t.Fatalf("sharded listing returned %d instances, want 6", len(insts))
	}
	prev := ""
	for _, raw := range insts {
		id := raw.(map[string]any)["CourseID"].(string)
		if id < prev {
			t.Fatalf("merged listing out of order: %q after %q", id, prev)
		}
		prev = id
	}
}

// TestShardedUpdateRoundTrip drives VO-CD, VO-CI, and VO-R through the
// HTTP surface against the cluster: the coordinator must route each
// verb to CS345's home shard and the follow-up reads must agree.
func TestShardedUpdateRoundTrip(t *testing.T) {
	s, c := newShardedTestServer(t, 2)
	_, orig := do(t, s, "GET", "/objects/omega/CS345", nil)
	gen0 := c.Generation()

	code, res := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345"}})
	if code != http.StatusOK {
		t.Fatalf("delete = %d: %v", code, res)
	}
	if c.Generation() <= gen0 {
		t.Fatal("cluster generation did not advance across the delete")
	}
	if code, _ := do(t, s, "GET", "/objects/omega/CS345", nil); code != http.StatusNotFound {
		t.Fatalf("CS345 still instantiable after sharded VO-CD (%d)", code)
	}

	code, res = do(t, s, "POST", "/objects/omega:insert", map[string]any{"instance": orig})
	if code != http.StatusOK {
		t.Fatalf("insert = %d: %v", code, res)
	}
	code, back := do(t, s, "GET", "/objects/omega/CS345", nil)
	if code != http.StatusOK {
		t.Fatalf("get after insert = %d", code)
	}
	if back["Title"] != orig["Title"] {
		t.Errorf("Title after delete+insert = %v, want %v", back["Title"], orig["Title"])
	}

	repl := map[string]any{}
	data, _ := json.Marshal(back)
	json.Unmarshal(data, &repl)
	repl["Title"] = "Sharded Databases"
	code, res = do(t, s, "POST", "/objects/omega:replace",
		map[string]any{"key": []any{"CS345"}, "instance": repl})
	if code != http.StatusOK {
		t.Fatalf("replace = %d: %v", code, res)
	}
	_, after := do(t, s, "GET", "/objects/omega/CS345", nil)
	if after["Title"] != "Sharded Databases" {
		t.Errorf("Title after replace = %v", after["Title"])
	}
}

// TestShardedUpdateErrors pins the cluster-specific refusals: updates
// through read-only ω′ answer 405, and a replacement that would re-home
// the pivot key answers 409 (ErrCrossShardMove) instead of migrating
// the island.
func TestShardedUpdateErrors(t *testing.T) {
	s, c := newShardedTestServer(t, 2)
	if code, _ := do(t, s, "POST", "/objects/omega-prime:delete",
		map[string]any{"key": []any{"CS345"}}); code != http.StatusMethodNotAllowed {
		t.Errorf("update on read-only sharded object = %d, want 405", code)
	}

	// Find a course id homed on the other shard, then ask VO-R to move
	// CS345 there.
	home, err := c.HomeOf("omega", reldb.Tuple{reldb.String("CS345")})
	if err != nil {
		t.Fatal(err)
	}
	moved := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("MOVE%03d", i)
		h, err := c.HomeOf("omega", reldb.Tuple{reldb.String(cand)})
		if err != nil {
			t.Fatal(err)
		}
		if h != home {
			moved = cand
			break
		}
	}
	if moved == "" {
		t.Fatal("no candidate key hashes to the other shard")
	}
	_, orig := do(t, s, "GET", "/objects/omega/CS345", nil)
	repl := map[string]any{}
	data, _ := json.Marshal(orig)
	json.Unmarshal(data, &repl)
	repl["CourseID"] = moved
	code, doc := do(t, s, "POST", "/objects/omega:replace",
		map[string]any{"key": []any{"CS345"}, "instance": repl})
	if code != http.StatusConflict {
		t.Errorf("cross-shard move = %d (%v), want 409", code, doc)
	}
}
