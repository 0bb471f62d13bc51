package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// newTestServer builds a serving tier over a freshly seeded university
// database with a private registry, so counter assertions are isolated
// from other tests.
func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	op := university.MustOmegaPrime(g)
	reg := obs.NewRegistry()
	cfg.DB = db
	cfg.Objects = map[string]*viewobject.Definition{"omega": om, "omega-prime": op}
	cfg.Updaters = map[string]*vupdate.Updater{
		"omega": vupdate.NewUpdater(vupdate.PermissiveTranslator(om)),
	}
	cfg.Reg = reg
	return New(cfg), reg
}

// do runs one request through the handler tree and decodes the JSON
// response body (UseNumber, like a careful client).
func do(t *testing.T, s *Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	code, raw := doRaw(t, s, method, path, body)
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("%s %s: bad response body: %v", method, path, err)
	}
	return code, doc
}

// doRaw runs one request through the handler tree and returns the
// response body as sent, checking its Content-Length when one is set.
func doRaw(t *testing.T, s *Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if cl := w.Header().Get("Content-Length"); cl != "" && cl != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("%s %s: Content-Length %s for a %d-byte body", method, path, cl, w.Body.Len())
	}
	return w.Code, w.Body.Bytes()
}

func TestListObjects(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	code, doc := do(t, s, "GET", "/objects", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /objects = %d", code)
	}
	objs := doc["objects"].([]any)
	if len(objs) != 2 {
		t.Fatalf("listed %d objects, want 2", len(objs))
	}
	first := objs[0].(map[string]any)
	if first["name"] != "omega" || first["pivot"] != university.Courses {
		t.Errorf("first object = %v, want omega over %s (sorted)", first, university.Courses)
	}
	if first["updatable"] != true {
		t.Errorf("omega should be updatable")
	}
	second := objs[1].(map[string]any)
	if second["name"] != "omega-prime" || second["updatable"] != false {
		t.Errorf("second object = %v, want read-only omega-prime", second)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	// Figure 4's query: graduate courses with fewer than 5 students.
	code, doc := do(t, s, "GET", "/objects/omega?q="+
		"Level+%3D+%27graduate%27+and+count%28STUDENT%29+%3C+5", nil)
	if code != http.StatusOK {
		t.Fatalf("query = %d: %v", code, doc)
	}
	// The body is byte for byte the reference encoding of the same
	// instances, for the Figure 4 answer and for both full extents.
	for _, c := range []struct{ name, path, oql string }{
		{"omega", "/objects/omega?q=Level+%3D+%27graduate%27+and+count%28STUDENT%29+%3C+5",
			"Level = 'graduate' and count(STUDENT) < 5"},
		{"omega", "/objects/omega", ""},
		{"omega-prime", "/objects/omega-prime", ""},
	} {
		def := s.cfg.Objects[c.name]
		q, err := oql.Parse(def, c.oql)
		if err != nil {
			t.Fatal(err)
		}
		rtx := s.cfg.DB.BeginRead()
		insts, err := viewobject.Instantiate(rtx, def, q)
		gen := rtx.Generation()
		rtx.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, body := doRaw(t, s, "GET", c.path, nil); !bytes.Equal(body, referenceQueryBody(t, insts, gen)) {
			t.Errorf("GET %s body differs from the reference encoding:\n got %s\nwant %s",
				c.path, body, referenceQueryBody(t, insts, gen))
		}
	}
	n, _ := doc["count"].(json.Number)
	if v, _ := n.Int64(); v < 1 {
		t.Fatalf("Figure 4 query selected %s instances, want >= 1 (CS345)", n)
	}
	found := false
	for _, raw := range doc["instances"].([]any) {
		inst := raw.(map[string]any)
		if inst["CourseID"] == "CS345" {
			found = true
		}
	}
	if !found {
		t.Error("CS345 missing from the Figure 4 query result")
	}

	if code, _ := do(t, s, "GET", "/objects/omega?q=%28%28", nil); code != http.StatusBadRequest {
		t.Errorf("malformed OQL = %d, want 400", code)
	}
	if code, _ := do(t, s, "GET", "/objects/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown object = %d, want 404", code)
	}
}

func TestGetByKey(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	code, doc := do(t, s, "GET", "/objects/omega/CS345", nil)
	if code != http.StatusOK {
		t.Fatalf("get = %d: %v", code, doc)
	}
	for _, c := range []struct{ name, key string }{{"omega", "CS345"}, {"omega-prime", "CS345"}, {"omega", "CS101"}} {
		rtx := s.cfg.DB.BeginRead()
		inst, ok, err := viewobject.InstantiateByKey(rtx, s.cfg.Objects[c.name], reldb.Tuple{reldb.String(c.key)})
		rtx.Close()
		if err != nil || !ok {
			t.Fatalf("instantiate %s %s: %v %v", c.name, c.key, ok, err)
		}
		want := referenceJSON(t, InstanceDoc(inst))
		if _, body := doRaw(t, s, "GET", "/objects/"+c.name+"/"+c.key, nil); !bytes.Equal(body, want) {
			t.Errorf("GET %s/%s body differs from the reference encoding:\n got %s\nwant %s", c.name, c.key, body, want)
		}
	}
	if doc["CourseID"] != "CS345" {
		t.Errorf("CourseID = %v", doc["CourseID"])
	}
	// Units is an int attribute: the wire form must be tagged.
	units, ok := doc["Units"].(map[string]any)
	if !ok || units["int"] == nil {
		t.Errorf("Units = %v, want tagged int form", doc["Units"])
	}
	// ω nests STUDENT under GRADES (Figure 2's tree).
	grades, ok := doc["GRADES"].([]any)
	if !ok || len(grades) == 0 {
		t.Fatalf("GRADES children missing: %v", doc["GRADES"])
	}
	if _, ok := grades[0].(map[string]any)["STUDENT"].([]any); !ok {
		t.Errorf("STUDENT missing under GRADES: %v", grades[0])
	}

	if code, _ := do(t, s, "GET", "/objects/omega/NOPE999", nil); code != http.StatusNotFound {
		t.Errorf("missing key = %d, want 404", code)
	}
}

// TestUpdateRoundTrip exercises VO-CD, VO-CI, and VO-R through the
// HTTP surface: fetch a document, delete it, reinsert it verbatim, and
// finally replace an attribute — the fetched document must work as an
// insert body unchanged (the codec round-trip in anger).
func TestUpdateRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, orig := do(t, s, "GET", "/objects/omega/CS345", nil)

	code, res := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345"}})
	if code != http.StatusOK {
		t.Fatalf("delete = %d: %v", code, res)
	}
	if n, _ := res["count"].(json.Number).Int64(); n < 1 {
		t.Fatalf("delete translated into %v ops", res["count"])
	}
	if res["generation"] == nil {
		t.Fatal("delete response carries no generation")
	}
	if code, _ := do(t, s, "GET", "/objects/omega/CS345", nil); code != http.StatusNotFound {
		t.Fatalf("CS345 still instantiable after VO-CD (%d)", code)
	}

	code, res = do(t, s, "POST", "/objects/omega:insert", map[string]any{"instance": orig})
	if code != http.StatusOK {
		t.Fatalf("insert = %d: %v", code, res)
	}
	code, back := do(t, s, "GET", "/objects/omega/CS345", nil)
	if code != http.StatusOK {
		t.Fatalf("get after insert = %d", code)
	}
	normalize(orig)
	normalize(back)
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("document changed across delete+insert:\nbefore %v\nafter  %v", orig, back)
	}

	// VO-R: change the title, keep everything else.
	repl := map[string]any{}
	data, _ := json.Marshal(back)
	json.Unmarshal(data, &repl)
	repl["Title"] = "Rewritten Databases"
	code, res = do(t, s, "POST", "/objects/omega:replace",
		map[string]any{"key": []any{"CS345"}, "instance": repl})
	if code != http.StatusOK {
		t.Fatalf("replace = %d: %v", code, res)
	}
	_, after := do(t, s, "GET", "/objects/omega/CS345", nil)
	if after["Title"] != "Rewritten Databases" {
		t.Errorf("Title after replace = %v", after["Title"])
	}
}

// normalize sorts child arrays so document comparison ignores sibling
// order (instantiation order is key order, but insertion resequences).
func normalize(doc map[string]any) {
	for k, v := range doc {
		list, ok := v.([]any)
		if !ok {
			continue
		}
		keys := make([]string, len(list))
		for i, item := range list {
			if m, ok := item.(map[string]any); ok {
				normalize(m)
				b, _ := json.Marshal(m)
				keys[i] = string(b)
			}
		}
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
				keys[j-1], keys[j] = keys[j], keys[j-1]
				list[j-1], list[j] = list[j], list[j-1]
			}
		}
		doc[k] = list
	}
}

func TestUpdateErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if code, _ := do(t, s, "POST", "/objects/omega", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST without verb = %d, want 405", code)
	}
	if code, _ := do(t, s, "POST", "/objects/omega:upsert", nil); code != http.StatusNotFound {
		t.Errorf("unknown verb = %d, want 404", code)
	}
	if code, _ := do(t, s, "POST", "/objects/omega-prime:delete", map[string]any{"key": []any{"CS345"}}); code != http.StatusMethodNotAllowed {
		t.Errorf("update on read-only object = %d, want 405", code)
	}
	if code, _ := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345", "extra"}}); code != http.StatusBadRequest {
		t.Errorf("wrong key arity = %d, want 400", code)
	}
	code, doc := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"NOPE999"}})
	if code != http.StatusConflict {
		t.Errorf("delete of a missing instance = %d (%v), want 409", code, doc)
	}
}

// TestAdmissionControlSheds pins the overload contract: with the write
// path throttled (a StepProbe stalling the §5 pipeline, standing in for
// a slow disk or a huge translation) and the write bound at 1, a second
// concurrent update is answered 429 immediately — shed, not queued —
// and the metrics partition arrivals into requests vs shed.
func TestAdmissionControlSheds(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxWriteInFlight: 1})

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	prev := vupdate.SetStepProbe(func(_ obs.Step, object string) {
		if object == "omega" {
			once.Do(func() { close(entered) })
			<-gate
		}
	})
	defer vupdate.SetStepProbe(prev)

	var wg sync.WaitGroup
	wg.Add(1)
	var slowCode int
	go func() {
		defer wg.Done()
		slowCode, _ = do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345"}})
	}()
	<-entered // the first update holds the only write slot

	code, doc := do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS101"}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("second concurrent write = %d (%v), want 429", code, doc)
	}
	if doc["error"] != "overloaded" {
		t.Errorf("shed body = %v", doc)
	}

	close(gate)
	wg.Wait()
	if slowCode != http.StatusOK {
		t.Fatalf("admitted write = %d, want 200", slowCode)
	}

	if got := reg.HTTPShed.Load(); got != 1 {
		t.Errorf("penguin.http.shed = %d, want 1", got)
	}
	if got := reg.HTTPShedByEndpoint.With(epDelete).Load(); got != 1 {
		t.Errorf("per-endpoint shed = %d, want 1", got)
	}
	// The shed request is not an admitted request: requests counts 1
	// (the slow delete), not 2.
	if got := reg.HTTPRequests.Load(); got != 1 {
		t.Errorf("penguin.http.requests = %d, want 1 (admitted only)", got)
	}
	if got := reg.HTTPNs.Count(); got != 1 {
		t.Errorf("latency histogram holds %d observations, want 1 (admitted only)", got)
	}
	if got := reg.HTTPStatus[obs.Status4xx].Load(); got != 1 {
		t.Errorf("4xx = %d, want 1 (the shed)", got)
	}
	if got := reg.HTTPStatus[obs.Status2xx].Load(); got != 1 {
		t.Errorf("2xx = %d, want 1 (the admitted delete)", got)
	}
}

// TestReadAdmissionIndependent checks the read and write semaphores are
// separate: saturating writes must not shed reads.
func TestReadAdmissionIndependent(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxWriteInFlight: 1, MaxReadInFlight: 8})

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	prev := vupdate.SetStepProbe(func(_ obs.Step, object string) {
		if object == "omega" {
			once.Do(func() { close(entered) })
			<-gate
		}
	})
	defer vupdate.SetStepProbe(prev)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		do(t, s, "POST", "/objects/omega:delete", map[string]any{"key": []any{"CS345"}})
	}()
	<-entered

	if code, _ := do(t, s, "GET", "/objects/omega/CS101", nil); code != http.StatusOK {
		t.Errorf("read during write saturation = %d, want 200", code)
	}
	close(gate)
	wg.Wait()
	if got := reg.HTTPShed.Load(); got != 0 {
		t.Errorf("shed = %d, want 0", got)
	}
}

// TestMetricsMounted checks the serving tier exposes the same debug
// surface as the standalone metrics listener.
func TestMetricsMounted(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	do(t, s, "GET", "/objects/omega/CS345", nil)

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	body := w.Body.String()
	if err := obs.CheckExposition(body); err != nil {
		t.Errorf("exposition: %v", err)
	}
	// The serving tier records into obs.Default here (the test config's
	// private registry isolates counters, but the exposition serves the
	// default); the family names must still be present.
	for _, want := range []string{"penguin_http_requests", "penguin_http_ns"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}

// TestEndpointMetricsPartition checks the labeled families sum to the
// aggregate across a mixed request sequence.
func TestEndpointMetricsPartition(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		do(t, s, "GET", "/objects", nil)
	}
	do(t, s, "GET", "/objects/omega", nil)
	do(t, s, "GET", "/objects/omega/CS345", nil)
	do(t, s, "POST", "/objects/omega:replace", map[string]any{"key": []any{"CS345"}}) // 400: no instance

	byEp := reg.HTTPRequestsByEndpoint.StatByLabel()
	var sum int64
	for _, n := range byEp {
		sum += n
	}
	if total := reg.HTTPRequests.Load(); sum != total {
		t.Errorf("per-endpoint requests sum to %d, aggregate says %d (%v)", sum, total, byEp)
	}
	if byEp[epList] != 3 || byEp[epQuery] != 1 || byEp[epGet] != 1 || byEp[epReplace] != 1 {
		t.Errorf("per-endpoint counts = %v", byEp)
	}
	if got := reg.HTTPStatus[obs.Status4xx].Load(); got != 1 {
		t.Errorf("4xx = %d, want 1 (the bodyless replace)", got)
	}
}

// TestDefaultRegistryExposition drives requests and validates the wired
// snapshot keys appear in text form under their expected names.
func TestDefaultRegistryExposition(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	do(t, s, "GET", "/objects", nil)
	snap := reg.Snapshot()
	var buf bytes.Buffer
	if err := obs.WriteText(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"penguin.http.requests 1",
		`penguin.http.requests{endpoint=list} 1`,
		"penguin.http.shed 0",
		"penguin.http.status.2xx 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("snapshot text lacks %q", want)
		}
	}
	if !strings.Contains(buf.String(), "penguin.http.ns") {
		t.Error("snapshot text lacks the latency histogram")
	}
}
