package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/serve"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// perLayerMetrics are the traced run's metrics, by layer. A metric whose
// op class the workload lacks (vupdate.* on a read-only workload, say)
// reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.response_kb", "KB"},
	{"serve.decode_us", "us"},
	{"serve.shed_frac", "fraction"},
	{"oql.parse_us", "us"},
	{"viewobject.by_key_us", "us"},
	{"viewobject.query_us", "us"},
	{"viewobject.scanned_per_node", "count"},
	{"viewobject.nodes_per_query", "count"},
	{"reldb.plancache_hit_frac", "fraction"},
	{"vupdate.replace_us", "us"},
	{"vupdate.insert_us", "us"},
	{"vupdate.delete_us", "us"},
	{"vupdate.translate_self_us", "us"},
	{"vupdate.step_us.local_validate", "us"},
	{"vupdate.step_us.propagate", "us"},
	{"vupdate.step_us.translate", "us"},
	{"vupdate.step_us.global_validate", "us"},
	{"vupdate.ops_per_update", "count"},
	{"vupdate.alloc_kb_per_update", "KB"},
	{"reldb.commit_us", "us"},
	{"reldb.clones_per_update", "count"},
	{"reldb.wal_fsync_us", "us"},
	{"reldb.commits_per_fsync", "count"},
	{"reldb.wal_bytes_per_update", "B"},
	{"reldb.checkpoint_ms", "ms"},
	{"reldb.begin_read_us", "us"},
	{"reldb.recover_ms", "ms"},
	{"obs.recorder_overhead_frac", "fraction"},
	{"trace.unattributed_frac", "fraction"},
}

// httpLayers derives the serve and WAL metrics from the server's own
// counters over the open-loop phase: handler time from penguin.http.ns,
// transport as the client's mean request time minus the handler's, and
// the group-commit figures, which need the concurrent server to mean
// anything.
func httpLayers(out map[string]float64, before, after map[string]float64, clientNs time.Duration, clientReqs int64) {
	d := func(name string) float64 { return after[name] - before[name] }
	if n := d("penguin_http_requests"); n > 0 {
		handler := d("penguin_http_ns_sum") / n / 1e3
		out["serve.handler_us"] = handler
		if clientReqs > 0 {
			out["serve.transport_us"] = float64(clientNs.Nanoseconds())/float64(clientReqs)/1e3 - handler
		}
		out["serve.shed_frac"] = d("penguin_http_shed") / (n + d("penguin_http_shed"))
	}
	if n := d("reldb_wal_fsync_ns_count"); n > 0 {
		out["reldb.wal_fsync_us"] = d("reldb_wal_fsync_ns_sum") / n / 1e3
		out["reldb.commits_per_fsync"] = d("reldb_tx_commits") / d("reldb_wal_fsyncs")
	}
}

// replica is one in-process copy of the served database, seeded like the
// server's.
type replica struct {
	db  *reldb.Database
	def *viewobject.Definition
	tr  *vupdate.Translator
}

func openReplica(w *workload, dir string) (*replica, error) {
	var (
		db  *reldb.Database
		g   *structural.Graph
		err error
	)
	if w.durable {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if db, err = reldb.OpenDatabaseWith(dir, reldb.OpenOptions{Sync: reldb.SyncCommit, CheckpointInterval: -1}); err != nil {
			return nil, err
		}
		if g, err = university.Install(db); err != nil {
			return nil, err
		}
	} else {
		db, g = university.New()
	}
	if err := university.SeedScaled(db, w.scale); err != nil {
		return nil, err
	}
	def, err := university.Omega(g)
	if err != nil {
		return nil, err
	}
	return &replica{db: db, def: def, tr: vupdate.PermissiveTranslator(def)}, nil
}

// spanRec is one timed call; parent indexes the op's span list (-1 for
// the op's root).
type spanRec struct {
	name   string
	start  time.Time
	dur    time.Duration
	parent int
}

// opTrace collects one replayed operation's spans (spans[0] is the
// root), the size of its GET responses and the database operations its
// update emitted.
type opTrace struct {
	spans  []spanRec
	respB  int64
	resps  int
	dbOps  int
	allocB uint64 // bytes allocated inside the update call
}

func (t *opTrace) begin(name string, parent int) int {
	t.spans = append(t.spans, spanRec{name: name, start: time.Now(), parent: parent})
	return len(t.spans) - 1
}

func (t *opTrace) end(i int) { t.spans[i].dur = time.Since(t.spans[i].start) }

// timed runs fn as a span under parent.
func (t *opTrace) timed(name string, parent int, fn func() error) error {
	i := t.begin(name, parent)
	err := fn()
	t.end(i)
	return err
}

// clientSpan names client-side work inside a replayed operation —
// editing a document, building a request — which the HTTP run does in
// the load generator. It is shown in the trace but counted in no
// operation's time.
const clientSpan = "client"

// effective is the op's time without its client spans.
func (t *opTrace) effective() time.Duration {
	d := t.spans[0].dur
	for _, s := range t.spans[1:] {
		if s.name == clientSpan {
			d -= s.dur
		}
	}
	return d
}

// selfTimes returns each span's duration minus its children's.
func (t *opTrace) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	return self
}

// layerStats accumulates the traced pass.
type layerStats struct {
	sum     map[string]time.Duration // span name → total duration
	self    map[string]time.Duration // span name → total self time
	count   map[string]int
	respB   int64 // encoded GET response bytes
	resps   int
	opTime  time.Duration // Σ effective op time
	unattr  time.Duration // Σ root self time not covered by any layer
	updates int
	dbOps   int
	allocB  uint64
	clones  int64
	walB    int64
	steps   [obs.NumSteps]struct{ n, ns int64 }
	lookups int64
	hits    int64
	scanned int64
	nodes   int64
	queries int
	traces  []obs.SlowTrace
}

// layerResult is the traced run's per-layer output.
type layerResult struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	errs      []string
}

// replay re-executes the phases' operations in process on two replicas
// seeded like the server: one with the flight recorder off, one with it
// at the serve default. Each operation runs on both, alternating which
// goes first. The second replica's calls into each layer are timed and
// give the per-layer metrics; the two replicas' op times give the
// recorder's overhead. The warm-up phase is replayed untimed, so the
// timed operations meet the state the server's open-loop phase met.
func (b *bench) replay(w *workload, phases []*phaseResult) (*layerResult, error) {
	offDir, onDir := filepath.Join(b.out, "replay-off"), filepath.Join(b.out, "replay-on")
	defer os.RemoveAll(offDir)
	defer os.RemoveAll(onDir)
	off, err := openReplica(w, offDir)
	if err != nil {
		return nil, err
	}
	defer off.db.Close()
	on, err := openReplica(w, onDir)
	if err != nil {
		return nil, err
	}
	defer on.db.Close()
	rec := obs.NewRecorder(serveSlowThreshold, 64)
	defer obs.Default.SetRecorder(nil)

	st := &layerStats{sum: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	out := &layerResult{metrics: map[string]float64{}}
	var offTime time.Duration
	var ckpts []time.Duration
	ckptEvery := int(w.rate * checkpointInterval.Seconds())
	done := 0
	for pi, p := range phases {
		timed := pi > 0
		for i, o := range dueOrder(p) {
			order := []*replica{off, on}
			if i%2 == 1 {
				order = []*replica{on, off}
			}
			for _, r := range order {
				if r == on && timed {
					obs.Default.SetRecorder(rec)
				} else {
					obs.Default.SetRecorder(nil)
				}
				t := &opTrace{}
				var err error
				if r == on && timed {
					err = st.measure(w, r, o, t)
				} else {
					err = runOp(w, r, o, t)
				}
				if !timed {
					continue
				}
				if r == off {
					offTime += t.effective()
					continue
				}
				out.attempted++
				if err != nil {
					out.failed++
					if len(out.errs) < 5 {
						out.errs = append(out.errs, err.Error())
					}
				}
			}
			obs.Default.SetRecorder(nil)
			done++
			if w.durable && ckptEvery > 0 && done%ckptEvery == 0 {
				if _, err := off.db.Checkpoint(); err != nil {
					return nil, err
				}
				start := time.Now()
				if _, err := on.db.Checkpoint(); err != nil {
					return nil, err
				}
				ckpts = append(ckpts, time.Since(start))
			}
		}
	}
	st.fill(out.metrics)
	if offTime > 0 {
		out.metrics["obs.recorder_overhead_frac"] = float64(st.opTime-offTime) / float64(offTime)
	}
	if len(ckpts) > 0 {
		var sum time.Duration
		for _, d := range ckpts {
			sum += d
		}
		out.metrics["reldb.checkpoint_ms"] = ms(sum) / float64(len(ckpts))
	}
	path := filepath.Join(b.out, fmt.Sprintf("%s-seed%d.trace.json", w.name, b.seed))
	if err := writeTrace(path, st.traces); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "replayed %d operations; spans written to %s\n", out.attempted, path)
	return out, nil
}

// dueOrder lists a phase's operations in the order they were due.
func dueOrder(p *phaseResult) []op {
	idx := make([]int, len(p.ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.due[idx[a]] < p.due[idx[b]] })
	ops := make([]op, len(idx))
	for i, j := range idx {
		ops[i] = p.ops[j]
	}
	return ops
}

// counters the traced pass reads around each operation.
type counters struct {
	lookups, hits, scanned, nodes, clones, walB int64
	steps                                       [obs.NumSteps]struct{ n, ns int64 }
}

func readCounters() counters {
	r := obs.Default
	c := counters{
		lookups: r.PlanCacheLookups.Load(), hits: r.PlanCacheHits.Load(),
		scanned: r.TuplesScanned.Load(), nodes: r.InstNodes.Load(),
		clones: r.RelationClones.Load(), walB: r.WALBytes.Load(),
	}
	for i := range c.steps {
		c.steps[i].n, c.steps[i].ns = r.StepNs[i].Count(), r.StepNs[i].Sum()
	}
	return c
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// measure runs one operation on the traced replica and folds its spans
// and counter deltas into the stats.
func (st *layerStats) measure(w *workload, r *replica, o op, t *opTrace) error {
	c0 := readCounters()
	err := runOp(w, r, o, t)
	c1 := readCounters()

	st.lookups += c1.lookups - c0.lookups
	st.hits += c1.hits - c0.hits
	if o.kind.class() == classUpdate && err == nil {
		st.updates++
		st.allocB += t.allocB
		st.clones += c1.clones - c0.clones
		st.walB += c1.walB - c0.walB
		for i := range st.steps {
			st.steps[i].n += c1.steps[i].n - c0.steps[i].n
			st.steps[i].ns += c1.steps[i].ns - c0.steps[i].ns
		}
	}
	if o.kind == opQuery {
		st.queries++
		st.scanned += c1.scanned - c0.scanned
		st.nodes += c1.nodes - c0.nodes
	}
	self := t.selfTimes()
	eff := t.effective()
	st.opTime += eff
	for i, s := range t.spans {
		if i == 0 || s.name == clientSpan {
			continue
		}
		st.sum[s.name] += s.dur
		st.self[s.name] += self[i]
		st.count[s.name]++
	}
	// The root's self time is covered by no layer (client spans are
	// its children, so it excludes them too).
	st.unattr += self[0]
	st.respB += t.respB
	st.resps += t.resps
	st.dbOps += t.dbOps
	st.traces = append(st.traces, t.slowTrace(uint64(len(st.traces)+1)))
	return err
}

// fill writes the per-layer metrics the stats support.
func (st *layerStats) fill(out map[string]float64) {
	mean := func(name string, self bool) float64 {
		if st.count[name] == 0 {
			return 0
		}
		d := st.sum[name]
		if self {
			d = st.self[name]
		}
		return float64(d.Nanoseconds()) / float64(st.count[name]) / 1e3
	}
	out["serve.encode_us"] = mean("serve.encode", true)
	out["serve.decode_us"] = mean("serve.decode", true)
	if st.resps > 0 {
		out["serve.response_kb"] = float64(st.respB) / float64(st.resps) / 1e3
	}
	out["oql.parse_us"] = mean("oql.parse", true)
	out["viewobject.by_key_us"] = mean("viewobject.by_key", true)
	out["viewobject.query_us"] = mean("viewobject.query", true)
	if st.nodes > 0 {
		out["viewobject.scanned_per_node"] = float64(st.scanned) / float64(st.nodes)
	}
	if st.queries > 0 {
		out["viewobject.nodes_per_query"] = float64(st.nodes) / float64(st.queries)
	}
	if st.lookups > 0 {
		out["reldb.plancache_hit_frac"] = float64(st.hits) / float64(st.lookups)
	}
	out["vupdate.replace_us"] = mean("vupdate.replace", false)
	out["vupdate.insert_us"] = mean("vupdate.insert", false)
	out["vupdate.delete_us"] = mean("vupdate.delete", false)
	var vSelf time.Duration
	var vN int
	for _, k := range []string{"vupdate.replace", "vupdate.insert", "vupdate.delete"} {
		vSelf += st.self[k]
		vN += st.count[k]
	}
	if vN > 0 {
		out["vupdate.translate_self_us"] = float64(vSelf.Nanoseconds()) / float64(vN) / 1e3
	}
	for i, s := range st.steps {
		if s.n > 0 {
			out["vupdate.step_us."+obs.Step(i).String()] = float64(s.ns) / float64(s.n) / 1e3
		}
	}
	if st.updates > 0 {
		u := float64(st.updates)
		out["vupdate.ops_per_update"] = float64(st.dbOps) / u
		out["vupdate.alloc_kb_per_update"] = float64(st.allocB) / u / 1e3
		out["reldb.clones_per_update"] = float64(st.clones) / u
		out["reldb.wal_bytes_per_update"] = float64(st.walB) / u
	}
	out["reldb.commit_us"] = mean("reldb.commit", true)
	out["reldb.begin_read_us"] = mean("reldb.begin_read", true)
	if st.opTime > 0 {
		out["trace.unattributed_frac"] = float64(st.unattr) / float64(st.opTime)
	}
}

// runOp executes one operation in process through the same public calls
// the serving tier makes for it, each as a span of t.
func runOp(w *workload, r *replica, o op, t *opTrace) error {
	root := t.begin("op."+o.kind.String(), -1)
	defer t.end(root)
	switch o.kind {
	case opRead:
		body, err := r.get(t, root, o.key)
		if err != nil {
			return err
		}
		return t.timed(clientSpan, root, func() error {
			doc, err := decodeDoc(body)
			if err != nil {
				return err
			}
			return w.checkRead(o, doc)
		})
	case opQuery:
		q := figure4Twin
		if o.graduate {
			q = figure4
		}
		var parsed viewobject.Query
		if err := t.timed("oql.parse", root, func() (err error) {
			parsed, err = oql.Parse(r.def, q)
			return err
		}); err != nil {
			return err
		}
		rtx := r.beginRead(t, root)
		defer rtx.Close()
		var insts []*viewobject.Instance
		if err := t.timed("viewobject.query", root, func() (err error) {
			insts, err = viewobject.Instantiate(rtx, r.def, parsed)
			return err
		}); err != nil {
			return err
		}
		var body []byte
		if err := t.timed("serve.encode", root, func() (err error) {
			docs := make([]any, len(insts))
			for i, inst := range insts {
				docs[i] = serve.InstanceDoc(inst)
			}
			body, err = encodeJSON(map[string]any{"count": len(docs), "generation": rtx.Generation(), "instances": docs})
			return err
		}); err != nil {
			return err
		}
		t.response(len(body))
		return t.timed(clientSpan, root, func() error { return w.checkReport(o, body) })
	case opReplace:
		body, err := r.get(t, root, o.key)
		if err != nil {
			return err
		}
		var req []byte
		if err := t.timed(clientSpan, root, func() error {
			doc, err := decodeDoc(body)
			if err != nil {
				return err
			}
			if _, err := editDoc(doc, o); err != nil {
				return err
			}
			req, err = json.Marshal(map[string]any{"key": []any{o.key}, "instance": doc})
			return err
		}); err != nil {
			return err
		}
		key, inst, err := decodeUpdate(t, root, r.def, req)
		if err != nil {
			return err
		}
		rtx := r.beginRead(t, root)
		var old *viewobject.Instance
		var ok bool
		err = t.timed("viewobject.by_key", root, func() (err error) {
			old, ok, err = viewobject.InstantiateByKey(rtx, r.def, key)
			return err
		})
		rtx.Close()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("replace %s: no instance", o.key)
		}
		return r.update(t, root, "vupdate.replace", func(u *vupdate.Updater) (*vupdate.Result, error) {
			return u.ReplaceInstance(old, inst)
		})
	case opInsert:
		var req []byte
		if err := t.timed(clientSpan, root, func() (err error) {
			req, err = json.Marshal(map[string]any{"instance": w.insertDoc(o)})
			return err
		}); err != nil {
			return err
		}
		_, inst, err := decodeUpdate(t, root, r.def, req)
		if err != nil {
			return err
		}
		return r.update(t, root, "vupdate.insert", func(u *vupdate.Updater) (*vupdate.Result, error) {
			return u.InsertInstance(inst)
		})
	case opDelete:
		var req []byte
		if err := t.timed(clientSpan, root, func() (err error) {
			req, err = json.Marshal(map[string]any{"key": []any{o.key}})
			return err
		}); err != nil {
			return err
		}
		key, _, err := decodeUpdate(t, root, r.def, req)
		if err != nil {
			return err
		}
		return r.update(t, root, "vupdate.delete", func(u *vupdate.Updater) (*vupdate.Result, error) {
			return u.DeleteByKey(key)
		})
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

func (r *replica) beginRead(t *opTrace, parent int) *reldb.ReadTx {
	var rtx *reldb.ReadTx
	_ = t.timed("reldb.begin_read", parent, func() error {
		rtx = r.db.BeginRead()
		return nil
	})
	return rtx
}

// get is the point-read path: snapshot, assemble, encode.
func (r *replica) get(t *opTrace, parent int, key string) ([]byte, error) {
	rtx := r.beginRead(t, parent)
	defer rtx.Close()
	var inst *viewobject.Instance
	var ok bool
	if err := t.timed("viewobject.by_key", parent, func() (err error) {
		inst, ok, err = viewobject.InstantiateByKey(rtx, r.def, reldb.Tuple{reldb.String(key)})
		return err
	}); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("GET %s: no instance", key)
	}
	var body []byte
	err := t.timed("serve.encode", parent, func() (err error) {
		body, err = encodeJSON(serve.InstanceDoc(inst))
		return err
	})
	t.response(len(body))
	return body, err
}

func (t *opTrace) response(n int) {
	t.respB += int64(n)
	t.resps++
}

// decodeUpdate is the serving tier's request decoding: JSON with
// UseNumber, then the key tuple and the instance document.
func decodeUpdate(t *opTrace, parent int, def *viewobject.Definition, body []byte) (reldb.Tuple, *viewobject.Instance, error) {
	var key reldb.Tuple
	var inst *viewobject.Instance
	err := t.timed("serve.decode", parent, func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		var req struct {
			Key      []any          `json:"key"`
			Instance map[string]any `json:"instance"`
		}
		if err := dec.Decode(&req); err != nil {
			return err
		}
		var err error
		if req.Key != nil {
			if key, err = serve.DecodeTuple(req.Key); err != nil {
				return err
			}
		}
		if req.Instance != nil {
			inst, err = serve.InstanceFromDoc(def, req.Instance)
		}
		return err
	})
	return key, inst, err
}

// update runs one §5 translation as a span, with the transaction's
// Begin and Commit as child spans of it (through vupdate.TxHooks).
func (r *replica) update(t *opTrace, parent int, name string, call func(*vupdate.Updater) (*vupdate.Result, error)) error {
	a0 := allocatedBytes()
	span := t.begin(name, parent)
	u := &vupdate.Updater{T: r.tr, Hooks: &vupdate.TxHooks{
		Begin: func() (*reldb.Tx, error) {
			var tx *reldb.Tx
			_ = t.timed("reldb.begin", span, func() error { tx = r.db.Begin(); return nil })
			return tx, nil
		},
		Finish: func(tx *reldb.Tx, _ []vupdate.DBOp) error {
			return t.timed("reldb.commit", span, tx.Commit)
		},
	}}
	res, err := call(u)
	t.end(span)
	t.allocB = allocatedBytes() - a0
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	t.dbOps += len(res.Ops)
	return nil
}

func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// slowTrace converts the op's spans for the Chrome trace-event export.
func (t *opTrace) slowTrace(id uint64) obs.SlowTrace {
	base := id << 8
	evs := make([]obs.Event, len(t.spans))
	for i, s := range t.spans {
		ev := obs.Event{Name: s.name, Start: s.start, Dur: s.dur, TraceID: base, SpanID: base + uint64(i)}
		if s.parent >= 0 {
			ev.ParentID = base + uint64(s.parent)
		}
		evs[i] = ev
	}
	return obs.SlowTrace{TraceID: base, Name: t.spans[0].name, Start: t.spans[0].start, Dur: t.spans[0].dur, Spans: evs}
}

func writeTrace(path string, traces []obs.SlowTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
