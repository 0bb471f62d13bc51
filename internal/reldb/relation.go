package reldb

import (
	"fmt"
	"sort"

	"penguin/internal/obs"
)

// Relation is an in-memory keyed table. Rows live in a map keyed by the
// order-preserving encoding of the primary key; scans sort the encoded
// keys to yield a deterministic, key-ordered iteration. Optional secondary
// hash indexes accelerate equality lookups on non-key attribute sets
// (the connection attributes of the structural model).
//
// Relation is not internally synchronized. Under the database's copy-on-
// write discipline, committed versions are immutable: write transactions
// mutate a private clone and publish it at commit, so any *Relation
// obtained from the catalog (directly or through a ReadTx snapshot) is
// safe to read concurrently. Stored tuples are never mutated in place
// (Insert and Replace store defensive copies), which lets clones share
// them.
type Relation struct {
	schema  *Schema
	rows    map[string]Tuple
	indexes map[string]*secondaryIndex
	// gen is the commit generation that published this version (0 for a
	// version never published by a transaction).
	gen uint64
	// obsSlot is the relation name's slot in obs.Default.Relations,
	// interned at construction so the per-relation lookup-cost counters
	// (reldb.relation.scanned and friends) stay allocation-free.
	obsSlot int
	// plans memoizes index selection per attribute list for this version
	// of the relation. It is the one mutable piece of a committed
	// (otherwise immutable) version, and carries its own lock; clones
	// start with a cold cache, so advancing the generation invalidates
	// plans automatically. See plan.go.
	plans planCache
}

type secondaryIndex struct {
	name  string
	attrs []int // attribute indices, in the order given at creation
	// buckets maps encoded attr values to the set of encoded primary keys.
	buckets map[string]map[string]struct{}
}

// NewRelation creates an empty relation with the given schema. The
// schema's name is interned into the obs relation-label dimension here —
// registration time — so every later labeled increment is slot-indexed.
func NewRelation(schema *Schema) *Relation {
	return &Relation{
		schema:  schema,
		rows:    make(map[string]Tuple),
		indexes: make(map[string]*secondaryIndex),
		obsSlot: obs.Default.Relations.Intern(schema.Name()),
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Name returns the relation's name.
func (r *Relation) Name() string { return r.schema.Name() }

// Count returns the number of tuples in the relation.
func (r *Relation) Count() int { return len(r.rows) }

// Generation returns the commit generation that published this version of
// the relation.
func (r *Relation) Generation() uint64 { return r.gen }

// Insert adds a tuple. It fails with ErrDuplicateKey if a tuple with the
// same primary key exists, and with a validation error if the tuple does
// not satisfy the schema.
func (r *Relation) Insert(t Tuple) error {
	if err := r.schema.CheckTuple(t); err != nil {
		return err
	}
	ek := r.schema.EncodeKeyOf(t)
	if _, exists := r.rows[ek]; exists {
		return fmt.Errorf("reldb: %s: insert %s: %w", r.Name(), r.schema.KeyOf(t), ErrDuplicateKey)
	}
	t = t.Clone()
	r.rows[ek] = t
	for _, ix := range r.indexes {
		ix.add(t, ek)
	}
	r.invalidateRangePlans()
	return nil
}

// Get fetches the tuple with the given key values (canonical key order).
func (r *Relation) Get(key Tuple) (Tuple, bool) {
	ek, err := r.schema.EncodeKey(key)
	if err != nil {
		return nil, false
	}
	t, ok := r.rows[ek]
	if !ok {
		return nil, false
	}
	return t.Clone(), true
}

// GetEncoded fetches the tuple with the given encoded primary key.
func (r *Relation) GetEncoded(ek string) (Tuple, bool) {
	t, ok := r.rows[ek]
	if !ok {
		return nil, false
	}
	return t.Clone(), true
}

// Has reports whether a tuple with the given key values exists.
func (r *Relation) Has(key Tuple) bool {
	_, ok := r.Get(key)
	return ok
}

// Delete removes the tuple with the given key values and returns it.
// It fails with ErrNoSuchTuple if absent.
func (r *Relation) Delete(key Tuple) (Tuple, error) {
	ek, err := r.schema.EncodeKey(key)
	if err != nil {
		return nil, err
	}
	t, ok := r.rows[ek]
	if !ok {
		return nil, fmt.Errorf("reldb: %s: delete %s: %w", r.Name(), key, ErrNoSuchTuple)
	}
	delete(r.rows, ek)
	for _, ix := range r.indexes {
		ix.remove(t, ek)
	}
	r.invalidateRangePlans()
	return t, nil
}

// Replace substitutes the tuple identified by oldKey with newTuple, which
// may carry a different primary key (a key replacement). It fails with
// ErrNoSuchTuple if oldKey is absent and with ErrDuplicateKey if the new
// key collides with a different existing tuple.
func (r *Relation) Replace(oldKey Tuple, newTuple Tuple) error {
	if err := r.schema.CheckTuple(newTuple); err != nil {
		return err
	}
	oldEK, err := r.schema.EncodeKey(oldKey)
	if err != nil {
		return err
	}
	old, ok := r.rows[oldEK]
	if !ok {
		return fmt.Errorf("reldb: %s: replace %s: %w", r.Name(), oldKey, ErrNoSuchTuple)
	}
	newEK := r.schema.EncodeKeyOf(newTuple)
	if newEK != oldEK {
		if _, clash := r.rows[newEK]; clash {
			return fmt.Errorf("reldb: %s: replace %s -> %s: %w",
				r.Name(), oldKey, r.schema.KeyOf(newTuple), ErrDuplicateKey)
		}
	}
	delete(r.rows, oldEK)
	nt := newTuple.Clone()
	r.rows[newEK] = nt
	for _, ix := range r.indexes {
		ix.remove(old, oldEK)
		ix.add(nt, newEK)
	}
	r.invalidateRangePlans()
	return nil
}

// Scan calls fn for every tuple in primary-key order. If fn returns false
// the scan stops early. The tuple passed to fn must not be mutated.
func (r *Relation) Scan(fn func(Tuple) bool) {
	eks := make([]string, 0, len(r.rows))
	for ek := range r.rows {
		eks = append(eks, ek)
	}
	sort.Strings(eks)
	for _, ek := range eks {
		if !fn(r.rows[ek]) {
			return
		}
	}
}

// All returns every tuple in primary-key order, as copies.
func (r *Relation) All() []Tuple {
	out := make([]Tuple, 0, len(r.rows))
	r.Scan(func(t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// Select returns all tuples satisfying the predicate, in key order.
// A nil predicate selects everything. On a predicate evaluation error the
// result slice is nil — never a truncated prefix a caller could silently
// use.
func (r *Relation) Select(pred Expr) ([]Tuple, error) {
	var out []Tuple
	var evalErr error
	r.Scan(func(t Tuple) bool {
		if pred != nil {
			ok, err := EvalBool(pred, Row{Schema: r.schema, Tuple: t})
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		out = append(out, t.Clone())
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// CreateIndex registers a secondary hash index over the named attributes
// and backfills it. Index names are unique per relation.
func (r *Relation) CreateIndex(name string, attrNames []string) error {
	if _, dup := r.indexes[name]; dup {
		return fmt.Errorf("reldb: %s: index %s already exists", r.Name(), name)
	}
	idx, err := r.schema.Indices(attrNames)
	if err != nil {
		return err
	}
	ix := &secondaryIndex{
		name:    name,
		attrs:   idx,
		buckets: make(map[string]map[string]struct{}),
	}
	for ek, t := range r.rows {
		ix.add(t, ek)
	}
	r.indexes[name] = ix
	r.invalidatePlans()
	return nil
}

// DropIndex removes a secondary index.
func (r *Relation) DropIndex(name string) error {
	if _, ok := r.indexes[name]; !ok {
		return fmt.Errorf("reldb: %s: index %s: %w", r.Name(), name, ErrNoSuchIndex)
	}
	delete(r.indexes, name)
	r.invalidatePlans()
	return nil
}

// IndexNames returns the names of the relation's secondary indexes, sorted.
func (r *Relation) IndexNames() []string {
	names := make([]string, 0, len(r.indexes))
	for n := range r.indexes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkLookupVals validates lookup values against the attributes they
// probe: arity, value kinds (per the same assignability rule as
// CheckTuple), and nulls (allowed only where the attribute is nullable).
// A wrong-typed value can never match a stored tuple, so accepting it
// would silently return an empty result where Select and CheckTuple
// report an error.
func (r *Relation) checkLookupVals(what string, idx []int, vals Tuple) error {
	if len(vals) != len(idx) {
		return fmt.Errorf("reldb: %s: %s wants %d values, got %d",
			r.Name(), what, len(idx), len(vals))
	}
	for i, j := range idx {
		a := r.schema.attrs[j]
		v := vals[i]
		if v.IsNull() {
			if r.schema.isKey[j] || !a.Nullable {
				return fmt.Errorf("reldb: %s: %s: attribute %s cannot be null",
					r.Name(), what, a.Name)
			}
			continue
		}
		if !kindAssignable(a.Type, v.Kind()) {
			return fmt.Errorf("reldb: %s: %s: attribute %s has kind %s, want %s",
				r.Name(), what, a.Name, v.Kind(), a.Type)
		}
	}
	return nil
}

// LookupIndex returns the tuples whose indexed attributes equal vals, in
// primary-key order. It fails with ErrNoSuchIndex for unknown indexes and
// with a validation error when vals do not fit the indexed attributes.
func (r *Relation) LookupIndex(name string, vals Tuple) ([]Tuple, error) {
	ix, ok := r.indexes[name]
	if !ok {
		return nil, fmt.Errorf("reldb: %s: index %s: %w", r.Name(), name, ErrNoSuchIndex)
	}
	if err := r.checkLookupVals("index "+name, ix.attrs, vals); err != nil {
		return nil, err
	}
	return r.probeBucket(ix, EncodeValues(vals...)), nil
}

// probeBucket materializes one index bucket in primary-key order.
func (r *Relation) probeBucket(ix *secondaryIndex, key string) []Tuple {
	bucket := ix.buckets[key]
	if len(bucket) == 0 {
		return nil
	}
	eks := make([]string, 0, len(bucket))
	for ek := range bucket {
		eks = append(eks, ek)
	}
	sort.Strings(eks)
	out := make([]Tuple, len(eks))
	for i, ek := range eks {
		out[i] = r.rows[ek].Clone()
	}
	return out
}

// MatchStats accumulates the cost of MatchEqual-family lookups, so
// callers (the view-object assembly in particular) can attribute how
// many stored tuples a lookup had to visit.
type MatchStats struct {
	// Scanned counts tuples visited: probed bucket entries for indexed
	// lookups, the whole relation for scan fallbacks.
	Scanned int
	// Probes counts point lookups and index-bucket probes.
	Probes int
	// Scans counts full-relation scan fallbacks.
	Scans int
}

func (st *MatchStats) addProbe(visited int) {
	if st != nil {
		st.Probes++
		st.Scanned += visited
	}
}

func (st *MatchStats) addScan(visited int) {
	if st != nil {
		st.Scans++
		st.Scanned += visited
	}
}

// obsProbe records one point lookup or index-bucket probe: into the
// caller's MatchStats (may be nil) and into the per-relation labeled
// counters, charging the relation that served the lookup. Slot-indexed
// atomic adds — allocation-free.
func (r *Relation) obsProbe(st *MatchStats, visited int) {
	st.addProbe(visited)
	obs.Default.RelProbes.At(r.obsSlot).Inc()
	obs.Default.RelScanned.At(r.obsSlot).Add(int64(visited))
}

// obsScan records one full-relation scan fallback, likewise attributed
// to the relation — a missing index shows up against the relation that
// pays for it.
func (r *Relation) obsScan(st *MatchStats, visited int) {
	st.addScan(visited)
	obs.Default.RelScans.At(r.obsSlot).Inc()
	obs.Default.RelScanned.At(r.obsSlot).Add(int64(visited))
}

// lookupIndices resolves attrNames and rejects duplicates: the lookup
// paths compare attribute sets, and a duplicated name (e.g. ["id","id"]
// against a two-column key) would falsely pass sameIntSet and build a
// key with a hole.
func (r *Relation) lookupIndices(what string, attrNames []string) ([]int, error) {
	idx, err := r.schema.Indices(attrNames)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]struct{}, len(idx))
	for _, j := range idx {
		if _, dup := seen[j]; dup {
			return nil, fmt.Errorf("reldb: %s: %s: duplicate attribute %s",
				r.Name(), what, r.schema.Attr(j).Name)
		}
		seen[j] = struct{}{}
	}
	return idx, nil
}

// findIndex returns a secondary index covering exactly the attribute set
// idx — in any order — together with the permutation perm such that the
// index's i-th attribute corresponds to the caller's perm[i]-th value.
// When several indexes cover the set, the lexicographically first name
// wins (deterministic selection).
func (r *Relation) findIndex(idx []int) (*secondaryIndex, []int) {
	var best *secondaryIndex
	var bestName string
	for name, ix := range r.indexes {
		if !sameIntSet(ix.attrs, idx) {
			continue
		}
		if best == nil || name < bestName {
			best, bestName = ix, name
		}
	}
	if best == nil {
		return nil, nil
	}
	perm := make([]int, len(best.attrs))
	for i, a := range best.attrs {
		for j, b := range idx {
			if a == b {
				perm[i] = j
				break
			}
		}
	}
	return best, perm
}

// HasIndexOn reports whether a secondary index exists over exactly the
// named attribute set, in any order.
func (r *Relation) HasIndexOn(attrNames []string) bool {
	idx, err := r.lookupIndices("HasIndexOn", attrNames)
	if err != nil {
		return false
	}
	ix, _ := r.findIndex(idx)
	return ix != nil
}

// MatchEqual returns the tuples whose attributes attrNames equal vals,
// using a secondary index over those attributes (in any order) if one
// exists and falling back to a scan otherwise. Results are in
// primary-key order.
func (r *Relation) MatchEqual(attrNames []string, vals Tuple) ([]Tuple, error) {
	return r.MatchEqualStats(attrNames, vals, nil)
}

// MatchEqualStats is MatchEqual that additionally accumulates lookup
// cost into st (which may be nil). Index selection — point lookup vs.
// secondary index vs. scan, plus the value permutation — is resolved
// once per relation version through the lookup-plan cache and reused by
// every subsequent call (and every parallel worker) on that version.
func (r *Relation) MatchEqualStats(attrNames []string, vals Tuple, st *MatchStats) ([]Tuple, error) {
	pl, err := r.planFor("MatchEqual", attrNames)
	if err != nil {
		return nil, err
	}
	if err := r.checkLookupVals("MatchEqual", pl.idx, vals); err != nil {
		return nil, err
	}
	switch pl.kind {
	case planPoint:
		// Equality on exactly the primary-key attributes is a point lookup.
		if t, ok := r.Get(pl.permute(vals)); ok {
			r.obsProbe(st, 1)
			return []Tuple{t}, nil
		}
		r.obsProbe(st, 0)
		return nil, nil
	case planIndex:
		// Permute vals into the index's attribute order, so an index built
		// over the same attributes in a different order still serves the
		// lookup.
		out := r.probeBucket(pl.ix, EncodeValues(pl.permute(vals)...))
		r.obsProbe(st, len(out))
		return out, nil
	}
	var out []Tuple
	r.Scan(func(t Tuple) bool {
		for i, j := range pl.idx {
			if !t[j].Equal(vals[i]) {
				return true
			}
		}
		out = append(out, t.Clone())
		return true
	})
	r.obsScan(st, r.Count())
	return out, nil
}

// MatchEqualBatch answers many MatchEqual probes over the same attribute
// list in one pass. The result maps the encoded form of each value set
// (EncodeValues in the given attribute order) to the matching tuples in
// primary-key order; value sets with no matches are absent. Duplicate
// value sets collapse into one probe. With an index (or a primary-key
// match) the batch costs one probe per distinct value set; without one
// it costs a single shared scan that buckets every value set at once —
// never one scan per value set.
func (r *Relation) MatchEqualBatch(attrNames []string, valSets []Tuple) (map[string][]Tuple, error) {
	return r.MatchEqualBatchStats(attrNames, valSets, nil)
}

// MatchEqualBatchStats is MatchEqualBatch that additionally accumulates
// lookup cost into st (which may be nil).
func (r *Relation) MatchEqualBatchStats(attrNames []string, valSets []Tuple, st *MatchStats) (map[string][]Tuple, error) {
	pl, err := r.planFor("MatchEqualBatch", attrNames)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Tuple, len(valSets))
	if len(valSets) == 0 {
		return out, nil
	}
	// Validate and deduplicate the probe set.
	type probe struct {
		key  string
		vals Tuple
	}
	probes := make([]probe, 0, len(valSets))
	distinct := make(map[string]bool, len(valSets))
	for _, vs := range valSets {
		if err := r.checkLookupVals("MatchEqualBatch", pl.idx, vs); err != nil {
			return nil, err
		}
		k := EncodeValues(vs...)
		if distinct[k] {
			continue
		}
		distinct[k] = true
		probes = append(probes, probe{key: k, vals: vs})
	}
	switch pl.kind {
	case planPoint:
		// Point lookups on the primary key: one Get per distinct value set.
		key := make(Tuple, len(pl.perm))
		for _, p := range probes {
			for i, j := range pl.perm {
				key[i] = p.vals[j]
			}
			if t, ok := r.Get(key); ok {
				r.obsProbe(st, 1)
				out[p.key] = []Tuple{t}
			} else {
				r.obsProbe(st, 0)
			}
		}
		return out, nil
	case planIndex:
		// Indexed: one bucket probe per distinct value set.
		pv := make(Tuple, len(pl.perm))
		for _, p := range probes {
			for i, j := range pl.perm {
				pv[i] = p.vals[j]
			}
			matches := r.probeBucket(pl.ix, EncodeValues(pv...))
			r.obsProbe(st, len(matches))
			if len(matches) > 0 {
				out[p.key] = matches
			}
		}
		return out, nil
	}
	// No index: one shared scan buckets every value set at once. The scan
	// is in primary-key order, so each bucket comes out key-ordered. The
	// probe keys are encodings of the lookup values in attrNames order, so
	// encoding each row's attrNames projection the same way makes the
	// bucket assignment a map hit.
	var enc []byte
	r.Scan(func(t Tuple) bool {
		enc = enc[:0]
		for _, j := range pl.idx {
			enc = AppendKey(enc, t[j])
		}
		if distinct[string(enc)] {
			k := string(enc)
			out[k] = append(out[k], t.Clone())
		}
		return true
	})
	r.obsScan(st, r.Count())
	return out, nil
}

// sameIntSet reports whether a and b hold the same elements (both are
// duplicate-free attribute index lists).
func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (ix *secondaryIndex) keyFor(t Tuple) string {
	vals := make(Tuple, len(ix.attrs))
	for i, j := range ix.attrs {
		vals[i] = t[j]
	}
	return EncodeValues(vals...)
}

func (ix *secondaryIndex) add(t Tuple, ek string) {
	k := ix.keyFor(t)
	b, ok := ix.buckets[k]
	if !ok {
		b = make(map[string]struct{})
		ix.buckets[k] = b
	}
	b[ek] = struct{}{}
}

func (ix *secondaryIndex) remove(t Tuple, ek string) {
	k := ix.keyFor(t)
	if b, ok := ix.buckets[k]; ok {
		delete(b, ek)
		if len(b) == 0 {
			delete(ix.buckets, k)
		}
	}
}

// clone copies the relation's structure — row map and index buckets — into
// an independent version. Stored tuples are shared: they are never mutated
// in place (Insert/Replace store copies), so sharing them is safe and
// keeps the copy-on-write hot path (one clone per relation a transaction
// touches) free of per-tuple allocation.
func (r *Relation) clone() *Relation {
	obs.Default.RelationClones.Inc()
	// The clone starts with a cold plan cache: cached plans pin this
	// version's *secondaryIndex objects, which the clone rebuilds below.
	// The parent's plans stay valid for readers still pinning it, but
	// they are dead weight for the next generation — count them as
	// clone drops, the generational-churn side of plan-cache turnover
	// (explicit index DDL purges count as invalidations instead).
	if n := r.plans.size(); n > 0 {
		obs.Default.PlanCacheCloneDrops.Add(int64(n))
	}
	c := NewRelation(r.schema)
	c.gen = r.gen
	for ek, t := range r.rows {
		c.rows[ek] = t
	}
	for name, ix := range r.indexes {
		c.indexes[name] = &secondaryIndex{
			name:    ix.name,
			attrs:   append([]int(nil), ix.attrs...),
			buckets: make(map[string]map[string]struct{}, len(ix.buckets)),
		}
		for k, b := range ix.buckets {
			nb := make(map[string]struct{}, len(b))
			for ek := range b {
				nb[ek] = struct{}{}
			}
			c.indexes[name].buckets[k] = nb
		}
	}
	return c
}
