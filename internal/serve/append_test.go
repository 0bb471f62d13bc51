package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
)

// referenceJSON is the reference form of the append encoder: what a
// json.Encoder with SetEscapeHTML(false) writes for v, trailing newline
// included.
func referenceJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode %v: %v", v, err)
	}
	return buf.Bytes()
}

// referenceQueryBody is the reference body of GET /objects/{name}.
func referenceQueryBody(t testing.TB, insts []*viewobject.Instance, gen uint64) []byte {
	t.Helper()
	docs := make([]any, len(insts))
	for i, inst := range insts {
		docs[i] = InstanceDoc(inst)
	}
	return referenceJSON(t, map[string]any{"count": len(docs), "generation": gen, "instances": docs})
}

// checkAppendValue fails unless AppendValue writes the reference bytes
// for v.
func checkAppendValue(t testing.TB, v reldb.Value) {
	t.Helper()
	want := bytes.TrimSuffix(referenceJSON(t, EncodeValue(v)), []byte("\n"))
	if got := AppendValue(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("AppendValue(%s, kind %s):\n got %q\nwant %q", v, v.Kind(), got, want)
	}
}

// checkAppendInstances fails unless AppendInstance writes the reference
// bytes for every instance.
func checkAppendInstances(t *testing.T, insts []*viewobject.Instance) {
	t.Helper()
	if len(insts) == 0 {
		t.Fatal("no instances to compare")
	}
	for _, inst := range insts {
		want := bytes.TrimSuffix(referenceJSON(t, InstanceDoc(inst)), []byte("\n"))
		if got := AppendInstance(nil, inst); !bytes.Equal(got, want) {
			t.Fatalf("AppendInstance(%s):\n got %s\nwant %s", inst.Key(), got, want)
		}
	}
}

func TestAppendValueMatchesEncodingJSON(t *testing.T) {
	for _, v := range valueFixtures {
		checkAppendValue(t, v)
	}
	// Appending extends dst rather than overwriting it.
	if got := string(AppendValue([]byte("x:"), reldb.Int(7))); got != `x:{"int":"7"}` {
		t.Errorf("AppendValue onto a prefix = %s", got)
	}
}

// TestAppendInstanceMatchesInstanceDoc pins the append encoder to the
// reference encoding of InstanceDoc on both university objects over a
// scaled extent, on the Figure 4 answer, on a hand-built instance of
// awkward values and on an object whose names need escaping.
func TestAppendInstanceMatchesInstanceDoc(t *testing.T) {
	db, g := university.New()
	if err := university.SeedScaled(db, university.ScaleSpec{
		Departments: 6, StudentsPerDept: 20, FacultyPerDept: 2, CoursesPerDept: 6,
		GradesPerCourse: 4, DegreesPerDept: 3, CoursesPerDegree: 3,
	}); err != nil {
		t.Fatal(err)
	}
	om := university.MustOmega(g)
	for _, def := range []*viewobject.Definition{om, university.MustOmegaPrime(g)} {
		t.Run(def.Name+"/extent", func(t *testing.T) {
			insts, err := viewobject.Instantiate(db, def, viewobject.Query{})
			if err != nil {
				t.Fatal(err)
			}
			checkAppendInstances(t, insts)
		})
	}
	t.Run("figure4", func(t *testing.T) {
		q, err := oql.Parse(om, "Level = 'graduate' and count(STUDENT) < 5")
		if err != nil {
			t.Fatal(err)
		}
		insts, err := viewobject.Instantiate(db, om, q)
		if err != nil {
			t.Fatal(err)
		}
		checkAppendInstances(t, insts)
		for _, answer := range [][]*viewobject.Instance{insts, nil} {
			want := referenceQueryBody(t, answer, 1<<40+3)
			if got := AppendQueryBody(nil, answer, 1<<40+3); !bytes.Equal(got, want) {
				t.Errorf("AppendQueryBody of %d instances:\n got %s\nwant %s", len(answer), got, want)
			}
		}
	})
	t.Run("awkward-values", func(t *testing.T) {
		// Every string and float fixture in the attributes of the right
		// kind, the pivot without any children and with several.
		for _, v := range valueFixtures {
			title, units := reldb.Null(), reldb.Null()
			switch v.Kind() {
			case reldb.KindString:
				title = v
			case reldb.KindInt:
				units = v
			}
			inst, err := viewobject.NewInstance(om, reldb.Tuple{
				reldb.String("X1"), title, reldb.String("CS"), units, reldb.String("graduate"),
			})
			if err != nil {
				t.Fatal(err)
			}
			checkAppendInstances(t, []*viewobject.Instance{inst})
			for pid := int64(1); pid <= 3; pid++ {
				grade := inst.Root().MustAddChild(om, university.Grades, reldb.Tuple{
					reldb.String("X1"), reldb.Int(pid), reldb.String("F91"), title,
				})
				grade.MustAddChild(om, university.Student, reldb.Tuple{reldb.Int(pid), title, reldb.Null()})
			}
			checkAppendInstances(t, []*viewobject.Instance{inst})
		}
	})
	t.Run("escaped-and-shadowed-names", func(t *testing.T) {
		checkAppendInstances(t, oddNamesInstances(t))
	})
}

// oddNamesInstances builds instances of an object whose attribute names
// need JSON escaping and whose pivot projects an attribute named like
// its child node, which shadows it in InstanceDoc's map.
func oddNamesInstances(t *testing.T) []*viewobject.Instance {
	t.Helper()
	db := reldb.NewDatabase()
	for _, s := range []*reldb.Schema{
		reldb.MustSchema("Par", []reldb.Attribute{
			{Name: "K", Type: reldb.KindString},
			{Name: "Kid", Type: reldb.KindString, Nullable: true},
			{Name: "q\"uote\\d\n\u2028é", Type: reldb.KindFloat, Nullable: true},
			{Name: "<&>", Type: reldb.KindBool, Nullable: true},
			{Name: "Z", Type: reldb.KindInt, Nullable: true},
		}, []string{"K"}),
		reldb.MustSchema("Kid", []reldb.Attribute{
			{Name: "ID", Type: reldb.KindInt},
			{Name: "PK", Type: reldb.KindString},
			{Name: "\x01ctl", Type: reldb.KindString, Nullable: true},
		}, []string{"PK", "ID"}),
	} {
		if _, err := db.CreateRelation(s); err != nil {
			t.Fatal(err)
		}
	}
	g := structural.NewGraph(db)
	g.MustAddConnection(&structural.Connection{
		Name: "par-kid", Type: structural.Ownership, From: "Par", To: "Kid",
		FromAttrs: []string{"K"}, ToAttrs: []string{"PK"},
	})
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		for _, row := range []reldb.Tuple{
			{reldb.String("a"), reldb.String("shadowed"), reldb.Float(math.NaN()), reldb.Bool(true), reldb.Int(1)},
			{reldb.String("b"), reldb.Null(), reldb.Float(-0.5), reldb.Null(), reldb.Null()},
		} {
			if err := tx.Insert("Par", row); err != nil {
				return err
			}
		}
		for id, pk := range []string{"a", "a", "b"} {
			if err := tx.Insert("Kid", reldb.Tuple{reldb.Int(int64(id)), reldb.String(pk), reldb.String("v\t" + pk)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	def, err := viewobject.Define(g, "odd", "Par", viewobject.DefaultMetric(), map[string][]string{
		"Par": {"K", "Kid", "q\"uote\\d\n\u2028é", "<&>", "Z"},
		"Kid": {"ID", "PK", "\x01ctl"},
	})
	if err != nil {
		t.Fatal(err)
	}
	insts, err := viewobject.Instantiate(db, def, viewobject.Query{})
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

// FuzzAppendValue checks the value encoder on arbitrary values: its
// bytes equal the reference encoding of EncodeValue, and decoding them
// as the server decodes request bodies gives back the value bit for
// bit under the snapshot codec.
func FuzzAppendValue(f *testing.F) {
	type seed struct {
		kind uint8
		i    int64
		bits uint64
		s    string
	}
	for _, sd := range []seed{
		{kind: 0},
		{kind: 1, i: 1},
		{kind: 2, i: math.MinInt64},
		{kind: 2, i: math.MaxInt64},
		{kind: 2, i: 1<<53 + 1},
		{kind: 3, bits: math.Float64bits(math.NaN())},
		{kind: 3, bits: 0x7ff8_0000_0000_0001},
		{kind: 3, bits: 0xfff0_0000_dead_beef},
		{kind: 3, bits: math.Float64bits(math.Copysign(0, -1))},
		{kind: 3, bits: math.Float64bits(math.Inf(1))},
		{kind: 3, bits: math.Float64bits(math.Inf(-1))},
		{kind: 3, bits: math.Float64bits(1<<53 + 1)},
		{kind: 4, s: "\xff\xfe\x80"},
		{kind: 4, s: "\u2028\u2029"},
		{kind: 4, s: "\b\f\n\r\t\x00\x1f\x7f"},
		{kind: 4, s: "<>&\"\\"},
		{kind: 4, s: "héllo, 世界"},
	} {
		f.Add(sd.kind, sd.i, sd.bits, sd.s)
	}
	f.Fuzz(func(t *testing.T, kind uint8, i int64, bits uint64, s string) {
		var v reldb.Value
		switch kind % 5 {
		case 1:
			v = reldb.Bool(i&1 == 1)
		case 2:
			v = reldb.Int(i)
		case 3:
			v = reldb.Float(math.Float64frombits(bits))
		case 4:
			v = reldb.String(s)
		}
		checkAppendValue(t, v)

		dec := json.NewDecoder(bytes.NewReader(AppendValue(nil, v)))
		dec.UseNumber()
		var raw any
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("decode %s: %v", v, err)
		}
		got, err := DecodeValue(raw)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", raw, err)
		}
		if !binaryEq(t, v, got) {
			t.Fatalf("round trip changed %s (kind %s) into %s (kind %s)", v, v.Kind(), got, got.Kind())
		}
	})
}
