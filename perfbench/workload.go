package main

import (
	"fmt"
	"math/rand"
	"time"

	"penguin/internal/university"
)

// Op classes. A class is what an end-to-end latency metric is taken
// over; an update-mix "update" is one of replace, insert or delete.
const (
	classRead   = "read"
	classQuery  = "query"
	classUpdate = "update"
)

// Op kinds, one per request shape the benchmark sends.
type opKind uint8

const (
	opRead    opKind = iota // GET /objects/omega/{key}
	opQuery                 // GET /objects/omega?q=<Figure 4 query>
	opReplace               // VO-R: GET, edit one attribute, POST :replace
	opInsert                // VO-CI of a new course with graded students
	opDelete                // VO-CD of a course this run inserted
)

var kindNames = [...]string{"read", "query", "replace", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) class() string {
	switch k {
	case opRead:
		return classRead
	case opQuery:
		return classQuery
	default:
		return classUpdate
	}
}

// workload is one traffic mix over one database size. The open-loop rate
// is fixed per workload at about a quarter of the capacity measured on an
// idle host at the commit that defined the benchmark, and stays fixed so
// that two commits are compared at the same offered load. Half of the
// idle capacity, the first choice, overloaded the server whenever the
// shared host's hypervisor stole a third of the CPU time, and latency then
// measured the growing queue instead of the server.
type workload struct {
	name  string
	scale university.ScaleSpec
	// durable servers run on a SyncCommit WAL with checkpointInterval;
	// the others are in memory, like penguin -serve without -data-dir.
	durable bool
	// rate is the open-loop arrival rate, operations per second over
	// all connections.
	rate float64
	// head is the class p50_ms is taken over.
	head string
}

// checkpointInterval is the one deployment setting the benchmark fixes:
// short enough that an update-mix run sees several checkpoints.
const checkpointInterval = 2 * time.Second

// serveSlowThreshold is penguin -serve's default flight-recorder
// threshold; the server and the traced replay both use it.
const serveSlowThreshold = 25 * time.Millisecond

// baseScale is the university shape every workload shares; the
// workloads vary departments and grades per course.
func baseScale(depts, grades int) university.ScaleSpec {
	return university.ScaleSpec{
		Departments:      depts,
		StudentsPerDept:  20,
		FacultyPerDept:   2,
		CoursesPerDept:   6,
		GradesPerCourse:  grades,
		DegreesPerDept:   3,
		CoursesPerDegree: 3,
	}
}

// update-mix runs at 50 departments, not 200: over ~21k rows each update
// copied ~3.8 MB and its latency rose by half whenever the shared host was
// busy, so runs from busy and quiet stretches disagreed beyond any bound.
// Its rate, 60 ops/s, is about a sixth of its idle capacity.
var workloads = []*workload{
	{name: "point-read", scale: baseScale(100, 4), rate: 800, head: classRead},
	{name: "figure4-report", scale: baseScale(50, 4), rate: 20, head: classQuery},
	{name: "update-mix", scale: baseScale(50, 8), durable: true, rate: 60, head: classUpdate},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// figure4 is the paper's Figure 4 query; figure4Twin selects the other
// half of the extent.
const (
	figure4     = "Level = 'graduate' and count(STUDENT) < 5"
	figure4Twin = "Level = 'undergraduate' and count(STUDENT) < 5"
)

// expectedReport is the instance count the Figure 4 query (graduate) or
// its twin returns on the seeded extent. SeedScaled makes odd-numbered
// courses graduate and gives each course min(grades, students) graded
// students, all enrolled.
func (w *workload) expectedReport(graduate bool) int {
	s := w.scale
	perDept := s.CoursesPerDept / 2
	if !graduate {
		perDept = s.CoursesPerDept - perDept
	}
	if min(s.GradesPerCourse, s.StudentsPerDept) >= 5 {
		return 0
	}
	return perDept * s.Departments
}

// courseID, deptName, studentPID, studentDegree and studentYear follow
// SeedScaled's deterministic identifiers.
func courseID(dept, course int) string { return fmt.Sprintf("C%03d-%03d", dept, course) }

func deptName(dept int) string { return fmt.Sprintf("Dept%03d", dept) }

func (w *workload) studentPID(dept, st int) int64 {
	return int64(dept*(w.scale.StudentsPerDept+w.scale.FacultyPerDept) + st + 1)
}

func studentDegree(st int) string { return []string{"BS", "MS", "PhD"}[st%3] }

func studentYear(st int) int64 { return int64(st%5 + 1) }

func (w *workload) courses() int { return w.scale.Departments * w.scale.CoursesPerDept }

// op is one generated operation. Replace ops carry what to change; the
// old document comes from the server at run time.
type op struct {
	kind     opKind
	conn     int
	seq      int    // per-connection sequence number
	key      string // course the op addresses
	graduate bool   // query: Figure 4 (true) or its twin
	title    bool   // replace: rewrite Title (true) or one GRADES.Grade
	value    string // replace: the new value
	dept     int    // insert: department of the new course
}

// stream generates one connection's operations. Everything it produces
// is a function of the seed and the connection number, and writer keys
// are disjoint between connections: connection c replaces only seeded
// courses whose index is c mod conns, and inserts and deletes only
// courses it created itself.
type stream struct {
	w       *workload
	conn    int
	conns   int
	rng     *rand.Rand
	seq     int
	block   []opKind
	pending []string // courses inserted by this stream and not yet deleted
}

func newStream(w *workload, seed int64, conn, conns int) *stream {
	return &stream{w: w, conn: conn, conns: conns, rng: rand.New(rand.NewSource(seed*1009 + int64(conn)))}
}

// updateMixBlock is the update-mix ratio: 50% reads, 30% VO-R, 10% VO-CI,
// 10% VO-CD. Each block of ten is shuffled with the insert kept ahead of
// the delete, so every delete has a course of this run to remove and the
// row count returns to the seeded count at each block boundary.
var updateMixBlock = []opKind{opRead, opRead, opRead, opRead, opRead, opReplace, opReplace, opReplace, opInsert, opDelete}

func (s *stream) next() op {
	s.seq++
	o := op{conn: s.conn, seq: s.seq}
	switch s.w.name {
	case "point-read":
		o.kind = opRead
	case "figure4-report":
		o.kind = opQuery
		o.graduate = (s.seq+s.conn)%2 == 0
	default:
		o.kind = s.nextMixKind()
	}
	switch o.kind {
	case opRead:
		c := s.rng.Intn(s.w.courses())
		o.key = courseID(c/s.w.scale.CoursesPerDept, c%s.w.scale.CoursesPerDept)
	case opReplace:
		own := s.w.courses() / s.conns
		c := s.rng.Intn(own)*s.conns + s.conn
		o.key = courseID(c/s.w.scale.CoursesPerDept, c%s.w.scale.CoursesPerDept)
		o.title = s.seq%2 == 0
		o.value = fmt.Sprintf("v%d-%d", s.conn, s.seq)
	case opInsert:
		o.key = fmt.Sprintf("N%d-%06d", s.conn, s.seq)
		o.dept = s.rng.Intn(s.w.scale.Departments)
		s.pending = append(s.pending, o.key)
	case opDelete:
		o.key = s.pending[0]
		s.pending = s.pending[1:]
	}
	return o
}

func (s *stream) nextMixKind() opKind {
	if len(s.block) == 0 {
		b := append([]opKind(nil), updateMixBlock...)
		s.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		var ins, del int
		for i, k := range b {
			switch k {
			case opInsert:
				ins = i
			case opDelete:
				del = i
			}
		}
		if del < ins {
			b[ins], b[del] = b[del], b[ins]
		}
		s.block = b
	}
	k := s.block[0]
	s.block = s.block[1:]
	return k
}

// insertDoc is the VO-CI document for a new course: the pivot, its
// department as seeded, and GradesPerCourse grades of the department's
// students, each with the student as seeded.
func (w *workload) insertDoc(o op) map[string]any {
	dept := deptName(o.dept)
	grades := make([]any, 0, w.scale.GradesPerCourse)
	for g := 0; g < w.scale.GradesPerCourse && g < w.scale.StudentsPerDept; g++ {
		st := (o.seq + g) % w.scale.StudentsPerDept
		pid := intDoc(w.studentPID(o.dept, st))
		grades = append(grades, map[string]any{
			"CourseID": o.key, "PID": pid, "Quarter": "Spr91", "Grade": "B",
			"STUDENT": []any{map[string]any{"PID": pid, "Degree": studentDegree(st), "Year": intDoc(studentYear(st))}},
		})
	}
	return map[string]any{
		"CourseID": o.key, "Title": "New " + o.key, "DeptName": dept,
		"Units": intDoc(3), "Level": "graduate",
		"DEPARTMENT": []any{map[string]any{"DeptName": dept, "Building": "Bldg" + dept}},
		"GRADES":     grades,
	}
}

func intDoc(n int64) map[string]any { return map[string]any{"int": fmt.Sprint(n)} }
