package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// model is the state one connection's acknowledged updates imply. The
// verifier compares it with what the server (and, after a crash, the
// recovered database) holds.
type model struct {
	titles  map[string]string // course → last acknowledged Title
	grades  map[string]string // course "/" PID → last acknowledged Grade
	alive   map[string]bool   // inserted and not deleted
	deleted map[string]bool   // inserted, then deleted
}

func newModel() *model {
	return &model{titles: map[string]string{}, grades: map[string]string{}, alive: map[string]bool{}, deleted: map[string]bool{}}
}

// conn is one client connection to the server: a transport held to a
// single TCP connection, so the client never opens more connections than
// it has workers.
type conn struct {
	w      *workload
	base   string
	client *http.Client
	model  *model
	// reqNs and reqs accumulate per-request client time (send to last
	// body byte) for the serve.transport_us split.
	reqNs time.Duration
	reqs  int64
}

func newConn(w *workload, base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{w: w, base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, model: newModel()}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and returns the status and body.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.reqNs += time.Since(start)
	c.reqs++
	return resp.StatusCode, data, err
}

func (c *conn) getDoc(key string) (map[string]any, error) {
	status, body, err := c.do("GET", "/objects/omega/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", key, status, body)
	}
	return decodeDoc(body)
}

func (c *conn) post(verb string, req map[string]any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, resp, err := c.do("POST", "/objects/omega:"+verb, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", verb, status, resp)
	}
	return nil
}

// exec performs one operation over HTTP and checks its output. A
// non-nil error is a failed operation: a transport error, a non-200
// status (5xx, 429 and 409 included) or a wrong answer.
func (c *conn) exec(o op) error {
	switch o.kind {
	case opRead:
		doc, err := c.getDoc(o.key)
		if err != nil {
			return err
		}
		return c.w.checkRead(o, doc)
	case opQuery:
		q := figure4Twin
		if o.graduate {
			q = figure4
		}
		status, body, err := c.do("GET", "/objects/omega?q="+url.QueryEscape(q), nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("query: status %d: %.200s", status, body)
		}
		return c.w.checkReport(o, body)
	case opReplace:
		doc, err := c.getDoc(o.key)
		if err != nil {
			return err
		}
		gk, err := editDoc(doc, o)
		if err != nil {
			return err
		}
		if err := c.post("replace", map[string]any{"key": []any{o.key}, "instance": doc}); err != nil {
			return err
		}
		if o.title {
			c.model.titles[o.key] = o.value
		} else {
			c.model.grades[gk] = o.value
		}
	case opInsert:
		if err := c.post("insert", map[string]any{"instance": c.w.insertDoc(o)}); err != nil {
			return err
		}
		c.model.alive[o.key] = true
	case opDelete:
		if err := c.post("delete", map[string]any{"key": []any{o.key}}); err != nil {
			return err
		}
		delete(c.model.alive, o.key)
		c.model.deleted[o.key] = true
	}
	return nil
}

func decodeDoc(body []byte) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("bad instance document: %w", err)
	}
	return doc, nil
}

// checkRead checks that a point read returned the requested course with
// all of its seeded grades.
func (w *workload) checkRead(o op, doc map[string]any) error {
	if got, _ := doc["CourseID"].(string); got != o.key {
		return fmt.Errorf("read %s: got CourseID %q", o.key, got)
	}
	if grades, _ := doc["GRADES"].([]any); len(grades) != min(w.scale.GradesPerCourse, w.scale.StudentsPerDept) {
		return fmt.Errorf("read %s: %d grades, want %d", o.key, len(grades), w.scale.GradesPerCourse)
	}
	return nil
}

// checkReport checks that a report returned exactly the expected number
// of instances, each at the queried level.
func (w *workload) checkReport(o op, body []byte) error {
	var resp struct {
		Count     int               `json:"count"`
		Instances []json.RawMessage `json:"instances"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("query: bad response: %w", err)
	}
	want := w.expectedReport(o.graduate)
	if resp.Count != want || len(resp.Instances) != want {
		return fmt.Errorf("query graduate=%v: count %d with %d instances, want %d", o.graduate, resp.Count, len(resp.Instances), want)
	}
	level := "\"Level\":\"undergraduate\""
	if o.graduate {
		level = "\"Level\":\"graduate\""
	}
	for _, inst := range resp.Instances {
		if !bytes.Contains(inst, []byte(level)) {
			return fmt.Errorf("query graduate=%v: instance at another level: %.120s", o.graduate, inst)
		}
	}
	return nil
}

// editDoc applies a replace op to the current document in place and
// returns the grade key it changed ("" for a Title change).
func editDoc(doc map[string]any, o op) (string, error) {
	if o.title {
		doc["Title"] = o.value
		return "", nil
	}
	grades, _ := doc["GRADES"].([]any)
	if len(grades) == 0 {
		return "", fmt.Errorf("replace %s: no grades to edit", o.key)
	}
	g, ok := grades[o.seq%len(grades)].(map[string]any)
	if !ok {
		return "", fmt.Errorf("replace %s: malformed grade", o.key)
	}
	g["Grade"] = o.value
	return o.key + "/" + pidString(g["PID"]), nil
}

// pidString renders a PID in the codec's wire form ({"int":"123"}) as
// its decimal digits.
func pidString(v any) string {
	if m, ok := v.(map[string]any); ok {
		if s, ok := m["int"].(string); ok {
			return s
		}
	}
	return fmt.Sprint(v)
}
