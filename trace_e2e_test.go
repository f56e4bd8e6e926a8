package tierdb

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"tierdb/internal/server"
	"tierdb/internal/server/client"
	"tierdb/internal/trace"
)

// spansByName indexes one trace's spans by name.
func spansByName(spans []*trace.Span) map[string][]*trace.Span {
	out := make(map[string][]*trace.Span)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// requireLineage walks child's parent links upward and asserts it
// reaches a span named anc.
func requireLineage(t *testing.T, spans []*trace.Span, child *trace.Span, anc string) {
	t.Helper()
	byID := make(map[trace.SpanID]*trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for cur := child; cur != nil; cur = byID[cur.Parent] {
		if cur.Name == anc {
			return
		}
		if cur.Parent == 0 {
			break
		}
	}
	t.Errorf("span %q is not a descendant of %q", child.Name, anc)
}

// TestTraceEndToEnd is the acceptance test for distributed tracing: a
// query sent through the client over loopback TCP yields one TraceID
// whose span tree contains the client send, server admission, engine
// execution (with per-operator children) and WAL commit spans, all with
// consistent parent links and ordered clocks — and the same tree is
// servable as JSON from /trace/{id}.
func TestTraceEndToEnd(t *testing.T) {
	db, err := Open(Config{
		ListenAddr:      "127.0.0.1:0",
		ObsAddr:         "127.0.0.1:0",
		WALDir:          t.TempDir(),
		TraceSampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Client and server share the process, so handing the client the
	// database's tracer lands both halves of every trace in one ring —
	// exactly what a /trace/{id} lookup then reassembles.
	c, err := client.Dial(client.Config{Addr: db.ServerAddr(), PoolSize: 1, Tracer: db.Tracer()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fields := []Field{
		{Name: "id", Type: Int64Type},
		{Name: "tag", Type: StringType, Width: 8},
	}
	if err := c.CreateTable("orders", fields); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := c.Insert("orders", []Value{Int(i), String("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Select("orders", []server.Predicate{client.Between("id", Int(10), Int(19))}, "id"); err != nil {
		t.Fatal(err)
	}

	ring := db.Tracer().Ring()
	var insertTrace, selectTrace trace.TraceID
	for _, s := range ring.Snapshot() {
		if s.Name != "client.send" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key != "op" {
				continue
			}
			switch a.Value() {
			case "insert":
				insertTrace = s.Trace
			case "select":
				selectTrace = s.Trace
			}
		}
	}
	if insertTrace == 0 || selectTrace == 0 {
		t.Fatal("client.send spans for insert and select not found in the ring")
	}

	// --- the select trace: client → server → exec with operator children.
	sel := trace.ByTrace(ring, selectTrace)
	byName := spansByName(sel)
	for _, name := range []string{"client.send", "server.request", "server.admission", "server.engine", "exec.query"} {
		if len(byName[name]) != 1 {
			t.Fatalf("select trace: want exactly 1 %q span, got %d", name, len(byName[name]))
		}
	}
	execOps := 0
	for name, spans := range byName {
		if name == "exec.query" || !strings.HasPrefix(name, "exec.") {
			continue
		}
		execOps += len(spans)
		for _, s := range spans {
			if s.Parent != byName["exec.query"][0].ID {
				t.Errorf("operator span %q not parented under exec.query", name)
			}
		}
	}
	if execOps == 0 {
		t.Error("select trace has no per-operator exec.* children")
	}
	requireLineage(t, sel, byName["exec.query"][0], "server.engine")
	requireLineage(t, sel, byName["server.engine"][0], "client.send")
	assertClockSanity(t, sel)

	// --- the insert trace: the WAL commit is a traced child.
	ins := trace.ByTrace(ring, insertTrace)
	insNames := spansByName(ins)
	if len(insNames["wal.commit"]) != 1 {
		t.Fatalf("insert trace: want 1 wal.commit span, got %d", len(insNames["wal.commit"]))
	}
	if len(insNames["wal.append"]) != 1 {
		t.Fatalf("insert trace: want 1 wal.append span, got %d", len(insNames["wal.append"]))
	}
	requireLineage(t, ins, insNames["wal.append"][0], "wal.commit")
	requireLineage(t, ins, insNames["wal.commit"][0], "server.engine")
	assertClockSanity(t, ins)

	// --- the same tree is servable over HTTP as JSON.
	resp, err := http.Get(db.ObsURL() + "/trace/" + selectTrace.String())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/%s: %d: %s", selectTrace, resp.StatusCode, body)
	}
	var reply struct {
		TraceID string        `json:"trace_id"`
		Spans   []*trace.Node `json:"spans"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("trace reply is not JSON: %v\n%s", err, body)
	}
	if reply.TraceID != selectTrace.String() {
		t.Errorf("trace reply id %q != %q", reply.TraceID, selectTrace)
	}
	if len(reply.Spans) != 1 || reply.Spans[0].Span.Name != "client.send" {
		t.Fatalf("trace reply should have the single client.send root, got %d roots", len(reply.Spans))
	}
	// And the text rendering names the whole path.
	resp, err = http.Get(db.ObsURL() + "/trace/" + selectTrace.String() + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"client.send", "server.request", "exec.query"} {
		if !strings.Contains(string(text), name) {
			t.Errorf("text rendering missing %q:\n%s", name, text)
		}
	}
}

// assertClockSanity checks every span's interval is ordered and nested
// inside its parent's (same-process wall clocks are comparable).
func assertClockSanity(t *testing.T, spans []*trace.Span) {
	t.Helper()
	byID := make(map[trace.SpanID]*trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %q ends before it starts", s.Name)
		}
		if p := byID[s.Parent]; p != nil {
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %q [%d,%d] escapes parent %q [%d,%d]",
					s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
			}
		}
	}
}
