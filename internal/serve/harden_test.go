package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/model"
)

// TestAdmissionShedsUnderOverload saturates the limiter and checks the
// degradation contract: excess requests get an immediate 429 with
// Retry-After while the probes keep answering, and capacity freed up
// is usable again.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	s := testServer().WithAdmission(1, 1, 30*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only slot from the outside, as a stuck request would.
	s.adm.sem <- struct{}{}

	const clients = 10
	var wg sync.WaitGroup
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/neighbors?v=0")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusTooManyRequests {
			t.Fatalf("client %d: status %d with a saturated server, want 429", i, c)
		}
		if retryAfter[i] == "" {
			t.Fatalf("client %d: 429 without Retry-After", i)
		}
	}
	if shed := s.adm.shed.Load(); shed != clients {
		t.Fatalf("shed counter = %d, want %d", shed, clients)
	}

	// Probes bypass the limiter: an overloaded server is still alive.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during overload: status %d", path, resp.StatusCode)
		}
	}

	// Freeing the slot restores service.
	<-s.adm.sem
	resp, err := http.Get(ts.URL + "/neighbors?v=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after overload cleared, want 200", resp.StatusCode)
	}
	if s.adm.admitted.Load() == 0 {
		t.Fatal("admitted counter never advanced")
	}
}

// TestAdmissionQueueWaitsForSlot: a queued request (within maxQueue)
// must be admitted when a slot frees within maxWait, not shed.
func TestAdmissionQueueWaitsForSlot(t *testing.T) {
	s := testServer().WithAdmission(1, 1, 2*time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.adm.sem <- struct{}{}
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/neighbors?v=0")
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	// Give the request time to enter the queue, then free the slot.
	for i := 0; i < 500 && s.adm.queued.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	<-s.adm.sem
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request got %d, want 200 after slot freed", code)
	}
}

// TestPanicRecovery: a panicking handler answers 500, bumps the panic
// counter, and later requests still work. http.ErrAbortHandler keeps
// its abort semantics.
func TestPanicRecovery(t *testing.T) {
	s := testServer()
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	})
	rec := httptest.NewRecorder()
	s.recovered(boom).ServeHTTP(rec, httptest.NewRequest("GET", "/neighbors?v=0", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	if s.panics.Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", s.panics.Load())
	}

	abort := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Fatal("ErrAbortHandler was swallowed instead of re-raised")
			}
		}()
		s.recovered(abort).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}()
	if s.panics.Load() != 1 {
		t.Fatalf("ErrAbortHandler counted as a panic: %d", s.panics.Load())
	}

	// End to end over a real connection: the server survives the panic
	// and keeps serving the next request.
	ts := httptest.NewServer(s.recovered(boom))
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("live panicking handler answered %d", resp.StatusCode)
		}
	}
}

// TestReadyz covers the readiness gate: the automatic not-ready window
// while a compaction rebuild is in flight.
func TestReadyz(t *testing.T) {
	srv, live := liveTestServer(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func() (int, map[string]any) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, _ := status(); code != http.StatusOK {
		t.Fatalf("fresh server not ready: %d", code)
	}

	// Block the compaction rebuild and check /readyz reports 503 with a
	// compaction reason for the duration.
	enter, release := make(chan struct{}), make(chan struct{})
	live.SetRebuild(func(g *graph.Graph) (*model.CompiledSummary, error) {
		close(enter)
		<-release
		n := g.NumNodes()
		p := make([]int32, n)
		for i := range p {
			p[i] = -1
		}
		var es []model.Edge
		g.ForEachEdge(func(u, v int32) { es = append(es, model.Edge{A: u, B: v, Sign: 1}) })
		return model.New(n, p, es).Compile(), nil
	})
	if _, err := live.ApplyUpdates([]model.EdgeUpdate{{U: 0, V: 6}}); err != nil {
		t.Fatal(err)
	}
	compactErr := make(chan error, 1)
	go func() { compactErr <- live.Compact() }()
	<-enter
	if code, body := status(); code != http.StatusServiceUnavailable || body["reason"] == "" {
		t.Fatalf("mid-compaction readyz: %d %v", code, body)
	}
	close(release)
	if err := <-compactErr; err != nil {
		t.Fatal(err)
	}
	if code, _ := status(); code != http.StatusOK {
		t.Fatal("not ready after compaction finished")
	}
}

// TestUpdateReturnsVersion: POST /update reports the snapshot version
// holding the batch, in both the JSON body and X-Summary-Version, and
// the version advances with effective batches.
func TestUpdateReturnsVersion(t *testing.T) {
	srv, live := liveTestServer(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postUpdate := func(body string) (uint64, int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /update: %d", resp.StatusCode)
		}
		hdr, err := strconv.ParseUint(resp.Header.Get("X-Summary-Version"), 10, 64)
		if err != nil {
			t.Fatalf("X-Summary-Version %q: %v", resp.Header.Get("X-Summary-Version"), err)
		}
		var out struct {
			Applied int    `json:"applied"`
			Version uint64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Version != hdr {
			t.Fatalf("body version %d != header version %d", out.Version, hdr)
		}
		return hdr, out.Applied
	}

	v1, applied := postUpdate(`{"u":0,"v":6}`)
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	if got := live.View().Version(); got != v1 {
		t.Fatalf("served version %d, acknowledged %d", got, v1)
	}
	v2, _ := postUpdate(`{"u":0,"v":6,"delete":true}`)
	if v2 <= v1 {
		t.Fatalf("version did not advance: %d then %d", v1, v2)
	}
	// A no-op batch publishes nothing: the version must hold still.
	v3, applied := postUpdate(`{"u":0,"v":6,"delete":true}`)
	if applied != 0 || v3 != v2 {
		t.Fatalf("no-op batch: applied %d, version %d (want 0, %d)", applied, v3, v2)
	}
}

// TestUpdateDurabilityFailureAnswers503: when the durability sink
// refuses the append, the update must be rejected with 503 (and a
// Retry-After), and the served state must be unchanged — never a 200
// for an unpersisted write.
func TestUpdateDurabilityFailureAnswers503(t *testing.T) {
	srv, live := liveTestServer(0)
	live.SetDurability(model.Durability{
		Append: func(ups []model.EdgeUpdate) (uint64, error) {
			return 0, errors.New("disk detached")
		},
	}, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := live.View().Version()
	resp, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(`{"u":0,"v":6}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update with failing log: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if live.View().Version() != before {
		t.Fatal("failed durable update still changed the served state")
	}

	// /stats keeps working and reports the new sections.
	var stats map[string]any
	get(t, ts, "/stats", http.StatusOK, &stats)
	if _, ok := stats["durability"]; !ok {
		t.Fatalf("stats without durability section: %v", stats)
	}
	if _, ok := stats["serving"]; !ok {
		t.Fatalf("stats without serving section: %v", stats)
	}
}
