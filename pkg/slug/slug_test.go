package slug_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/pkg/slug"
)

func testGraph() *graph.Graph {
	return graph.Caveman(5, 8, 10, 42)
}

// TestRegistryRoundTrip drives every registered algorithm through the
// full artifact lifecycle: build, serialize, deserialize, decode, and
// compile for serving. The decoded graph must equal the input exactly
// and the algorithm tag must survive the envelope.
func TestRegistryRoundTrip(t *testing.T) {
	g := testGraph()
	names := slug.Algorithms()
	if len(names) != 5 {
		t.Fatalf("registered algorithms = %v, want 5", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			art, err := slug.Get(name).Summarize(context.Background(), g,
				slug.WithIterations(5), slug.WithSeed(7))
			if err != nil {
				t.Fatalf("Summarize: %v", err)
			}
			if art.Algorithm() != name {
				t.Fatalf("Algorithm() = %q, want %q", art.Algorithm(), name)
			}
			if art.Cost() <= 0 {
				t.Fatalf("Cost() = %d, want > 0", art.Cost())
			}

			var buf bytes.Buffer
			n, err := art.WriteTo(&buf)
			if err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			got, err := slug.ReadFrom(&buf)
			if err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			if got.Algorithm() != name {
				t.Fatalf("algorithm tag lost: %q -> %q", name, got.Algorithm())
			}
			if got.Cost() != art.Cost() {
				t.Fatalf("cost changed across serialization: %d -> %d", art.Cost(), got.Cost())
			}
			if !graph.Equal(got.Decode(), g) {
				t.Fatal("round-tripped artifact decodes to a different graph")
			}

			cs, err := got.Queryable()
			if err != nil {
				t.Fatalf("Queryable: %v", err)
			}
			if cs.NumNodes() != g.NumNodes() {
				t.Fatalf("compiled nodes = %d, want %d", cs.NumNodes(), g.NumNodes())
			}
			for v := int32(0); v < 20; v++ {
				want := g.Neighbors(v)
				got := cs.NeighborsOf(v)
				if len(got) != len(want) {
					t.Fatalf("vertex %d: compiled degree %d, want %d", v, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("vertex %d: compiled neighbors %v, want %v", v, got, want)
					}
				}
			}
		})
	}
}

// TestArtifactBytesDeterministicPerSeed builds the same graph several
// times with the same seed under every registered algorithm: the
// serialized artifact and its cost must repeat exactly. Go randomizes
// map iteration per range statement, so five builds in one process are
// enough to expose an order that leaks into the encoding. The graph is
// scale-free because equal-saving merge candidates (where a tie-break
// taken in map order changes the partition itself) are common there.
func TestArtifactBytesDeterministicPerSeed(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	for _, name := range slug.Algorithms() {
		t.Run(name, func(t *testing.T) {
			var want []byte
			var wantCost int64
			for run := 0; run < 5; run++ {
				art, err := slug.Get(name).Summarize(context.Background(), g,
					slug.WithIterations(5), slug.WithSeed(7))
				if err != nil {
					t.Fatalf("run %d: Summarize: %v", run, err)
				}
				var buf bytes.Buffer
				if _, err := art.WriteTo(&buf); err != nil {
					t.Fatalf("run %d: WriteTo: %v", run, err)
				}
				if run == 0 {
					want, wantCost = buf.Bytes(), art.Cost()
					continue
				}
				if art.Cost() != wantCost {
					t.Fatalf("run %d: cost %d, run 0 had %d", run, art.Cost(), wantCost)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("run %d: %d artifact bytes differ from run 0's %d", run, buf.Len(), len(want))
				}
			}
		})
	}
}

// TestBarePayloadRejected: the hierarchical model's own stream ("SLGR")
// is a payload encoding, not an artifact. ReadFrom rejects it with an
// error naming the magic; the same bytes behind the envelope header load.
func TestBarePayloadRejected(t *testing.T) {
	g := testGraph()
	sum, _ := core.Summarize(g, core.Config{T: 3, Seed: 1})
	var bare bytes.Buffer
	if _, err := sum.WriteTo(&bare); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(bare.Bytes(), []byte("SLGR")) {
		t.Fatalf("model stream starts with %q, want SLGR", bare.Bytes()[:4])
	}
	art, err := slug.ReadFrom(bytes.NewReader(bare.Bytes()))
	if err == nil {
		t.Fatalf("bare SLGR stream loaded as a %q artifact", art.Algorithm())
	}
	if !strings.Contains(err.Error(), `"SLGR" is not an artifact magic`) {
		t.Fatalf("error %q does not name the rejected magic", err)
	}

	var wrapped bytes.Buffer
	if _, err := slug.NewHierarchical("slugger", sum).WriteTo(&wrapped); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(wrapped.Bytes(), bare.Bytes()) {
		t.Fatal("the envelope's payload is not the bare model stream")
	}
	art, err = slug.ReadFrom(&wrapped)
	if err != nil {
		t.Fatalf("ReadFrom enveloped stream: %v", err)
	}
	if art.Algorithm() != "slugger" || art.Cost() != sum.Cost() {
		t.Fatalf("enveloped stream loaded as %q cost %d, want slugger cost %d", art.Algorithm(), art.Cost(), sum.Cost())
	}
}

func TestReadFromRejectsCorruptEnvelope(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE....."),
		"bad version": []byte("SLGA\xff\x01\x00"),
		"bad kind":    []byte("SLGA\x01\x09\x00"),
		"giant name":  append([]byte("SLGA\x01\x01"), 0xff, 0xff, 0x7f),
		"cut payload": []byte("SLGA\x01\x01\x03abc"),
		"bare model":  []byte("SLGR\x01"),
		// Kind 2 held the flat model before baselines became height-1
		// hierarchies; it is now an unknown kind like any other.
		"retired flat kind": []byte("SLGA\x01\x02\x00"),
	}
	for name, data := range cases {
		if _, err := slug.ReadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt envelope accepted", name)
		}
	}
}

// TestUnknownAlgorithm checks Get's chainable error stub and Lookup.
func TestUnknownAlgorithm(t *testing.T) {
	s := slug.Get("nope")
	if s.Name() != "nope" {
		t.Fatalf("stub name = %q", s.Name())
	}
	if _, err := s.Summarize(context.Background(), testGraph()); err == nil {
		t.Fatal("unknown algorithm did not error")
	}
	if _, ok := slug.Lookup("nope"); ok {
		t.Fatal("Lookup found unregistered algorithm")
	}
	if _, ok := slug.Lookup("slugger"); !ok {
		t.Fatal("Lookup missed slugger")
	}
}

// TestCancelledContextReturnsPromptly runs every algorithm with an
// already-cancelled context: each must return ctx.Err() and a nil
// artifact without doing the build.
func TestCancelledContextReturnsPromptly(t *testing.T) {
	g := testGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range slug.Algorithms() {
		start := time.Now()
		art, err := slug.Get(name).Summarize(ctx, g, slug.WithIterations(20))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if art != nil {
			t.Errorf("%s: returned artifact despite cancellation", name)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("%s: cancelled build still took %s", name, el)
		}
	}
}

// TestCancellationMidMerge cancels SLUGGER from inside its first
// iteration's progress callback and asserts the build stops before the
// second iteration, with parallel workers drained (no goroutine leak).
func TestCancellationMidMerge(t *testing.T) {
	g := graph.Caveman(8, 10, 12, 1)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	maxStep := 0
	art, err := slug.Get("slugger").Summarize(ctx, g,
		slug.WithIterations(10),
		slug.WithWorkers(4),
		slug.WithProgress(func(ev slug.Event) {
			if int(ev.Step) > maxStep {
				maxStep = ev.Step
			}
			if ev.Stage == slug.StageIteration && ev.Step == 1 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if art != nil {
		t.Fatal("cancelled build returned an artifact")
	}
	if maxStep > 1 {
		t.Fatalf("events continued after cancellation: max step %d", maxStep)
	}

	// All merge workers must have drained; allow the runtime a moment to
	// retire finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProgressEventOrdering asserts the documented event protocol for
// every algorithm that emits iteration events: strictly increasing
// steps, consistent totals, and exactly one StageDone event last, whose
// cost matches the artifact.
func TestProgressEventOrdering(t *testing.T) {
	g := testGraph()
	for _, name := range slug.Algorithms() {
		t.Run(name, func(t *testing.T) {
			var events []slug.Event
			art, err := slug.Get(name).Summarize(context.Background(), g,
				slug.WithIterations(6), slug.WithSeed(3),
				slug.WithProgress(func(ev slug.Event) { events = append(events, ev) }))
			if err != nil {
				t.Fatalf("Summarize: %v", err)
			}
			if len(events) == 0 {
				t.Fatal("no events delivered")
			}
			last := events[len(events)-1]
			if last.Stage != slug.StageDone {
				t.Fatalf("last event stage = %q, want done", last.Stage)
			}
			if last.Cost != art.Cost() {
				t.Fatalf("done event cost = %d, artifact cost = %d", last.Cost, art.Cost())
			}
			prevStep := 0
			for _, ev := range events[:len(events)-1] {
				if ev.Stage != slug.StageIteration {
					t.Fatalf("non-final event stage = %q", ev.Stage)
				}
				if ev.Algorithm != name {
					t.Fatalf("event algorithm = %q, want %q", ev.Algorithm, name)
				}
				if ev.Step <= prevStep {
					t.Fatalf("steps not strictly increasing: %d after %d", ev.Step, prevStep)
				}
				if ev.Total > 0 && ev.Step > ev.Total {
					t.Fatalf("step %d exceeds total %d", ev.Step, ev.Total)
				}
				prevStep = ev.Step
			}
		})
	}
}

// TestSluggerMatchesDirectCall pins the zero-overhead contract: the
// unified API must produce the identical summary (cost and structure)
// as calling internal/core directly with the same parameters.
func TestSluggerMatchesDirectCall(t *testing.T) {
	g := testGraph()
	direct, _ := core.Summarize(g, core.Config{T: 8, Hb: 5, Seed: 11, Workers: 2})
	art, err := slug.Get("slugger").Summarize(context.Background(), g,
		slug.WithIterations(8), slug.WithHeightBound(5), slug.WithSeed(11), slug.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	h, ok := art.(*slug.Hierarchical)
	if !ok {
		t.Fatalf("slugger artifact type %T, want *slug.Hierarchical", art)
	}
	if h.Summary.Cost() != direct.Cost() {
		t.Fatalf("API cost %d != direct cost %d", h.Summary.Cost(), direct.Cost())
	}
	var a, b bytes.Buffer
	if _, err := h.Summary.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("API summary differs byte-for-byte from direct core.Summarize")
	}
}

// TestFlatQueryableCostParity pins the one-model contract for the four
// baselines: each returns a *slug.Hierarchical (its flat summary as
// height-1 trees) which passes the model's strict validator (every
// pair's net count in {0, 1}, and set exactly on the input's edges), and
// whose algorithm tag survives the envelope. That its cost is Eq. (11)
// is internal/flat's TestEncodeCostSanityProperty.
func TestFlatQueryableCostParity(t *testing.T) {
	const seed, iters = 7, 5
	ctx := context.Background()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"hier", graph.HierCommunity(graph.HierParams{
			Levels: 2, Branching: 4, LeafSize: 8,
			Density: []float64{0.01, 0.2, 0.9},
		}, 3)},
		{"ba", graph.BarabasiAlbert(150, 3, 11)},
		{"caveman", testGraph()},
	}
	for _, algo := range []string{"sweg", "mosso", "randomized", "sags"} {
		for _, tg := range graphs {
			g := tg.g
			t.Run(algo+"/"+tg.name, func(t *testing.T) {
				art, err := slug.Get(algo).Summarize(ctx, g, slug.WithIterations(iters), slug.WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := art.(*slug.Hierarchical); !ok {
					t.Fatalf("artifact type %T, want *slug.Hierarchical", art)
				}
				if err := slug.Validate(art, g); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := art.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := slug.ReadFrom(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if back.Algorithm() != algo {
					t.Fatalf("reloaded algorithm %q, want %q", back.Algorithm(), algo)
				}
			})
		}
	}
}
