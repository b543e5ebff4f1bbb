package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// fig2Summary builds the Fig. 2-like summary used across the model
// tests: vertices 0..6, supernodes 7={2,3}, 8={0,1,7}, with neighbors
// 0: {1,2,3,5}, 4: {2,3}, 6: {5}.
func fig2Summary() *Summary {
	parent := []int32{8, 8, 7, 7, -1, -1, -1, 8, -1}
	edges := []Edge{
		{A: 8, B: 8, Sign: 1},
		{A: 8, B: 5, Sign: 1},
		{A: 5, B: 7, Sign: -1},
		{A: 4, B: 7, Sign: 1},
		{A: 5, B: 6, Sign: 1},
	}
	return New(7, parent, edges)
}

// randomGraph generates a reproducible sparse random graph.
func randomGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// checkOverlayParity asserts that the overlay's every query matches the
// oracle graph.
func checkOverlayParity(t *testing.T, o *DeltaOverlay, want *graph.Graph) {
	t.Helper()
	c := o.AcquireCtx()
	defer o.ReleaseCtx(c)
	n := int32(o.NumNodes())
	for v := int32(0); v < n; v++ {
		got := c.NeighborsOf(v)
		exp := want.Neighbors(v)
		if len(got) != len(exp) || (len(got) > 0 && !reflect.DeepEqual(got, exp)) {
			t.Fatalf("NeighborsOf(%d) = %v, want %v", v, got, exp)
		}
	}
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if o.HasEdge(u, v) != want.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, o.HasEdge(u, v), want.HasEdge(u, v))
			}
		}
	}
	if dec := o.Decode(); dec.NumEdges() != want.NumEdges() {
		t.Fatalf("Decode has %d edges, want %d", dec.NumEdges(), want.NumEdges())
	}
}

// checkOverlay asserts the overlay's representation invariants: every
// list strictly ascending in u with signs ±1, entries symmetric, plus
// and minus equal to the entry counts, -1 only over base edges and +1
// only over base non-edges, and the page index nil exactly when empty.
func checkOverlay(t *testing.T, o *DeltaOverlay) {
	t.Helper()
	if (o.pages == nil) != (o.Len() == 0) {
		t.Fatalf("page index nil = %v with %d corrections", o.pages == nil, o.Len())
	}
	n := int32(o.NumNodes())
	if o.pages != nil && len(o.pages) != int(n+pageMask)>>pageBits {
		t.Fatalf("%d pages for %d vertices", len(o.pages), n)
	}
	plus, minus := 0, 0
	for v := int32(0); v < n; v++ {
		l := o.list(v)
		for i, e := range l {
			switch {
			case i > 0 && l[i-1].u >= e.u:
				t.Fatalf("list of %d not strictly ascending: %v", v, l)
			case e.s != 1 && e.s != -1:
				t.Fatalf("correction {%d,%d} has sign %d", v, e.u, e.s)
			case e.u < 0 || e.u >= n || e.u == v:
				t.Fatalf("list of %d holds vertex %d", v, e.u)
			case o.sign(e.u, v) != e.s:
				t.Fatalf("correction {%d,%d} = %d, {%d,%d} = %d", v, e.u, e.s, e.u, v, o.sign(e.u, v))
			case (e.s < 0) != o.cs.HasEdge(v, e.u):
				t.Fatalf("correction {%d,%d} = %d, base edge %v", v, e.u, e.s, o.cs.HasEdge(v, e.u))
			}
			if v < e.u && e.s > 0 {
				plus++
			} else if v < e.u {
				minus++
			}
		}
	}
	if plus != o.plus || minus != o.minus {
		t.Fatalf("counters +%d -%d, entries +%d -%d", o.plus, o.minus, plus, minus)
	}
}

func TestOverlayApplySemantics(t *testing.T) {
	cs := fig2Summary().Compile()
	o := NewOverlay(cs)
	if o.Len() != 0 || o.Version() != 0 {
		t.Fatalf("fresh overlay: len %d version %d", o.Len(), o.Version())
	}

	// Insert a new edge, delete a base edge.
	o2, applied, err := o.Apply([]EdgeUpdate{
		{U: 4, V: 6},                // new edge
		{U: 5, V: 6, Delete: true},  // base edge removed
		{U: 0, V: 1, Delete: false}, // already present: no-op
		{U: 2, V: 5, Delete: true},  // already absent: no-op
	})
	if err != nil {
		t.Fatal(err)
	}
	checkOverlay(t, o2)
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if o2.Insertions() != 1 || o2.Deletions() != 1 || o2.Version() != 1 {
		t.Fatalf("overlay counters: +%d -%d v%d", o2.Insertions(), o2.Deletions(), o2.Version())
	}
	// The original snapshot is untouched.
	if o.Len() != 0 || o.HasEdge(4, 6) || !o.HasEdge(5, 6) {
		t.Fatal("Apply mutated its receiver")
	}
	if !o2.HasEdge(4, 6) || o2.HasEdge(5, 6) {
		t.Fatal("overlay corrections not visible")
	}

	// Reverting both updates cancels the entries entirely.
	o3, applied, err := o2.Apply([]EdgeUpdate{
		{U: 4, V: 6, Delete: true},
		{U: 5, V: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkOverlay(t, o3)
	if applied != 2 || o3.Len() != 0 {
		t.Fatalf("revert: applied %d, len %d; want 2, 0", applied, o3.Len())
	}
	checkOverlayParity(t, o3, cs.Decode())
}

func TestOverlayApplyRejectsInvalid(t *testing.T) {
	o := NewOverlay(fig2Summary().Compile())
	for _, bad := range [][]EdgeUpdate{
		{{U: -1, V: 2}},
		{{U: 0, V: 7}},
		{{U: 3, V: 3}},
		{{U: 0, V: 1}, {U: 99, V: 0}},
	} {
		if _, _, err := o.Apply(bad); err == nil {
			t.Fatalf("Apply(%v) accepted invalid update", bad)
		}
	}
	if o.Len() != 0 {
		t.Fatal("rejected batch left corrections behind")
	}
}

func TestOverlayParityAgainstMutatedGraph(t *testing.T) {
	g := randomGraph(60, 0.08, 1)
	// Serve g through a trivial flat compilation (every vertex a root,
	// one p-edge per graph edge): correctness of the overlay does not
	// depend on how the base was summarized.
	o := NewOverlay(compileTrivial(g))
	rng := rand.New(rand.NewSource(2))

	live := decodeToSets(g)
	var ups []EdgeUpdate
	for i := 0; i < 400; i++ {
		u := int32(rng.Intn(60))
		v := int32(rng.Intn(60))
		if u == v {
			continue
		}
		del := rng.Float64() < 0.45
		ups = append(ups, EdgeUpdate{U: u, V: v, Delete: del})
		mutateSet(live, u, v, del)
	}
	o2, _, err := o.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	checkOverlay(t, o2)
	checkOverlayParity(t, o2, setsToGraph(live, 60))
}

// snapshotRecord is what one overlay snapshot answered when it was
// created: every neighbor list, HasEdge on a fixed pair sample, and
// MulAdj of a fixed vector.
type snapshotRecord struct {
	o     *DeltaOverlay
	nbrs  [][]int32
	has   []bool
	mul   []float64
	mulOK bool
}

func recordSnapshot(o *DeltaOverlay, pairs [][2]int32, x []float64) snapshotRecord {
	r := snapshotRecord{o: o, mul: make([]float64, len(x))}
	for v := int32(0); v < int32(o.NumNodes()); v++ {
		r.nbrs = append(r.nbrs, o.NeighborsOf(v))
	}
	for _, p := range pairs {
		r.has = append(r.has, o.HasEdge(p[0], p[1]))
	}
	r.mulOK = o.MulAdj(r.mul, x)
	return r
}

// verify re-asks the snapshot everything it was asked at creation.
func (r snapshotRecord) verify(pairs [][2]int32, x []float64) error {
	c := r.o.AcquireCtx()
	defer r.o.ReleaseCtx(c)
	for v, want := range r.nbrs {
		if got := c.NeighborsOf(int32(v)); !slices.Equal(got, want) {
			return fmt.Errorf("version %d: NeighborsOf(%d) = %v, was %v", r.o.Version(), v, got, want)
		}
	}
	for i, p := range pairs {
		if got := r.o.HasEdge(p[0], p[1]); got != r.has[i] {
			return fmt.Errorf("version %d: HasEdge(%d,%d) = %v, was %v", r.o.Version(), p[0], p[1], got, r.has[i])
		}
	}
	mul := make([]float64, len(x))
	if ok := r.o.MulAdj(mul, x); ok != r.mulOK || !slices.Equal(mul, r.mul) {
		return fmt.Errorf("version %d: MulAdj changed", r.o.Version())
	}
	return nil
}

// TestOverlaySnapshotsImmutable: snapshots share pages and lists with
// their ancestors, so a write that reached a shared one would change an
// older snapshot's answers. Two children of one parent write the same
// vertex and the same page; 200 descendants then branch off random
// earlier snapshots while readers re-verify old ones (run under -race).
func TestOverlaySnapshotsImmutable(t *testing.T) {
	const n = 300
	g := randomGraph(n, 0.03, 4)
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Intn(2001) - 1000)
	}
	var pairs [][2]int32
	for i := 0; i < 400; i++ {
		pairs = append(pairs, [2]int32{rng.Int31n(n), rng.Int31n(n)})
	}
	batch := func(size int) []EdgeUpdate {
		ups := make([]EdgeUpdate, 0, size)
		for len(ups) < size {
			// Endpoints from a small range: batches collide on pages.
			u, v := rng.Int31n(160), rng.Int31n(n)
			if u != v {
				ups = append(ups, EdgeUpdate{U: u, V: v, Delete: rng.Intn(3) == 0})
			}
		}
		return ups
	}
	apply := func(o *DeltaOverlay, ups []EdgeUpdate) *DeltaOverlay {
		nxt, _, err := o.Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		checkOverlay(t, nxt)
		return nxt
	}

	parent := apply(NewOverlay(compileTrivial(g)), batch(40))
	a := apply(parent, []EdgeUpdate{{U: 5, V: 9}, {U: 5, V: 200}, {U: 6, V: 7, Delete: true}})
	b := apply(parent, []EdgeUpdate{{U: 5, V: 9, Delete: true}, {U: 5, V: 201}, {U: 7, V: 6}})
	if a.list(5) == nil || b.list(5) == nil || a.pages[0] == b.pages[0] {
		t.Fatal("the two children do not both write vertex 5 and page 0")
	}

	var mu sync.Mutex
	recs := []snapshotRecord{recordSnapshot(parent, pairs, x), recordSnapshot(a, pairs, x), recordSnapshot(b, pairs, x)}
	snapshot := func() []snapshotRecord {
		mu.Lock()
		defer mu.Unlock()
		return recs
	}
	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				rs := snapshot()
				if err := rs[rr.Intn(len(rs))].verify(pairs, x); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	for i := 0; i < 200; i++ {
		from := recs[rng.Intn(len(recs))].o
		r := recordSnapshot(apply(from, batch(1+rng.Intn(8))), pairs, x)
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := r.verify(pairs, x); err != nil {
			t.Fatal(err)
		}
	}
}

// compileTrivial compiles g as a flat identity summary (each vertex its
// own root supernode, each edge a p-edge).
func compileTrivial(g *graph.Graph) *CompiledSummary {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	var edges []Edge
	g.ForEachEdge(func(u, v int32) {
		edges = append(edges, Edge{A: u, B: v, Sign: 1})
	})
	return New(n, parent, edges).Compile()
}

func decodeToSets(g *graph.Graph) map[[2]int32]bool {
	out := make(map[[2]int32]bool)
	g.ForEachEdge(func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		out[[2]int32{u, v}] = true
	})
	return out
}

func mutateSet(set map[[2]int32]bool, u, v int32, del bool) {
	if u > v {
		u, v = v, u
	}
	if del {
		delete(set, [2]int32{u, v})
	} else {
		set[[2]int32{u, v}] = true
	}
}

func setsToGraph(set map[[2]int32]bool, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for e := range set {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// trivialRebuild is a RebuildFunc that "re-summarizes" by compiling the
// identity summary of the graph — enough to exercise the swap machinery
// without depending on a real summarizer.
func trivialRebuild(g *graph.Graph) (*CompiledSummary, error) {
	return compileTrivial(g), nil
}

func TestLiveApplyAndCompact(t *testing.T) {
	g := randomGraph(40, 0.1, 3)
	l := NewLive(compileTrivial(g))
	l.SetRebuild(trivialRebuild)

	live := decodeToSets(g)
	rng := rand.New(rand.NewSource(4))
	for batch := 0; batch < 10; batch++ {
		var ups []EdgeUpdate
		for i := 0; i < 20; i++ {
			u, v := int32(rng.Intn(40)), int32(rng.Intn(40))
			if u == v {
				continue
			}
			del := rng.Float64() < 0.4
			ups = append(ups, EdgeUpdate{U: u, V: v, Delete: del})
			mutateSet(live, u, v, del)
		}
		if _, err := l.ApplyUpdates(ups); err != nil {
			t.Fatal(err)
		}
	}
	want := setsToGraph(live, 40)
	checkOverlayParity(t, l.View(), want)

	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	v := l.View()
	if v.Len() != 0 {
		t.Fatalf("overlay non-empty after Compact: %d", v.Len())
	}
	checkOverlayParity(t, v, want)
	st := l.Stats()
	if st.Compactions != 1 || st.Compacting {
		t.Fatalf("stats after compact: %+v", st)
	}
}

func TestLiveAutoCompactionReplaysJournal(t *testing.T) {
	g := randomGraph(40, 0.1, 5)
	l := NewLive(compileTrivial(g))
	// Hold the rebuild until updates have landed mid-compaction, so the
	// journal-replay path is exercised deterministically.
	started := make(chan struct{})
	release := make(chan struct{})
	l.SetRebuild(func(g *graph.Graph) (*CompiledSummary, error) {
		close(started)
		<-release
		return compileTrivial(g), nil
	})
	l.SetCompactionThreshold(1)

	live := decodeToSets(g)
	apply := func(u, v int32, del bool) {
		t.Helper()
		if _, err := l.ApplyUpdates([]EdgeUpdate{{U: u, V: v, Delete: del}}); err != nil {
			t.Fatal(err)
		}
		mutateSet(live, u, v, del)
	}
	apply(0, 1, g.HasEdge(0, 1)) // toggle: triggers compaction
	<-started
	// These land while the compaction is rebuilding and must survive
	// the base swap via the journal.
	apply(2, 3, g.HasEdge(2, 3))
	apply(4, 5, g.HasEdge(4, 5))
	close(release)
	l.Quiesce()

	if st := l.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	checkOverlayParity(t, l.View(), setsToGraph(live, 40))
}

// TestQuiesceWaitsForCheckpoint: a compaction is not over until the
// durability sink's checkpoint of the new base has returned. Quiesce
// (what Close of a durable artifact calls before closing its log) must
// block that long, Compact must too, the new base is served meanwhile,
// and no second compaction starts under the unfinished one.
func TestQuiesceWaitsForCheckpoint(t *testing.T) {
	g := randomGraph(40, 0.1, 6)
	l := NewLive(compileTrivial(g))
	l.SetRebuild(trivialRebuild)
	l.SetCompactionThreshold(1)
	entered := make(chan uint64, 2) // one send per checkpoint; two compactions run
	release := make(chan struct{})
	var lsn uint64
	l.SetDurability(Durability{
		Append: func([]EdgeUpdate) (uint64, error) { lsn++; return lsn, nil },
		Checkpoint: func(at uint64, _ *CompiledSummary) {
			entered <- at
			<-release
		},
	}, 0)

	toggle := func(u, v int32) {
		t.Helper()
		if _, err := l.ApplyUpdates([]EdgeUpdate{{U: u, V: v, Delete: l.View().HasEdge(u, v)}}); err != nil {
			t.Fatal(err)
		}
	}
	toggle(0, 1) // reaches the threshold: background compaction
	if at := <-entered; at != 1 {
		t.Fatalf("checkpoint at LSN %d, want 1", at)
	}
	// The base swap has committed; only the checkpoint is outstanding.
	if st := l.Stats(); st.Compactions != 1 || !st.Compacting || st.Insertions+st.Deletions != 0 {
		t.Fatalf("mid-checkpoint stats: %+v, want 1 compaction committed, still in flight, empty overlay", st)
	}
	toggle(2, 3) // at the threshold again, but must not start a second compaction
	if st := l.Stats(); st.Compactions != 1 || st.Insertions+st.Deletions != 1 {
		t.Fatalf("a second compaction ran under the unfinished one: %+v", st)
	}

	returned := make(chan string, 2)
	go func() { l.Quiesce(); returned <- "Quiesce" }()
	go func() {
		if err := l.Compact(); err != nil {
			t.Error(err)
		}
		returned <- "Compact"
	}()
	select {
	case who := <-returned:
		t.Fatalf("%s returned while the checkpoint was still being written", who)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-returned
	<-returned
	// Compact ran its own compaction (and checkpoint) after the wait.
	if at := <-entered; at != 2 {
		t.Fatalf("second checkpoint at LSN %d, want 2", at)
	}
	if st := l.Stats(); st.Compactions != 2 || st.Compacting {
		t.Fatalf("final stats: %+v, want 2 compactions, none in flight", st)
	}
}

// TestLiveConcurrentReadersCompiledSwap hammers one Live with concurrent
// readers, writers, and compaction swaps; under -race it verifies the
// lock-free snapshot discipline. Every reader must observe some
// consistent snapshot: NeighborsOf and HasEdge must agree within one
// context acquisition.
func TestLiveConcurrentReadersCompiledSwap(t *testing.T) {
	g := randomGraph(50, 0.1, 6)
	l := NewLive(compileTrivial(g))
	l.SetRebuild(trivialRebuild)
	l.SetCompactionThreshold(16)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				view := l.View()
				c := view.AcquireCtx()
				v := int32(rng.Intn(50))
				for _, u := range c.NeighborsOf(v) {
					if !view.HasEdge(v, u) {
						errs <- errInconsistent(v, u)
						view.ReleaseCtx(c)
						return
					}
				}
				view.ReleaseCtx(c)
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		u, v := int32(rng.Intn(50)), int32(rng.Intn(50))
		if u == v {
			continue
		}
		if _, err := l.ApplyUpdates([]EdgeUpdate{{U: u, V: v, Delete: rng.Intn(2) == 0}}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	l.Quiesce()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.CompactionErr(); err != nil {
		t.Fatal(err)
	}
}

type inconsistencyError struct{ v, u int32 }

func (e inconsistencyError) Error() string {
	return "snapshot inconsistency: u listed as neighbor but HasEdge false"
}

func errInconsistent(v, u int32) error { return inconsistencyError{v: v, u: u} }

// TestLiveLockHoldStats pins the writer-mutex telemetry: applies
// accumulate hold time, the max tracks the worst batch, and — because
// validation was hoisted out of the critical section — a rejected batch
// never touches the lock at all.
func TestLiveLockHoldStats(t *testing.T) {
	g := randomGraph(40, 0.1, 9)
	l := NewLive(compileTrivial(g))

	if st := l.Stats(); st.LockHoldNs != 0 || st.LockHoldMaxNs != 0 {
		t.Fatalf("fresh Live reports hold time: %+v", st)
	}
	if _, err := l.ApplyUpdates([]EdgeUpdate{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.LockHoldNs <= 0 || st.LockHoldMaxNs <= 0 || st.LockHoldMaxNs > st.LockHoldNs {
		t.Fatalf("hold stats after one apply: total=%d max=%d", st.LockHoldNs, st.LockHoldMaxNs)
	}

	// Invalid batches are rejected before the lock: hold totals frozen.
	if _, err := l.ApplyUpdates([]EdgeUpdate{{U: 0, V: 99}}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if _, err := l.ApplyUpdates([]EdgeUpdate{{U: 3, V: 3}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if after := l.Stats(); after.LockHoldNs != st.LockHoldNs {
		t.Fatalf("rejected batch grew lock hold: %d -> %d", st.LockHoldNs, after.LockHoldNs)
	}

	if _, err := l.ApplyUpdates([]EdgeUpdate{{U: 4, V: 5}, {U: 6, V: 7}}); err != nil {
		t.Fatal(err)
	}
	if after := l.Stats(); after.LockHoldNs <= st.LockHoldNs {
		t.Fatalf("second apply did not grow lock hold: %d -> %d", st.LockHoldNs, after.LockHoldNs)
	}
}

// TestValidateUpdates covers the exported pre-lock validator.
func TestValidateUpdates(t *testing.T) {
	ok := []EdgeUpdate{{U: 0, V: 1}, {U: 2, V: 3, Delete: true}}
	if err := ValidateUpdates(ok, 4); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	for _, bad := range [][]EdgeUpdate{
		{{U: -1, V: 1}},
		{{U: 0, V: 4}},
		{{U: 2, V: 2}},
	} {
		if err := ValidateUpdates(bad, 4); err == nil {
			t.Fatalf("batch %v accepted", bad)
		}
	}
}
