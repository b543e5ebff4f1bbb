package slug_test

// The representation oracle: one model-based differential test for every
// form a summary takes. A byte string decodes into a program of steps over
// a small generated graph. The program runs against the system and against
// a reference edge set that only update batches change, and every
// representation is compared with the reference, never with another one:
// a fresh or sharded build, an SLGA reload, an SLGC reload on the heap and
// by mmap, the live overlay (volatile, durable, or recovered from its WAL),
// and a split directory reopened by OpenSplit. The program runs twice, and
// every Save, SaveCompiled and Split must write the same bytes both times.

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/algos"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/pkg/slug"
)

// A program is two header bytes (vertex count, then graph family and
// seed) and then steps: an opcode byte and an argument byte, plus two
// bytes per update for an update step. Every byte string is a program:
// opcodes wrap, and a truncated step ends it.
const (
	opSummarize    = iota // arg: algorithm, T
	opShard               // arg: k ∈ {1,2,3}, algorithm, T
	opUpdate              // arg: durable bit, batch length 1..16
	opCompact             // Compact the live artifact
	opReopen              // Close + OpenUpdatable, making the artifact durable first
	opSave                // Save + Load (SLGA)
	opSaveCompiled        // SaveCompiled + Load and OpenMapped; arg: which goes on
	opSplit               // Split + OpenSplit; arg: format, k
	numOps
)

var opNames = [numOps]string{"summarize", "shard", "update", "compact", "reopen", "save", "save-compiled", "split"}

// Queries and PageRank are compared in full every fullCheckEvery steps
// and at the end; Decode after every step.
const fullCheckEvery = 3

type oracleRun struct {
	t    *testing.T
	prog []byte
	step string // the step running, for failure messages

	seed int64
	n    int
	ref  map[[2]int32]struct{} // {min, max}

	cur   slug.Artifact  // the static artifact, when up is nil
	up    slug.Updatable // the live artifact, when there is one
	upDir string         // up's WAL directory ("" = volatile)
	maps  []*slug.Mapped // closed when the run ends: up may sit on one

	writes [][]byte // every Save, SaveCompiled and Split, in order
	want   [][]byte // the first run's writes, on the second run
}

// runOracle runs prog twice; the second run must write the first's bytes.
func runOracle(t *testing.T, prog []byte) {
	first := (&oracleRun{t: t, prog: prog}).run()
	(&oracleRun{t: t, prog: prog, want: first}).run()
}

func (r *oracleRun) run() [][]byte {
	defer func() { // after a failure; Close is idempotent
		if r.up != nil {
			r.up.Close()
		}
		for _, m := range r.maps {
			m.Close()
		}
	}()
	r.start()
	for i := 0; len(r.prog) >= 2; i++ {
		op, arg := r.prog[0]%numOps, r.prog[1]
		r.prog = r.prog[2:]
		r.step = fmt.Sprintf("step %d (%s %d)", i, opNames[op], arg)
		r.apply(op, arg)
		r.checkDecode()
		if i%fullCheckEvery == fullCheckEvery-1 {
			r.checkQueries()
		}
	}
	r.step = "end"
	r.checkQueries()
	r.replace(nil)
	for _, m := range r.maps {
		if err := m.Close(); err != nil {
			r.fatalf("closing a mapping: %v", err)
		}
	}
	return r.writes
}

func (r *oracleRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s: %s", r.step, fmt.Sprintf(format, args...))
}

// start generates the graph the header names and summarizes it.
func (r *oracleRun) start() {
	var hdr [2]byte
	r.prog = r.prog[copy(hdr[:], r.prog):]
	n, family := 8+int(hdr[0])%57, hdr[1]%3
	r.seed = int64(hdr[1] / 3)
	var g *graph.Graph
	switch family {
	case 0:
		g = graph.ErdosRenyi(n, 2*n, r.seed)
	case 1:
		g = graph.BarabasiAlbert(n, 2, r.seed)
	default:
		size := 3 + int(r.seed)%4
		g = graph.Caveman(max(n/size, 2), size, 2, r.seed)
	}
	r.n, r.ref = g.NumNodes(), make(map[[2]int32]struct{})
	g.ForEachEdge(func(u, v int32) { r.ref[[2]int32{min(u, v), max(u, v)}] = struct{}{} })
	r.step = "start"
	r.cur = r.summarize("slugger", 2)
	r.checkDecode()
}

func (r *oracleRun) graph() *graph.Graph {
	return graph.FromEdges(r.n, slices.Collect(maps.Keys(r.ref)))
}

func (r *oracleRun) opts(iters int) []slug.Option {
	return []slug.Option{slug.WithIterations(iters), slug.WithSeed(r.seed)}
}

func (r *oracleRun) summarize(algo string, iters int) slug.Artifact {
	art, err := slug.Get(algo).Summarize(context.Background(), r.graph(), r.opts(iters)...)
	if err != nil {
		r.fatalf("Summarize(%s): %v", algo, err)
	}
	return art
}

func (r *oracleRun) shard(k int, algo string, iters int) *slug.Sharded {
	sh, err := slug.SummarizeSharded(context.Background(), r.graph(), k, append(r.opts(iters), slug.WithAlgorithm(algo))...)
	if err != nil {
		r.fatalf("SummarizeSharded(%d, %s): %v", k, algo, err)
	}
	if sh.Algorithm() != algo || sh.NumShards() != k || sh.NumNodes() != r.n {
		r.fatalf("sharded build is %s, %d shards, %d vertices", sh.Algorithm(), sh.NumShards(), sh.NumNodes())
	}
	return sh
}

// live returns the artifact the program holds: the live one if any.
func (r *oracleRun) live() slug.Artifact {
	if r.up != nil {
		return r.up
	}
	return r.cur
}

// replace makes a the current static artifact, closing any live one.
func (r *oracleRun) replace(a slug.Artifact) {
	if r.up != nil {
		if err := r.up.Close(); err != nil {
			r.fatalf("Close: %v", err)
		}
		r.up, r.upDir = nil, ""
	}
	r.cur = a
}

// liveOpts disable background compaction: only a step compacts, so the
// program alone decides the bytes.
func (r *oracleRun) liveOpts() []slug.Option {
	return append(r.opts(2), slug.WithCompactionThreshold(0))
}

// makeLive wraps the current static artifact in an updatable one.
func (r *oracleRun) makeLive(durable bool) {
	opts := r.liveOpts()
	if durable {
		r.upDir = r.t.TempDir()
		opts = append(opts, slug.WithDurability(r.upDir, slug.SyncNever()))
	}
	up, err := slug.NewUpdatable(r.cur, opts...)
	if err != nil {
		r.fatalf("NewUpdatable: %v", err)
	}
	r.up = up
}

func (r *oracleRun) apply(op, arg byte) {
	names, src := slug.Algorithms(), r.live()
	switch op {
	case opSummarize:
		r.replace(r.summarize(names[int(arg)%len(names)], 1+int(arg)/len(names)%5))
	case opShard:
		r.replace(r.shard(1+int(arg)%3, names[int(arg)/3%len(names)], 1+int(arg)/15%5))
	case opUpdate:
		r.update(arg)
	case opCompact:
		if r.up == nil {
			return
		}
		if err := r.up.Compact(); err != nil {
			r.fatalf("Compact: %v", err)
		}
		if l := r.up.View().Len(); l != 0 {
			r.fatalf("overlay holds %d corrections after Compact", l)
		}
	case opReopen:
		if r.up == nil {
			r.makeLive(true)
		}
		if r.upDir == "" {
			return // a volatile artifact has nothing to reopen
		}
		dir, cost := r.upDir, r.up.Cost()
		r.replace(nil)
		up, err := slug.OpenUpdatable(dir, slug.SyncNever(), r.liveOpts()...)
		if err != nil {
			r.fatalf("OpenUpdatable: %v", err)
		}
		r.up, r.upDir = up, dir
		if up.Cost() != cost {
			r.fatalf("recovered at cost %d, closed at %d", up.Cost(), cost)
		}
	case opSave:
		path := filepath.Join(r.t.TempDir(), "a.slga")
		if err := slug.Save(path, src); err != nil {
			r.fatalf("Save: %v", err)
		}
		r.record("Save", path)
		back, err := slug.Load(path)
		if _, ok := back.(*slug.Hierarchical); !ok {
			r.fatalf("Load(SLGA) returned %T, %v", back, err)
		}
		r.replace(r.reloaded("Load(SLGA)", src, back))
	case opSaveCompiled:
		path := filepath.Join(r.t.TempDir(), "a.slgc")
		if err := slug.SaveCompiled(path, src); err != nil {
			r.fatalf("SaveCompiled: %v", err)
		}
		r.record("SaveCompiled", path)
		forms := r.openCompiled(path)
		r.reloaded("Load(SLGC)", src, forms[0])
		r.replace(r.reloaded("OpenMapped", src, forms[arg&1]))
	case opSplit:
		r.split(arg)
	}
}

// update applies one batch, mutating the reference in batch order. An
// update whose second byte has its high bit set deletes a present edge
// (chosen by both bytes); any other inserts a pair.
func (r *oracleRun) update(arg byte) {
	if r.up == nil {
		r.makeLive(arg&1 == 1)
	}
	var ups []model.EdgeUpdate
	for range 1 + int(arg>>1)%16 {
		if len(r.prog) < 2 {
			break
		}
		a, b := int(r.prog[0]), int(r.prog[1])
		r.prog = r.prog[2:]
		if b&0x80 != 0 && len(r.ref) > 0 {
			edges := slices.SortedFunc(maps.Keys(r.ref), func(x, y [2]int32) int { return slices.Compare(x[:], y[:]) })
			e := edges[(a<<7|b&0x7f)%len(edges)]
			ups = append(ups, model.EdgeUpdate{U: e[1], V: e[0], Delete: true})
			delete(r.ref, e)
			continue
		}
		u, v := int32(a%r.n), int32(b%r.n)
		if u == v {
			v = (v + 1) % int32(r.n)
		}
		ups = append(ups, model.EdgeUpdate{U: u, V: v})
		r.ref[[2]int32{min(u, v), max(u, v)}] = struct{}{}
	}
	if _, err := r.up.ApplyUpdates(ups); err != nil {
		r.fatalf("ApplyUpdates(%v): %v", ups, err)
	}
}

// split writes the current sharded artifact, or a fresh sharded build of
// the graph, as a split directory and reopens it.
func (r *oracleRun) split(arg byte) {
	sh, ok := r.cur.(*slug.Sharded)
	if !ok || r.up != nil {
		sh = r.shard(1+int(arg>>1)%3, "slugger", 2)
	}
	dir, format := r.t.TempDir(), []string{"v1", "v2"}[arg&1]
	if _, err := sh.Split(dir, format); err != nil {
		r.fatalf("Split(%s): %v", format, err)
	}
	// The manifest holds the digest of every other file Split wrote.
	manifest := filepath.Join(dir, slug.ManifestFilename)
	r.record("Split", manifest)
	back, err := slug.OpenSplit(manifest)
	if err != nil {
		r.fatalf("OpenSplit: %v", err)
	}
	if back.Epoch() != sh.Epoch() {
		r.fatalf("OpenSplit: epoch %.12s, split at %.12s", back.Epoch(), sh.Epoch())
	}
	r.replace(r.reloaded("OpenSplit", sh, back))
}

// openCompiled loads an SLGC file on the heap and by mmap, in that order.
func (r *oracleRun) openCompiled(path string) [2]*slug.Mapped {
	a, err := slug.Load(path)
	heap, ok := a.(*slug.Mapped)
	if !ok || heap.Format() != "v2-heap" {
		r.fatalf("Load(SLGC) returned %T, %v", a, err)
	}
	m, err := slug.OpenMapped(path)
	if err != nil || m.MappedBytes() <= 0 {
		r.fatalf("OpenMapped: %v", err)
	}
	r.maps = append(r.maps, m)
	return [2]*slug.Mapped{heap, m}
}

// reloaded checks that got, read back from src's bytes, keeps src's
// algorithm and cost.
func (r *oracleRun) reloaded(what string, src, got slug.Artifact) slug.Artifact {
	if got.Algorithm() != src.Algorithm() || got.Cost() != src.Cost() {
		r.fatalf("%s: %s at cost %d, written from %s at cost %d", what, got.Algorithm(), got.Cost(), src.Algorithm(), src.Cost())
	}
	return got
}

// record logs a written file; the second run must repeat its bytes.
func (r *oracleRun) record(what, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		r.fatalf("%v", err)
	}
	if i := len(r.writes); r.want != nil && (i >= len(r.want) || !bytes.Equal(raw, r.want[i])) {
		r.fatalf("%s wrote other bytes than on the first run", what)
	}
	r.writes = append(r.writes, raw)
}

// checkDecode holds the artifact to the reference through Validate and
// Decode, which differ for a hierarchy and for a sharded build.
func (r *oracleRun) checkDecode() {
	g := r.graph()
	if err := slug.Validate(r.live(), g); err != nil {
		r.fatalf("Validate: %v", err)
	}
	if !graph.Equal(r.live().Decode(), g) {
		r.fatalf("Decode differs from the reference")
	}
}

// checkQueries compares NeighborsOf on every vertex, HasEdge on every
// pair and PageRank with the reference. A static artifact is checked as
// it is and reloaded from its v1 bytes, and from its v2 bytes on the
// heap and by mmap; the four must agree in size and in PageRank's bits.
func (r *oracleRun) checkQueries() {
	g := r.graph()
	want := algos.PageRank(algos.Raw(g), 0.85, 20)
	check := func(what string, src algos.NeighborSource, hasEdge func(u, v int32) bool) []float64 {
		for v := range int32(r.n) {
			if got := src.Neighbors(v); !slices.Equal(got, g.Neighbors(v)) {
				r.fatalf("%s: NeighborsOf(%d) = %v, want %v", what, v, got, g.Neighbors(v))
			}
			for u := range int32(r.n) {
				if hasEdge(u, v) != g.HasEdge(u, v) {
					r.fatalf("%s: HasEdge(%d,%d) = %v", what, u, v, hasEdge(u, v))
				}
			}
		}
		pr := algos.PageRank(src, 0.85, 20)
		for v := range want {
			if math.Abs(pr[v]-want[v]) > 1e-12 {
				r.fatalf("%s: PageRank[%d] = %g, raw graph %g", what, v, pr[v], want[v])
			}
		}
		return pr
	}
	if r.up != nil {
		view := r.up.View()
		src := algos.OnView(view)
		defer src.Release()
		check("live view", src, view.HasEdge)
		return
	}
	var v1 bytes.Buffer
	if _, err := r.cur.WriteTo(&v1); err != nil {
		r.fatalf("WriteTo: %v", err)
	}
	back, err := slug.ReadFrom(&v1)
	if err != nil {
		r.fatalf("ReadFrom: %v", err)
	}
	path := filepath.Join(r.t.TempDir(), "forms.slgc")
	if err := slug.SaveCompiled(path, r.cur); err != nil {
		r.fatalf("SaveCompiled: %v", err)
	}
	v2 := r.openCompiled(path)
	var first []float64
	var size [2]int
	for i, a := range []slug.Artifact{r.cur, back, v2[0], v2[1]} {
		what := []string{"artifact", "v1", "v2-heap", "v2-mapped"}[i]
		cs, err := a.Queryable()
		if err != nil {
			r.fatalf("%s: Queryable: %v", what, err)
		}
		src := algos.OnCompiled(cs)
		pr := check(what, src, cs.HasEdge)
		src.Release()
		if first == nil {
			first, size = pr, [2]int{cs.NumSupernodes(), cs.NumSuperedges()}
		} else if !slices.Equal(pr, first) || size != [2]int{cs.NumSupernodes(), cs.NumSuperedges()} {
			r.fatalf("%s: size or PageRank bits differ from the artifact's", what)
		}
	}
}

// oracleSeeds holds one program per step kind and the two chains that
// cross the most representations, each over about 32 vertices.
var oracleSeeds = map[string][]byte{
	// Every algorithm, reloaded from SLGC and then SLGA, under a full check.
	"summarize": {24, 0,
		opSummarize, 10, opSaveCompiled, 0, opSave, 0, opSummarize, 16, opSaveCompiled, 1, opSave, 0,
		opSummarize, 22, opSaveCompiled, 0, opSave, 0, opSummarize, 3, opSaveCompiled, 1, opSave, 0,
		opSummarize, 9, opSaveCompiled, 0, opSave, 0},
	"shard":         {24, 1, opShard, 0, opShard, 4, opShard, 38},
	"update":        {24, 2, opUpdate, 6, 1, 2, 5, 0x85, 9, 9, 7, 0x81, opUpdate, 0, 3, 4},
	"compact":       {24, 0, opUpdate, 4, 0, 0x80, 3, 5, 8, 9, opCompact, 0},
	"reopen":        {24, 1, opUpdate, 5, 1, 0x80, 4, 7, 2, 0x83, opReopen, 0, opUpdate, 0, 6, 0x86},
	"save":          {24, 2, opSummarize, 3, opSave, 0, opUpdate, 2, 1, 0x81, 2, 3, opSave, 0},
	"save-compiled": {24, 0, opSaveCompiled, 0, opSummarize, 4, opSaveCompiled, 1},
	"split":         {24, 1, opSplit, 0, opSplit, 3, opShard, 2, opSplit, 5},
	// update → compact → SaveCompiled → OpenMapped → update
	"chain-compact-mmap": {24, 2, opUpdate, 9, 1, 0x81, 2, 0x82, 3, 3, 4, 0x90, 5, 6, opCompact, 0, opSaveCompiled, 1, opUpdate, 3, 7, 0x87, 8, 9},
	// shard → Split → OpenSplit → update
	"chain-split-update": {24, 0, opShard, 2, opSplit, 1, opUpdate, 7, 1, 0x81, 2, 7, 3, 0x83, 4, 5},
}

// FuzzOracle runs programs against the reference: the seeds and
// testdata/fuzz/FuzzOracle in every go test, new ones under -fuzz, which
// minimizes a failing program.
func FuzzOracle(f *testing.F) {
	for _, name := range slices.Sorted(maps.Keys(oracleSeeds)) {
		f.Add(oracleSeeds[name])
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 128 {
			t.Skip("program too long")
		}
		runOracle(t, program)
	})
}

// TestOracle runs a fixed set of random programs and prints a failing
// one as a corpus file for testdata/fuzz/FuzzOracle.
func TestOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 24 {
		prog := make([]byte, 2+rng.Intn(40))
		rng.Read(prog)
		if !t.Run(fmt.Sprint(i), func(t *testing.T) { runOracle(t, prog) }) {
			t.Logf("failing program, as a corpus file:\ngo test fuzz v1\n[]byte(%q)", prog)
		}
	}
}
