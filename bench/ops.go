package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
)

// Operation lists. Every serving workload is a seed-determined,
// precomputed list of requests: URLs and bodies are built during set-up
// so the timed section only sends bytes. The generators below use
// nothing from the program under test, so the same seed names the same
// request stream whatever the program becomes.

type opKind uint8

const (
	opPoint     opKind = iota // GET /neighbors?v=
	opHasEdge                 // GET /hasedge?u=&v=
	opBatchBin                // POST /batch/neighbors, 64 ids, binary framing
	opBatchJSON               // POST /neighbors, 64 ids, JSON
	opUpdate                  // POST /update, 4 edges
	numOpKinds
)

var opKindNames = [numOpKinds]string{"point", "hasedge", "batch_bin", "batch_json", "update"}

// opClass groups kinds the way a client sees them: light reads, 64-id
// batch reads, writes.
type opClass uint8

const (
	classPoint opClass = iota
	classBatch
	classUpdate
	numClasses
)

func (k opKind) class() opClass {
	switch k {
	case opPoint, opHasEdge:
		return classPoint
	case opBatchBin, opBatchJSON:
		return classBatch
	}
	return classUpdate
}

const (
	batchIDs    = 64
	updateEdges = 4
)

// edgeUpdate is the benchmark's own record of one mutation (layers.go
// converts it where an in-process call needs the program's type).
type edgeUpdate struct {
	u, v int32
	del  bool
}

// op is one precomputed request plus what a trace needs to replay the
// same work below the HTTP surface.
type op struct {
	kind opKind
	path []byte // request target, without scheme://host
	body []byte // nil for GET
	ids  []int32
	u, v int32
	ups  []edgeUpdate
}

// opList stores a client's operations in four pointer-free arenas. A
// slice of op structs would be a hundred megabytes of pointers for the
// garbage collector to mark every third of a second of a serving run,
// which puts the generator's own heap into the server's tail latency;
// arenas cost the collector nothing.
type opList struct {
	recs []opRec
	text []byte // paths and bodies, back to back
	ids  []int32
	ups  []edgeUpdate
}

type opRec struct {
	kind                 opKind
	u, v                 int32
	path, body, ids, ups extent
}

type extent struct{ off, n uint32 }

func (l *opList) len() int { return len(l.recs) }

func (l *opList) add(o op) {
	r := opRec{kind: o.kind, u: o.u, v: o.v}
	r.path = extent{uint32(len(l.text)), uint32(len(o.path))}
	l.text = append(l.text, o.path...)
	r.body = extent{uint32(len(l.text)), uint32(len(o.body))}
	l.text = append(l.text, o.body...)
	r.ids = extent{uint32(len(l.ids)), uint32(len(o.ids))}
	l.ids = append(l.ids, o.ids...)
	r.ups = extent{uint32(len(l.ups)), uint32(len(o.ups))}
	l.ups = append(l.ups, o.ups...)
	l.recs = append(l.recs, r)
}

// at returns operation i as a view into the arenas.
func (l *opList) at(i int) op {
	r := &l.recs[i]
	o := op{kind: r.kind, u: r.u, v: r.v, path: l.text[r.path.off : r.path.off+r.path.n]}
	if r.body.n > 0 {
		o.body = l.text[r.body.off : r.body.off+r.body.n]
	}
	o.ids = l.ids[r.ids.off : r.ids.off+r.ids.n]
	o.ups = l.ups[r.ups.off : r.ups.off+r.ups.n]
	return o
}

func (o *op) method() string {
	if o.body == nil {
		return http.MethodGet
	}
	return http.MethodPost
}

// opMix weighs the kinds of one client's stream; weights sum to 1.
type opMix [numOpKinds]float64

// zipf samples ranks 0..n-1 with P(rank r) ∝ 1/(r+1)^s, and maps ranks
// to vertices through a seeded permutation so the hot set is not one
// community of the generator's id order.
type zipf struct {
	cdf  []float64
	perm []int32
}

func newZipf(n int, s float64, rng *rand.Rand) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]int32, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	for i, p := range rng.Perm(n) {
		z.perm[i] = int32(p)
	}
	return z
}

func (z *zipf) sample(rng *rand.Rand) int32 {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	if r >= len(z.perm) {
		r = len(z.perm) - 1
	}
	return z.perm[r]
}

// refGraph is the writer client's own model of the live graph: it
// chooses inserts among absent pairs and deletes among present edges,
// so every update is effective and |E| stays stationary, and after the
// run it is the truth the served graph is compared with.
type refGraph struct {
	n     int
	index map[uint64]int // edge key -> position in edges
	edges []uint64
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func newRefGraph(n int, edges [][2]int32) *refGraph {
	r := &refGraph{n: n, index: make(map[uint64]int, len(edges)), edges: make([]uint64, 0, len(edges))}
	for _, e := range edges {
		r.add(edgeKey(e[0], e[1]))
	}
	return r
}

func (r *refGraph) add(k uint64) {
	r.index[k] = len(r.edges)
	r.edges = append(r.edges, k)
}

func (r *refGraph) remove(k uint64) {
	i := r.index[k]
	last := r.edges[len(r.edges)-1]
	r.edges[i] = last
	r.index[last] = i
	r.edges = r.edges[:len(r.edges)-1]
	delete(r.index, k)
}

// nextUpdate draws one 4-edge batch: two inserts of absent pairs with
// uniform endpoints, two deletes of uniformly chosen present edges.
// Uniform, not zipfian: zipfian update endpoints turn the hot vertices
// into hubs within seconds (see README, sizing findings).
func (r *refGraph) nextUpdate(rng *rand.Rand) []edgeUpdate {
	ups := make([]edgeUpdate, 0, updateEdges)
	for len(ups) < updateEdges/2 {
		u, v := int32(rng.Intn(r.n)), int32(rng.Intn(r.n))
		k := edgeKey(u, v)
		if _, present := r.index[k]; u == v || present {
			continue
		}
		r.add(k)
		ups = append(ups, edgeUpdate{u: u, v: v})
	}
	for len(ups) < updateEdges {
		k := r.edges[rng.Intn(len(r.edges))]
		r.remove(k)
		ups = append(ups, edgeUpdate{u: int32(k >> 32), v: int32(uint32(k)), del: true})
	}
	return ups
}

// adjacency returns the reference graph's sorted neighbor lists.
func (r *refGraph) adjacency() [][]int32 {
	adj := make([][]int32, r.n)
	for _, k := range r.edges {
		u, v := int32(k>>32), int32(uint32(k))
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, a := range adj {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	}
	return adj
}

// opGen draws one client's operation stream.
type opGen struct {
	rng *rand.Rand
	z   *zipf
	mix opMix
	ref *refGraph // nil unless the mix has updates
}

func (g *opGen) next() op {
	x := g.rng.Float64()
	kind := opPoint
	for k, w := range g.mix {
		if x < w {
			kind = opKind(k)
			break
		}
		x -= w
	}
	return g.make(kind)
}

func (g *opGen) make(kind opKind) op {
	o := op{kind: kind}
	switch kind {
	case opPoint:
		o.v = g.z.sample(g.rng)
		o.path = strconv.AppendInt([]byte("/neighbors?v="), int64(o.v), 10)
	case opHasEdge:
		o.u, o.v = g.z.sample(g.rng), g.z.sample(g.rng)
		o.path = strconv.AppendInt([]byte("/hasedge?u="), int64(o.u), 10)
		o.path = strconv.AppendInt(append(o.path, "&v="...), int64(o.v), 10)
	case opBatchBin, opBatchJSON:
		o.ids = make([]int32, batchIDs)
		for i := range o.ids {
			o.ids[i] = g.z.sample(g.rng)
		}
		if kind == opBatchBin {
			o.path, o.body = []byte("/batch/neighbors"), encodeBinaryBatch(o.ids)
		} else {
			o.path, o.body = []byte("/neighbors"), encodeJSONBatch(o.ids)
		}
	case opUpdate:
		o.ups = g.ref.nextUpdate(g.rng)
		o.path, o.body = []byte("/update"), encodeJSONUpdate(o.ups)
	}
	return o
}

func (g *opGen) list(n int) *opList {
	l := &opList{recs: make([]opRec, 0, n)}
	for i := 0; i < n; i++ {
		l.add(g.next())
	}
	return l
}

// encodeBinaryBatch frames ids for POST /batch/neighbors: "NBRQ", a
// little-endian u32 count, then the ids as little-endian i32.
func encodeBinaryBatch(ids []int32) []byte {
	buf := make([]byte, 0, 8+4*len(ids))
	buf = append(buf, "NBRQ"...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, v := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// decodeBinaryBatch parses the matching response: "NBRS", a u32 count,
// then per id a u32 degree and that many i32 neighbors.
func decodeBinaryBatch(data []byte, want int) ([][]int32, bool) {
	if len(data) < 8 || string(data[:4]) != "NBRS" || int(binary.LittleEndian.Uint32(data[4:])) != want {
		return nil, false
	}
	out := make([][]int32, want)
	off := 8
	for i := range out {
		if off+4 > len(data) {
			return nil, false
		}
		deg := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if deg < 0 || off+4*deg > len(data) {
			return nil, false
		}
		nbrs := make([]int32, deg)
		for j := range nbrs {
			nbrs[j] = int32(binary.LittleEndian.Uint32(data[off+4*j:]))
		}
		off += 4 * deg
		out[i] = nbrs
	}
	return out, off == len(data)
}

func encodeJSONBatch(ids []int32) []byte {
	buf := append(make([]byte, 0, 8+7*len(ids)), `{"v":[`...)
	for i, v := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, "]}"...)
}

func encodeJSONUpdate(ups []edgeUpdate) []byte {
	buf := append(make([]byte, 0, 16+40*len(ups)), `{"updates":[`...)
	for i, e := range ups {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"u":`...)
		buf = strconv.AppendInt(buf, int64(e.u), 10)
		buf = append(buf, `,"v":`...)
		buf = strconv.AppendInt(buf, int64(e.v), 10)
		buf = append(buf, `,"delete":`...)
		buf = strconv.AppendBool(buf, e.del)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// opsDigest is the SHA-256 over every request's method, target and
// body: equal seeds must give equal digests, different seeds must not.
func opsDigest(l *opList) string {
	h := sha256.New()
	for i := 0; i < l.len(); i++ {
		o := l.at(i)
		h.Write([]byte(o.method()))
		h.Write([]byte{0})
		h.Write(o.path)
		h.Write([]byte{0})
		h.Write(o.body)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Seed derivation: -seed itself is the served graph's seed and the
// summarizer's; the build workloads' graphs and the op stream get seeds
// derived from it.

// buildGraphSeed names the i-th graph of a build workload's run.
func buildGraphSeed(seed int64, i int) int64 { return seed*64 + int64(i) }

func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 17))
}
