package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"

	"repro/internal/model"
)

// This file implements the pruning step of Sect. III-B4 / Algorithm 3.
// Pruning operates on a dedicated mutable view of the model (per-pair
// net counts plus the hierarchy forest) because, unlike merging, it can
// splice arbitrary nodes out of the middle of trees. All three substeps
// preserve the represented graph exactly.

// PruneSnapshot captures the model statistics after a pruning substep
// (the Table IV metrics).
type PruneSnapshot struct {
	Cost         int64
	MaxHeight    int
	AvgLeafDepth float64
}

type pruner struct {
	st       *state
	parent   []int32
	children [][]int32
	alive    []bool
	adj      [][]pnet // per supernode, its nonzero nets ascending by partner
	totalPN  int64    // sum over pairs of |net|
	totalH   int64    // alive supernodes with a parent
	rng      *rand.Rand
	items    []pairItem // step3's scratch, kept across rounds
	spare    []pairItem // radixSort's second buffer, kept likewise
	digits   []int32    // radixSort's counters
}

// pairItem is one nonzero net, or one subedge of the input graph, between
// two trees, keyed by the trees' root pair.
type pairItem struct {
	key  uint64 // the root pair, the smaller root in the high word
	a, b int32
	net  int32 // 0: a subedge of the input graph
}

// pnet is the net signed-edge count between a supernode and partner b.
type pnet struct {
	b, net int32
}

func newPruner(st *state) *pruner {
	total := int(st.next)
	p := &pruner{
		st:       st,
		parent:   append([]int32(nil), st.parent...),
		children: make([][]int32, total),
		alive:    make([]bool, total),
		adj:      make([][]pnet, total),
		rng:      st.rng,
		digits:   make([]int32, 1<<16),
	}
	for id := 0; id < total; id++ {
		if st.parent[id] == unborn {
			// Reserved-but-unallocated id: not a supernode.
			p.parent[id] = -1
			continue
		}
		p.alive[id] = true
		if pr := st.parent[id]; pr >= 0 {
			p.children[pr] = append(p.children[pr], int32(id))
			p.totalH++
		}
	}
	// Gather every signed edge at both endpoints (a loop once), then sort
	// each list and fold repeated pairs into their net.
	add := func(es []sedge) {
		for _, e := range es {
			p.adj[e.a] = append(p.adj[e.a], pnet{e.b, int32(e.sign)})
			if e.a != e.b {
				p.adj[e.b] = append(p.adj[e.b], pnet{e.a, int32(e.sign)})
			}
		}
	}
	for _, r := range st.roots() {
		add(st.within[r])
		for _, nb := range st.nbrs[r] {
			if nb.c > r {
				add(st.ents[nb.e].edges) // each entry shared by both endpoints; add once
			}
		}
	}
	for a, l := range p.adj {
		slices.SortFunc(l, func(x, y pnet) int { return cmp.Compare(x.b, y.b) })
		out := l[:0]
		for _, x := range l {
			if k := len(out) - 1; k >= 0 && out[k].b == x.b {
				out[k].net += x.net
			} else {
				out = append(out, x)
			}
		}
		l = slices.DeleteFunc(out, func(x pnet) bool { return x.net == 0 })
		p.adj[a] = l
		for _, x := range l {
			if x.b >= int32(a) {
				p.totalPN += int64(absInt32(x.net))
			}
		}
	}
	return p
}

// find returns the position of partner b in a's list, or where it
// would be inserted, and whether it is there.
func (p *pruner) find(a, b int32) (int, bool) {
	return slices.BinarySearchFunc(p.adj[a], b, func(x pnet, b int32) int { return cmp.Compare(x.b, b) })
}

// addNet adjusts the net signed-edge count between supernodes a and b.
func (p *pruner) addNet(a, b int32, delta int32) {
	if delta == 0 {
		return
	}
	old := p.bump(a, b, delta)
	if a != b {
		p.bump(b, a, delta)
	}
	p.totalPN += int64(absInt32(old+delta)) - int64(absInt32(old))
}

// bump adds delta to a's net towards b in a's list alone, returning the
// old net.
func (p *pruner) bump(a, b, delta int32) int32 {
	i, ok := p.find(a, b)
	l := p.adj[a]
	switch {
	case !ok:
		p.adj[a] = slices.Insert(l, i, pnet{b, delta})
		return 0
	case l[i].net+delta == 0:
		p.adj[a] = slices.Delete(l, i, i+1)
		return -delta
	}
	l[i].net += delta
	return l[i].net - delta
}

func absInt32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// cost returns |P+| + |P-| + |H| of the current pruned model.
func (p *pruner) cost() int64 { return p.totalPN + p.totalH }

// snapshot computes the Table IV metrics.
func (p *pruner) snapshot() PruneSnapshot {
	maxH := 0
	sum := 0
	for v := int32(0); v < p.st.n; v++ {
		d := 0
		node := v
		for p.parent[node] >= 0 {
			node = p.parent[node]
			d++
		}
		sum += d
		if d > maxH {
			maxH = d
		}
	}
	return PruneSnapshot{
		Cost:         p.cost(),
		MaxHeight:    maxH,
		AvgLeafDepth: float64(sum) / float64(maxInt(1, int(p.st.n))),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// detach removes supernode a from the forest, splicing its children to
// a's parent (or making them roots), and updates h-edge accounting.
// a's incident p/n edges must already be gone or be handled by the
// caller.
func (p *pruner) detach(a int32) []int32 {
	kids := p.children[a]
	pr := p.parent[a]
	if pr >= 0 {
		// a's own h-edge disappears; children's h-edges are redirected.
		p.totalH--
		p.children[pr] = removeChild(p.children[pr], a)
		for _, c := range kids {
			p.parent[c] = pr
			p.children[pr] = append(p.children[pr], c)
		}
	} else {
		// children become roots.
		p.totalH -= int64(len(kids))
		for _, c := range kids {
			p.parent[c] = -1
		}
	}
	p.alive[a] = false
	p.children[a] = nil
	p.parent[a] = -1
	return kids
}

func removeChild(kids []int32, a int32) []int32 {
	for i, c := range kids {
		if c == a {
			kids[i] = kids[len(kids)-1]
			return kids[:len(kids)-1]
		}
	}
	return kids
}

// step1 removes every non-leaf supernode with no incident p/n-edge
// (Algorithm 3, lines 2-12). Each removal saves one h-edge (or more for
// roots).
func (p *pruner) step1() bool {
	changed := false
	queue := make([]int32, 0, p.st.next)
	for id := int32(0); id < p.st.next; id++ {
		if p.alive[id] {
			queue = append(queue, id)
		}
	}
	p.rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !p.alive[a] || len(p.children[a]) == 0 || len(p.adj[a]) != 0 {
			continue
		}
		kids := p.detach(a)
		queue = append(queue, kids...)
		changed = true
	}
	return changed
}

// step2 removes every non-leaf root with exactly one incident non-loop
// p/n-edge, pushing the edge down to its children with type flips
// (Algorithm 3, lines 13-27).
func (p *pruner) step2() bool {
	changed := false
	var queue []int32
	for id := int32(0); id < p.st.next; id++ {
		if p.alive[id] && p.parent[id] < 0 {
			queue = append(queue, id)
		}
	}
	p.rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !p.alive[a] || p.parent[a] >= 0 || len(p.children[a]) == 0 || len(p.adj[a]) != 1 {
			continue
		}
		b, net := p.adj[a][0].b, p.adj[a][0].net
		if b == a || absInt32(net) != 1 {
			continue // self-loop or multi-edge: not eligible
		}
		p.addNet(a, b, -net)
		kids := p.detach(a)
		for _, c := range kids {
			p.addNet(c, b, net)
		}
		queue = append(queue, kids...)
		changed = true
	}
	return changed
}

// step3 compares, for every adjacent root pair, the current encoding of
// the edges between their trees against the optimal flat-model encoding
// min(|E_AB|, 1 + |T_AB| - |E_AB|), and adopts the flat encoding when
// strictly cheaper (the previous model is a special case of the
// hierarchical one, Sect. II-B).
func (p *pruner) step3() bool {
	rootMemo := make([]int32, p.st.next)
	for i := range rootMemo {
		rootMemo[i] = -1
	}
	var rootOfSuper func(x int32) int32
	rootOfSuper = func(x int32) int32 {
		if rootMemo[x] >= 0 {
			return rootMemo[x]
		}
		r := x
		if p.parent[x] >= 0 {
			r = rootOfSuper(p.parent[x])
		}
		rootMemo[x] = r
		return r
	}

	// One item per nonzero net and per subedge between two trees;
	// sorting groups each root pair's items together. Each pair's
	// decision touches only the nets between its own trees, so the pairs
	// and their items are settled in any order. There are at most totalPN
	// nets and |E| subedges, so the buffers never grow.
	st := p.st
	if need := int(p.totalPN + st.g.NumEdges()); cap(p.items) < need {
		p.items = make([]pairItem, 0, need)
		p.spare = make([]pairItem, 0, need)
	}
	items := p.items[:0]
	key := func(x, y int32) uint64 {
		if x > y {
			x, y = y, x
		}
		return uint64(x)<<32 | uint64(uint32(y))
	}
	for a := int32(0); a < p.st.next; a++ {
		for _, x := range p.adj[a] {
			if x.b < a {
				continue
			}
			if ra, rb := rootOfSuper(a), rootOfSuper(x.b); ra != rb {
				// Within-tree encodings are not touched by step 3.
				items = append(items, pairItem{key(ra, rb), a, x.b, x.net})
			}
		}
	}
	for v := int32(0); v < st.n; v++ {
		rv := rootOfSuper(v)
		for _, w := range st.g.Neighbors(v) {
			if rw := rootOfSuper(w); w > v && rv != rw {
				items = append(items, pairItem{key(rv, rw), v, w, 0})
			}
		}
	}
	items, spare := radixSort(items, p.spare[:len(items)], p.digits)
	p.items, p.spare = items[:0], spare[:0]

	changed := false
	ctx := st.getCtx() // vertex marks for addMissingPairs
	defer st.putCtx(ctx)
	for lo := 0; lo < len(items); {
		k := items[lo].key
		hi := lo
		var cur, gt int64
		for ; hi < len(items) && items[hi].key == k; hi++ {
			if net := items[hi].net; net != 0 {
				cur += int64(absInt32(net))
			} else {
				gt++
			}
		}
		group := items[lo:hi]
		lo = hi
		// The optimal flat encoding of the pair: list its subedges, or one
		// superedge and its non-edges carved out.
		ra, rb := int32(k>>32), int32(uint32(k))
		t := int64(st.size[ra]) * int64(st.size[rb])
		flat, superedge := gt, false
		if 1+t-gt < flat {
			flat, superedge = 1+t-gt, true
		}
		if flat >= cur {
			continue
		}
		for _, it := range group {
			if it.net != 0 {
				p.addNet(it.a, it.b, -it.net)
			}
		}
		if superedge {
			p.addNet(ra, rb, 1)
			p.addMissingPairs(ctx, ra, rb)
		} else {
			for _, it := range group {
				if it.net == 0 {
					p.addNet(it.a, it.b, 1)
				}
			}
		}
		changed = true
	}
	return changed
}

// radixSort sorts items by key with LSD passes over 16-bit digits, skipping
// the digits every key shares, into items or tmp (of the same length),
// returning the sorted one first; count holds 2^16 counters.
func radixSort(items, tmp []pairItem, count []int32) ([]pairItem, []pairItem) {
	var diff uint64
	for _, it := range items {
		diff |= it.key ^ items[0].key
	}
	for shift := 0; shift < 64; shift += 16 {
		if diff>>shift&0xFFFF == 0 {
			continue
		}
		clear(count)
		for _, it := range items {
			count[it.key>>shift&0xFFFF]++
		}
		var sum int32
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, it := range items {
			d := it.key >> shift & 0xFFFF
			tmp[count[d]] = it
			count[d]++
		}
		items, tmp = tmp, items
	}
	return items, tmp
}

// addMissingPairs adds an n-edge for every non-adjacent vertex pair
// between the trees of roots ra and rb, using ctx's vertex marks.
func (p *pruner) addMissingPairs(ctx *gctx, ra, rb int32) {
	st := p.st
	for _, u := range st.verts[ra] {
		ep := ctx.nextEpoch()
		for _, w := range st.g.Neighbors(u) {
			ctx.mark[w] = ep
		}
		for _, w := range st.verts[rb] {
			if ctx.mark[w] != ep {
				p.addNet(u, w, -1)
			}
		}
	}
}

// run executes the pruning substeps for the given number of rounds,
// invoking hook (if non-nil) with the round, substep index and a
// snapshot after every substep. Substep 0 of round 1 is the pre-pruning
// state. It stops early when a full round changes nothing, and returns
// ctx.Err() (checked before every substep) when ctx is cancelled.
func (p *pruner) run(ctx context.Context, rounds int, hook func(round, substep int, snap PruneSnapshot)) error {
	if hook != nil {
		hook(1, 0, p.snapshot())
	}
	for round := 1; round <= rounds; round++ {
		changed := false
		for stepIdx, step := range []func() bool{p.step1, p.step2, p.step3} {
			if err := ctx.Err(); err != nil {
				return err
			}
			if step() {
				changed = true
			}
			if hook != nil {
				hook(round, stepIdx+1, p.snapshot())
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// emit converts the pruned state into an immutable model.Summary,
// renumbering surviving internal supernodes densely after the leaves.
func (p *pruner) emit() *model.Summary {
	st := p.st
	remap := make([]int32, st.next)
	for i := range remap {
		remap[i] = -1
	}
	nextID := st.n
	for id := int32(0); id < st.next; id++ {
		if !p.alive[id] {
			continue
		}
		if id < st.n {
			remap[id] = id
		} else {
			remap[id] = nextID
			nextID++
		}
	}
	parent := make([]int32, nextID)
	for id := int32(0); id < st.next; id++ {
		if !p.alive[id] {
			continue
		}
		if pr := p.parent[id]; pr >= 0 {
			parent[remap[id]] = remap[pr]
		} else {
			parent[remap[id]] = -1
		}
	}
	var edges []model.Edge
	for a := int32(0); a < st.next; a++ {
		// Partners in ascending order, as the lists keep them: the emitted
		// edge list — and hence serialized artifacts — is a function of the
		// nets alone.
		for _, x := range p.adj[a] {
			if x.b < a {
				continue
			}
			sign := int8(1)
			if x.net < 0 {
				sign = -1
			}
			for k := int32(0); k < absInt32(x.net); k++ {
				edges = append(edges, model.Edge{A: remap[a], B: remap[x.b], Sign: sign})
			}
		}
	}
	return model.New(int(st.n), parent, edges)
}
