package model

// This file implements incremental maintenance of a served summary: a
// DeltaOverlay absorbs edge insertions and deletions as positive and
// negative correction entries on top of an immutable CompiledSummary,
// so the represented graph can change without recompiling. Queries
// consult the overlay first and fall through to the CSR engine, and a
// Live container publishes overlay snapshots through an atomic pointer,
// keeping readers lock-free while writers apply update batches and a
// background compaction re-summarizes and swaps in a fresh base.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// EdgeUpdate is one edge mutation of the represented graph: an
// insertion (Delete false) or a deletion (Delete true) of the
// undirected edge {U, V}.
type EdgeUpdate struct {
	U, V   int32
	Delete bool
}

// DeltaOverlay is an immutable snapshot of edge corrections relative to
// a compiled base summary: +1 entries are edges present in the live
// graph but absent from the base, -1 entries the reverse. A nil page
// index means the overlay represents exactly the base. Snapshots are
// safe for any number of concurrent readers; Apply returns a new
// snapshot and never mutates its receiver.
type DeltaOverlay struct {
	cs *CompiledSummary
	// pages[v>>pageBits][v&pageMask] lists v's corrections sorted by u:
	// entries exist only where the live graph differs from the base,
	// symmetrically for both endpoints. Pages and lists are shared
	// between snapshots and never written after publication; nil when
	// the overlay is empty.
	pages   []*page
	plus    int    // inserted pairs
	minus   int    // deleted pairs
	version uint64 // bumped on every published snapshot

	// corrections returns the entries flattened for MulAdj (flatten),
	// built on the first call; set by the constructors.
	corrections func() []correction
}

const (
	pageBits = 7
	pageMask = 1<<pageBits - 1
)

// page holds the correction lists of 1<<pageBits consecutive vertices,
// one pointer each (nil: no corrections), so cloning a page copies a
// kilobyte whatever the lists hold.
type page [1 << pageBits]*[]entry

// entry is one correction of a vertex's list: the pair {v, u} is
// inserted over the base (s = +1) or masked out of it (s = -1).
type entry struct {
	u int32
	s int8
}

// correction is one directed overlay entry: dst[v] gains x[u], or
// loses x[^u] when u < 0 (a deletion; the sign is folded into the id
// as in MulAdj's plan).
type correction struct {
	v, u int32
}

// NewOverlay returns the empty overlay over cs: it represents exactly
// the base's graph.
func NewOverlay(cs *CompiledSummary) *DeltaOverlay {
	o := &DeltaOverlay{cs: cs}
	o.corrections = sync.OnceValue(o.flatten)
	return o
}

// Base returns the compiled summary the overlay corrects.
func (o *DeltaOverlay) Base() *CompiledSummary { return o.cs }

// NumNodes returns the number of leaf vertices (fixed across updates:
// the overlay mutates edges, not the vertex set).
func (o *DeltaOverlay) NumNodes() int { return o.cs.n }

// Insertions returns the number of edges present over the base.
func (o *DeltaOverlay) Insertions() int { return o.plus }

// Deletions returns the number of base edges masked out.
func (o *DeltaOverlay) Deletions() int { return o.minus }

// Len returns the total number of correction entries (pairs where the
// live graph differs from the base).
func (o *DeltaOverlay) Len() int { return o.plus + o.minus }

// Version returns the snapshot's monotonically increasing version.
func (o *DeltaOverlay) Version() uint64 { return o.version }

// list returns v's corrections, sorted by u (nil when it has none).
func (o *DeltaOverlay) list(v int32) []entry {
	if o.pages == nil {
		return nil
	}
	if p := o.pages[v>>pageBits]; p != nil && p[v&pageMask] != nil {
		return *p[v&pageMask]
	}
	return nil
}

// sign returns the correction for the pair {v, u}: +1, -1, or 0 when
// the live graph agrees with the base.
func (o *DeltaOverlay) sign(v, u int32) int8 {
	l := o.list(v)
	if i, ok := slices.BinarySearchFunc(l, u, byU); ok {
		return l[i].s
	}
	return 0
}

func byU(e entry, u int32) int { return cmp.Compare(e.u, u) }

// ValidateUpdates checks a batch against a vertex count: out-of-range
// endpoints and self-loops are rejected. Exposed so writers can
// validate before taking any serialization lock (validity depends only
// on n, which is fixed for the lifetime of a summary).
func ValidateUpdates(ups []EdgeUpdate, numNodes int) error {
	n := int32(numNodes)
	for _, up := range ups {
		if up.U < 0 || up.U >= n || up.V < 0 || up.V >= n {
			return fmt.Errorf("model: update endpoint (%d,%d) out of range [0,%d)", up.U, up.V, n)
		}
		if up.U == up.V {
			return fmt.Errorf("model: self-loop update on vertex %d", up.U)
		}
	}
	return nil
}

// Apply returns a new overlay with ups applied on top of o, together
// with the number of effective updates (inserting a present edge or
// deleting an absent one is a no-op, so replaying a stream is
// idempotent). The receiver is unchanged. Out-of-range endpoints and
// self-loops are rejected before anything is applied.
func (o *DeltaOverlay) Apply(ups []EdgeUpdate) (*DeltaOverlay, int, error) {
	if err := ValidateUpdates(ups, o.cs.n); err != nil {
		return nil, 0, err
	}
	nxt, applied := o.applyValidated(ups)
	return nxt, applied, nil
}

// arc is one sign change of a batch, seen from endpoint v: the pair
// {v, u} takes correction s (0: the entry goes).
type arc struct {
	v int32
	entry
}

// applyValidated applies a pre-validated batch, returning the new
// snapshot and the number of effective updates; see Apply.
//
// Copy-on-write by structural sharing: each pair the batch names is
// resolved once, replaying its updates in batch order, into the sign
// changes it makes; those are sorted by (v, u), so every touched list
// is rebuilt exactly once by a merge and pages are cloned in ascending
// order, each once. A batch costs the page index (n/128 pointers) plus
// the pages and lists it touches; the rest is shared with o.
func (o *DeltaOverlay) applyValidated(ups []EdgeUpdate) (*DeltaOverlay, int) {
	nxt := &DeltaOverlay{cs: o.cs, pages: o.pages, plus: o.plus, minus: o.minus, version: o.version + 1}
	nxt.corrections = sync.OnceValue(nxt.flatten)
	pairs := make([]EdgeUpdate, len(ups))
	for i, up := range ups {
		pairs[i] = EdgeUpdate{U: min(up.U, up.V), V: max(up.U, up.V), Delete: up.Delete}
	}
	slices.SortStableFunc(pairs, func(a, b EdgeUpdate) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	qc := o.cs.AcquireCtx()
	defer o.cs.ReleaseCtx(qc)
	applied := 0
	arcs := make([]arc, 0, 2*len(pairs))
	for i := 0; i < len(pairs); {
		u, v := pairs[i].U, pairs[i].V
		s := o.sign(u, v)
		inBase := s < 0 || s == 0 && qc.HasEdge(u, v)
		present := s > 0 || s == 0 && inBase
		for ; i < len(pairs) && pairs[i].U == u && pairs[i].V == v; i++ {
			if pairs[i].Delete == present {
				present = !present
				applied++
			}
		}
		var ns int8
		switch {
		case present == inBase:
		case present:
			ns = 1 // add over the base
		default:
			ns = -1 // mask a base edge
		}
		if ns != s {
			switch s {
			case 1:
				nxt.plus--
			case -1:
				nxt.minus--
			}
			switch ns {
			case 1:
				nxt.plus++
			case -1:
				nxt.minus++
			}
			arcs = append(arcs, arc{u, entry{v, ns}}, arc{v, entry{u, ns}})
		}
	}
	if len(arcs) == 0 {
		return nxt, applied
	}
	slices.SortFunc(arcs, func(a, b arc) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.u, b.u)
	})
	if o.pages == nil {
		nxt.pages = make([]*page, (o.cs.n+pageMask)>>pageBits)
	} else {
		nxt.pages = slices.Clone(o.pages)
	}
	lastPage := int32(-1)
	for i := 0; i < len(arcs); {
		v, end := arcs[i].v, i
		for end < len(arcs) && arcs[end].v == v {
			end++
		}
		old := o.list(v)
		merged := make([]entry, 0, len(old)+end-i)
		k := 0
		for _, a := range arcs[i:end] {
			j, found := slices.BinarySearchFunc(old[k:], a.u, byU)
			merged = append(merged, old[k:k+j]...)
			if k += j; found {
				k++ // replaced or dropped
			}
			if a.s != 0 {
				merged = append(merged, a.entry)
			}
		}
		merged = append(merged, old[k:]...)
		i = end
		if pi := v >> pageBits; pi != lastPage {
			p := new(page)
			if op := nxt.pages[pi]; op != nil {
				*p = *op
			}
			nxt.pages[pi], lastPage = p, pi
		}
		var slot *[]entry
		if len(merged) > 0 {
			slot = &merged
		}
		nxt.pages[v>>pageBits][v&pageMask] = slot
	}
	if nxt.Len() == 0 {
		nxt.pages = nil // the empty overlay reads as the bare base
	}
	return nxt, applied
}

// OverlayCtx is the per-goroutine query context for an overlay
// snapshot: a base QueryCtx plus a merge buffer. Like QueryCtx it is
// not safe for concurrent use; acquire one per goroutine or traversal.
type OverlayCtx struct {
	o   *DeltaOverlay
	qc  *QueryCtx
	buf []int32
}

// AcquireCtx borrows a query context for this snapshot (the base
// context comes from the compiled summary's pool). Release it with
// ReleaseCtx.
func (o *DeltaOverlay) AcquireCtx() *OverlayCtx {
	return &OverlayCtx{o: o, qc: o.cs.AcquireCtx()}
}

// ReleaseCtx returns the context's base resources to the pool. The
// context must not be used afterwards.
func (o *DeltaOverlay) ReleaseCtx(c *OverlayCtx) {
	if c.qc != nil {
		o.cs.ReleaseCtx(c.qc)
		c.qc = nil
	}
}

// NeighborsOf returns the sorted neighbors of leaf v in the live graph:
// the base decompression (Algorithm 4) merged with v's corrections,
// dropping the -1 entries and splicing in the +1 entries. The result
// aliases the context's buffer and is valid until the next call; copy
// it to retain it.
func (c *OverlayCtx) NeighborsOf(v int32) []int32 {
	base := c.qc.NeighborsOf(v)
	d := c.o.list(v)
	if len(d) == 0 {
		return base
	}
	buf, i := c.buf[:0], 0
	for _, e := range d {
		for i < len(base) && base[i] < e.u {
			buf = append(buf, base[i])
			i++
		}
		if e.s > 0 {
			buf = append(buf, e.u)
		} else if i < len(base) && base[i] == e.u {
			i++
		}
	}
	c.buf = append(buf, base[i:]...)
	return c.buf
}

// HasEdge is the context-free convenience form. Safe for concurrent
// callers.
func (o *DeltaOverlay) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	if s := o.sign(u, v); s != 0 {
		return s > 0
	}
	return o.cs.HasEdge(u, v)
}

// NeighborsOf is the context-free convenience form: it returns a
// freshly allocated copy, safe to retain. Safe for concurrent callers.
func (o *DeltaOverlay) NeighborsOf(v int32) []int32 {
	c := o.AcquireCtx()
	out := slices.Clone(c.NeighborsOf(v))
	o.ReleaseCtx(c)
	return out
}

// NeighborsBatch decompresses the live neighborhoods of vs in order
// through one context, invoking visit with each vertex and its sorted
// neighbors. The nbrs slice is only valid during the callback.
func (o *DeltaOverlay) NeighborsBatch(vs []int32, visit func(v int32, nbrs []int32)) {
	c := o.AcquireCtx()
	defer o.ReleaseCtx(c)
	for _, v := range vs {
		visit(v, c.NeighborsOf(v))
	}
}

// MulAdj computes dst = A·x for the live graph's adjacency matrix: the
// base's product (CompiledSummary.MulAdj, whose false it passes on)
// plus the overlay's ±1 corrections. Safe for concurrent callers.
func (o *DeltaOverlay) MulAdj(dst, x []float64) bool {
	if !o.cs.MulAdj(dst, x) {
		return false
	}
	for _, c := range o.corrections() {
		if c.u >= 0 {
			dst[c.v] += x[c.u]
		} else {
			dst[c.v] -= x[^c.u]
		}
	}
	return true
}

// Degrees writes the live graph's degree vector to dst: the base's
// (CompiledSummary.Degrees, whose false it passes on) plus the
// overlay's ±1 corrections in MulAdj's order, so its bits are those of
// MulAdj on the all-ones vector. Safe for concurrent callers.
func (o *DeltaOverlay) Degrees(dst []float64) bool {
	if !o.cs.Degrees(dst) {
		return false
	}
	for _, c := range o.corrections() {
		if c.u >= 0 {
			dst[c.v]++
		} else {
			dst[c.v]--
		}
	}
	return true
}

// flatten lists the entries in (v, u) order: every dst[v] then takes
// its corrections in ascending u, a fixed order, so MulAdj does not
// depend on the batches that built the overlay. The empty overlay has
// none and skips the walk over the vertices.
func (o *DeltaOverlay) flatten() []correction {
	if o.pages == nil {
		return nil
	}
	flat := make([]correction, 0, 2*o.Len())
	for v := int32(0); v < int32(o.cs.n); v++ {
		for _, e := range o.list(v) {
			flat = append(flat, correction{v, e.u ^ int32(e.s>>1)}) // ^u when s = -1
		}
	}
	return flat
}

// Validate checks that the snapshot represents exactly g: every pair
// count of the base is in {0,1} (the restriction SLUGGER maintains,
// Sect. III-B3) and stays there with the overlay's correction, and
// every vertex's live neighbours are g's. It names the first bad pair.
func (o *DeltaOverlay) Validate(g *graph.Graph) error {
	if g.NumNodes() != o.cs.n {
		return fmt.Errorf("model: vertex count %d != graph %d", o.cs.n, g.NumNodes())
	}
	ctx := o.cs.AcquireCtx()
	defer o.cs.ReleaseCtx(ctx)
	for v := int32(0); v < int32(o.cs.n); v++ {
		ctx.accumulate(v)
		ones := 0
		for _, u := range ctx.touched {
			c := ctx.cnt[u]
			if u == v || c == 0 {
				continue
			}
			if c != 1 {
				return fmt.Errorf("model: pair (%d,%d) has net count %d, outside {0,1}", v, u, c)
			}
			ones++
		}
		// Fold v's corrections in: the counts become the live graph's.
		for _, e := range o.list(v) {
			ctx.count(e.u, int32(e.s), ctx.cntEpoch)
			if c := ctx.cnt[e.u]; c != 0 && c != 1 {
				return fmt.Errorf("model: pair (%d,%d) has net count %d with its overlay correction, outside {0,1}", v, e.u, c)
			}
			ones += int(e.s)
		}
		// Every edge of g at v has count 1, so the pairs with count 1
		// are exactly g's edges at v iff there are as many of them.
		nbrs := g.Neighbors(v)
		for _, u := range nbrs {
			if c := ctx.countOf(u); c != 1 {
				return fmt.Errorf("model: edge (%d,%d) has net count %d, want 1", v, u, c)
			}
		}
		if ones != len(nbrs) {
			for _, u := range ctx.touched {
				if u != v && ctx.cnt[u] == 1 && !g.HasEdge(v, u) {
					return fmt.Errorf("model: pair (%d,%d) decoded true, graph has false", v, u)
				}
			}
		}
	}
	return nil
}

// Decode materializes the live graph (base graph with all overlay
// corrections applied).
func (o *DeltaOverlay) Decode() *graph.Graph {
	b := graph.NewBuilder(o.cs.n)
	c := o.AcquireCtx()
	defer o.ReleaseCtx(c)
	for v := int32(0); v < int32(o.cs.n); v++ {
		for _, u := range c.NeighborsOf(v) {
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Build()
}

// RebuildFunc re-summarizes a materialized graph into a fresh compiled
// summary; Live's compaction calls it off the writer lock. The
// summarization algorithm is injected (typically via pkg/slug) so the
// model package stays independent of the summarizers.
type RebuildFunc func(g *graph.Graph) (*CompiledSummary, error)

// Durability is the write-ahead persistence sink a Live summary routes
// acknowledged mutations through. The model package owns the ordering —
// append before publish, checkpoint after commit — while the concrete
// log (typically internal/wal via pkg/slug) stays injected.
type Durability struct {
	// Append persists one effective update batch and returns its log
	// sequence number. Called under the writer lock, before the batch
	// is published to readers: an error here means the batch was never
	// applied and must not be acknowledged.
	Append func(ups []EdgeUpdate) (uint64, error)
	// Checkpoint is invoked after a successful compaction commits its
	// base swap, with that base and the LSN of the last update batch it
	// includes. Called without internal locks held, so it may do I/O;
	// failures are the sink's to record (a missed checkpoint only
	// lengthens the next replay, it never loses data).
	Checkpoint func(lsn uint64, base *CompiledSummary)
}

// ErrDurability wraps failures to persist an update batch: the batch
// was rejected before publication, so callers must not act as if it
// were applied. Serving layers typically map it to 503.
var ErrDurability = errors.New("model: durable append failed")

// LiveStats is a point-in-time snapshot of a Live summary's state.
type LiveStats struct {
	Nodes       int
	Supernodes  int // of the current base
	Superedges  int // of the current base
	Insertions  int // overlay +1 entries
	Deletions   int // overlay -1 entries
	Version     uint64
	Applied     uint64 // effective updates since creation
	Compactions uint64 // completed compactions
	Threshold   int    // auto-compaction trigger, 0 = manual only
	Compacting  bool   // a compaction is in flight (rebuild, base swap or its checkpoint)
	LastError   string // most recent compaction failure, "" after success

	CompactionFailures uint64 // failed compaction attempts since creation
	Durable            bool   // a durability sink is installed
	DurableLSN         uint64 // LSN of the last persisted batch, 0 = none

	// Writer-lock contention telemetry: total and maximum time the
	// writer mutex was held by ApplyUpdates critical sections. Under
	// mixed read/update load this is the wait a writer inflicts on every
	// other writer (readers stay lock-free), the first suspect of the
	// update-path tail.
	LockHoldNs    int64
	LockHoldMaxNs int64
}

// Live maintains a summary that stays queryable while the underlying
// graph changes: readers take lock-free snapshots via View, writers
// batch mutations through ApplyUpdates, and once the overlay reaches
// the compaction threshold a background goroutine re-summarizes the
// live graph and atomically swaps in the fresh compiled base (updates
// that arrive mid-compaction are journaled and replayed onto the new
// base, so none are lost).
type Live struct {
	cur atomic.Pointer[DeltaOverlay]

	mu        sync.Mutex
	rebuild   RebuildFunc
	threshold int

	logging     bool         // journal updates for an in-flight compaction
	log         []EdgeUpdate // updates applied since the compaction captured its view
	compacting  bool
	compactDone chan struct{}

	applied     uint64
	compactions uint64
	failures    uint64 // failed compaction attempts
	lastErr     error  // most recent compaction failure, nil after success
	failedAt    int    // overlay size at the last failure (retry backoff), 0 after success

	lockHoldNs    int64 // total ns the writer lock was held by ApplyUpdatesOutcome (under mu)
	lockHoldMaxNs int64 // longest single hold (under mu)

	durable *Durability
	lastLSN uint64 // LSN of the last batch routed through the sink
}

// NewLive wraps a compiled summary for incremental maintenance. With no
// rebuild function the overlay grows without bound (compaction
// disabled); configure one with SetRebuild.
func NewLive(cs *CompiledSummary) *Live {
	l := &Live{}
	l.cur.Store(NewOverlay(cs))
	return l
}

// SetRebuild installs the re-summarization used by compaction.
func (l *Live) SetRebuild(fn RebuildFunc) {
	l.mu.Lock()
	l.rebuild = fn
	l.mu.Unlock()
}

// SetCompactionThreshold sets the overlay size at which ApplyUpdates
// triggers a background compaction (0 disables auto-compaction).
func (l *Live) SetCompactionThreshold(n int) {
	l.mu.Lock()
	l.threshold = n
	l.mu.Unlock()
}

// SetDurability installs the persistence sink. lastLSN is the sequence
// number already covered by the current state (the recovery floor):
// the next appended batch is expected to land at lastLSN+1 or later,
// and the first post-install compaction checkpoints at least lastLSN.
// Install after replaying recovered records, so replay itself is not
// re-appended.
func (l *Live) SetDurability(d Durability, lastLSN uint64) {
	l.mu.Lock()
	l.durable = &d
	l.lastLSN = lastLSN
	l.mu.Unlock()
}

// View returns the current snapshot. Lock-free; the snapshot stays
// valid (and immutable) for as long as the caller holds it, even across
// concurrent updates and compactions.
func (l *Live) View() *DeltaOverlay { return l.cur.Load() }

// ApplyUpdates applies a batch of edge mutations and publishes the new
// snapshot, returning the number of effective updates. Invalid updates
// (out-of-range endpoints, self-loops) reject the whole batch. With a
// durability sink installed the batch is appended to the log before it
// becomes visible — an append failure rejects the batch (ErrDurability)
// rather than acknowledging unpersisted state. When the overlay reaches
// the compaction threshold a background compaction is started (at most
// one at a time).
func (l *Live) ApplyUpdates(ups []EdgeUpdate) (int, error) {
	out, err := l.ApplyUpdatesOutcome(ups)
	return out.Applied, err
}

// ApplyOutcome reports what one update batch did, captured atomically
// with the apply itself: the effective-update count, the version of the
// snapshot the batch landed in (the current version when nothing
// changed, so callers can tell readers which snapshot reflects their
// write), that snapshot's overlay counters, and whether a compaction is
// in flight — what a caller would otherwise pair ApplyUpdates with a
// second, separately locked Stats() read for.
type ApplyOutcome struct {
	Applied    int
	Version    uint64
	Insertions int
	Deletions  int
	Compacting bool
}

// ApplyUpdatesOutcome is ApplyUpdates returning the full outcome in the
// same (single) writer-lock critical section.
func (l *Live) ApplyUpdatesOutcome(ups []EdgeUpdate) (ApplyOutcome, error) {
	// Validation depends only on the (fixed) vertex count, so it runs
	// before the writer lock: a malformed batch never serializes behind
	// other writers, and well-formed batches spend less time under the
	// lock. The snapshot read is lock-free.
	if err := ValidateUpdates(ups, l.cur.Load().cs.n); err != nil {
		return l.outcome(0, false), err
	}
	l.mu.Lock()
	t0 := time.Now()
	defer l.mu.Unlock()
	defer func() {
		h := time.Since(t0).Nanoseconds()
		l.lockHoldNs += h
		if h > l.lockHoldMaxNs {
			l.lockHoldMaxNs = h
		}
	}()
	nxt, applied := l.cur.Load().applyValidated(ups)
	if applied > 0 {
		// Append-then-publish: the batch reaches the log before any
		// reader can observe it, so an acknowledged write is always
		// recoverable. No-op batches skip the log entirely — replaying
		// them would change nothing.
		if l.durable != nil {
			lsn, err := l.durable.Append(ups)
			if err != nil {
				return l.outcome(0, l.compacting), fmt.Errorf("%w: %v", ErrDurability, err)
			}
			l.lastLSN = lsn
		}
		l.cur.Store(nxt)
		l.applied += uint64(applied)
		if l.logging {
			l.log = append(l.log, ups...)
		}
	}
	if l.threshold > 0 && l.rebuild != nil && !l.compacting &&
		l.cur.Load().Len() >= l.threshold+l.failedAt {
		view, rebuild, lsn := l.beginCompactionLocked()
		go l.runCompaction(view, rebuild, lsn)
	}
	return l.outcome(applied, l.compacting), nil
}

// outcome snapshots the current overlay counters around the given
// applied count. compacting is l.compacting when the caller holds l.mu;
// a batch rejected before the lock (never applied, so no locked state
// is involved) passes false.
func (l *Live) outcome(applied int, compacting bool) ApplyOutcome {
	v := l.cur.Load()
	return ApplyOutcome{
		Applied:    applied,
		Version:    v.version,
		Insertions: v.plus,
		Deletions:  v.minus,
		Compacting: compacting,
	}
}

// beginCompactionLocked marks a compaction in flight and returns the
// view it will rebuild from, the rebuild function (read under the lock:
// SetRebuild may race the background goroutine otherwise), and the LSN
// of the last durable batch the view covers. Caller must hold l.mu.
func (l *Live) beginCompactionLocked() (*DeltaOverlay, RebuildFunc, uint64) {
	l.compacting = true
	l.logging = true
	l.log = nil
	l.compactDone = make(chan struct{})
	return l.cur.Load(), l.rebuild, l.lastLSN
}

// runCompaction materializes the captured view, re-summarizes it, and
// swaps in the fresh base with the journaled updates replayed on top.
// After a successful commit it hands the sink the new base to
// checkpoint at ckptLSN — the last batch the captured view covered —
// outside the lock. The committed base may already include journaled
// batches beyond ckptLSN; tagging low is safe because updates are
// absolute set operations, so replaying an already-applied suffix
// converges.
//
// The compaction stays in flight (compacting set, compactDone open)
// until that checkpoint has returned: Quiesce and Compact therefore
// wait for the new base to be persisted, not just served, and no second
// compaction — with a checkpoint of its own — can start underneath it.
//
//slugvet:cow
func (l *Live) runCompaction(view *DeltaOverlay, rebuild RebuildFunc, ckptLSN uint64) {
	g := view.Decode()
	cs, err := rebuild(g)
	if err == nil && cs.n != view.cs.n {
		err = fmt.Errorf("model: compaction rebuilt %d vertices, want %d", cs.n, view.cs.n)
	}
	l.mu.Lock()
	log := l.log
	l.log = nil
	l.logging = false
	committed := false
	if err != nil {
		// Back off: don't retry on every subsequent batch (each attempt
		// is a full re-summarize) — require another threshold's worth of
		// overlay growth first.
		l.lastErr = err
		l.failures++
		l.failedAt = l.cur.Load().Len()
	} else {
		fresh := NewOverlay(cs)
		fresh.version = l.cur.Load().version // Apply bumps it
		var nxt *DeltaOverlay
		nxt, _, err = fresh.Apply(log)
		if err != nil {
			// Unreachable: every journaled update was validated when first
			// applied, and validity doesn't depend on the base.
			l.lastErr = err
			l.failures++
		} else {
			l.cur.Store(nxt)
			l.compactions++
			l.lastErr = nil
			l.failedAt = 0
			committed = true
		}
	}
	durable := l.durable
	l.mu.Unlock()
	if committed && durable != nil && durable.Checkpoint != nil {
		durable.Checkpoint(ckptLSN, cs)
	}
	l.mu.Lock()
	l.compacting = false
	close(l.compactDone)
	l.mu.Unlock()
}

// Compact synchronously re-summarizes the live graph and swaps in the
// fresh base. It first waits out any in-flight background compaction;
// if the overlay is empty afterwards it returns immediately.
func (l *Live) Compact() error {
	for {
		l.mu.Lock()
		if !l.compacting {
			break
		}
		done := l.compactDone
		l.mu.Unlock()
		<-done
	}
	// l.mu held, no compaction in flight.
	if l.rebuild == nil {
		l.mu.Unlock()
		return errors.New("model: Compact without a rebuild function (SetRebuild)")
	}
	if l.cur.Load().Len() == 0 {
		l.mu.Unlock()
		return nil
	}
	view, rebuild, lsn := l.beginCompactionLocked()
	l.mu.Unlock()
	l.runCompaction(view, rebuild, lsn)
	l.mu.Lock()
	err := l.lastErr
	l.mu.Unlock()
	return err
}

// Quiesce blocks until no background compaction is in flight: its base
// swapped in and, with a durability sink, the checkpoint of that base
// written. It does not prevent a later ApplyUpdates from starting a new
// one.
func (l *Live) Quiesce() {
	l.mu.Lock()
	done, compacting := l.compactDone, l.compacting
	l.mu.Unlock()
	if compacting {
		<-done
	}
}

// Stats returns a consistent snapshot of the live summary's counters.
func (l *Live) Stats() LiveStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.cur.Load()
	st := LiveStats{
		Nodes:       v.cs.NumNodes(),
		Supernodes:  v.cs.NumSupernodes(),
		Superedges:  v.cs.NumSuperedges(),
		Insertions:  v.plus,
		Deletions:   v.minus,
		Version:     v.version,
		Applied:     l.applied,
		Compactions: l.compactions,
		Threshold:   l.threshold,
		Compacting:  l.compacting,

		CompactionFailures: l.failures,
		Durable:            l.durable != nil,
		DurableLSN:         l.lastLSN,
		LockHoldNs:         l.lockHoldNs,
		LockHoldMaxNs:      l.lockHoldMaxNs,
	}
	if l.lastErr != nil {
		st.LastError = l.lastErr.Error()
	}
	return st
}

// CompactionErr returns the most recent compaction failure (nil after a
// success or when none has run).
func (l *Live) CompactionErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}
