// Package serve is the repository's one HTTP request pipeline: routing,
// input validation, body caps, admission control, panic containment,
// per-route metrics, pooled response encoding and the PageRank cache,
// written once against the Backend interface (backend.go). Queries
// (neighbors, edge-existence, PageRank) run directly on a lossless
// summary via partial decompression (Algorithm 4 of the paper) — the
// full graph is never materialized — and the answers are identical
// whichever backend holds the summary: a frozen compiled snapshot (New;
// a sharded build compiles to one too), a live updatable one (NewLive),
// one shard of a network federation (NewShard), or internal/fed's
// coordinator scatter-gathering across shard servers (NewServer over a
// *fed.Coordinator).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algos"
	"repro/internal/model"
)

const (
	// maxRequestBody caps every request body read; oversized payloads
	// get 413 instead of exhausting memory.
	maxRequestBody = 8 << 20
	// MaxBatchItems caps the per-request work of batched endpoints. A
	// coordinator's per-shard batch never exceeds it: it splits a
	// request already capped here.
	MaxBatchItems = 10000
)

// Server answers graph queries from one Backend.
type Server struct {
	backend Backend
	// Optional backend capabilities, nil when absent.
	updater Updater
	stats   StatsReporter
	ready   ReadyChecker
	stamp   string // X-Summary-Version of every reply (NewShard servers)

	n    int    // leaf vertices (fixed across updates)
	algo string // producing algorithm, reported by /stats when known

	mu        sync.Mutex
	prCache   map[prKey][]float64
	prVersion uint64                                      // view version the cached vectors were computed at
	prFlight  map[prFlightKey]*prCall                     // in-flight PageRank computations (miss coalescing)
	prCompute func(View, float64, int) ([]float64, error) // test seam; nil = real computation

	eps *endpointMetrics // per-endpoint request counters + latency buckets

	adm    *admission    // nil = unbounded (no WithAdmission)
	panics atomic.Uint64 // handler panics contained by recovered()

	// Artifact provenance, reported by /stats when set via WithArtifact:
	// the serving format ("v1-compiled" | "v2-mapped" | "v2-heap"), the
	// mapped/resident byte count, and how long after process boot the
	// first query was answered (the startup-latency figure the zero-copy
	// format exists to shrink).
	artFormat      string
	artMappedBytes int64
	bootStart      time.Time
	firstQueryOnce sync.Once
	firstQueryNs   atomic.Int64 // 0 until the first query completes
}

type prKey struct {
	d float64
	t int
}

// NewServer puts the request pipeline in front of a backend. Every
// other constructor is a wrapper that picks the backend.
func NewServer(b Backend) *Server {
	s := &Server{
		backend:  b,
		n:        b.View().NumNodes(),
		prCache:  make(map[prKey][]float64),
		prFlight: make(map[prFlightKey]*prCall),
		eps:      newEndpointMetrics(),
	}
	s.updater, _ = b.(Updater)
	s.stats, _ = b.(StatsReporter)
	s.ready, _ = b.(ReadyChecker)
	return s
}

// New wraps a compiled summary in a read-only query server.
func New(cs *model.CompiledSummary) *Server {
	return NewServer(staticBackend{overlayView{model.NewOverlay(cs)}})
}

// ShardInfo identifies one shard server of a network federation, under
// /stats "shard_role": which shard of how many, the epoch it was split
// from, its local vertex count, its version (NewShard fills in
// ShardVersion), and the producing algorithm.
type ShardInfo struct {
	Shard     int    `json:"shard"`
	Shards    int    `json:"shards"`
	Epoch     string `json:"epoch"`
	Nodes     int    `json:"nodes"`
	Version   uint64 `json:"version"`
	Algorithm string `json:"algorithm,omitempty"`
}

// ShardVersion is the X-Summary-Version of every reply of shard s of
// the split with the given epoch: a digest of both with the low bit
// set, never 0 (unversioned), and another build's or shard's.
func ShardVersion(epoch string, shard int) uint64 {
	sum := sha256.Sum256(fmt.Appendf(nil, "%s/%d", epoch, shard))
	return binary.LittleEndian.Uint64(sum[:8]) | 1
}

// NewShard wraps one shard's compiled summary (in shard-local vertex
// ids) in a read-only shard server: all ordinary endpoints answer in
// local ids, and every reply carries the shard's version (which it
// sets in info.Version), so a coordinator can tell on each exchange
// that it talks to the shard — and the epoch — it expects. The binary
// POST /batch/neighbors endpoint is the intended hot path for
// coordinator fan-out.
func NewShard(cs *model.CompiledSummary, info ShardInfo) *Server {
	info.Version = ShardVersion(info.Epoch, info.Shard)
	s := NewServer(&shardBackend{staticBackend{overlayView{model.NewOverlay(cs)}}, info})
	s.stamp = strconv.FormatUint(info.Version, 10)
	return s.WithAlgorithm(info.Algorithm)
}

// NewLive wraps a live summary in a mutable query server: queries run
// against lock-free overlay snapshots and POST /update mutates the
// represented graph (absorbed into a delta overlay; a background
// compaction re-summarizes once it grows past its threshold).
func NewLive(l *model.Live) *Server {
	return NewServer(liveBackend{l})
}

// WithAlgorithm records the producing algorithm's name (e.g. from
// slug.Artifact.Algorithm) so /stats can report what built the served
// model. It returns the server for chaining.
func (s *Server) WithAlgorithm(name string) *Server {
	s.algo = name
	return s
}

// WithArtifact records how the served model is backed — its format
// ("v1-compiled" for a decoded-and-compiled envelope, "v2-mapped" for a
// zero-copy memory mapping, "v2-heap" for the v2 layout resident in
// memory), the backing byte count (0 when unknown), and the process
// boot instant. /stats then reports the trio plus the measured
// boot-to-first-query duration once the first query lands. Returns the
// server for chaining.
func (s *Server) WithArtifact(format string, mappedBytes int64, bootStart time.Time) *Server {
	s.artFormat = format
	s.artMappedBytes = mappedBytes
	s.bootStart = bootStart
	return s
}

// view returns the snapshot to answer the current request from.
func (s *Server) view() View { return s.backend.View() }

// markFirstQuery latches the boot-to-first-query duration on the first
// query-path request (neighbors, hasedge, pagerank).
func (s *Server) markFirstQuery() {
	if s.bootStart.IsZero() {
		return
	}
	s.firstQueryOnce.Do(func() {
		d := time.Since(s.bootStart)
		if d <= 0 {
			d = 1 // clamp: the latch doubles as the "happened" flag
		}
		s.firstQueryNs.Store(int64(d))
	})
}

// Handler returns the HTTP routes:
//
//	GET  /healthz                     liveness probe
//	GET  /readyz                      readiness probe (503 while recovering,
//	                                  compacting, or with a shard down)
//	GET  /stats                       the backend's sizes and counters plus
//	                                  the pipeline's "serving" section
//	GET  /neighbors?v=3               sorted neighbors of one vertex
//	GET  /neighbors?v=3,7,9           batched: one pooled context for all
//	POST /neighbors {"v":[3,7,9]}     JSON batch form
//	POST /batch/neighbors             binary batch form (wire.go framing;
//	                                  the federation fan-out hot path)
//	GET  /hasedge?u=1&v=2             edge-existence point query
//	GET  /pagerank?d=0.85&t=20&top=10 top-k PageRank on the summary
//	POST /update {"u":1,"v":2}        insert/delete edges (Updater backends;
//	     or {"updates":[...]})        all others answer 405)
//
// A NewShard server stamps its version on every reply. Request bodies
// are capped at maxRequestBody bytes; oversized payloads
// are rejected with 413. With WithAdmission configured, requests beyond
// the in-flight and queue bounds are shed with 429 (the probes bypass
// the limiter). A panicking handler answers 500 and the server keeps
// serving. A backend that cannot currently answer (a remote shard is
// down) yields 503 with Retry-After.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("GET /healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("GET /readyz", s.handleReadyz))
	mux.HandleFunc("GET /stats", s.instrument("GET /stats", s.handleStats))
	mux.HandleFunc("GET /neighbors", s.instrument("GET /neighbors", s.handleNeighbors))
	mux.HandleFunc("POST /neighbors", s.instrument("POST /neighbors", s.handleNeighborsPost))
	mux.HandleFunc("POST /batch/neighbors", s.instrument("POST /batch/neighbors", s.handleNeighborsBinary))
	mux.HandleFunc("GET /hasedge", s.instrument("GET /hasedge", s.handleHasEdge))
	mux.HandleFunc("GET /pagerank", s.instrument("GET /pagerank", s.handlePageRank))
	mux.HandleFunc("POST /update", s.instrument("POST /update", s.handleUpdate))
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		}
		mux.ServeHTTP(w, r)
	})
	h := s.recovered(s.admitted(inner))
	if s.stamp == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Summary-Version", s.stamp)
		h.ServeHTTP(w, r)
	})
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// unavailable answers a backend failure: 503 the client may retry, with
// whatever fields the error contributes (a federation's failed shard).
func unavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, withErrorFields(map[string]any{"error": err.Error()}, err))
}

// decodeJSON decodes a request body, mapping an exceeded MaxBytesReader
// limit to 413 and malformed JSON to 400. It reports whether decoding
// succeeded (on false the error response has been written).
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := json.NewDecoder(r.Body).Decode(dst)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	httpError(w, http.StatusBadRequest, "decoding request body: %v", err)
	return false
}

// checkVertex range-checks one vertex id against the model — the
// single validation point for every id-taking endpoint (string ids go
// through parseVertex, JSON-decoded ids come here directly).
func (s *Server) checkVertex(v int64) error {
	if v < 0 || v >= int64(s.n) {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, s.n)
	}
	return nil
}

// parseVertex parses and range-checks one vertex id.
func (s *Server) parseVertex(raw string) (int32, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("vertex id %q: %v", raw, err)
	}
	if err := s.checkVertex(v); err != nil {
		return 0, err
	}
	return int32(v), nil
}

// vertexParam fetches and parses a required single-vertex parameter.
func (s *Server) vertexParam(r *http.Request, name string) (int32, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := s.parseVertex(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{"nodes": s.n}
	if s.algo != "" {
		stats["algorithm"] = s.algo
	}
	if s.stats != nil {
		s.stats.ReportStats(stats)
	}
	if s.artFormat != "" {
		artifact := map[string]any{"format": s.artFormat}
		if s.artMappedBytes > 0 {
			artifact["mapped_bytes"] = s.artMappedBytes
		}
		if ns := s.firstQueryNs.Load(); ns > 0 {
			artifact["boot_to_first_query_ms"] = float64(ns) / 1e6
		}
		stats["artifact"] = artifact
	}
	serving := map[string]any{
		"ready":     s.notReady() == nil,
		"panics":    s.panics.Load(),
		"endpoints": s.eps.snapshot(),
	}
	if s.adm != nil {
		serving["admitted"] = s.adm.admitted.Load()
		serving["shed"] = s.adm.shed.Load()
		serving["max_inflight"] = cap(s.adm.sem)
	}
	stats["serving"] = serving
	writeJSON(w, http.StatusOK, stats)
}

// NeighborsResult is one entry of the /neighbors response.
type NeighborsResult struct {
	V         int32   `json:"v"`
	Degree    int     `json:"degree"`
	Neighbors []int32 `json:"neighbors"`
}

func (s *Server) answerNeighbors(ctx context.Context, w http.ResponseWriter, vs []int32, single bool) {
	view := s.view()
	// Hot path: append the response JSON directly from the pooled
	// decompression buffers into a pooled response buffer — no
	// intermediate result structs, no neighbor-slice copies, no
	// reflection, and (via the pooled encoder's pre-bound visit
	// closure) no per-request closure allocation. Byte-identical to the
	// encoding/json output, pinned by TestFastJSONByteParity.
	enc := acquireNbrEncoder()
	asArray := !(single && len(vs) == 1)
	if asArray {
		enc.buf = append(enc.buf, '[')
	}
	if err := view.NeighborsBatch(ctx, vs, enc.visit); err != nil {
		releaseNbrEncoder(enc)
		unavailable(w, err)
		return
	}
	if asArray {
		enc.buf = append(enc.buf, ']')
	}
	enc.buf = append(enc.buf, '\n')
	setVersionHeader(w, view)
	writeRawJSON(w, http.StatusOK, enc.buf)
	releaseNbrEncoder(enc)
	s.markFirstQuery()
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("v")
	if raw == "" {
		httpError(w, http.StatusBadRequest, "missing parameter %q", "v")
		return
	}
	parts := strings.Split(raw, ",")
	if len(parts) > MaxBatchItems {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds %d vertices", len(parts), MaxBatchItems)
		return
	}
	vs := make([]int32, 0, len(parts))
	for _, p := range parts {
		v, err := s.parseVertex(p)
		if err != nil {
			httpError(w, http.StatusBadRequest, "parameter \"v\": %v", err)
			return
		}
		vs = append(vs, v)
	}
	s.answerNeighbors(r.Context(), w, vs, true)
}

// handleNeighborsPost is the JSON-body batch form, for batches too
// large to fit comfortably in a query string.
func (s *Server) handleNeighborsPost(w http.ResponseWriter, r *http.Request) {
	var req struct {
		V []int32 `json:"v"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.V) == 0 {
		httpError(w, http.StatusBadRequest, "missing field %q", "v")
		return
	}
	if len(req.V) > MaxBatchItems {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds %d vertices", len(req.V), MaxBatchItems)
		return
	}
	for _, v := range req.V {
		if err := s.checkVertex(int64(v)); err != nil {
			httpError(w, http.StatusBadRequest, "field \"v\": %v", err)
			return
		}
	}
	s.answerNeighbors(r.Context(), w, req.V, false)
}

func (s *Server) handleHasEdge(w http.ResponseWriter, r *http.Request) {
	u, err := s.vertexParam(r, "u")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, err := s.vertexParam(r, "v")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view := s.view()
	exists, err := view.HasEdge(r.Context(), u, v)
	if err != nil {
		unavailable(w, err)
		return
	}
	setVersionHeader(w, view)
	bp := acquireBuf()
	buf := appendHasEdgeResult((*bp)[:0], u, v, exists)
	writeRawJSON(w, http.StatusOK, buf)
	*bp = buf
	releaseBuf(bp)
	s.markFirstQuery()
}

// handleNeighborsBinary is the compact binary batch form (wire.go) —
// the high-QPS hot path, open on every server (not just shard roles):
// no JSON encode or decode on either side, one contiguous pooled buffer
// per direction.
func (s *Server) handleNeighborsBinary(w http.ResponseWriter, r *http.Request) {
	reqBuf := acquireBuf()
	defer releaseBuf(reqBuf)
	data, err := readAllInto((*reqBuf)[:0], r.Body)
	*reqBuf = data[:0]
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	idsBuf := acquireInt32s()
	defer releaseInt32s(idsBuf)
	ids, err := DecodeNeighborsRequestInto(*idsBuf, data, MaxBatchItems)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	*idsBuf = ids[:0]
	for _, v := range ids {
		if err := s.checkVertex(int64(v)); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	view := s.view()
	respBuf := acquireBuf()
	defer releaseBuf(respBuf)
	buf := AppendNeighborsResponseHeader((*respBuf)[:0], len(ids))
	err = view.NeighborsBatch(r.Context(), ids, func(_ int32, nbrs []int32) {
		buf = AppendNeighborsResponseList(buf, nbrs)
	})
	*respBuf = buf[:0]
	if err != nil {
		unavailable(w, err)
		return
	}
	setVersionHeader(w, view)
	w.Header().Set("Content-Type", "application/octet-stream")
	setContentLength(w, len(buf))
	w.Write(buf)
	s.markFirstQuery()
}

// setVersionHeader reports the snapshot's content version on query
// responses when one is known (mutable overlays, and the shards and
// coordinator of a network federation), so clients can correlate
// answers across updates and across coordinator/shard hops.
func setVersionHeader(w http.ResponseWriter, view View) {
	if ver := view.Version(); ver > 0 {
		w.Header().Set("X-Summary-Version", strconv.FormatUint(ver, 10))
	}
}

// UpdateItem is one edge mutation of the /update request body.
type UpdateItem struct {
	U      int32 `json:"u"`
	V      int32 `json:"v"`
	Delete bool  `json:"delete"`
}

// updateRequest accepts both the single form {"u":1,"v":2,"delete":true}
// and the batch form {"updates":[...]}.
type updateRequest struct {
	U       *int32       `json:"u"`
	V       *int32       `json:"v"`
	Delete  bool         `json:"delete"`
	Updates []UpdateItem `json:"updates"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.updater == nil {
		// 405, not a fallthrough 404: the route exists, but no method on
		// it is allowed while the backend is immutable. RFC 9110 requires
		// an Allow header on every 405; the empty list states that no
		// method is currently allowed on the resource.
		w.Header().Set("Allow", "")
		httpError(w, http.StatusMethodNotAllowed, "server is read-only; restart with -mutable to accept updates")
		return
	}
	var req updateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var ups []model.EdgeUpdate
	switch {
	case req.U != nil || req.V != nil:
		if req.U == nil || req.V == nil || len(req.Updates) > 0 {
			httpError(w, http.StatusBadRequest, "use either {u, v, delete} or {updates: [...]}")
			return
		}
		ups = []model.EdgeUpdate{{U: *req.U, V: *req.V, Delete: req.Delete}}
	case len(req.Updates) > 0:
		if len(req.Updates) > MaxBatchItems {
			httpError(w, http.StatusBadRequest, "batch of %d exceeds %d updates", len(req.Updates), MaxBatchItems)
			return
		}
		ups = make([]model.EdgeUpdate, len(req.Updates))
		for i, it := range req.Updates {
			ups[i] = model.EdgeUpdate{U: it.U, V: it.V, Delete: it.Delete}
		}
	default:
		httpError(w, http.StatusBadRequest, "empty update: send {u, v, delete} or {updates: [...]}")
		return
	}
	// One call, one writer-lock acquisition: the outcome carries the
	// overlay counters of the snapshot the batch landed in, so the
	// response does not need a second locked Stats() read (which
	// contended with concurrent writers under update load).
	out, err := s.updater.ApplyUpdatesOutcome(ups)
	if err != nil {
		if errors.Is(err, model.ErrDurability) {
			// The batch was rejected before publication: nothing was
			// applied, nothing acknowledged. The client may retry — the
			// summary is intact, only its log is refusing writes.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The version of the snapshot holding this batch: queries that carry
	// a view at least this fresh observe every applied update (a batch
	// of all no-ops lands in the current snapshot unchanged).
	w.Header().Set("X-Summary-Version", strconv.FormatUint(out.Version, 10))
	writeJSON(w, http.StatusOK, map[string]any{
		"received": len(ups),
		"applied":  out.Applied,
		"version":  out.Version,
		"overlay": map[string]any{
			"insertions": out.Insertions,
			"deletions":  out.Deletions,
			"version":    out.Version,
			"compacting": out.Compacting,
		},
	})
}

// RankedVertex is one entry of the /pagerank response.
type RankedVertex struct {
	V    int32   `json:"v"`
	Rank float64 `json:"rank"`
}

// maxPRCacheEntries bounds the PageRank cache: (d, t) are client-chosen
// keys, so without a cap a client sweeping damping values could pin an
// unbounded number of n-length rank vectors.
const maxPRCacheEntries = 32

// prFlightKey identifies one in-flight PageRank computation: the
// parameters plus the snapshot version they run against. Keying on the
// version means a request holding a fresher snapshot never latches onto
// a stale computation.
type prFlightKey struct {
	d       float64
	t       int
	version uint64
}

// prCall is one coalesced computation: the leader computes, followers
// block on done and share the result.
type prCall struct {
	done chan struct{}
	val  []float64
	err  error
}

// errPageRankAborted is what followers of a flight see when its leader
// panicked mid-computation (the leader's own request answers 500).
var errPageRankAborted = errors.New("pagerank computation aborted; retry")

// computePageRank runs the actual power iteration (overridable in tests
// to count and slow down computations).
func (s *Server) computePageRank(view View, d float64, t int) ([]float64, error) {
	if s.prCompute != nil {
		return s.prCompute(view, d, t)
	}
	src, release := view.Source()
	defer release()
	return algos.PageRank(src, d, t), nil
}

// pageRank returns the cached PageRank vector for (d, t) on the given
// snapshot. Cache entries are tied to the snapshot's overlay version:
// any update or compaction bumps the version and invalidates the whole
// cache. The power iteration runs outside the lock, so a cache miss
// never blocks hits on other keys — and concurrent misses for the same
// (d, t, version) are coalesced into a single computation
// (singleflight): under update-driven version churn a thundering herd
// of /pagerank requests costs one power iteration, not one per request.
// A failed computation is never cached.
func (s *Server) pageRank(view View, d float64, t int) ([]float64, error) {
	key := prKey{d: d, t: t}
	ver := view.Version()
	s.mu.Lock()
	// Advance strictly monotonically: a slow request holding an older
	// snapshot must neither clear a fresher cache nor install its stale
	// vector (it just computes uncached).
	if ver > s.prVersion {
		clear(s.prCache)
		s.prVersion = ver
	}
	if s.prVersion == ver {
		if r, ok := s.prCache[key]; ok {
			s.mu.Unlock()
			return r, nil
		}
	}
	fk := prFlightKey{d: d, t: t, version: ver}
	if c, ok := s.prFlight[fk]; ok {
		// Follower: someone is already computing exactly this vector on a
		// same-version snapshot. Wait for it instead of recomputing.
		s.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	// The error is pessimistic until the computation returns: if it
	// panics instead, the deferred retirement below still runs, so
	// followers (and every later request for this key) see a failed
	// flight rather than blocking forever on a dead one.
	c := &prCall{done: make(chan struct{}), err: errPageRankAborted}
	s.prFlight[fk] = c
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.prFlight, fk)
		if c.err == nil && s.prVersion == ver {
			if len(s.prCache) >= maxPRCacheEntries {
				// Evict an arbitrary entry; the common workload reuses one
				// or two (d, t) pairs and never reaches the cap.
				for k := range s.prCache {
					delete(s.prCache, k)
					break
				}
			}
			s.prCache[key] = c.val
		}
		s.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = s.computePageRank(view, d, t)
	return c.val, c.err
}

func (s *Server) handlePageRank(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	d := 0.85
	if raw := q.Get("d"); raw != "" {
		parsed, err := strconv.ParseFloat(raw, 64)
		// The inverted comparison also rejects NaN, which would
		// otherwise slip through (<=, >= are both false for NaN) and
		// poison the cache with a key that never matches itself.
		if err != nil || !(parsed > 0 && parsed < 1) {
			httpError(w, http.StatusBadRequest, "parameter \"d\" must be in (0,1)")
			return
		}
		d = parsed
	}
	t := 20
	if raw := q.Get("t"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 || parsed > 1000 {
			httpError(w, http.StatusBadRequest, "parameter \"t\" must be in [1,1000]")
			return
		}
		t = parsed
	}
	top := 10
	if raw := q.Get("top"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 {
			httpError(w, http.StatusBadRequest, "parameter \"top\" must be positive")
			return
		}
		top = parsed
	}
	view := s.view()
	rank, err := s.pageRank(view, d, t)
	if err != nil {
		unavailable(w, err)
		return
	}
	setVersionHeader(w, view)
	writeJSON(w, http.StatusOK, map[string]any{
		"damping": d, "iterations": t, "top": topRanked(rank, top),
	})
	s.markFirstQuery()
}

// rankedBefore orders the /pagerank answer: rank descending, ties by
// ascending vertex id.
func rankedBefore(x, y RankedVertex) bool {
	return x.Rank > y.Rank || x.Rank == y.Rank && x.V < y.V
}

// topRanked returns the first min(k, n) vertices of rank in
// rankedBefore order — what sorting all n would give — in one pass that
// keeps the k best in a heap whose root is the worst of them.
func topRanked(rank []float64, k int) []RankedVertex {
	k = min(k, len(rank))
	h := make([]RankedVertex, 0, k)
	for v, r := range rank {
		x := RankedVertex{V: int32(v), Rank: r}
		if len(h) < k {
			h = append(h, x)
			for i := len(h) - 1; i > 0 && rankedBefore(h[(i-1)/2], h[i]); i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
			continue
		}
		if k == 0 || !rankedBefore(x, h[0]) {
			continue
		}
		h[0] = x
		for i := 0; ; {
			c := 2*i + 1
			if c >= k {
				break
			}
			if c+1 < k && rankedBefore(h[c], h[c+1]) {
				c++
			}
			if !rankedBefore(h[i], h[c]) {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	slices.SortFunc(h, func(x, y RankedVertex) int {
		if rankedBefore(x, y) {
			return -1
		}
		return 1
	})
	return h
}

// Run serves the handler on addr until the listener fails or ctx is
// cancelled; on cancellation it drains in-flight requests through
// Server.Shutdown (bounded by shutdownTimeout) instead of killing them.
// All slow-client timeouts are set (Go's http.Server defaults to none):
// header, write and idle.
func (s *Server) Run(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		const shutdownTimeout = 15 * time.Second
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}
