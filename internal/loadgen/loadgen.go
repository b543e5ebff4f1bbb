// Package loadgen is the sustained-load harness for cmd/serve: an
// open-loop, mixed-workload HTTP generator with coordinated-omission-
// safe latency recording.
//
// Open loop means the arrival schedule is fixed up front: request i is
// due at start + i/rate, whether or not earlier requests have come
// back. A closed-loop client (issue, wait, issue) silently degrades its
// own offered load exactly when the server slows down — the classic
// coordinated-omission trap — and reports flattering tails. Here
// latency is measured from the request's *scheduled* start, so time a
// request spends queued behind a slow server counts against the
// server, as it would for a real client arriving on its own clock.
//
// Determinism: every request's operation and arguments derive from its
// schedule index through splitmix64 (see zipf.go), so a (seed, rate,
// duration, mix) tuple names one exact request sequence regardless of
// worker count or interleaving. Worker goroutines claim schedule
// indices from a shared atomic counter and record into private
// histograms, merged after the run.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/serve"
)

// Op enumerates the workload's operation types.
type Op int

const (
	OpNeighbors   Op = iota // GET /neighbors?v=X (single)
	OpBatchJSON             // POST /neighbors {"v":[...]}
	OpBatchBinary           // POST /batch/neighbors (binary wire)
	OpHasEdge               // GET /hasedge?u=X&v=Y
	OpPageRank              // GET /pagerank (fixed params: exercises the cache)
	OpUpdate                // POST /update {"updates":[...]}
	numOps
)

var opNames = [numOps]string{
	"neighbors", "batch_json", "batch_binary", "hasedge", "pagerank", "update",
}

func (o Op) String() string { return opNames[o] }

// Mix weighs the operation types; weights are relative, not required to
// sum to 1.
type Mix [numOps]float64

// DefaultMix is a read-heavy serving profile with a concurrent update
// stream: mostly point queries, a batch tier split between the JSON and
// binary wire, an occasional PageRank, and ~8% writes.
var DefaultMix = Mix{
	OpNeighbors:   0.45,
	OpBatchJSON:   0.12,
	OpBatchBinary: 0.12,
	OpHasEdge:     0.15,
	OpPageRank:    0.02,
	OpUpdate:      0.08,
}

// ReadOnlyMix is DefaultMix with the write stream folded back into
// point reads, for immutable servers (where POST /update is a 405).
var ReadOnlyMix = Mix{
	OpNeighbors:   0.53,
	OpBatchJSON:   0.12,
	OpBatchBinary: 0.12,
	OpHasEdge:     0.15,
	OpPageRank:    0.02,
	OpUpdate:      0,
}

// Config parameterizes one run.
type Config struct {
	BaseURL     string        // target server, e.g. http://127.0.0.1:8080
	Rate        float64       // offered load, requests/second
	Duration    time.Duration // schedule length (Rate*Duration requests total)
	Workers     int           // issuing goroutines; 0 = 2*GOMAXPROCS
	Seed        uint64        // determinism key
	NumNodes    int           // vertex id space of the served graph
	Mix         Mix           // operation weights; zero value = DefaultMix
	ZipfS       float64       // vertex skew exponent; 0 = uniform
	BatchSize   int           // ids per batch query (default 16)
	UpdateBatch int           // edges per update POST (default 4)
	PageRankT   int           // pagerank iteration count (default 10)

	Timeout time.Duration // per-request deadline (default 5s)

	// Client overrides the HTTP client (tests point this at an
	// in-process httptest server). Nil = a pooled production transport.
	Client *http.Client
}

// OpStats reports one operation's share of a run.
type OpStats struct {
	Op      string  `json:"op"`
	Count   uint64  `json:"count"`
	Errors  uint64  `json:"errors"`
	MeanUs  float64 `json:"mean_us"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	P999Us  float64 `json:"p999_us"`
	MaxUs   float64 `json:"max_us"`
	LastErr string  `json:"last_error,omitempty"`
}

// Report is the outcome of one run. Latencies are measured from each
// request's scheduled start (see the package comment) and reported in
// microseconds.
type Report struct {
	TargetQPS   float64   `json:"target_qps"`
	AchievedQPS float64   `json:"achieved_qps"`
	DurationSec float64   `json:"duration_sec"`
	Requests    uint64    `json:"requests"`
	Errors      uint64    `json:"errors"`
	Overall     OpStats   `json:"overall"`
	Ops         []OpStats `json:"ops"`
	// MaxSchedLagUs is the worst observed lag between a request's
	// scheduled arrival and the moment a worker actually picked it up —
	// the generator's own backlog. A lag comparable to the reported
	// tail means the harness, not the server, is the bottleneck: add
	// workers or lower the rate.
	MaxSchedLagUs float64 `json:"max_sched_lag_us"`
}

func ns2us(v uint64) float64 { return float64(v) / 1e3 }
func opStats(op string, h *hist.Hist, errs uint64, lastErr string) OpStats {
	return OpStats{
		Op:      op,
		Count:   h.Count(),
		Errors:  errs,
		MeanUs:  h.Mean() / 1e3,
		P50Us:   ns2us(h.Quantile(0.50)),
		P99Us:   ns2us(h.Quantile(0.99)),
		P999Us:  ns2us(h.Quantile(0.999)),
		MaxUs:   ns2us(h.Max()),
		LastErr: lastErr,
	}
}

// worker holds one goroutine's private recording state.
type worker struct {
	hists   [numOps]hist.Hist
	errs    [numOps]uint64
	lastErr [numOps]string
	maxLag  int64
}

type runner struct {
	cfg    Config
	client *http.Client
	zipf   *Zipf
	cum    [numOps]float64 // cumulative op weights, cum[last] == 1
	total  int64
	next   atomic.Int64
	start  time.Time
}

// Run executes one open-loop run and blocks until the schedule is
// exhausted or ctx is cancelled (a cancelled run reports what it
// measured). The target must be reachable: a /healthz probe runs first
// and fails fast.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need positive Rate and Duration")
	}
	if cfg.NumNodes <= 0 {
		return nil, fmt.Errorf("loadgen: NumNodes required (the generator draws vertex ids)")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.UpdateBatch <= 0 {
		cfg.UpdateBatch = 4
	}
	if cfg.PageRankT <= 0 {
		cfg.PageRankT = 10
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix
	}

	r := &runner{cfg: cfg, client: cfg.Client}
	if r.client == nil {
		r.client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 2 * cfg.Workers,
			},
		}
	}
	var sum float64
	for _, w := range cfg.Mix {
		if w < 0 {
			return nil, fmt.Errorf("loadgen: negative mix weight")
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	acc := 0.0
	for i, w := range cfg.Mix {
		acc += w / sum
		r.cum[i] = acc
	}
	r.cum[numOps-1] = 1
	r.zipf = NewZipf(cfg.NumNodes, cfg.ZipfS)
	r.total = int64(cfg.Rate * cfg.Duration.Seconds())
	if r.total < 1 {
		r.total = 1
	}

	if err := r.probe(ctx); err != nil {
		return nil, err
	}

	workers := make([]*worker, cfg.Workers)
	var wg sync.WaitGroup
	r.start = time.Now()
	for wi := range workers {
		workers[wi] = &worker{}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			r.loop(ctx, w)
		}(workers[wi])
	}
	wg.Wait()
	wall := time.Since(r.start)

	// Merge the per-worker shards.
	var overall hist.Hist
	var perOp [numOps]hist.Hist
	var errsByOp [numOps]uint64
	var lastErr [numOps]string
	var maxLag int64
	for _, w := range workers {
		for op := range perOp {
			perOp[op].Merge(&w.hists[op])
			overall.Merge(&w.hists[op])
			errsByOp[op] += w.errs[op]
			if w.lastErr[op] != "" {
				lastErr[op] = w.lastErr[op]
			}
		}
		if w.maxLag > maxLag {
			maxLag = w.maxLag
		}
	}
	rep := &Report{
		TargetQPS:     cfg.Rate,
		DurationSec:   wall.Seconds(),
		AchievedQPS:   float64(overall.Count()) / wall.Seconds(),
		Requests:      overall.Count(),
		MaxSchedLagUs: float64(maxLag) / 1e3,
	}
	var totalErrs uint64
	var allErr string
	for _, e := range errsByOp {
		totalErrs += e
	}
	for _, m := range lastErr {
		if m != "" {
			allErr = m
		}
	}
	rep.Errors = totalErrs
	rep.Overall = opStats("overall", &overall, totalErrs, allErr)
	for op := Op(0); op < numOps; op++ {
		if cfg.Mix[op] == 0 && perOp[op].Count() == 0 {
			continue
		}
		rep.Ops = append(rep.Ops, opStats(op.String(), &perOp[op], errsByOp[op], lastErr[op]))
	}
	return rep, nil
}

// probe fails fast when the target is unreachable or unhealthy, so a
// misconfigured run reports one clear error instead of Rate*Duration
// connection failures.
func (r *runner) probe(ctx context.Context) error {
	pctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, r.cfg.BaseURL+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("loadgen: %v", err)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: target unreachable: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: target unhealthy: /healthz = %d", resp.StatusCode)
	}
	return nil
}

// loop claims schedule indices until the schedule (or ctx) ends.
func (r *runner) loop(ctx context.Context, w *worker) {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	perReq := float64(time.Second) / r.cfg.Rate
	for {
		i := r.next.Add(1) - 1
		if i >= r.total || ctx.Err() != nil {
			return
		}
		sched := r.start.Add(time.Duration(float64(i) * perReq))
		if d := time.Until(sched); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		} else if lag := -int64(d); lag > w.maxLag {
			w.maxLag = lag
		}
		op, err := r.issue(ctx, uint64(i))
		lat := time.Since(sched) // from *scheduled* start: CO-safe
		w.hists[op].Record(uint64(lat))
		if err != nil {
			w.errs[op]++
			w.lastErr[op] = err.Error()
		}
	}
}

// rng is the per-request splitmix64 stream (see zipf.go).
type rng struct{ s uint64 }

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	x := g.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *rng) unit() float64 { return unitFloat(g.next()) }

// pickOp maps a uniform draw through the cumulative mix.
func (r *runner) pickOp(u float64) Op {
	for op := Op(0); op < numOps-1; op++ {
		if u < r.cum[op] {
			return op
		}
	}
	return numOps - 1
}

// vertex draws a zipfian vertex id.
func (r *runner) vertex(g *rng) int32 { return r.zipf.Sample(g.unit()) }

// issue derives request i from its index and executes it. The returned
// Op is always valid, even on error.
func (r *runner) issue(ctx context.Context, i uint64) (Op, error) {
	// Decorrelate per-request streams: both the seed and the index pass
	// through the mixer before combining, so streams i and i+1 start at
	// unrelated states.
	g := &rng{s: splitmix64(r.cfg.Seed^0xdead4badc0ffee) ^ splitmix64(i)}
	op := r.pickOp(g.unit())
	switch op {
	case OpNeighbors:
		return op, r.get(ctx, "/neighbors?v="+strconv.Itoa(int(r.vertex(g))))
	case OpBatchJSON:
		ids := r.batchIDs(g)
		var body bytes.Buffer
		body.WriteString(`{"v":[`)
		for j, v := range ids {
			if j > 0 {
				body.WriteByte(',')
			}
			body.WriteString(strconv.Itoa(int(v)))
		}
		body.WriteString(`]}`)
		return op, r.post(ctx, "/neighbors", "application/json", body.Bytes())
	case OpBatchBinary:
		ids := r.batchIDs(g)
		return op, r.post(ctx, "/batch/neighbors", "application/octet-stream", serve.EncodeNeighborsRequest(ids))
	case OpHasEdge:
		u, v := r.vertex(g), r.vertex(g)
		return op, r.get(ctx, "/hasedge?u="+strconv.Itoa(int(u))+"&v="+strconv.Itoa(int(v)))
	case OpPageRank:
		// Fixed parameters on purpose: every PageRank request hits the
		// same (d, t) key, exercising the server's cache and, on
		// version changes, its miss-coalescing singleflight.
		return op, r.get(ctx, "/pagerank?t="+strconv.Itoa(r.cfg.PageRankT)+"&top=5")
	case OpUpdate:
		var body bytes.Buffer
		body.WriteString(`{"updates":[`)
		for j := 0; j < r.cfg.UpdateBatch; j++ {
			u := r.vertex(g)
			v := r.vertex(g)
			if u == v {
				v = (v + 1) % int32(r.cfg.NumNodes)
			}
			if j > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"u":%d,"v":%d,"delete":%v}`, u, v, g.next()%3 == 0)
		}
		body.WriteString(`]}`)
		return op, r.post(ctx, "/update", "application/json", body.Bytes())
	}
	return op, fmt.Errorf("loadgen: unreachable op %d", op)
}

func (r *runner) batchIDs(g *rng) []int32 {
	ids := make([]int32, r.cfg.BatchSize)
	for j := range ids {
		ids[j] = r.vertex(g)
	}
	return ids
}

func (r *runner) get(ctx context.Context, path string) error {
	return r.do(ctx, http.MethodGet, path, "", nil)
}

func (r *runner) post(ctx context.Context, path, contentType string, body []byte) error {
	return r.do(ctx, http.MethodPost, path, contentType, body)
}

func (r *runner) do(ctx context.Context, method, path, contentType string, body []byte) error {
	rctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, r.cfg.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		// Read enough of the body for a useful message, not all of it.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
