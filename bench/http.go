package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Loopback plumbing: an in-process HTTP server per layer under test and
// the closed-loop client that drives it. One process, real sockets,
// keep-alive, one connection.

// clientTimeout is what a failed operation's latency is recorded as.
const clientTimeout = 5 * time.Second

type server struct {
	base string
	srv  *http.Server
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: clientTimeout},
		done: make(chan error, 1), // one send, from the Serve goroutine
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for the
// serving goroutine to end.
func (s *server) stop() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// client is one closed-loop caller: one connection, one run-scoped
// context (a per-request timer would put the generator's own cost into
// every latency), one reusable response buffer.
type client struct {
	ctx  context.Context
	hc   *http.Client
	base string
	buf  []byte
}

func newClient(ctx context.Context, base string) *client {
	return &client{
		ctx:  ctx,
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true,
		}},
		buf: make([]byte, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one operation and reads the whole reply. ok means a 2xx
// status with a non-empty body; the body is valid until the next call.
func (c *client) do(o *op) (body []byte, ok bool) {
	return c.request(o.method(), c.base+string(o.path), o.body)
}

// send is do for a request spelled out by the caller.
func (c *client) send(method, path string, reqBody []byte) (body []byte, ok bool) {
	return c.request(method, c.base+path, reqBody)
}

func (c *client) request(method, url string, reqBody []byte) (body []byte, ok bool) {
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, url, rd)
	if err != nil {
		return nil, false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false
	}
	n := 0
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
		m, rerr := resp.Body.Read(c.buf[n:])
		n += m
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			resp.Body.Close()
			return nil, false
		}
	}
	resp.Body.Close()
	return c.buf[:n], resp.StatusCode/100 == 2 && n > 0
}

// segment is one stretch of a closed-loop run: operations [lo, hi) of
// the list, sent between two calibrations.
type segment struct {
	lo, hi int
	wall   time.Duration
	calib  time.Duration // the slower of the bracketing calibrations
	steal  float64       // share of CPU time the hypervisor took meanwhile
}

// loopResult is what a closed-loop run measured: one latency per
// operation, in list order, and the run's segments.
type loopResult struct {
	attempted int
	failed    int
	lat       []time.Duration
	segs      []segment
}

// runClosedLoop sends the list over one connection, the next operation
// when the previous reply is complete. One client, not one per core:
// the client and the server's goroutines already keep the reference
// box's two cores busy between them, and a second client only measures
// how the scheduler shares them (README, sizing findings). The list is
// sent in segments of segOps operations; the noise guard's calibration
// kernel runs in the gaps, on an otherwise idle process. The connection
// is opened before the first segment.
func runClosedLoop(ctx context.Context, base string, ops *opList, segOps int) loopResult {
	res := loopResult{attempted: ops.len(), lat: make([]time.Duration, ops.len())}
	c := newClient(ctx, base)
	defer c.close()
	c.send(http.MethodGet, "/healthz", nil)
	prev := calibrateMin(segCalibs)
	for lo := 0; lo < ops.len(); lo += segOps {
		seg := segment{lo: lo, hi: min(lo+segOps, ops.len())}
		meter := startSteal()
		t0 := time.Now()
		for i := seg.lo; i < seg.hi; i++ {
			o := ops.at(i)
			s0 := time.Now()
			_, ok := c.do(&o)
			d := time.Since(s0)
			if !ok {
				d = clientTimeout
				res.failed++
			}
			res.lat[i] = d
		}
		seg.wall = time.Since(t0)
		seg.steal = meter.share()
		next := calibrateMin(segCalibs)
		seg.calib, prev = max(prev, next), next
		res.segs = append(res.segs, seg)
	}
	return res
}

// recorder is the response sink for calling a handler with no socket:
// it keeps the status and counts the bytes.
type recorder struct {
	hdr    http.Header
	status int
	n      int
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) reset() {
	clear(r.hdr)
	r.status, r.n = 0, 0
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.n += len(b)
	return len(b), nil
}

func (r *recorder) ok() bool { return r.status/100 == 2 && r.n > 0 }

// serveDirect hands the op's request to h with no socket in between.
func serveDirect(ctx context.Context, h http.Handler, rec *recorder, o *op) error {
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method(), "http://bench.invalid"+string(o.path), rd)
	if err != nil {
		return err
	}
	rec.reset()
	h.ServeHTTP(rec, req)
	if !rec.ok() {
		return fmt.Errorf("handler answered %d with %d bytes for %s %s", rec.status, rec.n, o.method(), o.path)
	}
	return nil
}
