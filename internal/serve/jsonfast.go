package serve

// Hot-path response encoding. The query endpoints (/neighbors in all
// three forms, /hasedge) dominate a serving workload, and the generic
// encoding/json path allocates per request: a fresh encoder, reflection
// scratch, one copied neighbor slice per result. Under sustained load
// (cmd/loadgen) that garbage is the main GC pressure of the server, so
// the hot endpoints append their JSON by hand into pooled byte buffers
// instead — zero reflection, amortized zero allocation — while the cold
// endpoints (/stats, errors, everything mutable) keep the generic path.
//
// The hand-rolled bytes are pinned byte-identical to what
// json.NewEncoder(w).Encode(v) produced before (including the trailing
// newline) by TestFastJSONByteParity: clients cannot tell the encoder
// changed.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// respBufPool recycles response buffers across requests. Buffers that
// grew beyond maxPooledBuf (a pathological giant response) are dropped
// instead of pinned forever.
var respBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

const maxPooledBuf = 1 << 20

func acquireBuf() *[]byte { return respBufPool.Get().(*[]byte) }

func releaseBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	respBufPool.Put(bp)
}

// nbrEncoder is the per-request state of the neighbors hot path. The
// visit closure is bound once, when the encoder is constructed for the
// pool — handing a fresh closure to View.NeighborsBatch on every
// request would cost an allocation per request (the captured buffer
// escapes), which profiles as the single biggest allocation left on the
// single-vertex path.
type nbrEncoder struct {
	buf   []byte
	first bool
	visit func(v int32, nbrs []int32)
}

var nbrEncPool = sync.Pool{
	New: func() any {
		e := &nbrEncoder{buf: make([]byte, 0, 4096)}
		e.visit = func(v int32, nbrs []int32) {
			if !e.first {
				e.buf = append(e.buf, ',')
			}
			e.first = false
			e.buf = appendNeighborsResult(e.buf, v, nbrs)
		}
		return e
	},
}

func acquireNbrEncoder() *nbrEncoder {
	e := nbrEncPool.Get().(*nbrEncoder)
	e.buf = e.buf[:0]
	e.first = true
	return e
}

func releaseNbrEncoder(e *nbrEncoder) {
	if cap(e.buf) > maxPooledBuf {
		return
	}
	nbrEncPool.Put(e)
}

// writeRawJSON writes an already-encoded JSON body (which must include
// its trailing newline) with the given status.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	setContentLength(w, len(body))
	w.WriteHeader(status)
	w.Write(body)
}

// setContentLength declares the length of a finished reply body.
// net/http adds the header itself to a body that fits its 2 KB
// response buffer, and would send a longer one chunked.
func setContentLength(w http.ResponseWriter, n int) {
	if n > 2048 {
		w.Header().Set("Content-Length", strconv.Itoa(n))
	}
}

// appendNeighborsResult appends one NeighborsResult object:
// {"v":3,"degree":2,"neighbors":[1,2]} — field order and absence of
// whitespace match encoding/json on the struct exactly.
func appendNeighborsResult(buf []byte, v int32, nbrs []int32) []byte {
	buf = append(buf, `{"v":`...)
	buf = strconv.AppendInt(buf, int64(v), 10)
	buf = append(buf, `,"degree":`...)
	buf = strconv.AppendInt(buf, int64(len(nbrs)), 10)
	buf = append(buf, `,"neighbors":[`...)
	for i, u := range nbrs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(u), 10)
	}
	return append(buf, `]}`...)
}

// appendHasEdgeResult appends the /hasedge body. The old code encoded a
// map[string]any, and encoding/json sorts map keys — so the pinned
// order is alphabetical: exists, u, v.
func appendHasEdgeResult(buf []byte, u, v int32, exists bool) []byte {
	buf = append(buf, `{"exists":`...)
	buf = strconv.AppendBool(buf, exists)
	buf = append(buf, `,"u":`...)
	buf = strconv.AppendInt(buf, int64(u), 10)
	buf = append(buf, `,"v":`...)
	buf = strconv.AppendInt(buf, int64(v), 10)
	return append(buf, "}\n"...)
}

// writeJSON is the generic (cold-path) response writer. It encodes into
// a pooled buffer before touching the ResponseWriter, so an encoding
// failure becomes a clean 500 — previously json.NewEncoder(w).Encode ran
// after WriteHeader(200) and a failed marshal left the client a
// half-written 200 body with the error silently dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Encoding the error map cannot itself fail.
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	bp := acquireBuf()
	buf := append((*bp)[:0], b...)
	buf = append(buf, '\n')
	writeRawJSON(w, status, buf)
	*bp = buf
	releaseBuf(bp)
}

// int32Pool recycles the decoded id slices of the binary batch
// endpoint.
var int32Pool = sync.Pool{
	New: func() any {
		s := make([]int32, 0, 1024)
		return &s
	},
}

func acquireInt32s() *[]int32 { return int32Pool.Get().(*[]int32) }

func releaseInt32s(sp *[]int32) {
	if cap(*sp) > MaxBatchItems {
		return
	}
	*sp = (*sp)[:0]
	int32Pool.Put(sp)
}

// readAllInto reads r to EOF into buf (reusing its capacity), returning
// the filled slice. It is io.ReadAll with a caller-owned buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return buf, nil
			}
			return buf, err
		}
	}
}
