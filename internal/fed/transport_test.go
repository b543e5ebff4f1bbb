package fed

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"runtime"
	"testing"
)

// FuzzShardResponse feeds arbitrary bytes to the reply reader as a
// shard server's answer. It must never panic and never allocate much
// past the body cap, and a reply it accepts must be well formed: a
// three-digit status, a body within the cap, and — where net/http
// parses the same bytes as a reply that may carry a body — the body
// net/http reads.
func FuzzShardResponse(f *testing.F) {
	const limit = 1 << 10
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 16\r\n\r\n{\"error\":\"down\"}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\nX-Trailer: t\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Summary-Version: 16045690984833335023\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\nContent-Length: 2\n\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 2x0 OK\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		status, body, _, _, err := readResponse(br, limit)
		runtime.ReadMemStats(&after)
		// Growing a chunked body to the cap may overshoot it by a
		// constant factor, never by the declared size.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*limit+(16<<10) {
			t.Fatalf("reading a %d-byte reply allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		if status < 0 || status > 999 || len(body) > limit {
			t.Fatalf("accepted status %d with a %d-byte body", status, len(body))
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil || resp.StatusCode < 200 || resp.StatusCode == 204 || resp.StatusCode == 304 {
			return
		}
		want, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
		if err == nil && !bytes.Equal(body, want) {
			t.Fatalf("body %q, net/http reads %q", body, want)
		}
	})
}
